import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from qmapkit import bloch, seqsim


def test_hard_pulse_tips_by_flip():
    for k in (0.5, 1.0, 1.3):
        for flip in (np.pi / 6, np.pi / 3, np.pi / 2):
            prof = bloch.slice_profile(bloch.hard_pulse(flip), k,
                                       np.array([0.0]))
            txr = bloch.transverse_response(prof)[0]
            mz = bloch.longitudinal_response(prof)[0]
            npt.assert_allclose(abs(txr), abs(np.sin(k * flip)), atol=1e-12)
            npt.assert_allclose(mz, np.cos(k * flip), atol=1e-12)


def test_phase_zero_pulse_tips_toward_plus_y():
    prof = bloch.slice_profile(bloch.hard_pulse(np.pi / 2), 1.0,
                               np.array([0.0]))
    txr = bloch.transverse_response(prof)[0]
    npt.assert_allclose(txr, 1j, atol=1e-12)


def test_rotations_are_orthogonal():
    pulse = bloch.hamming_sinc_pulse(np.pi / 2, 1e-3, 4e-3)
    z = bloch.default_z_grid(4e-3)
    rot = bloch.slice_profile(pulse, 1.13, z).rotations
    gram = np.einsum("zij,zkj->zik", rot, rot)
    npt.assert_allclose(gram, np.broadcast_to(np.eye(3), gram.shape),
                        atol=1e-9)
    npt.assert_allclose(np.linalg.det(rot), 1.0, atol=1e-9)


def test_zero_scale_gives_identity():
    pulse = bloch.hamming_sinc_pulse(np.pi / 3, 1e-3, 4e-3)
    z = bloch.default_z_grid(4e-3, n=17)
    rot = bloch.slice_profile(pulse, 0.0, z).rotations
    npt.assert_array_equal(rot, np.broadcast_to(np.eye(3), rot.shape))


def test_small_tip_profile_matches_fourier_synthesis():
    # In the small-tip limit the transverse response is the linear
    # superposition of each piece's tip, precessed to the pulse end and
    # rephased to its center.
    pulse = bloch.hamming_sinc_pulse(np.deg2rad(5.0), 1e-3, 4e-3,
                                     phase=-np.pi / 2)
    z = bloch.default_z_grid(4e-3)
    prof = bloch.rephased(bloch.slice_profile(pulse, 1.0, z), pulse)
    txr = bloch.transverse_response(prof)
    n = pulse.samples.size
    tm = (np.arange(n) + 0.5) * pulse.dt
    phase = np.exp(1j * pulse.slice_gradient * z[:, None]
                   * (pulse.duration / 2.0 - tm[None, :]))
    pred = 1j * (phase * pulse.samples[None, :] * pulse.dt).sum(axis=1)
    rms = np.sqrt(np.mean(np.abs(txr - pred) ** 2)) / np.max(np.abs(txr))
    assert rms < 0.02


def test_integrated_curve_matches_per_scale_profiles():
    pulse = bloch.hamming_sinc_pulse(np.pi / 3, 1e-3, 4e-3, n_pieces=64)
    z = bloch.default_z_grid(4e-3, n=33)
    ks = np.array([0.0, 0.4, 1.0, 1.7])
    curve = bloch.integrated_transverse_curve(pulse, ks, z)
    for i, k in enumerate(ks):
        prof = bloch.rephased(bloch.slice_profile(pulse, k, z), pulse)
        ref = bloch.integrate_slice(bloch.transverse_response(prof), z)
        npt.assert_allclose(curve[i], ref, rtol=1e-12, atol=1e-15)


def test_rephased_removes_linear_phase():
    pulse = bloch.hamming_sinc_pulse(np.pi / 6, 1e-3, 4e-3, phase=-np.pi / 2)
    z = bloch.default_z_grid(4e-3)
    raw = bloch.slice_profile(pulse, 1.0, z)
    fixed = bloch.rephased(raw, pulse)
    # A small in-slice tip is nearly real-positive only after rephasing.
    center = np.abs(z) < 1e-3
    txr = bloch.transverse_response(fixed)[center]
    assert np.all(txr.real > 0)
    assert np.max(np.abs(np.angle(txr))) < 0.2
    assert np.max(np.abs(np.angle(
        bloch.transverse_response(raw)[center]))) > 1.0


def test_riemann_sum_linear_ramp():
    z = np.linspace(-0.008, 0.008, 129)
    h = z[1] - z[0]
    vals = 3.0 * z + 0.5
    got = bloch.integrate_slice(vals, z)
    # The midpoint rule is exact for linear integrands over the
    # half-cell-extended span.
    lo, hi = z[0] - h / 2.0, z[-1] + h / 2.0
    ref = 1.5 * (hi ** 2 - lo ** 2) + 0.5 * (hi - lo)
    assert abs(got - ref) / abs(ref) < 1e-3


def test_integrate_slice_constant_and_single_sample():
    z = np.linspace(-1.0, 1.0, 21)
    npt.assert_allclose(bloch.integrate_slice(np.full(21, 2.0), z),
                        2.0 * 21 * 0.1)
    assert bloch.integrate_slice(np.array([3.0]), np.array([0.0])) == 3.0
    with pytest.raises(ValueError):
        bloch.integrate_slice(np.ones(3), z)


def test_pulse_validation():
    with pytest.raises(ValueError):
        bloch.RfPulse(samples=np.array([]), dt=1e-5)
    with pytest.raises(ValueError):
        bloch.RfPulse(samples=np.array([1.0]), dt=0.0)
    with pytest.raises(ValueError):
        bloch.hamming_sinc_pulse(np.pi / 2, -1e-3, 4e-3)


def _rodrigues_profile(pulse, k, z):
    """Reference: the per-piece 3x3 Rodrigues product, rotating by
    ``omega*dt`` about ``(-Re(amp), -Im(amp), dw)/omega``; pieces with zero
    scaled amplitude are skipped."""
    rot = np.broadcast_to(np.eye(3), (z.size, 3, 3)).copy()
    dw = pulse.slice_gradient * z
    for sample in pulse.samples:
        amp = k * sample
        if amp == 0.0:
            continue
        omega = np.sqrt(abs(amp) ** 2 + dw ** 2)
        n = np.stack([np.full_like(dw, -amp.real), np.full_like(dw, -amp.imag),
                      dw]) / omega
        c, s = np.cos(omega * pulse.dt), np.sin(omega * pulse.dt)
        cross = np.array([[0 * n[0], -n[2], n[1]],
                          [n[2], 0 * n[0], -n[0]],
                          [-n[1], n[0], 0 * n[0]]])
        piece = (c * np.eye(3)[:, :, None] + s * cross
                 + (1 - c) * n[:, None] * n[None, :])
        rot = np.einsum("ijz,zjk->zik", piece, rot)
    return rot


@pytest.mark.parametrize("k", [0.0, 0.3, 0.85, 1.0, 1.37])
def test_kernel_matches_rodrigues_product(k):
    pulses = seqsim.build_pulses()
    z = pulses.z_grid()
    img = pulses.imaging
    doubled = bloch.RfPulse(samples=2.0 * img.samples, dt=img.dt,
                            slice_gradient=img.slice_gradient)
    for pulse in (pulses.sat, pulses.probe, img, doubled, pulses.inversion):
        ref = _rodrigues_profile(pulse, k, z)
        phi = -pulse.slice_gradient * z * pulse.duration / 2.0
        ref_txr = (ref[:, 0, 2] + 1j * ref[:, 1, 2]) * np.exp(1j * phi)
        # The angle from sin and cos together, precise near pi.
        axis = np.stack([ref[:, 2, 1] - ref[:, 1, 2],
                         ref[:, 0, 2] - ref[:, 2, 0],
                         ref[:, 1, 0] - ref[:, 0, 1]])
        ref_theta = np.arctan2(np.linalg.norm(axis, axis=0) / 2.0,
                               (np.trace(ref, axis1=1, axis2=2) - 1.0) / 2.0)
        alpha, beta = bloch.cayley_klein(pulse, k, z)
        npt.assert_allclose(bloch.transverse(pulse, alpha, beta, z), ref_txr,
                            rtol=0, atol=1e-12)
        npt.assert_allclose(bloch.longitudinal(alpha, beta), ref[:, 2, 2],
                            rtol=0, atol=1e-12)
        npt.assert_allclose(bloch.refocusing_angle(alpha), ref_theta,
                            rtol=0, atol=1e-6)


@given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
       st.floats(-2.0, 2.0))
def test_single_piece_is_unitary(re, im, gradient, k):
    pulse = bloch.RfPulse(samples=np.array([re + 1j * im]), dt=1e-4,
                          slice_gradient=gradient)
    alpha, beta = bloch.cayley_klein(pulse, k, np.array([-1.0, 0.0, 0.7]))
    npt.assert_allclose(np.abs(alpha) ** 2 + np.abs(beta) ** 2, 1.0,
                        rtol=0, atol=1e-12)
