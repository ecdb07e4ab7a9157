import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from qmapkit import bloch, seqsim

from conftest import DirectSeries, member_pulses


def test_hard_pulse_tips_by_flip():
    for k in (0.5, 1.0, 1.3):
        for flip in (np.pi / 6, np.pi / 3, np.pi / 2):
            prof = bloch.slice_profile(bloch.hard_pulse(flip), k,
                                       np.array([0.0]))
            txr = bloch.transverse_response(prof)[0]
            mz = prof.rotations[0, 2, 2]
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


@pytest.mark.parametrize("make", [
    lambda: bloch.hard_pulse(np.nan), lambda: bloch.hard_pulse(np.inf),
    lambda: bloch.hard_pulse(1.0, duration=np.inf),
    lambda: bloch.RfPulse(samples=np.array([1.0, 2.0]), dt=np.nan),
    lambda: bloch.RfPulse(samples=np.array([1.0, np.inf * 1j]), dt=1e-5),
    lambda: bloch.RfPulse(samples=np.array([1.0]), dt=1e-5,
                          slice_gradient=np.nan),
    lambda: bloch.hamming_sinc_pulse(np.inf, 1e-3, 4e-3),
    lambda: bloch.hamming_sinc_pulse(1.0, 1e-3, 4e-3, phase=np.inf),
], ids=["nan-flip", "inf-flip", "inf-duration", "nan-dt", "inf-sample",
        "nan-gradient", "inf-sinc-flip", "inf-sinc-phase"])
def test_pulse_rejects_non_finite_values(make):
    # Each was once accepted, and cayley_klein returned NaN; an infinite
    # sinc flip or phase once warned "invalid value encountered in
    # multiply" (an error under the suite's filterwarnings) first.
    with pytest.raises(ValueError, match="finite"):
        make()


def test_pulse_validation():
    with pytest.raises(ValueError):
        bloch.RfPulse(samples=np.array([]), dt=1e-5)
    with pytest.raises(ValueError):
        bloch.RfPulse(samples=np.array([1.0]), dt=0.0)
    with pytest.raises(ValueError):
        bloch.hamming_sinc_pulse(np.pi / 2, -1e-3, 4e-3)


def test_pulse_samples_must_share_one_rf_axis():
    # The kernel's mirror across z holds only for a field on one transverse
    # axis; negative lobes along -u are on that axis.
    for samples in ([1.0, 1j], [2.0, -1.0, 1.0 + 1e-3j]):
        with pytest.raises(ValueError, match="RF axis"):
            bloch.RfPulse(samples=np.array(samples), dt=1e-5)
    sinc = bloch.hamming_sinc_pulse(np.pi / 2, 1e-3, 4e-3, phase=0.3)
    with pytest.raises(ValueError, match="RF axis"):
        bloch.RfPulse(samples=sinc.samples
                      * np.exp(1e-3j * np.arange(sinc.samples.size)),
                      dt=sinc.dt, slice_gradient=sinc.slice_gradient)
    assert sinc.axis_phase == pytest.approx(0.3, abs=1e-15)
    # The off-axis part is measured against the peak: one at 1e-6 of the
    # peak is rejected, while subnormal samples, which round off the axis,
    # pass.
    with pytest.raises(ValueError, match="RF axis"):
        bloch.RfPulse(samples=np.array([1.0, 1e-6j]) * np.exp(0.7j),
                      dt=1e-5)
    opposed = bloch.RfPulse(samples=np.array([-2j, 1j, 0.0, 5e-324j]),
                            dt=1e-5)
    assert opposed.axis_phase == pytest.approx(-np.pi / 2, abs=1e-15)
    for samples in ([2.0, 5e-324], [3.0, -5e-324, 1e-310, 2.5e-320],
                    [1e-300, 4e-320]):
        for phase in (1.0, -2.1, 0.3):
            pulse = bloch.RfPulse(
                samples=np.array(samples) * np.exp(1j * phase), dt=1e-5)
            assert pulse.axis_phase == pytest.approx(phase, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 17, 33, 129])
def test_default_z_grid_is_mirror_symmetric_linspace(n):
    for thickness, factor in ((4e-3, 2.0), (3.3e-3, 1.5), (1.0, 0.7)):
        span = factor * thickness
        z = bloch.default_z_grid(thickness, n, factor)
        ref = np.linspace(-span, span, n)
        assert z.shape == (n,)
        assert np.all(np.abs(z - ref) <= np.spacing(span))
        if n == 1:
            npt.assert_array_equal(z, ref)
        else:
            npt.assert_array_equal(z, -z[::-1])
            assert z[0] == -span and z[-1] == span
            assert np.unique(np.abs(z)).size == (n + 1) // 2


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


@pytest.mark.parametrize("k", [0.0, 0.3, 0.85, 1.0, 1.37, 2.6])
def test_kernel_matches_rodrigues_product(k):
    z = seqsim.build_pulses().z_grid()
    for pulse in member_pulses():
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
        # Both halves of the slice, from the mirrored |z| propagation.
        npt.assert_allclose(bloch.slice_profile(pulse, k, z).rotations, ref,
                            rtol=0, atol=1e-12)


@pytest.mark.parametrize("z_units", [
    [-1.0, 0.0, 0.7],
    [0.7, -1.0, 0.0, 0.7, -0.7, 0.25, -1.0, 1.3, -0.25, 0.0],
], ids=["asymmetric", "unsorted-repeats"])
def test_any_grid_equals_per_position_calls(z_units):
    # Positions are propagated once per distinct |z| and scattered back,
    # so each entry is the one-position result, whatever the grid's order.
    z = 4e-3 * np.array(z_units)
    ks = np.array([0.0, 0.85, 2.6])
    probe, inversion, imaging, _, sat = member_pulses()
    for pulse in (sat, probe, imaging, inversion):
        alpha, beta = bloch.cayley_klein(pulse, ks, z)
        assert alpha.flags.c_contiguous and beta.flags.c_contiguous
        for i, j in np.ndindex(alpha.shape):
            a, b = bloch.cayley_klein(pulse, ks[i], z[j:j + 1])
            _assert_bit_equal(alpha[i, j:j + 1], a)
            _assert_bit_equal(beta[i, j:j + 1], b)
        ref = _rodrigues_profile(pulse, 1.37, z)
        npt.assert_allclose(bloch.slice_profile(pulse, 1.37, z).rotations,
                            ref, rtol=0, atol=1e-12)


def test_piece_block_size_does_not_change_bits(monkeypatch):
    pulse = bloch.hamming_sinc_pulse(np.pi / 2, 1e-3, 4e-3, n_pieces=48,
                                     phase=-np.pi / 2)
    z = bloch.default_z_grid(4e-3, n=33)
    ks = np.linspace(0.0, 2.0, 7)
    want = bloch.cayley_klein(pulse, ks, z)
    for elements in (1, 17 * 7 * 5, 10 ** 6):
        monkeypatch.setattr(bloch, "_BLOCK_ELEMENTS", elements)
        for got, ref in zip(bloch.cayley_klein(pulse, ks, z), want):
            _assert_bit_equal(got, ref)


@given(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
       st.floats(-2.0, 2.0))
def test_single_piece_is_unitary(re, im, gradient, k):
    pulse = bloch.RfPulse(samples=np.array([re + 1j * im]), dt=1e-4,
                          slice_gradient=gradient)
    alpha, beta = bloch.cayley_klein(pulse, k, np.array([-1.0, 0.0, 0.7]))
    npt.assert_allclose(np.abs(alpha) ** 2 + np.abs(beta) ** 2, 1.0,
                        rtol=0, atol=1e-12)


def _assert_bit_equal(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(), (3, 67)], ids=["scalar", "2d"])
def test_kernel_keeps_shape_and_equals_per_entry_calls(shape):
    pulse = bloch.hamming_sinc_pulse(np.pi / 3, 1e-3, 4e-3, n_pieces=32,
                                     phase=-np.pi / 2)
    z = bloch.default_z_grid(4e-3, n=33)
    ks = np.linspace(3.6, 0.0, max(int(np.prod(shape)), 1)).reshape(shape)
    alpha, beta = bloch.cayley_klein(pulse, ks, z)
    curve = bloch.integrated_transverse_curve(pulse, ks, z)
    assert alpha.shape == beta.shape == shape + (z.size,)
    assert curve.shape == np.atleast_1d(ks).shape
    for idx in np.ndindex(shape):
        a, b = bloch.cayley_klein(pulse, float(ks[idx]), z)
        _assert_bit_equal(alpha[idx], a)
        _assert_bit_equal(beta[idx], b)
        _assert_bit_equal(np.atleast_1d(curve[idx]),
                          bloch.integrated_transverse_curve(
                              pulse, float(ks[idx]), z))


def _sequential_product(pulse, ks, z):
    """Oracle: the full product of every non-zero piece, one piece at a
    time, at each ``|z|``, mirrored to ``-z``; the kernel's arithmetic
    without its time symmetry."""
    ks = np.asarray(ks, dtype=float)[..., None]
    z = np.atleast_1d(np.asarray(z, dtype=float))
    dw = np.where(ks != 0.0, pulse.slice_gradient * np.abs(z), 0.0)
    alpha = np.ones(dw.shape, dtype=complex)
    beta = np.zeros(dw.shape, dtype=complex)
    half_dt = pulse.dt / 2.0
    pieces = pulse.samples[pulse.samples != 0.0]
    for s in pieces.reshape((-1,) + (1,) * dw.ndim):
        omega = np.sqrt((ks * np.abs(s)) ** 2 + dw * dw)
        sin_over = np.sin(omega * half_dt) / np.where(omega == 0.0, 1.0, omega)
        a = np.cos(omega * half_dt) - 1j * dw * sin_over
        b = (1j * s) * ks * sin_over
        alpha, beta = a * alpha - b.conj() * beta, b * alpha + a.conj() * beta
    below = z < 0.0
    turn = np.exp(2j * pulse.axis_phase)
    return (np.where(below, alpha.conj(), alpha),
            np.where(below, np.multiply(-turn, beta.conj()), beta))


def _counted_pieces(monkeypatch):
    counted = []
    product = bloch._product

    def wrapped(samples, *args):
        counted.append(samples.size)
        return product(samples, *args)
    monkeypatch.setattr(bloch, "_product", wrapped)
    return counted


_HALF_PATH_Z = {
    "grid-with-0": bloch.default_z_grid(4e-3, n=33),
    "asymmetric": 4e-3 * np.array([-1.0, 0.0, 0.7, 0.25, 1.3, -0.7]),
}


@pytest.mark.parametrize("n_pieces", [2, 31, 48, 256])
def test_sinc_samples_are_mirror_symmetric(n_pieces):
    for phase in (0.0, -np.pi / 2, 0.3):
        pulse = bloch.hamming_sinc_pulse(np.pi / 2, 1e-3, 4e-3,
                                         n_pieces=n_pieces, phase=phase)
        npt.assert_array_equal(pulse.samples, pulse.samples[::-1])
        t = (np.arange(n_pieces) + 0.5) * pulse.dt - pulse.duration / 2.0
        envelope = np.sinc(4.0 / pulse.duration * t) * (
            0.54 + 0.46 * np.cos(2.0 * np.pi * t / pulse.duration))
        npt.assert_allclose(
            pulse.samples, np.pi / 2 / (envelope.sum() * pulse.dt)
            * envelope * np.exp(1j * phase), rtol=1e-13, atol=0)


@pytest.mark.parametrize("n_pieces", [31, 48, 256])
@pytest.mark.parametrize("z_name", sorted(_HALF_PATH_Z))
def test_half_path_matches_sequential_product(monkeypatch, n_pieces,
                                              z_name):
    # A symmetric pulse runs ceil(n/2) pieces through the product; the
    # rest follows from the time-reversal identity.
    z = _HALF_PATH_Z[z_name]
    ks = np.array([0.0, 0.3, 1.0, 2.6, 3.6])
    counted = _counted_pieces(monkeypatch)
    for phase in (0.0, -np.pi / 2, 0.3):
        pulse = bloch.hamming_sinc_pulse(np.pi / 2, 1e-3, 4e-3,
                                         n_pieces=n_pieces, phase=phase)
        counted.clear()
        alpha, beta = bloch.cayley_klein(pulse, ks, z)
        assert sum(counted) == (n_pieces + 1) // 2
        ref_alpha, ref_beta = _sequential_product(pulse, ks, z)
        npt.assert_allclose(alpha, ref_alpha, rtol=0, atol=1e-13)
        npt.assert_allclose(beta, ref_beta, rtol=0, atol=1e-13)


def test_asymmetric_pulses_keep_the_full_product(monkeypatch):
    opposed = bloch.RfPulse(samples=np.array([-2j, 1j, 0.0, 5e-324j]),
                            dt=1e-5, slice_gradient=3e5)
    sinc = bloch.hamming_sinc_pulse(np.pi / 2, 1e-3, 4e-3, n_pieces=48)
    nudged = sinc.samples.copy()
    nudged[0] = np.nextafter(nudged[0].real, np.inf)
    assert not np.array_equal(nudged, nudged[::-1])
    nudged = bloch.RfPulse(samples=nudged, dt=sinc.dt,
                           slice_gradient=sinc.slice_gradient)
    ks = np.array([0.0, 0.3, 1.0, 2.6, 3.6])
    counted = _counted_pieces(monkeypatch)
    for pulse, n_product in ((opposed, 3), (nudged, 48)):
        for z in _HALF_PATH_Z.values():
            counted.clear()
            got = bloch.cayley_klein(pulse, ks, z)
            assert counted == [n_product]
            for g, want in zip(got, _sequential_product(pulse, ks, z)):
                _assert_bit_equal(g, want)


# Real piece amplitudes in rad/s, down to subnormal ones (which round off
# the RF axis); zero pieces are dropped by the kernel.
_AMPLITUDES = st.one_of(st.just(0.0), st.floats(5e-324, 3e4),
                        st.floats(-3e4, -5e-324))


@given(st.lists(_AMPLITUDES, min_size=1, max_size=20), st.booleans(),
       st.floats(-np.pi, np.pi), st.floats(-1e6, 1e6), st.floats(0.0, 3.0))
def test_half_path_equals_full_path(half, odd, phase, gradient, k):
    envelope = np.array(half + half[:len(half) - odd][::-1])
    pulse = bloch.RfPulse(samples=envelope * np.exp(1j * phase), dt=1e-5,
                          slice_gradient=gradient)
    z = np.array([-2e-3, -1e-3, 0.0, 5e-4, 2e-3])
    alpha, beta = bloch.cayley_klein(pulse, k, z)
    ref_alpha, ref_beta = _sequential_product(pulse, k, z)
    npt.assert_allclose(alpha, ref_alpha, rtol=0, atol=1e-12)
    npt.assert_allclose(beta, ref_beta, rtol=0, atol=1e-12)
    npt.assert_allclose(np.abs(alpha) ** 2 + np.abs(beta) ** 2, 1.0,
                        rtol=0, atol=1e-12)


_SET_KS = {
    "scalar": 1.37,
    "1d": np.linspace(0.0, 1.8, 4),
    "2d": np.linspace(1.8, 0.0, 6).reshape(2, 3),
}


@pytest.mark.parametrize("shape", sorted(_SET_KS))
@pytest.mark.parametrize("hard, n_pieces", [
    (False, 256), (False, 31), (True, 256)], ids=["sinc", "sinc-31", "hard"])
def test_pulse_set_equals_single_pulse_calls(monkeypatch, hard, n_pieces,
                                             shape):
    # pixel_profiles reads the imaging shape once, here propagated, at |c| k
    # for each pulse c * shape of the set and each distinct k (sorted), and
    # turns beta by c / |c|: each pair is the call of the pulse built at its
    # own flip and RF phase to 1e-14 of the field's peak.
    params = seqsim.PulseParams(hard=hard, n_pieces=n_pieces)
    pulses = seqsim.build_pulses(params)
    z, k = pulses.z_grid(), _SET_KS[shape]
    ks = np.unique(k)
    calls = []
    kernel = bloch.cayley_klein

    def counted(*args):
        out = kernel(*args)
        calls.append([x.copy() for x in out])
        return out
    monkeypatch.setattr(bloch, "cayley_klein", counted)
    seqsim.pixel_profiles(pulses, k, DirectSeries(pulses))
    [(alpha, beta)] = calls
    for pulse, a, b in zip(member_pulses(params), alpha, beta):
        # Turned from the shape's RF phase, -90 degrees, to the pulse's.
        b *= np.exp(1j * (pulse.axis_phase + np.pi / 2))
        want_a, want_b = kernel(pulse, ks, z)
        assert a.shape == want_a.shape == ks.shape + z.shape
        npt.assert_allclose(a, want_a, rtol=0,
                            atol=1e-14 * np.max(np.abs(want_a)))
        npt.assert_allclose(b, want_b, rtol=0,
                            atol=1e-14 * np.max(np.abs(want_b)))


@pytest.mark.parametrize("hard, n_pieces", [(False, 48), (False, 31),
                                            (True, 256)])
def test_pulse_set_block_size_does_not_change_bits(monkeypatch, hard,
                                                   n_pieces):
    # Blocks of pieces (one piece per block at 1 element, all pieces in one
    # block at 10**6) change no bit of one pulse at a (5, n) scale array.
    pulse = seqsim.build_pulses(seqsim.PulseParams(
        hard=hard, n_pieces=n_pieces)).imaging
    z = bloch.default_z_grid(4e-3)
    scales = np.linspace(0.0, 3.6, 20).reshape(5, 4)
    want = bloch.cayley_klein(pulse, scales, z)
    for elements in (1, 17 * 7 * 5, 1000, 10 ** 6):
        monkeypatch.setattr(bloch, "_BLOCK_ELEMENTS", elements)
        for got, ref in zip(bloch.cayley_klein(pulse, scales, z), want):
            _assert_bit_equal(got, ref)


def test_series_reads_multiples_of_its_shape_only():
    # The series holds one shape: the pulse set's other pulses are mapped
    # onto it by seqsim.pixel_profiles (test_seqsim).
    sinc = bloch.hamming_sinc_pulse(np.pi / 3, 1e-3, 4e-3, n_pieces=48,
                                    phase=0.3)
    z = bloch.default_z_grid(4e-3, n=9)
    series = bloch.cayley_klein_series(sinc, 2.0, z)
    with pytest.raises(ValueError, match="beyond"):
        series.cayley_klein(2.1)
    for scales in (0.7, [[0.0, 0.7, 2.0], [0.2, 0.5, -2.0 / 3.0]]):
        got = series.cayley_klein(scales)
        for field, want in zip(got, bloch.cayley_klein(sinc, scales, z)):
            assert field.shape == want.shape == np.shape(scales) + z.shape
            assert field.flags.c_contiguous
            npt.assert_allclose(field, want, rtol=0, atol=1e-13)
