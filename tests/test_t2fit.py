import numpy as np
import numpy.testing as npt
import pytest

from qmapkit import seqsim, t2fit


def test_attenuation_perfect_refocusing_is_exact():
    for n in (1, 2, 3):
        assert t2fit.echo_attenuation(n, np.pi) == 1.0


def test_attenuation_at_two_thirds_pi():
    theta = 2.0 * np.pi / 3.0
    npt.assert_allclose(t2fit.echo_attenuation(1, theta), 0.75, atol=1e-12)
    npt.assert_allclose(t2fit.echo_attenuation(2, theta), 0.5625, atol=1e-12)
    npt.assert_allclose(t2fit.echo_attenuation(3, theta), 0.28125,
                        atol=1e-12)


def test_attenuation_vanishing_pulse_and_bad_index():
    for n in (1, 2, 3):
        assert t2fit.echo_attenuation(n, 0.0) == pytest.approx(0.0, abs=1e-30)
    out = t2fit.echo_attenuation(1, np.array([0.0, np.pi]))
    npt.assert_allclose(out, [0.0, 1.0])
    with pytest.raises(ValueError):
        t2fit.echo_attenuation(4, 1.0)


ECHO_TIMES = (0.012, 0.024, 0.040)
T2_BOUNDS = (0.005, 3.0)


def _uniform_basis(weight, theta, nz=9):
    z = np.linspace(-1.0, 1.0, nz)
    return t2fit.echo_basis(np.full(nz, weight, dtype=complex),
                            np.full(nz, theta), z)


def test_echo_basis_keeps_leading_axes():
    rng = np.random.default_rng(0)
    z = np.linspace(-1.0, 1.0, 9)
    w = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
    theta = rng.uniform(0.5 * np.pi, np.pi, (4, 9))
    stacked = t2fit.echo_basis(w, theta, z)
    assert stacked.shape == (4, 3)
    for i in range(4):
        npt.assert_array_equal(stacked[i], t2fit.echo_basis(w[i], theta[i], z))


def test_predict_echoes_uniform_profile():
    basis = _uniform_basis(0.5, 2.0 * np.pi / 3.0)
    # integral of the constant weight: 0.5 * 9 samples * 0.25 spacing
    gain = 0.5 * 9 * 0.25
    pred = t2fit.predict_echoes(2.0, basis, np.divide(ECHO_TIMES, 0.08))
    f = np.array([0.75, 0.5625, 0.28125])
    dts = np.array(ECHO_TIMES)
    npt.assert_allclose(pred, 2.0 * gain * f * np.exp(-dts / 0.08),
                        rtol=1e-12)


def test_fit_t2_joint_two_segment_recovery():
    basis1 = _uniform_basis(np.sin(np.pi / 3.0), 0.9 * np.pi)
    basis2 = _uniform_basis(np.sin(2.0 * np.pi / 3.0), 0.9 * np.pi)
    for t2_true in (0.04, 0.08, 0.15):
        e1 = t2fit.predict_echoes(1.3, basis1,
                                   np.divide(ECHO_TIMES, t2_true))
        e2 = t2fit.predict_echoes(1.3, basis2,
                                   np.divide(ECHO_TIMES, t2_true))
        fit = t2fit.fit_t2(e1, e2, basis1, basis2, ECHO_TIMES, T2_BOUNDS)
        assert fit.valid and not fit.at_bound
        assert fit.t2 == pytest.approx(t2_true, rel=1e-6)
        assert fit.amp == pytest.approx(1.3, rel=1e-6)


def test_fit_t2_flags_bound_when_decay_unresolvable():
    flat = _uniform_basis(1.0, np.pi)          # no decay at all
    fit = t2fit.fit_t2(flat, flat, flat, flat, ECHO_TIMES, T2_BOUNDS)
    assert fit.valid and fit.at_bound
    assert fit.t2 == pytest.approx(3.0)


def test_fit_t2_zero_data_invalid():
    basis = _uniform_basis(1.0, np.pi)
    fit = t2fit.fit_t2(np.zeros(3), np.zeros(3), basis, basis, ECHO_TIMES,
                       T2_BOUNDS)
    assert not fit.valid
    with pytest.raises(ValueError):
        t2fit.fit_t2(np.zeros(4), np.zeros(3), basis, basis, ECHO_TIMES,
                     T2_BOUNDS)


def _scan_minimum(e1, e2, basis1, basis2, t2s):
    # Least-squares cost with the amplitude projected out, at every t2s.
    decay = np.exp(-np.array(ECHO_TIMES) / t2s[:, np.newaxis])
    g = np.concatenate([basis1 * decay, basis2 * decay], axis=1)
    d = np.concatenate([e1, e2])
    amp = np.maximum(g @ d / np.sum(g * g, axis=1), 0.0)
    r = amp[:, np.newaxis] * g - d
    return np.min(np.sum(r * r, axis=1))


def test_fit_t2_reaches_dense_scan_minimum():
    # Echo sets on the protocol's slice-resolved bases at three transmit
    # scales, with the bottle phantom's signal and noise levels.
    timing = seqsim.default_timing()
    assert tuple(timing.echo_offsets) == ECHO_TIMES
    profs = seqsim.pixel_profiles(seqsim.build_pulses(seqsim.PulseParams(),
                                                      timing),
                                  np.array([0.7, 1.0, 1.3]))
    rng = np.random.default_rng(3)
    scan = np.geomspace(*T2_BOUNDS, 100_001)
    for basis1, basis2 in zip(*profs.echo_bases):
        for t2_true in (0.04, 0.08, 0.15, 0.6):
            e1, e2 = (np.abs(t2fit.predict_echoes(
                0.7, b, np.divide(ECHO_TIMES, t2_true))
                             + 1e-4 * rng.standard_normal(3))
                      for b in (basis1, basis2))
            fit = t2fit.fit_t2(e1, e2, basis1, basis2, ECHO_TIMES, T2_BOUNDS)
            best = _scan_minimum(e1, e2, basis1, basis2, scan)
            assert fit.cost <= best * (1.0 + 1e-10)


def test_single_pixel_fit_equals_the_array_rows():
    # fit_t2 is the array fit at one pixel: every field bit-equal to that
    # pixel's row of a batch with per-pixel bases, including a pixel with
    # no echo and one pinned at a bound.
    timing = seqsim.default_timing()
    profs = seqsim.pixel_profiles(seqsim.build_pulses(seqsim.PulseParams(),
                                                      timing),
                                  np.array([0.7, 1.0, 1.3]))
    bases = np.concatenate(profs.echo_bases, axis=-1)[[0, 1, 2, 0, 1]]
    rng = np.random.default_rng(4)
    echoes = np.array([
        np.abs(t2fit.predict_echoes(0.7, b, np.tile(ECHO_TIMES, 2) / t2)
               + 1e-4 * rng.standard_normal(6))
        for t2, b in zip((0.04, 0.08, 0.15, 0.6), bases)] + [0.7 * bases[4]])
    echoes[3] = 0.0
    batch = t2fit.fit_t2_pixels(echoes, bases, ECHO_TIMES, T2_BOUNDS)
    assert not batch.valid[3] and batch.at_bound[4]
    for i in range(5):
        one = t2fit.fit_t2(echoes[i, :3], echoes[i, 3:], bases[i, :3],
                           bases[i, 3:], ECHO_TIMES, T2_BOUNDS)
        for name, value in one._asdict().items():
            assert type(value) is type(getattr(batch, name)[i].item())
            assert value == getattr(batch, name)[i], name
