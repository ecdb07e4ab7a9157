import numpy as np
import numpy.testing as npt
import pytest

from qmapkit import t2fit


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


def _uniform_ctx(weight, theta, echo_times=(0.012, 0.024, 0.040), nz=9):
    z = np.linspace(-1.0, 1.0, nz)
    return t2fit.EchoModelContext(
        weights=np.full(nz, weight, dtype=complex),
        theta_z=np.full(nz, theta),
        echo_times=echo_times,
        z_samples=z,
    )


def test_context_validation():
    with pytest.raises(ValueError):
        _uniform_ctx(1.0, np.pi, echo_times=(0.012, 0.024))
    with pytest.raises(ValueError):
        _uniform_ctx(1.0, np.pi, echo_times=(0.024, 0.012, 0.040))
    with pytest.raises(ValueError):
        t2fit.EchoModelContext(weights=np.ones(3), theta_z=np.ones(4),
                               echo_times=(0.01, 0.02, 0.03),
                               z_samples=np.zeros(3))


def test_predict_echoes_uniform_profile():
    ctx = _uniform_ctx(0.5, 2.0 * np.pi / 3.0)
    # integral of the constant weight: 0.5 * 9 samples * 0.25 spacing
    gain = 0.5 * 9 * 0.25
    pred = t2fit.predict_echoes(2.0, 0.08, ctx)
    f = np.array([0.75, 0.5625, 0.28125])
    dts = np.array([0.012, 0.024, 0.040])
    npt.assert_allclose(pred, 2.0 * gain * f * np.exp(-dts / 0.08),
                        rtol=1e-12)


def test_loglinear_init_recovers_pure_exponential():
    ctx = _uniform_ctx(1.0, np.pi)
    basis = t2fit.echo_basis(ctx)
    dts = np.array(ctx.echo_times)
    echoes = 3.0 * basis * np.exp(-dts / 0.1)
    amp, t2 = t2fit.loglinear_init(echoes, ctx)
    assert amp == pytest.approx(3.0, rel=1e-9)
    assert t2 == pytest.approx(0.1, rel=1e-9)


def test_fit_t2_joint_two_segment_recovery():
    ctx1 = _uniform_ctx(np.sin(np.pi / 3.0), 0.9 * np.pi)
    ctx2 = _uniform_ctx(np.sin(2.0 * np.pi / 3.0), 0.9 * np.pi)
    for t2_true in (0.04, 0.08, 0.15):
        e1 = t2fit.predict_echoes(1.3, t2_true, ctx1)
        e2 = t2fit.predict_echoes(1.3, t2_true, ctx2)
        fit = t2fit.fit_t2(e1, e2, ctx1, ctx2)
        assert fit.valid and not fit.at_bound
        assert fit.t2 == pytest.approx(t2_true, rel=1e-6)
        assert fit.amp == pytest.approx(1.3, rel=1e-6)


def test_fit_t2_flags_bound_when_decay_unresolvable():
    ctx = _uniform_ctx(1.0, np.pi)
    flat = t2fit.echo_basis(ctx)          # no decay at all
    fit = t2fit.fit_t2(flat, flat, ctx, ctx)
    assert fit.valid and fit.at_bound
    assert fit.t2 == pytest.approx(3.0)


def test_fit_t2_zero_data_invalid():
    ctx = _uniform_ctx(1.0, np.pi)
    fit = t2fit.fit_t2(np.zeros(3), np.zeros(3), ctx, ctx)
    assert not fit.valid
    with pytest.raises(ValueError):
        t2fit.fit_t2(np.zeros(4), np.zeros(3), ctx, ctx)

