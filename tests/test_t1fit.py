from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from qmapkit import t1fit


def _random_ctx(rng, mz0=None):
    nz = 17
    z = np.linspace(-0.002, 0.002, nz)
    pts = np.sort(rng.uniform(0.25, 1.3, 2))
    return t1fit.T1Context(
        probe_txr=rng.uniform(0.2, 0.6, nz)
        * np.exp(1j * rng.uniform(-0.3, 0.3, nz)),
        probe_mzf=rng.uniform(0.75, 0.99, nz),
        imaging_txr=rng.uniform(0.5, 0.9, nz)
        * np.exp(1j * rng.uniform(-0.3, 0.3, nz)),
        z_samples=z,
        times=(pts[0], pts[1], pts[1] + rng.uniform(0.1, 0.4)),
        echo_time=0.002,
        mz0=rng.uniform(-0.3, 0.3) if mz0 is None else mz0,
    )


def test_residual_mz0_worked_values():
    assert t1fit.residual_mz0(1.5, 0.5, 1.0, np.pi / 4.0) == pytest.approx(2.0)
    assert t1fit.residual_mz0(3.0, 0.0, 2.0, np.pi / 3.0) == pytest.approx(
        3.0 / (2.0 * np.sqrt(3.0)))
    # The default 90-degree saturation leaves (numerically) nothing behind.
    assert t1fit.residual_mz0(1.0, 0.2, 0.9) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        t1fit.residual_mz0(1.0, 0.0, 0.0)


def test_context_validation():
    rng = np.random.default_rng(0)
    ctx = _random_ctx(rng)
    with pytest.raises(ValueError):
        t1fit.T1Context(
            probe_txr=ctx.probe_txr, probe_mzf=ctx.probe_mzf,
            imaging_txr=ctx.imaging_txr, z_samples=ctx.z_samples,
            times=(0.8, 0.4, 1.2), echo_time=0.002, mz0=0.0)
    with pytest.raises(ValueError):
        t1fit.T1Context(
            probe_txr=ctx.probe_txr, probe_mzf=ctx.probe_mzf,
            imaging_txr=ctx.imaging_txr, z_samples=ctx.z_samples,
            times=(0.4, 0.8, 1.2), echo_time=0.5, mz0=0.0)
    with pytest.raises(ValueError):
        t1fit.T1Context(
            probe_txr=ctx.probe_txr, probe_mzf=ctx.probe_mzf,
            imaging_txr=ctx.imaging_txr, z_samples=np.zeros(3),
            times=(0.4, 0.8, 1.2), echo_time=0.002, mz0=0.0)


def test_recovery_signals_match_independent_trace():
    # Re-derive the three readouts with a literal per-position walk written
    # from scratch: recover, read out, consume, repeat.
    rng = np.random.default_rng(42)
    for _ in range(5):
        ctx = _random_ctx(rng)
        t1 = rng.uniform(0.15, 2.5)
        m0 = rng.uniform(0.4, 2.0)
        s1, s2, s3, mz_final = t1fit.recovery_signals(t1, m0, ctx)

        h = ctx.z_samples[1] - ctx.z_samples[0]
        pulse_times = [t - ctx.echo_time for t in ctx.times]
        expect = []
        mz_ref = np.empty(ctx.z_samples.size)
        for i in range(ctx.z_samples.size):
            mz = ctx.mz0
            t_prev = 0.0
            reads = []
            for j, pt in enumerate(pulse_times):
                mz = m0 + (mz - m0) * np.exp(-(pt - t_prev) / t1)
                if j < 2:
                    reads.append(ctx.probe_txr[i] * mz)
                    mz = mz * ctx.probe_mzf[i]
                else:
                    reads.append(ctx.imaging_txr[i] * mz)
                t_prev = pt
            expect.append(reads)
            mz_ref[i] = mz
        sums = np.array(expect).sum(axis=0) * h
        npt.assert_allclose([s1, s2, s3], sums, rtol=1e-12)
        npt.assert_allclose(mz_final, mz_ref, rtol=1e-12)


def test_predicted_signals_monotone_in_recovery():
    rng = np.random.default_rng(1)
    ctx = _random_ctx(rng, mz0=0.0)
    # Shorter T1 recovers faster: every readout grows as T1 shrinks.
    fast = t1fit.predict_probe_signals(0.3, 1.0, ctx)
    slow = t1fit.predict_probe_signals(1.5, 1.0, ctx)
    assert np.all(fast > slow)
    # Scaling m0 scales every signal linearly.
    npt.assert_allclose(t1fit.predict_probe_signals(0.8, 2.0, ctx),
                        2.0 * t1fit.predict_probe_signals(0.8, 1.0, ctx),
                        rtol=1e-12)


def test_echo_scale_multiplies_predictions():
    rng = np.random.default_rng(2)
    base = _random_ctx(rng, mz0=0.0)
    scaled = t1fit.T1Context(
        probe_txr=base.probe_txr, probe_mzf=base.probe_mzf,
        imaging_txr=base.imaging_txr, z_samples=base.z_samples,
        times=base.times, echo_time=base.echo_time, mz0=0.0,
        echo_scale=0.7)
    npt.assert_allclose(t1fit.predict_probe_signals(0.9, 1.1, scaled),
                        0.7 * t1fit.predict_probe_signals(0.9, 1.1, base),
                        rtol=1e-12)


def test_fit_recovers_known_parameters():
    rng = np.random.default_rng(3)
    ctx = _random_ctx(rng, mz0=0.0)
    for t1_true, m0_true in ((0.3, 1.0), (0.8, 0.6), (1.4, 1.7)):
        meas = t1fit.predict_probe_signals(t1_true, m0_true, ctx)
        fit = t1fit.fit_t1_m0(meas, ctx)
        assert fit.valid and not fit.at_bound
        assert fit.t1 == pytest.approx(t1_true, rel=1e-6)
        assert fit.m0 == pytest.approx(m0_true, rel=1e-6)
        assert fit.t1_over_m0 == pytest.approx(t1_true / m0_true, rel=1e-6)


def test_fit_flags_t1_pinned_at_a_bound():
    # A true T1 outside the bounds pins the fit at the nearer end; m0 stays
    # positive, so valid alone cannot tell.
    base = _random_ctx(np.random.default_rng(3), mz0=0.0)
    for t1_true, bounds, edge in ((0.8, (0.05, 0.5), 0.5),
                                  (0.1, (0.3, 5.0), 0.3)):
        ctx = replace(base, t1_bounds=bounds)
        fit = t1fit.fit_t1_m0(
            t1fit.predict_probe_signals(t1_true, 1.0, ctx), ctx)
        assert fit.t1 == pytest.approx(edge, rel=1e-9)
        assert fit.valid and fit.at_bound


def test_fit_zero_data_invalid():
    rng = np.random.default_rng(4)
    ctx = _random_ctx(rng)
    fit = t1fit.fit_t1_m0(np.zeros(3), ctx)
    assert not fit.valid and fit.t1 == 0.0
    with pytest.raises(ValueError):
        t1fit.fit_t1_m0(np.ones(4), ctx)
