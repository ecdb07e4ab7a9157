from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from qmapkit import seqsim, t1fit


def _random_ctx(rng, residual=None):
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
        sat_residual=rng.uniform(-0.3, 0.3) if residual is None else residual,
    )


def test_context_validation():
    rng = np.random.default_rng(0)
    ctx = _random_ctx(rng)
    with pytest.raises(ValueError):
        t1fit.T1Context(
            probe_txr=ctx.probe_txr, probe_mzf=ctx.probe_mzf,
            imaging_txr=ctx.imaging_txr, z_samples=ctx.z_samples,
            times=(0.8, 0.4, 1.2), echo_time=0.002, sat_residual=0.0)
    with pytest.raises(ValueError):
        t1fit.T1Context(
            probe_txr=ctx.probe_txr, probe_mzf=ctx.probe_mzf,
            imaging_txr=ctx.imaging_txr, z_samples=ctx.z_samples,
            times=(0.4, 0.8, 1.2), echo_time=0.5, sat_residual=0.0)
    with pytest.raises(ValueError):
        t1fit.T1Context(
            probe_txr=ctx.probe_txr, probe_mzf=ctx.probe_mzf,
            imaging_txr=ctx.imaging_txr, z_samples=np.zeros(3),
            times=(0.4, 0.8, 1.2), echo_time=0.002, sat_residual=0.0)


def test_recovery_signals_match_independent_trace():
    # Re-derive the three readouts with a literal per-position walk written
    # from scratch: recover, read out, consume, repeat.
    rng = np.random.default_rng(42)
    for _ in range(5):
        ctx = _random_ctx(rng)
        t1 = rng.uniform(0.15, 2.5)
        m0 = rng.uniform(0.4, 2.0)
        (s1, s2, s3), _, mz_final = t1fit.recovery_signals(t1, m0, ctx)

        h = ctx.z_samples[1] - ctx.z_samples[0]
        pulse_times = [t - ctx.echo_time for t in ctx.times]
        expect = []
        mz_ref = np.empty(ctx.z_samples.size)
        for i in range(ctx.z_samples.size):
            mz = m0 * ctx.sat_residual
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


def test_recovery_signals_over_a_t1_array_and_their_slopes():
    # An array of T1 gives each scalar walk's result, and the slopes match
    # central differences in log T1.
    ctx = _random_ctx(np.random.default_rng(7))
    t1s = np.array([0.2, 0.7, 2.1])
    s, ds, mz = t1fit.recovery_signals(t1s, 1.3, ctx)
    assert s.shape == ds.shape == (3, 3)
    assert mz.shape == (3, ctx.z_samples.size)
    for i, t1 in enumerate(t1s):
        one, _, mz_one = t1fit.recovery_signals(t1, 1.3, ctx)
        npt.assert_allclose(s[i], one, rtol=1e-14)
        npt.assert_allclose(mz[i], mz_one, rtol=1e-14)
    h = 1e-6
    up, _, _ = t1fit.recovery_signals(t1s * np.exp(h), 1.3, ctx)
    down, _, _ = t1fit.recovery_signals(t1s * np.exp(-h), 1.3, ctx)
    npt.assert_allclose(ds, (up - down) / (2.0 * h), rtol=1e-6, atol=1e-12)
    mags, slopes = t1fit.predict_probe_signals(t1s, 1.3, ctx)
    npt.assert_array_equal(mags, np.abs(s))
    npt.assert_allclose(slopes, (np.abs(up) - np.abs(down)) / (2.0 * h),
                        rtol=1e-6, atol=1e-12)


def test_predicted_signals_monotone_in_recovery():
    rng = np.random.default_rng(1)
    ctx = _random_ctx(rng, residual=0.0)
    # Shorter T1 recovers faster: every readout grows as T1 shrinks.
    fast, _ = t1fit.predict_probe_signals(0.3, 1.0, ctx)
    slow, _ = t1fit.predict_probe_signals(1.5, 1.0, ctx)
    assert np.all(fast > slow)
    # Scaling m0 scales every signal linearly, with or without a residual.
    for ctx in (ctx, replace(ctx, sat_residual=-0.2)):
        npt.assert_allclose(t1fit.predict_probe_signals(0.8, 2.0, ctx)[0],
                            2.0 * t1fit.predict_probe_signals(0.8, 1.0, ctx)[0],
                            rtol=1e-12)


def _measure(t1, m0, ctx):
    # The three magnitudes as acquired: the walk times the echo-time factor.
    return ctx.echo_scale * t1fit.predict_probe_signals(t1, m0, ctx)[0]


def test_echo_scale_divides_m0_and_leaves_t1_bit_equal():
    base = _random_ctx(np.random.default_rng(2), residual=0.0)
    meas = _measure(0.9, 1.1, base)
    ref = t1fit.fit_t1_m0(meas, base)
    fit = t1fit.fit_t1_m0(meas, replace(base, echo_scale=0.7))
    assert fit.t1 == ref.t1 and fit.cost == ref.cost
    assert fit.m0 == pytest.approx(ref.m0 / 0.7, rel=1e-15)


def test_fit_recovers_known_parameters():
    rng = np.random.default_rng(3)
    for residual, echo_scale in ((0.0, 1.0), (0.4, 0.8), (-0.25, 0.95)):
        ctx = replace(_random_ctx(rng, residual=residual),
                      echo_scale=echo_scale)
        for t1_true, m0_true in ((0.3, 1.0), (0.8, 0.6), (1.4, 1.7)):
            fit = t1fit.fit_t1_m0(_measure(t1_true, m0_true, ctx), ctx)
            assert fit.valid and not fit.at_bound
            assert fit.t1 == pytest.approx(t1_true, rel=1e-6)
            assert fit.m0 == pytest.approx(m0_true, rel=1e-6)
            assert fit.t1_over_m0 == pytest.approx(t1_true / m0_true,
                                                   rel=1e-6)


def test_fit_flags_t1_pinned_at_a_bound():
    # A true T1 outside the bounds pins the fit at the nearer end; m0 stays
    # positive, so valid alone cannot tell.
    base = _random_ctx(np.random.default_rng(3), residual=0.0)
    for t1_true, bounds, edge in ((0.8, (0.05, 0.5), 0.5),
                                  (0.1, (0.3, 5.0), 0.3)):
        ctx = replace(base, t1_bounds=bounds)
        fit = t1fit.fit_t1_m0(_measure(t1_true, 1.0, ctx), ctx)
        assert fit.t1 == pytest.approx(edge, rel=1e-9)
        assert fit.valid and fit.at_bound


def test_fit_zero_data_invalid():
    rng = np.random.default_rng(4)
    ctx = _random_ctx(rng)
    fit = t1fit.fit_t1_m0(np.zeros(3), ctx)
    assert not fit.valid and fit.t1 == 0.0
    with pytest.raises(ValueError):
        t1fit.fit_t1_m0(np.ones(4), ctx)


def test_fit_reaches_dense_scan_minimum():
    # Noisy probe triples on the protocol's slice profiles at three transmit
    # scales, with the bottle phantom's signal and noise levels.
    timing = seqsim.default_timing()
    profs = seqsim.pixel_profiles(
        seqsim.build_pulses(seqsim.PulseParams(), timing),
        np.array([0.7, 1.0, 1.3]))
    rng = np.random.default_rng(5)
    bounds = (0.05, 5.0)
    scan = np.geomspace(*bounds, 100_001)
    for j in range(3):
        ctx = t1fit.T1Context(
            probe_txr=profs.txr_probe[j], probe_mzf=profs.mzf_probe[j],
            imaging_txr=profs.txr_imaging[0][j], z_samples=profs.z,
            times=timing.acq_times[5:8], echo_time=timing.echo_time,
            sat_residual=0.0, t1_bounds=bounds)
        h, _ = t1fit.predict_probe_signals(scan, 1.0, ctx)
        for t1_true in (0.1, 0.3, 0.8, 1.5, 3.0):
            d = np.abs(_measure(t1_true, 0.7, ctx)
                       + 1e-4 * rng.standard_normal(3))
            fit = t1fit.fit_t1_m0(d, ctx)
            # Least-squares cost with the amplitude projected out.
            amp = np.maximum(h @ d / np.sum(h * h, axis=1), 0.0)
            r = amp[:, np.newaxis] * h - d
            best = np.min(np.sum(r * r, axis=1))
            assert fit.cost <= best * (1.0 + 1e-10)
