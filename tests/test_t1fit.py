from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from qmapkit import seqsim, t1fit


def _response(rng, lo, hi, nz):
    return rng.uniform(lo, hi, nz) * np.exp(1j * rng.uniform(-0.3, 0.3, nz))


def _random_walk(rng, residual=None):
    # A context on random per-z responses, and those responses: the probe's
    # transverse response and survival factor, one imaging response per
    # segment.
    nz = 17
    pts = np.sort(rng.uniform(0.25, 1.3, 2))
    sl = {"z": np.linspace(-0.002, 0.002, nz),
          "probe_txr": _response(rng, 0.2, 0.6, nz),
          "probe_mzf": rng.uniform(0.75, 0.99, nz),
          "imaging_txr": [_response(rng, 0.5, 0.9, nz)]}
    times = (pts[0], pts[1], pts[1] + rng.uniform(0.1, 0.4))
    if residual is None:
        residual = rng.uniform(-0.3, 0.3)
    sl["imaging_txr"].append(_response(rng, 0.5, 0.9, nz))
    moments = t1fit.slice_moments(sl["probe_txr"], sl["probe_mzf"],
                                  sl["imaging_txr"], sl["z"])
    ctx = t1fit.T1Context(moments=moments, times=times,
                          echo_time=0.002, sat_residual=residual)
    return ctx, sl


def _random_ctx(rng, residual=None):
    return _random_walk(rng, residual)[0]


def test_context_validation():
    rng = np.random.default_rng(0)
    ctx = _random_ctx(rng)
    for bad in ({"times": (0.8, 0.4, 1.2)},
                {"times": (0.4, 0.8, 1.2), "echo_time": 0.5},
                {"moments": np.zeros(7)}, {"moments": np.zeros((3, 4))},
                {"echo_scale": np.array([1.0, 0.0])}):
        with pytest.raises(ValueError):
            replace(ctx, **bad)


def test_recovery_signals_match_independent_trace():
    # Re-derive the four readouts with a literal per-position walk written
    # from scratch: recover, read out, consume, repeat; both segments image
    # the magnetization the walk reaches.
    rng = np.random.default_rng(42)
    for _ in range(5):
        ctx, sl = _random_walk(rng)
        t1 = rng.uniform(0.15, 2.5)
        m0 = rng.uniform(0.4, 2.0)
        signals, _ = t1fit.recovery_signals(t1, m0, ctx)

        h = sl["z"][1] - sl["z"][0]
        pulse_times = [t - ctx.echo_time for t in ctx.times]
        expect = []
        for i in range(sl["z"].size):
            mz = m0 * ctx.sat_residual
            t_prev = 0.0
            reads = []
            for j, pt in enumerate(pulse_times):
                mz = m0 + (mz - m0) * np.exp(-(pt - t_prev) / t1)
                if j < 2:
                    reads.append(sl["probe_txr"][i] * mz)
                    mz = mz * sl["probe_mzf"][i]
                else:
                    reads += [txr[i] * mz for txr in sl["imaging_txr"]]
                t_prev = pt
            expect.append(reads)
        npt.assert_allclose(signals, np.array(expect).sum(axis=0) * h,
                            rtol=1e-12)


def test_recovery_signals_over_a_t1_array_and_their_slopes():
    # An array of T1 gives each scalar walk's result, and the slopes match
    # central differences in log T1.
    ctx = _random_ctx(np.random.default_rng(7))
    t1s = np.array([0.2, 0.7, 2.1])
    s, ds = t1fit.recovery_signals(t1s, 1.3, ctx)
    assert s.shape == ds.shape == (3, 4)
    for i, t1 in enumerate(t1s):
        one, _ = t1fit.recovery_signals(t1, 1.3, ctx)
        npt.assert_allclose(s[i], one, rtol=1e-14)
    h = 1e-6
    up, _ = t1fit.recovery_signals(t1s * np.exp(h), 1.3, ctx)
    down, _ = t1fit.recovery_signals(t1s * np.exp(-h), 1.3, ctx)
    npt.assert_allclose(ds, (up - down) / (2.0 * h), rtol=1e-6, atol=1e-12)
    mags, slopes = t1fit.predict_probe_signals(t1s, 1.3, ctx)
    npt.assert_array_equal(mags, np.abs(s[:, :3]))
    npt.assert_allclose(slopes,
                        (np.abs(up) - np.abs(down))[:, :3] / (2.0 * h),
                        rtol=1e-6, atol=1e-12)


def test_recovery_signals_broadcast_over_pixel_moments():
    # Moments with a pixel axis: each pixel's row is its own walk.
    rng = np.random.default_rng(8)
    ctxs = [_random_ctx(rng, residual=0.1) for _ in range(3)]
    stacked = replace(ctxs[0], moments=np.stack(
        [c.moments for c in ctxs])[:, np.newaxis])
    t1s = np.array([[0.3, 0.9]])
    s, ds = t1fit.recovery_signals(t1s, 0.8, stacked)
    assert s.shape == ds.shape == (3, 2, 4)
    for i, c in enumerate(ctxs):
        one, done = t1fit.recovery_signals(t1s[0], 0.8,
                                           replace(c, times=ctxs[0].times))
        npt.assert_array_equal(s[i], one)
        npt.assert_array_equal(ds[i], done)


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
            moments=profs.t1_moments[j],
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


def test_single_pixel_fit_equals_the_array_rows():
    # fit_t1_m0 is the array fit at one pixel: every field bit-equal to
    # that pixel's row of a batch with per-pixel moments and echo scales.
    rng = np.random.default_rng(9)
    ctxs = [replace(_random_ctx(rng, residual=0.0), times=(0.4, 0.8, 1.2),
                    echo_scale=rng.uniform(0.7, 1.0)) for _ in range(6)]
    meas = np.array([_measure(t1, 0.9, c) + 1e-3 * rng.standard_normal(3)
                     for t1, c in zip((0.1, 0.3, 0.8, 1.5, 3.0, 7.0), ctxs)])
    meas[2] = 0.0
    batch = t1fit.fit_t1_m0_pixels(meas, replace(
        ctxs[0], moments=np.stack([c.moments for c in ctxs]),
        echo_scale=np.array([c.echo_scale for c in ctxs])))
    assert not batch.valid[2] and batch.at_bound[5]
    for i, c in enumerate(ctxs):
        one = t1fit.fit_t1_m0(meas[i], c)
        for name, value in one._asdict().items():
            assert type(value) is type(getattr(batch, name)[i].item())
            assert value == getattr(batch, name)[i], name
