"""T1 / M0 estimation from the two probe acquisitions and the segment-1
imaging acquisition.

The model walks the longitudinal magnetization forward from its
post-saturation residual: recovery toward m0 between pulses, a per-z tip by
each probe (which both generates the measured transverse signal and consumes
longitudinal magnetization by the profile's cosine factor), and finally the
imaging pulse.  The same walk generates those signals in the simulator, so
the closed loop shares one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bloch, fitcore


@dataclass(frozen=True)
class T1Context:
    """Geometry and fixed factors of the saturation-recovery fit.

    probe_profile / imaging_profile : slice profiles at the estimated B1
        scale (transverse responses already rephased).
    times : acquisition times of the two probe signals and the imaging
        signal, seconds since the saturation pulse.
    echo_time : acquisition delay after each pulse (the pulse itself sits at
        ``time - echo_time``).
    mz0 : longitudinal magnetization right after saturation (signal units).
    echo_scale : common magnitude factor at the echo time from two-species
        T2* decay and chemical-shift interference; multiplies all three
        predicted magnitudes.
    """

    probe_txr: np.ndarray
    probe_mzf: np.ndarray
    imaging_txr: np.ndarray
    z_samples: np.ndarray
    times: tuple
    echo_time: float
    mz0: float
    echo_scale: float = 1.0
    t1_bounds: tuple = (0.05, 5.0)

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z_samples, dtype=float))
        txr = np.atleast_1d(np.asarray(self.probe_txr, dtype=complex))
        mzf = np.atleast_1d(np.asarray(self.probe_mzf, dtype=float))
        itxr = np.atleast_1d(np.asarray(self.imaging_txr, dtype=complex))
        if not (txr.size == mzf.size == itxr.size == z.size):
            raise ValueError("profile arrays must share the z-grid length")
        times = tuple(float(t) for t in self.times)
        if len(times) != 3 or list(times) != sorted(times) or times[0] <= 0:
            raise ValueError("times must be three increasing positive values")
        if self.echo_time < 0 or self.echo_time >= times[0]:
            raise ValueError("echo_time must sit inside the first interval")
        if self.echo_scale <= 0:
            raise ValueError("echo_scale must be positive")
        object.__setattr__(self, "z_samples", z)
        object.__setattr__(self, "probe_txr", txr)
        object.__setattr__(self, "probe_mzf", mzf)
        object.__setattr__(self, "imaging_txr", itxr)
        object.__setattr__(self, "times", times)


def residual_mz0(w_mag: float, f_mag: float, k: float,
                 sat_flip: float = np.pi / 2.0) -> float:
    """Longitudinal magnetization left by the saturation pulse,
    (w + f) / (k * tan(sat_flip)); zero at the default 90-degree flip."""
    if k <= 0:
        raise ValueError("k must be positive")
    t = np.tan(sat_flip)
    if not np.isfinite(t) or t == 0.0:
        return 0.0
    return (w_mag + f_mag) / (k * t)


def recovery_signals(t1: float, m0: float, ctx: T1Context):
    """Complex pre-echo signals (s1, s2, s3) plus the per-z longitudinal
    magnetization just before the imaging pulse.

    The walk: mz(z) starts uniform at ctx.mz0, recovers toward m0 up to each
    pulse time, is read out through that pulse's transverse response, and is
    consumed by the probe's per-z cosine factor before the next interval.
    """
    pulse_times = [t - ctx.echo_time for t in ctx.times]
    mz = np.full(ctx.z_samples.size, ctx.mz0, dtype=float)
    out = []
    t_prev = 0.0
    for pt in pulse_times[:2]:
        e1 = np.exp(-(pt - t_prev) / t1)
        mz = mz * e1 + m0 * (1.0 - e1)
        out.append(bloch.integrate_slice(ctx.probe_txr * mz, ctx.z_samples))
        mz = ctx.probe_mzf * mz
        t_prev = pt
    e1 = np.exp(-(pulse_times[2] - t_prev) / t1)
    mz = mz * e1 + m0 * (1.0 - e1)
    out.append(bloch.integrate_slice(ctx.imaging_txr * mz, ctx.z_samples))
    return out[0], out[1], out[2], mz


def predict_probe_signals(t1: float, m0: float, ctx: T1Context) -> np.ndarray:
    """Predicted magnitudes of the two probe acquisitions and the imaging
    acquisition."""
    s1, s2, s3, _ = recovery_signals(t1, m0, ctx)
    return ctx.echo_scale * np.array([abs(s1), abs(s2), abs(s3)])


class T1Fit(NamedTuple):
    t1: float
    m0: float
    t1_over_m0: float
    cost: float
    valid: bool


_STARTS = (0.1, 0.3, 0.8, 1.5, 3.0)  # T1 starts of the multi-start, s
_MAX_ITER = 60      # Gauss-Newton iterations per start
_TOL = 1e-12        # projected-gradient convergence threshold


def fit_t1_m0(measured, ctx: T1Context) -> T1Fit:
    """Multi-start box-constrained fit of (t1, m0) to three magnitudes."""
    data = np.asarray(measured, dtype=float)
    if data.shape != (3,):
        raise ValueError("measured must hold three magnitudes")
    if not np.any(data > 0):
        return T1Fit(t1=0.0, m0=0.0, t1_over_m0=0.0, cost=0.0, valid=False)

    def residual(x):
        return predict_probe_signals(x[0], x[1], ctx) - data

    # Rough m0 scale: invert the imaging signal at full recovery.
    img_gain = abs(
        bloch.integrate_slice(ctx.imaging_txr, ctx.z_samples)
    ) * ctx.echo_scale
    if img_gain > 0 and data[2] > 0:
        m0_scale = data[2] / img_gain
    else:
        m0_scale = max(float(data.max()), 1e-12)
    t1_lo, t1_hi = ctx.t1_bounds
    m0_hi = 1e6 * max(m0_scale, 1e-12)
    start_list = []
    for t1s in _STARTS:
        t1s = min(max(t1s, t1_lo * 1.001), t1_hi * 0.999)
        recov = 1.0 - np.exp(-(ctx.times[2] - ctx.echo_time) / t1s)
        m0s = m0_scale / max(recov, 1e-3)
        start_list.append(np.array([t1s, m0s]))
    res = fitcore.multi_start(residual, start_list,
                              lower=np.array([t1_lo, 0.0]),
                              upper=np.array([t1_hi, m0_hi]),
                              max_iter=_MAX_ITER, tol=_TOL)
    t1, m0 = res.x
    ratio = t1 / m0 if m0 > 0 else 0.0
    return T1Fit(t1=float(t1), m0=float(m0), t1_over_m0=float(ratio),
                 cost=res.cost, valid=bool(m0 > 0))
