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
    sat_residual : longitudinal magnetization right after saturation, as a
        fraction of m0 (cos of the saturation flip; 0 for a full saturation).
    echo_scale : common magnitude factor at the echo time from two-species
        T2* decay and chemical-shift interference; multiplies all three
        measured magnitudes, so the fitted amplitude is echo_scale * m0.
    """

    probe_txr: np.ndarray
    probe_mzf: np.ndarray
    imaging_txr: np.ndarray
    z_samples: np.ndarray
    times: tuple
    echo_time: float
    sat_residual: float
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


def recovery_signals(t1, m0: float, ctx: T1Context):
    """Complex pre-echo signals of the two probes and the imaging pulse,
    their derivatives in log t1, and the per-z longitudinal magnetization
    just before the imaging pulse.

    ``t1`` is a scalar or a 1-D array: the signals and derivatives have shape
    ``t1.shape + (3,)`` and the magnetization ``t1.shape + (nz,)``.

    The walk: mz(z) starts uniform at m0 * ctx.sat_residual, recovers toward
    m0 up to each pulse time, is read out through that pulse's transverse
    response, and is consumed by the probe's per-z cosine factor before the
    next interval.  Its derivative in log t1 is carried alongside.
    """
    t1 = np.asarray(t1, dtype=float)[..., np.newaxis]
    mz = np.full(ctx.z_samples.size, m0 * ctx.sat_residual)
    dmz = np.zeros_like(mz)
    sig, dsig = [], []
    t_prev = 0.0
    for n, t in enumerate(ctx.times):
        pt = t - ctx.echo_time
        e1 = np.exp(-(pt - t_prev) / t1)
        dmz = dmz * e1 + (mz - m0) * (e1 * (pt - t_prev) / t1)
        mz = mz * e1 + m0 * (1.0 - e1)
        txr = ctx.probe_txr if n < 2 else ctx.imaging_txr
        sig.append(bloch.integrate_slice(txr * mz, ctx.z_samples))
        dsig.append(bloch.integrate_slice(txr * dmz, ctx.z_samples))
        if n < 2:
            mz, dmz = ctx.probe_mzf * mz, ctx.probe_mzf * dmz
        t_prev = pt
    return np.stack(sig, axis=-1), np.stack(dsig, axis=-1), mz


def predict_probe_signals(t1, m0: float, ctx: T1Context):
    """Magnitudes of the two probe acquisitions and the imaging acquisition
    before the echo-time factor, and their derivatives in log t1; ``t1`` as
    for :func:`recovery_signals`."""
    s, ds, _ = recovery_signals(t1, m0, ctx)
    mag = np.abs(s)
    return mag, np.real(s.conj() * ds) / np.where(mag > 0, mag, 1.0)


class T1Fit(NamedTuple):
    t1: float
    m0: float
    t1_over_m0: float
    cost: float
    valid: bool
    at_bound: bool


def fit_t1_m0(measured, ctx: T1Context) -> T1Fit:
    """Fit of (t1, m0) to the three measured magnitudes.

    The magnitudes are a * h(t1), with h the unit-m0 prediction and a =
    ctx.echo_scale * m0; :func:`fitcore.fit_scaled_column` projects a out
    and searches t1 within ctx.t1_bounds.  T1 therefore does not depend on
    echo_scale, and m0 = a / echo_scale.
    """
    data = np.asarray(measured, dtype=float)
    if data.shape != (3,):
        raise ValueError("measured must hold three magnitudes")
    if not np.any(data > 0):
        return T1Fit(t1=0.0, m0=0.0, t1_over_m0=0.0, cost=0.0, valid=False,
                     at_bound=False)
    fit = fitcore.fit_scaled_column(
        lambda t1: predict_probe_signals(t1, 1.0, ctx), data, ctx.t1_bounds)
    m0 = fit.amp / ctx.echo_scale
    ratio = fit.x / m0 if m0 > 0 else 0.0
    return T1Fit(t1=fit.x, m0=m0, t1_over_m0=ratio, cost=fit.cost,
                 valid=bool(m0 > 0), at_bound=fit.at_bound)
