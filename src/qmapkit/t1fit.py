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

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import bloch, fitcore


@dataclass(frozen=True)
class T1Context:
    """Slice moments and fixed factors of the saturation-recovery fit.

    moments : :func:`slice_moments` at the estimated B1 scale, any leading
        axes running over pixels.
    times : acquisition times of the two probe signals and the imaging
        signal, seconds since the saturation pulse.
    echo_time : acquisition delay after each pulse (the pulse itself sits at
        ``time - echo_time``).
    sat_residual : longitudinal magnetization right after saturation, as a
        fraction of m0 (cos of the saturation flip; 0 for a full saturation).
    echo_scale : common magnitude factor at the echo time from two-species
        T2* decay and chemical-shift interference; multiplies all three
        measured magnitudes, so the fitted amplitude is echo_scale * m0.  A
        scalar, or one value per pixel.
    """

    moments: np.ndarray
    times: tuple
    echo_time: float
    sat_residual: float
    echo_scale: float = 1.0
    t1_bounds: tuple = (0.05, 5.0)

    def __post_init__(self):
        moments = np.asarray(self.moments, dtype=complex)
        if moments.ndim < 1 or moments.shape[-1] != 8:
            raise ValueError("moments must hold eight values on the last axis")
        times = tuple(float(t) for t in self.times)
        if len(times) != 3 or list(times) != sorted(times) or times[0] <= 0:
            raise ValueError("times must be three increasing positive values")
        if self.echo_time < 0 or self.echo_time >= times[0]:
            raise ValueError("echo_time must sit inside the first interval")
        if np.any(np.asarray(self.echo_scale) <= 0):
            raise ValueError("echo_scale must be positive")
        object.__setattr__(self, "moments", moments)
        object.__setattr__(self, "times", times)


def slice_moments(probe_txr, probe_mzf, imaging_txr, z) -> np.ndarray:
    """(..., 8) integrals of txr_probe mzf^p for p = 0, 1, then of
    txr_imaging[s] mzf^p for p = 0, 1, 2 in segments s = 1, 2, from the
    rephased transverse responses and the probe's survival factor mzf on
    the z grid (last axis)."""
    pairs = [(probe_txr, 0), (probe_txr, 1)] + [
        (txr, p) for txr in imaging_txr for p in (0, 1, 2)]
    return np.stack([bloch.integrate_slice(txr * probe_mzf ** p, z)
                     for txr, p in pairs], axis=-1)


def recovery_signals(t1, m0: float, ctx: T1Context):
    """Complex pre-echo signals of the two probes and of the imaging pulse
    in segments 1 and 2 (I6, I7, I8_1, I8_2), and their derivatives in log
    t1, each of shape broadcast(t1, ctx.moments[..., 0]) + (4,).

    Mz(z) starts uniform, so before each pulse it is c0 + c1 mzf + c2 mzf^2
    and the walk carries (c0, c1, c2): they recover toward m0, are read out
    through the pulse's moments and, at a probe, are consumed (the survival
    factor raises each power of mzf).  Both segments image the same Mz.
    """
    t1 = np.asarray(t1, dtype=float)
    probe, *imaging = np.split(ctx.moments, [2, 5], axis=-1)
    c, dc = [m0 * ctx.sat_residual, 0.0, 0.0], [0.0, 0.0, 0.0]
    sig, dsig, t_prev = [], [], 0.0
    for t, moments in zip(ctx.times, ([probe], [probe], imaging)):
        pt = t - ctx.echo_time
        e1 = np.exp(-(pt - t_prev) / t1)
        de1 = e1 * (pt - t_prev) / t1
        dc = [dc[0] * e1 + (c[0] - m0) * de1] + [
            dcp * e1 + cp * de1 for dcp, cp in zip(dc[1:], c[1:])]
        c = [c[0] * e1 + m0 * (1.0 - e1)] + [cp * e1 for cp in c[1:]]
        for m in moments:
            sig.append(sum(c[p] * m[..., p] for p in range(m.shape[-1])))
            dsig.append(sum(dc[p] * m[..., p] for p in range(m.shape[-1])))
        c, dc = [0.0] + c[:2], [0.0] + dc[:2]
        t_prev = pt
    return np.stack(sig, axis=-1), np.stack(dsig, axis=-1)


def predict_probe_signals(t1, m0: float, ctx: T1Context):
    """Magnitudes of the two probe acquisitions and the segment-1 imaging
    acquisition before the echo-time factor, and their derivatives in log
    t1; ``t1`` as for :func:`recovery_signals`."""
    s, ds = (v[..., :3] for v in recovery_signals(t1, m0, ctx))
    mag = np.abs(s)
    return mag, np.real(s.conj() * ds) / np.where(mag > 0, mag, 1.0)


class T1Fit(NamedTuple):
    t1: float
    m0: float
    t1_over_m0: float
    cost: float
    valid: bool
    at_bound: bool


def fit_t1_m0_pixels(measured, ctx: T1Context) -> T1Fit:
    """Fit of (t1, m0) to each pixel's three measured magnitudes (n, 3);
    ``ctx.moments`` is (n, 8), or (8,) for every pixel alike.

    The magnitudes are a * h(t1), with h the unit-m0 prediction and a =
    ctx.echo_scale * m0; :func:`fitcore.fit_scaled_column` projects a out
    and searches t1 within ctx.t1_bounds.  T1 therefore does not depend on
    echo_scale, and m0 = a / echo_scale.  A pixel without a positive
    magnitude reads 0 and invalid.  Every field has shape (n,).
    """
    data = np.asarray(measured, dtype=float)

    def column(t1, mom):  # t1 (b, j) against each pixel's moments
        return predict_probe_signals(
            t1, 1.0, replace(ctx, moments=mom[:, np.newaxis]))

    moments = np.broadcast_to(ctx.moments, (len(data), 8))
    fit = fitcore.fit_scaled_column(column, data, ctx.t1_bounds, moments)
    m0 = fit.amp / ctx.echo_scale
    ratio = np.divide(fit.x, m0, out=np.zeros_like(m0), where=m0 > 0)
    return T1Fit(t1=fit.x, m0=m0, t1_over_m0=ratio, cost=fit.cost,
                 valid=m0 > 0, at_bound=fit.at_bound)


def fit_t1_m0(measured, ctx: T1Context) -> T1Fit:
    """:func:`fit_t1_m0_pixels` at one pixel, with Python scalar fields."""
    data = np.asarray(measured, dtype=float)
    if data.shape != (3,):
        raise ValueError("measured must hold three magnitudes")
    return T1Fit(*(f.item() for f in fit_t1_m0_pixels(data[np.newaxis], ctx)))
