"""Water/fat separation, T2* pair, and off-resonance from the five FID
acquisitions.

Signal model per acquisition time t (seconds after saturation):

    i(t) = exp(i*d_omega0*t) * (w * exp(-t/t2s_water)
                                + f * exp(i*omega_cs*t - t/t2s_fat))

with complex species amplitudes (w, f).  For fixed (t2s_water, t2s_fat,
d_omega0) the amplitudes solve a two-column complex linear least-squares
problem; the three nonlinear parameters are found by exhaustive search over
log-spaced T2* axes and an off-resonance axis centered on a phase-difference
initializer and bounded by a search half-width.

The search needs only each candidate's residual, |b|^2 minus the energy of
the demodulated data x in the span of the pair's design, x^H P x with P the
pair's 5x5 projector.  That Gram form is linear in P's 25 real degrees of
freedom, so one real (n_pair, 25) @ (25, n_off) product scores every
candidate; the amplitudes are solved at the winner only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import fitcore
from .constants import GAMMA, OMEGA_CS


@dataclass(frozen=True)
class WfConfig:
    """Grid and model constants for the water/fat search."""

    times: tuple                      # five acquisition times, s
    omega_cs: float = OMEGA_CS        # chemical shift, rad/s
    t2s_min: float = 0.003
    t2s_max: float = 0.150
    t2s_points: int = 40
    d_omega_step: float = 2.0 * np.pi * 1.0
    omega_bound: float = 2.0 * np.pi * 60.0

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if len(times) != 5 or list(times) != sorted(times) or times[0] <= 0:
            raise ValueError("times must be five increasing positive values")
        if self.t2s_min <= 0 or self.t2s_max <= self.t2s_min:
            raise ValueError("need 0 < t2s_min < t2s_max")
        if self.t2s_points < 2:
            raise ValueError("t2s_points must be at least 2")
        if self.d_omega_step <= 0:
            raise ValueError("d_omega_step must be positive")
        if self.omega_bound < self.d_omega_step:
            raise ValueError("omega_bound smaller than one grid step")
        object.__setattr__(self, "times", times)

    def t2s_axis(self) -> np.ndarray:
        return np.geomspace(self.t2s_min, self.t2s_max, self.t2s_points)

    def offset_axis(self) -> np.ndarray:
        """Off-resonance offsets around the initializer, strictly inside
        +/- omega_bound."""
        n = int(np.ceil(self.omega_bound / self.d_omega_step)) - 1
        return self.d_omega_step * np.arange(-n, n + 1)


def init_offres(i1: complex, i3: complex, dt13: float) -> float:
    """Off-resonance initializer from the phase advance between the first
    and third acquisitions: angle(i3 * conj(i1)) / dt13.

    Sign convention: a signal obeying the forward model with positive
    d_omega0 and no fat yields a positive output.
    """
    if dt13 <= 0:
        raise ValueError("dt13 must be positive")
    return float(np.angle(i3 * np.conj(i1)) / dt13)


def wf_design(times, t2s_water: float, t2s_fat: float, d_omega0: float,
              omega_cs: float = OMEGA_CS) -> np.ndarray:
    """Two-column (water, fat) complex design matrix at a candidate triple:
    one row per time, or one (water, fat) pair for a scalar time."""
    t = np.asarray(times, dtype=float)
    phase = np.exp(1j * d_omega0 * t)
    col_w = phase * np.exp(-t / t2s_water)
    col_f = phase * np.exp((1j * omega_cs - 1.0 / t2s_fat) * t)
    return np.stack([col_w, col_f], axis=-1)


class WfSolve(NamedTuple):
    w: complex
    f: complex
    residual: float
    rank_deficient: bool


def wf_design_solve(data, times, t2s_water: float, t2s_fat: float,
                    d_omega0: float, omega_cs: float = OMEGA_CS) -> WfSolve:
    """Solve the per-candidate linear subproblem for the amplitudes."""
    b = np.asarray(data, dtype=complex)
    a = wf_design(times, t2s_water, t2s_fat, d_omega0, omega_cs)
    x, resid, rank, flagged = fitcore.lsq_solve(a, b)
    return WfSolve(complex(x[0]), complex(x[1]), resid, flagged)


class WfEstimate(NamedTuple):
    w: complex
    f: complex
    t2s_water: float
    t2s_fat: float
    d_omega0: float
    fat_fraction: float
    residual: float
    valid: bool


def delta_b0(d_omega0, gamma: float = GAMMA):
    """Field offset in tesla for an off-resonance in rad/s."""
    return np.asarray(d_omega0, dtype=float) / gamma


# Index pairs (m, n), m < n, of the five acquisition times.
_UPPER = np.triu_indices(5, 1)


@lru_cache(maxsize=8)
def _pair_decomposition(cfg: WfConfig):
    """Gram weights W for every (t2s_water, t2s_fat) pair, plus the pairwise
    phase table for the off-resonance axis.

    The d_omega0 phase is unitary and common to both columns, so the design
    at (tw, tf, dw) is exp(i*dw*t) * B(tw, tf): the residual against data b
    equals the residual of B against x = exp(-i*dw*t) * b, that is
    |b|^2 - x^H P x with P = Q Q^H the projector onto B's columns (Q from
    one QR per pair).  Over the five times m < n,

        x^H P x = sum_m P_mm |x_m|^2
                  + sum_{m<n} 2 Re P_mn Re(c_mn) - 2 Im P_mn Im(c_mn),
        c_mn = conj(b_m) b_n exp(i*dw*(t_m - t_n)),

    so the projected energy is a real dot product of the pair's 25 weights
    (diag P, 2 Re P_mn, -2 Im P_mn) with 25 data features.  The phase table
    holds exp(i*offset*(t_m - t_n)), one row per m < n.
    """
    t = np.asarray(cfg.times)
    axis = cfg.t2s_axis()
    # Pair p is (axis[p // n], axis[p % n]), the order of the search.
    tw = np.repeat(axis, axis.size)[:, np.newaxis]
    tf = np.tile(axis, axis.size)[:, np.newaxis]
    qs, _ = np.linalg.qr(wf_design(t, tw, tf, 0.0, cfg.omega_cs))
    proj = qs @ qs.conj().swapaxes(1, 2)                    # (n_pair, 5, 5)
    m, n = _UPPER
    weights = np.concatenate([np.diagonal(proj, axis1=1, axis2=2).real,
                              2.0 * proj[:, m, n].real,
                              -2.0 * proj[:, m, n].imag], axis=1)
    phase = np.exp(1j * np.outer(t[m] - t[n], cfg.offset_axis()))
    return weights, phase


def _estimate_at(b, t, tw: float, tf: float, dw: float,
                 omega_cs: float) -> WfEstimate:
    """Amplitudes and fat fraction at the chosen candidate."""
    sol = wf_design_solve(b, t, tw, tf, dw, omega_cs)
    total = abs(sol.w) + abs(sol.f)
    ff = abs(sol.f) / total if total > 0 else 0.0
    return WfEstimate(sol.w, sol.f, tw, tf, dw, ff, sol.residual, valid=True)


def _candidate_scores(b, init: float, cfg: WfConfig) -> np.ndarray:
    """Residual of every (pair, offset) candidate, shape (n_pair, n_off):
    |b|^2 - W @ F, with F built from b demodulated by the initializer and
    the grid offsets entering through the phase table."""
    weights, phase = _pair_decomposition(cfg)
    x = b * np.exp(-1j * init * np.asarray(cfg.times))
    m, n = _UPPER
    cross = (x[m].conj() * x[n])[:, np.newaxis] * phase     # (10, n_off)
    feats = np.empty((25, phase.shape[1]))
    feats[:5] = (x.real ** 2 + x.imag ** 2)[:, np.newaxis]
    feats[5:15] = cross.real
    feats[15:] = cross.imag
    norm_b = float(np.real(np.vdot(b, b)))
    scores = weights @ feats
    # In place: a second score-sized temporary (1.5 MB at the default grid)
    # is returned to the OS and page-faulted afresh on every call.
    np.subtract(norm_b, scores, out=scores)
    return scores


def fit_waterfat(data, cfg: WfConfig) -> WfEstimate:
    """Exhaustive-search water/fat fit for one pixel.

    Ties in the residual are broken toward the first candidate in
    (t2s_water, t2s_fat, d_omega0) axis order.  All-zero data is flagged
    invalid.
    """
    b = np.asarray(data, dtype=complex)
    if b.shape != (5,):
        raise ValueError("data must hold the five FID acquisitions")
    if not np.any(b != 0):
        return WfEstimate(0j, 0j, 0.0, 0.0, 0.0, 0.0, 0.0, valid=False)
    t = np.asarray(cfg.times)
    init = init_offres(b[0], b[2], t[2] - t[0])
    scores = _candidate_scores(b, init, cfg)
    pair_idx, off_idx = divmod(int(np.argmin(scores)), scores.shape[1])
    axis = cfg.t2s_axis()
    tw = float(axis[pair_idx // axis.size])
    tf = float(axis[pair_idx % axis.size])
    dw = float(init + cfg.offset_axis()[off_idx])
    return _estimate_at(b, t, tw, tf, dw, cfg.omega_cs)


def fit_waterfat_grid_minimize(data, cfg: WfConfig) -> WfEstimate:
    """Brute-force reference: one linear solve per candidate in
    (t2s_water, t2s_fat, d_omega0) axis order, keeping the first minimum.

    Slow; used to cross-check the production path on sampled pixels.
    """
    b = np.asarray(data, dtype=complex)
    if not np.any(b != 0):
        return WfEstimate(0j, 0j, 0.0, 0.0, 0.0, 0.0, 0.0, valid=False)
    t = np.asarray(cfg.times)
    init = init_offres(b[0], b[2], t[2] - t[0])
    axis = cfg.t2s_axis()
    offsets = init + cfg.offset_axis()
    best = (np.inf,)
    for tw in axis:
        for tf in axis:
            for dw in offsets:
                res = wf_design_solve(b, t, tw, tf, dw, cfg.omega_cs).residual
                if res < best[0]:
                    best = (res, float(tw), float(tf), float(dw))
    _, tw, tf, dw = best
    return _estimate_at(b, t, tw, tf, dw, cfg.omega_cs)


def echo_time_scale(w, f, t2s_water, t2s_fat, echo_time: float,
                    omega_cs: float = OMEGA_CS):
    """Magnitude of the two-species decay/interference kernel at a short
    echo time, normalized to 1 at echo_time = 0.

    Multiplies any signal read out ``echo_time`` after a pulse that tips
    recovered longitudinal magnetization with water fraction |w| and fat
    fraction |f|.  Freshly tipped species start phase-aligned (longitudinal
    storage keeps no transverse phase), so only the magnitudes enter.  The
    species values may be arrays of one shape (one per pixel); a pixel with
    no species signal reads 1.
    """
    amps = np.stack([np.abs(w), np.abs(f)], axis=-1)
    total = amps[..., 0] + amps[..., 1]
    cols = wf_design(echo_time, t2s_water, t2s_fat, 0.0, omega_cs)
    out = np.divide(np.abs(np.sum(cols * amps, axis=-1)), total,
                    out=np.ones_like(total), where=total != 0)
    return out if out.ndim else float(out)
