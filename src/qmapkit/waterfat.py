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

The search needs only each candidate's residual, |b|^2 minus the energy
x^H P x of the demodulated data x in the span of the pair's design (P from
a two-column Gram-Schmidt; no LAPACK call).  The offset enters only through
the time lags t_n - t_m, so two real products, one over the pairs and one
with a lag table, score a pixel's candidates.  :func:`fit_waterfat_pixels`
scores pixels in blocks and does the rest as arrays over all of them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import fitcore
from .constants import GAMMA, OMEGA_CS
from .phantom import number, whole_number


def check_first_time(t2s_min: float, first_time: float,
                     prefix: str = "") -> None:
    """Raise ValueError, naming ``<prefix>t2s_min``, if the shortest T2*
    leaves no signal at the first FID time (the fit's squared decay
    underflows)."""
    if np.exp(-2.0 * first_time / t2s_min) == 0.0:
        raise ValueError(f"{prefix}t2s_min {t2s_min} leaves no signal at the "
                         f"first time {first_time} s")


# Most candidates, t2s_points^2 pairs x offsets, that a grid may search
# (5.5 times the default's 190,400).  The search allocates about 480 B a
# pair (designs, Gram-Schmidt columns, projectors) and 200 B an offset (lag
# table), so a grid within the cap holds at most about 0.5 GB.
_MAX_CANDIDATES = 1 << 20


@dataclass(frozen=True)
class WfGrid:
    """The water/fat search grid; each error names its field."""

    t2s_min: float = 0.003            # s
    t2s_max: float = 0.150            # s
    t2s_points: int = 40
    d_omega_step: float = 2.0 * np.pi * 1.0     # rad/s
    omega_bound: float = 2.0 * np.pi * 60.0     # rad/s

    def __post_init__(self):
        for f in fields(WfGrid):
            kind = whole_number if f.name == "t2s_points" else number
            value = kind(getattr(self, f.name), f.name)
            if not -np.inf < value < np.inf:  # exact for any int
                raise ValueError(f"{f.name} must be finite")
            object.__setattr__(self, f.name, value)
        if not 0 < self.t2s_min < self.t2s_max:
            raise ValueError(f"t2s_min {self.t2s_min} must be in "
                             f"(0, t2s_max {self.t2s_max})")
        if self.t2s_points < 2:
            raise ValueError(f"t2s_points must be at least 2, not "
                             f"{self.t2s_points}")
        if not 0 < self.d_omega_step <= self.omega_bound:
            raise ValueError(f"d_omega_step {self.d_omega_step} must be in "
                             f"(0, omega_bound {self.omega_bound}]")
        offsets = 2 * float(np.ceil(self.omega_bound / self.d_omega_step)) - 1
        if self.t2s_points ** 2 > _MAX_CANDIDATES / offsets:
            raise ValueError(
                f"t2s_points {self.t2s_points} with {offsets:g} offsets "
                f"(d_omega_step {self.d_omega_step}, omega_bound "
                f"{self.omega_bound}) searches more than {_MAX_CANDIDATES} "
                f"candidates (t2s_points^2 x offsets)")

    def t2s_axis(self) -> np.ndarray:
        return np.geomspace(self.t2s_min, self.t2s_max, self.t2s_points)

    def offset_axis(self) -> np.ndarray:
        """Off-resonance offsets around the initializer, strictly inside
        +/- omega_bound."""
        n = int(np.ceil(self.omega_bound / self.d_omega_step)) - 1
        return self.d_omega_step * np.arange(-n, n + 1)


@dataclass(frozen=True, kw_only=True)
class WfConfig(WfGrid):
    """A search grid at five FID times (s) and a chemical shift (rad/s)."""

    times: tuple
    omega_cs: float = OMEGA_CS

    def __post_init__(self):
        super().__post_init__()
        times = tuple(float(t) for t in self.times)
        if len(times) != 5 or list(times) != sorted(times) or times[0] <= 0:
            raise ValueError("times must be five increasing positive values")
        check_first_time(self.t2s_min, times[0])
        if not np.isfinite(self.omega_cs):
            raise ValueError("omega_cs must be finite")
        object.__setattr__(self, "times", times)


def init_offres(i1, i3, dt13: float):
    """Off-resonance initializer from the phase advance between the first
    and third acquisitions: angle(i3 * conj(i1)) / dt13, per pixel.

    Sign convention: a signal obeying the forward model with positive
    d_omega0 and no fat yields a positive output.
    """
    if dt13 <= 0:
        raise ValueError("dt13 must be positive")
    return np.angle(np.atleast_1d(i3) * np.conj(np.atleast_1d(i1))) / dt13


def wf_design(times, t2s_water: float, t2s_fat: float, d_omega0: float,
              omega_cs: float = OMEGA_CS) -> np.ndarray:
    """Two-column (water, fat) complex design matrix at a candidate triple:
    one row per time, or one (water, fat) pair for a scalar time."""
    t = np.asarray(times, dtype=float)
    phase = np.exp(1j * d_omega0 * t)
    col_w = phase * np.exp(-t / t2s_water)
    col_f = phase * np.exp((1j * omega_cs - 1.0 / t2s_fat) * t)
    return np.stack([col_w, col_f], axis=-1)


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


# Index pairs (m, n), m <= n, of the five acquisition times.
_PAIRS = np.triu_indices(5)

# Largest score block in pixels x pairs x offsets (256 KB): whole pixels, or
# a run of one pixel's pairs; bigger blocks cost time and peak RSS.
_BLOCK_ELEMENTS = 1 << 15


def _gram_schmidt(a):
    """Orthonormal columns q1, q2 and R's r11, r12, r22 of designs a (..., 5,
    2), elementwise.  A second column within rounding of the first's span
    (t2s_water = t2s_fat at omega_cs = 0) has q2 = 0, r22 = 0: rank one."""
    r11, norm_f = np.moveaxis(np.hypot.reduce(np.abs(a), axis=-2), -1, 0)
    q1 = a[..., 0] / r11[..., None]
    r12 = np.sum(q1.conj() * a[..., 1], axis=-1)
    v = a[..., 1] - q1 * r12[..., None]
    r22 = np.hypot.reduce(np.abs(v), axis=-1)
    r22[r22 <= np.sqrt(np.finfo(float).eps) * norm_f] = 0.0
    q2 = v / np.where(r22 > 0.0, r22, np.inf)[..., None]
    return q1, q2, r11, r12, r22


@functools.lru_cache(maxsize=4)
def _pair_decomposition(cfg: WfConfig):
    """Projector entries P_mn, m <= n, of every (t2s_water, t2s_fat) pair,
    the lag index of each (m, n) and the offset axis' lag table, read-only.

    The d_omega0 phase is unitary and common to both columns, so the design
    at (tw, tf, dw) is exp(i*dw*t) * B(tw, tf), and the residual against b
    is |b|^2 - x^H P x, x = exp(-i*dw*t) * b.  At the initializer, d_mn =
    conj(x_m) x_n turns by exp(-i*o*L) at an offset o and the lag L = t_n -
    t_m, so with c_0 = 1 and c_L = 2 else

        x^H P x = sum_L c_L Re(S_L exp(-i*o*L)),  S_L = sum P_mn d_mn

    over the (m, n) at lag L.  The table's rows -c_L (cos(o L), sin(o L))
    read S's (real, imaginary) parts; S_0 is real, and its imaginary part
    carries |b|^2 to a row of ones.
    """
    t = np.asarray(cfg.times)
    axis = cfg.t2s_axis()
    # Pair p is (axis[p // n], axis[p % n]), the order of the search: the
    # water column of the one and the fat column of the other.
    cols = wf_design(t, axis[:, None], axis[:, None], 0.0, cfg.omega_cs)
    q1, q2, *_ = _gram_schmidt(np.stack([
        np.repeat(cols[..., 0], axis.size, axis=0),
        np.tile(cols[..., 1], (axis.size, 1))], axis=-1))
    proj = np.empty((len(q1), 15), dtype=complex)
    for j, (m, n) in enumerate(zip(*_PAIRS)):  # a column at a time: less RSS
        proj[:, j] = q1[:, m] * q1[:, n].conj() + q2[:, m] * q2[:, n].conj()
    lags, lag_of = np.unique(t[_PAIRS[1]] - t[_PAIRS[0]], return_inverse=True)
    turns = np.outer(lags, cfg.offset_axis())
    table = -2.0 * np.stack([np.cos(turns), np.sin(turns)], axis=1)
    table[0] = [[-1.0], [1.0]]
    out = proj, lag_of, table.reshape(-1, turns.shape[1])
    for a in out:
        a.flags.writeable = False
    return out


def _lag_gram(x, norm_b, proj, lag_of) -> np.ndarray:
    """S of n pixels' demodulated data x (n, 5), (n, n_pair, 2 n_lag) real,
    |b|^2 in S_0's imaginary part: times the lag table, the scores.

    One real product: rows 2j and 2j+1 of a pixel's lag matrix hold (Re d_j,
    Im d_j) and (-Im d_j, Re d_j) in lag L(j)'s columns, so the projectors'
    (Re P_j, Im P_j) columns give (Re S_L, Im S_L).  OpenBLAS runs a real
    product this small on the calling thread, but hands the complex
    (n_pair, 15) @ (15, n_lag) product to its thread pool."""
    d = x[:, _PAIRS[0]].conj() * x[:, _PAIRS[1]]
    lags = np.zeros((len(x), 15, 2, lag_of.max() + 1, 2))
    j = np.arange(15)
    lags[:, j, 0, lag_of, 0] = lags[:, j, 1, lag_of, 1] = d.real
    lags[:, j, 0, lag_of, 1] = d.imag
    lags[:, j, 1, lag_of, 0] = -d.imag
    gram = proj.view(float) @ lags.reshape(len(x), 30, -1)
    gram[..., 1] += norm_b[:, None]
    return gram


def _solve_winners(a, b):
    """Least-squares (w, f) and residual norms of designs a (n, 5, 2) against
    data b (n, 5), elementwise; minimum-norm at rank one."""
    q1, q2, r11, r12, r22 = _gram_schmidt(a)
    c1, c2 = (np.sum(q.conj() * b, axis=-1) for q in (q1, q2))
    f = np.divide(c2, r22, where=r22 > 0.0,
                  out=c1 * r12.conj() / (r11 ** 2 + np.abs(r12) ** 2))
    w = (c1 - r12 * f) / r11
    r = a[..., 0] * w[:, None] + a[..., 1] * f[:, None] - b
    return w, f, np.hypot.reduce(np.abs(r), axis=-1)


def fit_waterfat_pixels(data, cfg: WfConfig) -> WfEstimate:
    """Exhaustive-search water/fat fit of n pixels' FIDs (n, 5), each taking
    its first minimum in (t2s_water, t2s_fat, d_omega0) axis order; every
    field has shape (n,), and an all-zero row reads 0 and invalid.

    Scores are taken in blocks of at most ``_BLOCK_ELEMENTS``, keeping the
    first minimum over blocks; :func:`_solve_winners` gives the winners'
    amplitudes.  A row's bits depend on no other row.
    """
    b = np.asarray(data, dtype=complex)
    t = np.asarray(cfg.times)
    init = init_offres(b[:, 0], b[:, 2], t[2] - t[0])
    x = b * np.exp(-1j * init[:, None] * t)
    norm_b = (b[:, None].conj() @ b[..., None])[:, 0, 0].real  # np.vdot bits
    proj, lag_of, table = _pair_decomposition(cfg)
    n_pair, n_off = len(proj), table.shape[1]
    run = min(n_pair, max(1, _BLOCK_ELEMENTS // n_off))    # pairs a block
    step = max(1, _BLOCK_ELEMENTS // (n_pair * n_off))     # pixels a block
    best = np.empty(len(b), dtype=np.intp)
    scores = np.empty((min(step, len(b)), run, n_off))
    for i in range(0, len(b), step):
        gram = _lag_gram(x[i:i + step], norm_b[i:i + step], proj, lag_of)
        px, at, low = np.arange(len(gram)), [], []
        for p in range(0, n_pair, run):
            g = gram[:, p:p + run]
            block = np.matmul(g, table, scores[:len(px), :g.shape[1]])
            at.append(block.reshape(len(px), -1).argmin(axis=1))
            low.append(block.reshape(len(px), -1)[px, at[-1]])
        j = np.argmin(low, axis=0)
        best[i:i + step] = np.array(at)[j, px] + j * run * n_off
    pair, off = np.divmod(best, n_off)
    axis = cfg.t2s_axis()
    tw, tf = axis[pair // axis.size], axis[pair % axis.size]
    dw = init + cfg.offset_axis()[off]
    a = wf_design(t, tw[:, None], tf[:, None], dw[:, None], cfg.omega_cs)
    w, f, resid = _solve_winners(a, b)
    total = np.abs(w) + np.abs(f)
    valid = np.any(b != 0, axis=1)
    return WfEstimate(*(np.where(valid, v, 0.0) for v in (
        w, f, tw, tf, dw, np.abs(f) / np.where(total > 0, total, 1.0),
        resid)), valid)


def fit_waterfat(data, cfg: WfConfig) -> WfEstimate:
    """:func:`fit_waterfat_pixels` at one pixel, with Python scalar fields."""
    b = np.asarray(data, dtype=complex)
    if b.shape != (5,):
        raise ValueError("data must hold the five FID acquisitions")
    return WfEstimate(*(v.item() for v in fit_waterfat_pixels(b[None], cfg)))


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
                x, resid, _, _ = fitcore.lsq_solve(
                    wf_design(t, tw, tf, dw, cfg.omega_cs), b)
                if resid < best[0]:
                    best = (resid, complex(x[0]), complex(x[1]), float(tw),
                            float(tf), float(dw))
    resid, w, f, tw, tf, dw = best
    ff = abs(f) / ((abs(w) + abs(f)) or 1.0)
    return WfEstimate(w, f, tw, tf, dw, ff, resid, valid=True)


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
    return np.divide(np.abs(np.sum(cols * amps, axis=-1)), total,
                     out=np.ones_like(total), where=total != 0)
