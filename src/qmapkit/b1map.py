"""Transmit-scale (B1) estimation from the double-angle image pair.

The two segments acquire the first imaging readout with a single- and a
double-amplitude excitation.  The magnitude ratio of those readouts depends
only on the transmit scale (the longitudinal state ahead of the pulse is the
same in both segments), so inverting a precomputed ratio table against the
measured ratio recovers the scale per pixel.

For ideal hard pulses the ratio is ``|2 cos(k * flip)|``; for shaped pulses
the table integrates the simulated slice response, which is what makes the
inversion exact for the same waveforms the scan used.  That response comes
from the pulse set's Cayley-Klein series in k^2 (one propagation), and the
table hands the series on: the estimator reads the set's slice profiles at
the estimated scales from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bloch
from .seqsim import B1_K_MAX, SequencePulses


@dataclass(frozen=True)
class RatioTable:
    """Monotone branch of the double-to-single readout magnitude ratio, and
    the Cayley-Klein series it was read from (None for a hand-made table),
    which also serves the set's slice profiles."""

    k_values: np.ndarray   # ascending transmit scales
    ratios: np.ndarray     # strictly decreasing magnitudes
    series: bloch.CayleyKleinSeries = None

    def __post_init__(self):
        k = np.asarray(self.k_values, dtype=float)
        r = np.asarray(self.ratios, dtype=float)
        if k.ndim != 1 or k.shape != r.shape or k.size < 2:
            raise ValueError("table needs matching 1-d axes, length >= 2")
        if np.any(np.diff(k) <= 0) or np.any(np.diff(r) >= 0):
            raise ValueError("table must be monotone (k up, ratio down)")
        object.__setattr__(self, "k_values", k)
        object.__setattr__(self, "ratios", r)


def build_ratio_table(pulses: SequencePulses, k_min: float = 0.2,
                      k_max: float = B1_K_MAX,
                      step: float = 0.002) -> RatioTable:
    """Tabulate the readout ratio over a transmit-scale grid.

    Segment 2's pulse is the single pulse times its constant ``c`` (2), so
    its curve is the single pulse's at ``|c| k``.  The pulse set's
    Cayley-Klein series up to k_max (``pulses.series``: one propagation, 15
    scales for k_max = 1.8, kept by the set) gives the imaging curve at its
    nodes.  The curve is odd in the scale, so curve / k is one Chebyshev
    series in k^2, read at both k and |c| k on the grid by the series'
    Clenshaw recurrence.  Magnitudes are taken only after interpolation:
    they have a kink at the signal null.

    The raw ratio is non-monotone once the doubled flip passes the null, so
    the table keeps only the initial decreasing branch.
    """
    if not (0 < k_min < k_max < np.inf and 0 < step < np.inf):
        raise ValueError("need finite 0 < k_min < k_max and step > 0")
    n = int(round((k_max - k_min) / step)) + 1
    k_axis = k_min + step * np.arange(n)
    img, series = pulses.imaging, pulses.series(k_max)
    z, nodes = series.z_samples, series.scales
    alpha, beta = series.cayley_klein(nodes)
    coef = bloch.chebyshev_coefficients(bloch.integrate_slice(
        bloch.transverse(img, alpha, beta, z), z) / nodes)
    ks = np.concatenate([k_axis, abs(pulses.constants[3]) * k_axis])
    lo, hi = np.abs(ks * bloch.clenshaw(coef, series.argument(ks))).reshape(
        2, n)
    if np.any(lo <= 0):
        raise ValueError("single-pulse response vanished inside the k range")
    ratios = hi / lo
    # Keep the decreasing branch only: stop before the first uptick.
    upticks = np.flatnonzero(np.diff(ratios) >= 0)
    keep = upticks[0] + 1 if upticks.size else n
    if keep < 2:
        raise ValueError("ratio curve has no decreasing branch")
    return RatioTable(k_values=k_axis[:keep], ratios=ratios[:keep],
                      series=series)


def estimate_b1(mag_single, mag_double, table: RatioTable):
    """Invert the table for per-pixel transmit scale.

    Returns ``(k, valid)`` with the shapes of the inputs.  Pixels whose
    single-amplitude readout is non-positive are invalid (k set to 1).
    Measured ratios beyond the table clamp k to its ends and are invalid.
    """
    lo = np.asarray(mag_single, dtype=float)
    hi = np.asarray(mag_double, dtype=float)
    if lo.shape != hi.shape:
        raise ValueError("magnitude images must share a shape")
    valid = lo > 0
    ratio = np.where(valid, hi, 0.0) / np.where(valid, lo, 1.0)
    # np.interp wants ascending sample points; the stored branch descends.
    k = np.interp(ratio, table.ratios[::-1], table.k_values[::-1])
    k = np.where(valid, k, 1.0)
    valid &= (ratio <= table.ratios[0]) & (ratio >= table.ratios[-1])
    if np.ndim(mag_single) == 0:
        return float(k), bool(valid)
    return k, valid
