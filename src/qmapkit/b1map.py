"""Transmit-scale (B1) estimation from the double-angle image pair.

The two segments acquire the first imaging readout with a single- and a
double-amplitude excitation.  The magnitude ratio of those readouts depends
only on the transmit scale (the longitudinal state ahead of the pulse is the
same in both segments), so inverting a precomputed ratio table against the
measured ratio recovers the scale per pixel.

For ideal hard pulses the ratio is ``|2 cos(k * flip)|``; for shaped pulses
the table integrates the simulated slice response, which is what makes the
inversion exact for the same waveforms the scan used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bloch
from .seqsim import SequencePulses


@dataclass(frozen=True)
class RatioTable:
    """Monotone branch of the double-to-single readout magnitude ratio."""

    k_values: np.ndarray   # ascending transmit scales
    ratios: np.ndarray     # strictly decreasing magnitudes

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
                      k_max: float = 1.8, step: float = 0.002) -> RatioTable:
    """Tabulate the readout ratio over a transmit-scale grid.

    The double pulse is the single pulse at twice the amplitude, so its
    curve is the single pulse's at twice the scale.  The raw curve is
    non-monotone once the doubled flip passes the signal null, so the table
    keeps only the initial decreasing branch.
    """
    if not (0 < k_min < k_max) or step <= 0:
        raise ValueError("need 0 < k_min < k_max and step > 0")
    n = int(round((k_max - k_min) / step)) + 1
    k_axis = k_min + step * np.arange(n)
    z = pulses.z_grid()
    single = pulses.imaging
    lo = np.abs(bloch.integrated_transverse_curve(single, k_axis, z))
    hi = np.abs(bloch.integrated_transverse_curve(single, 2.0 * k_axis, z))
    if np.any(lo <= 0):
        raise ValueError("single-pulse response vanished inside the k range")
    ratios = hi / lo
    # Keep the decreasing branch only: stop before the first uptick.
    keep = n
    for i in range(1, n):
        if ratios[i] >= ratios[i - 1]:
            keep = i
            break
    if keep < 2:
        raise ValueError("ratio curve has no decreasing branch")
    return RatioTable(k_values=k_axis[:keep], ratios=ratios[:keep])


def estimate_b1(mag_single, mag_double, table: RatioTable):
    """Invert the table for per-pixel transmit scale.

    Returns ``(k, valid)`` with the shapes of the inputs.  Pixels whose
    single-amplitude readout is non-positive are invalid (k set to 1);
    measured ratios beyond the table clamp to its ends and stay valid.
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
    if np.ndim(mag_single) == 0:
        return float(k), bool(valid)
    return k, valid

