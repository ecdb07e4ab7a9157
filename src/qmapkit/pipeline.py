"""Estimation pipeline: transmit scale, then T2, then the
water/fat/off-resonance search, then T1/M0, each one array call over the
masked pixels.

Later stages consume earlier results: the T2 and T1 models evaluate slice
profiles at the estimated transmit scale.  M0 is corrected for the
short-echo T2* weighting using the water/fat stage's species estimates; T1
does not depend on that stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import b1map, maskgen, t1fit, t2fit, waterfat
from .maskgen import Mask
from .seqsim import (B1_K_MAX, ImageSet, SequencePulses, build_pulses,
                     pixel_profiles)

MAP_NAMES = ("b1", "t2", "t2s_water", "t2s_fat", "d_omega0", "delta_b0",
             "fat_fraction", "t1", "m0", "t1_over_m0")


@dataclass
class QuantMaps:
    """Estimated parameter maps plus per-map validity and the mask used."""

    b1: np.ndarray
    t2: np.ndarray
    t2s_water: np.ndarray
    t2s_fat: np.ndarray
    d_omega0: np.ndarray
    delta_b0: np.ndarray
    fat_fraction: np.ndarray
    t1: np.ndarray
    m0: np.ndarray
    t1_over_m0: np.ndarray
    mask: np.ndarray
    valid: dict = field(default_factory=dict)

    @property
    def shape(self):
        return self.mask.shape

    @classmethod
    def zeros(cls, shape):
        maps = {name: np.zeros(shape) for name in MAP_NAMES}
        valid = {name: np.zeros(shape, dtype=bool) for name in MAP_NAMES}
        return cls(mask=np.zeros(shape, dtype=bool), valid=valid, **maps)


@dataclass(frozen=True)
class EstimateOptions:
    """Stage configuration; defaults match the standard protocol.  Grid
    values and fit bounds (0 < low < high) must be finite; checked here.
    The ``b1_*`` grid only builds the ratio table when none is given: a
    given table sets the B1 stage's range and grid."""

    b1_k_min: float = 0.2
    b1_k_max: float = B1_K_MAX
    b1_step: float = 0.002
    t2_bounds: tuple = (0.005, 3.0)
    t2s_min: float = 0.003
    t2s_max: float = 0.150
    t2s_points: int = 40
    d_omega_step: float = 2.0 * np.pi * 1.0
    omega_bound: float = 2.0 * np.pi * 60.0
    t1_bounds: tuple = (0.05, 5.0)

    def __post_init__(self):
        for name in ("b1_k_min", "b1_k_max", "b1_step", "t2s_min", "t2s_max",
                     "d_omega_step", "omega_bound"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("t2_bounds", "t1_bounds"):
            lo, hi = getattr(self, name)
            if not 0.0 < lo < hi < np.inf:
                raise ValueError(
                    f"{name} {(lo, hi)}: need finite 0 < low < high")


def _ratio_table(pulses: SequencePulses, opts: EstimateOptions):
    return b1map.build_ratio_table(pulses, opts.b1_k_min, opts.b1_k_max,
                                   opts.b1_step)


def _quantize(k, table: b1map.RatioTable):
    """Snap estimated scales (a scalar or an array) to the nearest point of
    the table's grid, so that pixels share slice profiles."""
    grid = table.k_values
    at = np.round(np.interp(k, grid, np.arange(grid.size))).astype(int)
    return np.round(grid[at], 9)


def estimate_all(images: ImageSet, mask: Mask = None,
                 opts: EstimateOptions = EstimateOptions(),
                 ratio_table=None) -> QuantMaps:
    """Run every stage over the masked pixels of an image set.

    The masked pixels are gathered once; the B1, T2, water/fat and T1 stages
    are one array call each over them, in that order, and each map is
    scattered back once at the end.  A given ``ratio_table`` (else one built
    from the ``b1_*`` options) sets the B1 range and grid: k-hat snaps to its
    grid, where the table's series (the pulse set's own for a hand-made
    table) gives the slice profiles.
    """
    data = images.data
    h, w = data.shape[2], data.shape[3]
    timing = images.timing
    pulses = build_pulses(images.pulse_params, timing)
    wf_cfg = waterfat.WfConfig(
        timing.fid_times, images.omega_cs, opts.t2s_min, opts.t2s_max,
        opts.t2s_points, opts.d_omega_step, opts.omega_bound)
    if mask is None:
        mask = maskgen.make_mask(maskgen.mean_image(images))
    if mask.bits.shape != (h, w):
        raise ValueError("mask dimensions do not match the images")
    if ratio_table is None:
        ratio_table = _ratio_table(pulses, opts)

    # A pixel with any non-finite sample stays in the mask but reads 0 and
    # invalid in every map; no solver sees it.
    rows, cols = np.nonzero(mask.bits & np.all(np.isfinite(data),
                                               axis=(0, 1)))
    px = data.transpose(2, 3, 0, 1)[rows, cols].astype(complex, copy=False)
    est, ok = {}, {}

    # B1 from the double-angle pair I8; the slice profiles are read at k-hat
    # snapped to the table's grid.
    est["b1"], ok["b1"] = b1map.estimate_b1(
        np.abs(px[:, 0, 7]), np.abs(px[:, 1, 7]), ratio_table)
    profs = pixel_profiles(pulses, _quantize(est["b1"], ratio_table),
                           ratio_table.series)

    # T2 from the spin echoes I9-I11 of both segments.  T2 and T1/M0 are
    # fitted at k-hat, so they are valid only where B1 is; a T2 or T1
    # pinned at a fit bound is invalid too.
    t2 = t2fit.fit_t2_pixels(
        np.abs(px[:, :, 8:11]).reshape(-1, 6),
        np.concatenate(profs.echo_bases, axis=-1),
        timing.echo_offsets, opts.t2_bounds)
    est["t2"], ok["t2"] = t2.t2, t2.valid & ~t2.at_bound & ok["b1"]

    # Water/fat, T2* and off-resonance from the segment-averaged FIDs I1-I5.
    wf = waterfat.fit_waterfat_pixels(
        0.5 * (px[:, 0, 0:5] + px[:, 1, 0:5]), wf_cfg)
    for name in ("t2s_water", "t2s_fat", "d_omega0", "fat_fraction"):
        est[name], ok[name] = getattr(wf, name), wf.valid
    est["delta_b0"], ok["delta_b0"] = waterfat.delta_b0(wf.d_omega0), wf.valid

    # T1/M0 from the segment-averaged probes I6, I7 and segment 1's I8.  The
    # fit assumes a full saturation (no residual), and the species'
    # short-echo weighting from the water/fat stage scales M0 alone.
    probes = np.abs(0.5 * (px[:, 0, 5:7] + px[:, 1, 5:7]))
    echo_scale = np.ones(len(px))
    echo_scale[wf.valid] = waterfat.echo_time_scale(
        *(v[wf.valid] for v in wf[:4]), timing.echo_time, images.omega_cs)
    t1 = t1fit.fit_t1_m0_pixels(
        np.column_stack([probes, np.abs(px[:, 0, 7])]), profs.t1_moments,
        timing.acq_times[5:8], timing.echo_time, opts.t1_bounds, echo_scale)
    for name in ("t1", "m0", "t1_over_m0"):
        est[name] = np.where(t1.valid, getattr(t1, name), 0.0)
        ok[name] = t1.valid & ~t1.at_bound & ok["b1"]

    out = QuantMaps.zeros((h, w))
    out.mask = mask.bits.copy()
    for name in MAP_NAMES:
        getattr(out, name)[rows, cols] = est[name]
        out.valid[name][rows, cols] = ok[name]
    return out
