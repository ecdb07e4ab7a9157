"""Estimation pipeline: transmit scale, then T2, then the
water/fat/off-resonance search, then T1/M0, each a pass over the masked
pixels.

Later stages consume earlier results: the T2 and T1 models evaluate slice
profiles at the estimated transmit scale, and the T1 data are corrected for
the short-echo T2* weighting using the water/fat stage's species estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import b1map, maskgen, t1fit, t2fit, waterfat
from .maskgen import Mask
from .seqsim import ImageSet, SequencePulses, build_pulses, pixel_profiles

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
    """Stage configuration; defaults match the standard protocol.  The fit
    bounds must satisfy 0 < low < high; construction checks them."""

    b1_k_min: float = 0.2
    b1_k_max: float = 1.8
    b1_step: float = 0.002
    t2_bounds: tuple = (0.005, 3.0)
    t2s_min: float = 0.003
    t2s_max: float = 0.150
    t2s_points: int = 40
    d_omega_step: float = 2.0 * np.pi * 1.0
    omega_bound: float = 2.0 * np.pi * 60.0
    t1_bounds: tuple = (0.05, 5.0)

    def __post_init__(self):
        for name in ("t2_bounds", "t1_bounds"):
            lo, hi = getattr(self, name)
            if not 0.0 < lo < hi:
                raise ValueError(f"{name} {(lo, hi)}: need 0 < low < high")


def _ratio_table(pulses: SequencePulses, opts: EstimateOptions):
    return b1map.build_ratio_table(pulses, opts.b1_k_min, opts.b1_k_max,
                                   opts.b1_step)


def _quantize(k: float, opts: EstimateOptions) -> float:
    """Snap an estimated scale to the table grid so pixels share slice
    profiles."""
    k = min(max(k, opts.b1_k_min), opts.b1_k_max)
    steps = round((k - opts.b1_k_min) / opts.b1_step)
    return round(opts.b1_k_min + steps * opts.b1_step, 9)


def estimate_all(images: ImageSet, mask: Mask = None,
                 opts: EstimateOptions = EstimateOptions(),
                 ratio_table=None) -> QuantMaps:
    """Run every stage over the masked pixels of an image set.

    The masked pixels are gathered once; the B1, T2, water/fat and T1 stages
    are one pass each over them, in that order, and each map is scattered
    back once at the end.
    """
    data = images.data
    h, w = data.shape[2], data.shape[3]
    timing = images.timing
    pulses = build_pulses(images.pulse_params, timing)
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
    px = data.transpose(2, 3, 0, 1)[rows, cols]         # (n, 2, 11)
    est, ok = {}, {}

    # B1 from the double-angle pair I8; the slice profiles are computed once
    # per distinct quantized scale.
    est["b1"], ok["b1"] = b1map.estimate_b1(
        np.abs(px[:, 0, 7]), np.abs(px[:, 1, 7]), ratio_table)
    ks, which = np.unique([_quantize(k, opts) for k in est["b1"]],
                          return_inverse=True)
    profs = pixel_profiles(pulses, ks)

    # The fits below stay one call per pixel: the benchmark's tracer
    # (perfbench/tracer.py) wraps fit_t2, fit_waterfat, fit_t1_m0 and the
    # T1 stage's fitcore.solve_boxed, and its hooks read each pixel's result.
    # T2 and T1/M0 are fitted at k-hat, so they are valid only where B1 is;
    # a T2 pinned at a fit bound is invalid too.

    # T2 from the spin echoes I9-I11 of both segments.
    basis1, basis2 = profs.echo_bases
    t2_fits = [
        t2fit.fit_t2(e[0], e[1], basis1[j], basis2[j],
                     timing.echo_offsets, opts.t2_bounds)
        for e, j in zip(np.abs(px[:, :, 8:11]), which)]
    est["t2"] = np.array([f.t2 for f in t2_fits])
    ok["t2"] = np.array([f.valid and not f.at_bound for f in t2_fits],
                        dtype=bool) & ok["b1"]

    # Water/fat, T2* and off-resonance from the segment-averaged FIDs I1-I5.
    wf_cfg = waterfat.WfConfig(
        times=timing.fid_times, omega_cs=images.omega_cs,
        t2s_min=opts.t2s_min, t2s_max=opts.t2s_max,
        t2s_points=opts.t2s_points, d_omega_step=opts.d_omega_step,
        omega_bound=opts.omega_bound)
    wfs = [waterfat.fit_waterfat(fid, wf_cfg)
           for fid in 0.5 * (px[:, 0, 0:5] + px[:, 1, 0:5])]
    wf_ok = np.array([wf.valid for wf in wfs], dtype=bool)
    for name in ("t2s_water", "t2s_fat", "d_omega0", "fat_fraction"):
        est[name] = np.array([getattr(wf, name) for wf in wfs])
        ok[name] = wf_ok
    est["delta_b0"] = waterfat.delta_b0(est["d_omega0"])
    ok["delta_b0"] = wf_ok

    # T1/M0 from the segment-averaged probes I6, I7 and segment 1's I8,
    # corrected for the species' short-echo weighting.
    te = timing.echo_time
    probes = np.abs(0.5 * (px[:, 0, 5:7] + px[:, 1, 5:7]))
    meas = np.column_stack([probes, np.abs(px[:, 0, 7])])
    t1_fits = []
    for m, k, j, wf in zip(meas, est["b1"], which, wfs):
        echo_scale = waterfat.echo_time_scale(
            wf.w, wf.f, wf.t2s_water, wf.t2s_fat, te,
            images.omega_cs) if wf.valid else 1.0
        mz0 = t1fit.residual_mz0(abs(wf.w), abs(wf.f), k,
                                 timing.sat_flip) if wf.valid else 0.0
        ctx = t1fit.T1Context(
            probe_txr=profs.txr_probe[j], probe_mzf=profs.mzf_probe[j],
            imaging_txr=profs.txr_imaging[0][j], z_samples=profs.z,
            times=timing.acq_times[5:8], echo_time=te, mz0=mz0,
            echo_scale=echo_scale, t1_bounds=opts.t1_bounds)
        t1_fits.append(t1fit.fit_t1_m0(m, ctx))
    t1_ok = np.array([f.valid for f in t1_fits], dtype=bool)
    t1_pinned = np.array([f.at_bound for f in t1_fits], dtype=bool)
    for name in ("t1", "m0", "t1_over_m0"):
        est[name] = np.where(t1_ok, [getattr(f, name) for f in t1_fits], 0.0)
        ok[name] = t1_ok & ~t1_pinned & ok["b1"]

    out = QuantMaps.zeros((h, w))
    out.mask = mask.bits.copy()
    for name in MAP_NAMES:
        getattr(out, name)[rows, cols] = est[name]
        out.valid[name][rows, cols] = ok[name]
    return out
