"""Per-pixel estimation pipeline: transmit scale, then T2, then the
water/fat/off-resonance search, then T1/M0.

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

    def map_dict(self):
        return {name: getattr(self, name) for name in MAP_NAMES}

    @classmethod
    def zeros(cls, shape):
        maps = {name: np.zeros(shape) for name in MAP_NAMES}
        valid = {name: np.zeros(shape, dtype=bool) for name in MAP_NAMES}
        return cls(mask=np.zeros(shape, dtype=bool), valid=valid, **maps)


@dataclass(frozen=True)
class EstimateOptions:
    """Stage configuration; defaults match the standard protocol."""

    b1_k_min: float = 0.2
    b1_k_max: float = 1.8
    b1_step: float = 0.002
    t2_bounds: tuple = (0.005, 3.0)
    t2s_min: float = 0.003
    t2s_max: float = 0.150
    t2s_points: int = 40
    d_omega_step: float = 2.0 * np.pi * 1.0
    omega_bound: float = 2.0 * np.pi * 60.0
    t1_starts: tuple = t1fit.DEFAULT_T1_STARTS
    t1_bounds: tuple = (0.05, 5.0)


_table_cache = {}


def _ratio_table(pulses: SequencePulses, opts: EstimateOptions):
    # The imaging waveform is fixed by the pulse geometry and its flip.
    key = (pulses.params, pulses.imaging.nominal_flip, opts.b1_k_min,
           opts.b1_k_max, opts.b1_step)
    table = _table_cache.get(key)
    if table is None:
        table = b1map.build_ratio_table(pulses, opts.b1_k_min, opts.b1_k_max,
                                        opts.b1_step)
        _table_cache[key] = table
    return table


def _quantize(k: float, opts: EstimateOptions) -> float:
    """Snap an estimated scale to the table grid so pixels share slice
    profiles."""
    k = min(max(k, opts.b1_k_min), opts.b1_k_max)
    steps = round((k - opts.b1_k_min) / opts.b1_step)
    return round(opts.b1_k_min + steps * opts.b1_step, 9)


def estimate_all(images: ImageSet, mask: Mask = None,
                 opts: EstimateOptions = EstimateOptions(),
                 ratio_table=None) -> QuantMaps:
    """Run every stage over the masked pixels of an image set."""
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

    out = QuantMaps.zeros((h, w))
    out.mask = mask.bits.copy()

    k_all, k_ok = b1map.estimate_b1(np.abs(data[0, 7]), np.abs(data[1, 7]),
                                    ratio_table)
    inside = mask.bits
    out.b1 = np.where(inside, k_all, 0.0)
    out.valid["b1"] = inside & k_ok

    wf_cfg = waterfat.WfConfig(
        times=timing.fid_times, omega_cs=images.omega_cs,
        t2s_min=opts.t2s_min, t2s_max=opts.t2s_max,
        t2s_points=opts.t2s_points, d_omega_step=opts.d_omega_step,
        omega_bound=opts.omega_bound)

    t6, t7, t8 = images.timing.acq_times[5:8]
    te = timing.echo_time
    rows, cols = np.nonzero(inside)
    k_q = [_quantize(k, opts) for k in k_all[rows, cols]]
    ks, which = np.unique(k_q, return_inverse=True)
    profs = pixel_profiles(pulses, ks)
    for r, c, i in zip(rows, cols, which):
        prof = profs.at(i)
        ectx = tuple(
            t2fit.EchoModelContext(
                weights=prof.txr_imaging[seg], theta_z=prof.theta_inv,
                echo_times=timing.echo_offsets, z_samples=prof.z, k=prof.k)
            for seg in (0, 1))
        fit2 = t2fit.fit_t2(
            np.abs(data[0, 8:11, r, c]), np.abs(data[1, 8:11, r, c]),
            ectx[0], ectx[1], t2_bounds=opts.t2_bounds)
        if fit2.valid:
            out.t2[r, c] = fit2.t2
            out.valid["t2"][r, c] = True

        fid = 0.5 * (data[0, 0:5, r, c] + data[1, 0:5, r, c])
        wf = waterfat.fit_waterfat(fid, wf_cfg)
        if wf.valid:
            out.t2s_water[r, c] = wf.t2s_water
            out.t2s_fat[r, c] = wf.t2s_fat
            out.d_omega0[r, c] = wf.d_omega0
            out.delta_b0[r, c] = waterfat.delta_b0(wf.d_omega0)
            out.fat_fraction[r, c] = wf.fat_fraction
            for name in ("t2s_water", "t2s_fat", "d_omega0", "delta_b0",
                         "fat_fraction"):
                out.valid[name][r, c] = True

        echo_scale = waterfat.echo_time_scale(
            wf.w, wf.f, wf.t2s_water, wf.t2s_fat, te,
            images.omega_cs) if wf.valid else 1.0
        mz0 = t1fit.residual_mz0(abs(wf.w), abs(wf.f), k_all[r, c],
                                 timing.sat_flip) if wf.valid else 0.0
        ctx1 = t1fit.T1Context(
            probe_txr=prof.txr_probe, probe_mzf=prof.mzf_probe,
            imaging_txr=prof.txr_imaging[0], z_samples=prof.z,
            times=(t6, t7, t8), echo_time=te, mz0=mz0,
            echo_scale=echo_scale, t1_bounds=opts.t1_bounds)
        probes = np.abs(0.5 * (data[0, 5:7, r, c] + data[1, 5:7, r, c]))
        meas = np.array([probes[0], probes[1],
                         np.abs(data[0, 7, r, c])])
        fit1 = t1fit.fit_t1_m0(meas, ctx1, starts=opts.t1_starts)
        if fit1.valid:
            out.t1[r, c] = fit1.t1
            out.m0[r, c] = fit1.m0
            out.t1_over_m0[r, c] = fit1.t1_over_m0
            for name in ("t1", "m0", "t1_over_m0"):
                out.valid[name][r, c] = True
    return out
