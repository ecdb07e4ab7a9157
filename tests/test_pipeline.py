import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from qmapkit import (b1map, bloch, fitcore, maskgen, phantom, pipeline,
                     seqsim, t2fit, waterfat)

from conftest import WATER


def test_closed_loop_water_disc(water_disc, water_scan):
    maps = pipeline.estimate_all(water_scan)
    inside = maps.mask
    assert inside.sum() > 100

    for name in pipeline.MAP_NAMES:
        assert np.all(maps.valid[name][inside])
        assert not np.any(getattr(maps, name)[~inside])
        assert not np.any(maps.valid[name][~inside])

    truth = phantom.phantom_truth_arrays(water_disc)
    npt.assert_allclose(maps.b1[inside], 1.0, rtol=0.005)
    npt.assert_allclose(maps.t2[inside], WATER.t2, rtol=0.01)
    assert np.max(maps.fat_fraction[inside]) <= 0.01
    assert np.max(np.abs(maps.d_omega0[inside])) <= 2.0 * np.pi
    # T2* lands within one cell of the log-spaced search axis.
    cell = (0.150 / 0.003) ** (1.0 / 39.0)
    ratio = maps.t2s_water[inside] / WATER.t2s_water
    assert np.max(np.abs(np.log(ratio))) <= np.log(cell) + 1e-12
    npt.assert_allclose(maps.t1[inside], WATER.t1, rtol=0.01)
    npt.assert_allclose(maps.m0[inside], truth["m0"][inside], rtol=0.01)
    npt.assert_allclose(maps.t1_over_m0[inside],
                        maps.t1[inside] / maps.m0[inside], rtol=1e-12)
    npt.assert_allclose(maps.delta_b0[inside],
                        maps.d_omega0[inside] / (2.0 * np.pi * 42.577e6),
                        rtol=1e-12)


def test_explicit_mask_limits_work(water_scan):
    h, w = water_scan.data.shape[2:]
    bits = np.zeros((h, w), dtype=bool)
    bits[h // 2, w // 2 - 1:w // 2 + 2] = True  # three center pixels
    maps = pipeline.estimate_all(water_scan, mask=maskgen.Mask(bits=bits))
    npt.assert_array_equal(maps.mask, bits)
    assert np.all(maps.valid["t2"][bits])
    assert maps.valid["t2"].sum() == 3
    npt.assert_allclose(maps.t2[bits], WATER.t2, rtol=0.01)


def test_mask_shape_mismatch(water_scan):
    bad = maskgen.Mask(bits=np.ones((8, 8), dtype=bool))
    with pytest.raises(ValueError):
        pipeline.estimate_all(water_scan, mask=bad)


def test_quantize_snaps_to_table_grid():
    table = pipeline._ratio_table(seqsim.build_pulses(),
                                  pipeline.EstimateOptions())
    assert pipeline._quantize(1.0004, table) == 1.0
    assert pipeline._quantize(1.0012, table) == 1.002
    assert pipeline._quantize(0.05, table) == table.k_values[0] == 0.2
    assert pipeline._quantize(7.0, table) == table.k_values[-1]
    # The table's own grid, uneven for a hand-made table.
    uneven = b1map.RatioTable([0.5, 0.9, 1.0, 1.5], [4.0, 3.0, 2.0, 1.0])
    npt.assert_array_equal(pipeline._quantize([0.94, 0.96, 1.3], uneven),
                           [0.9, 1.0, 1.5])


def test_ratio_table_cache_keys_on_imaging_flip():
    # A table built for the 60-degree scan must not serve a 45-degree one.
    pm = phantom.make_disc_phantom(32, 32, replace(WATER, b1_scale=1.1),
                                   radius_frac=0.25)
    opts = pipeline.EstimateOptions(b1_k_min=0.7, b1_k_max=1.3)
    bits = np.zeros(pm.shape, dtype=bool)
    bits[16, 15:18] = True
    mask = maskgen.Mask(bits=bits)
    for flip in (np.pi / 3.0, np.pi / 4.0):
        timing = replace(seqsim.default_timing(), imaging_flip=flip)
        maps = pipeline.estimate_all(seqsim.simulate_scan(pm, timing),
                                     mask, opts)
        assert abs(np.median(maps.b1[mask.bits]) - 1.1) < 0.01


def test_simulate_scan_plays_the_schedule_of_its_pulse_set(water_disc):
    # A 45-degree pulse set once played under the recorded 60-degree
    # schedule, and the estimate read a median B1 of 0.75.  The hard pulse
    # set makes the double-angle ratio exact.
    timing = replace(seqsim.default_timing(), imaging_flip=np.pi / 4.0)
    p45 = seqsim.build_pulses(seqsim.PulseParams(hard=True), timing)
    assert p45.timing == timing
    images = seqsim.simulate_scan(water_disc, pulses=p45)
    assert images.timing == timing
    maps = pipeline.estimate_all(images)
    assert abs(np.median(maps.b1[maps.mask]) - 1.0) < 0.001
    with pytest.raises(ValueError, match="another schedule"):
        seqsim.simulate_scan(water_disc, seqsim.SequenceTiming(), pulses=p45)


def test_estimate_all_computes_profiles_once(monkeypatch):
    pm = phantom.make_disc_phantom(32, 32, WATER, radius_frac=0.25)
    pm.b1_scale[:, :16] = 0.9
    images = seqsim.simulate_scan(pm)
    calls, reads = [], []
    read = bloch.CayleyKleinSeries.cayley_klein

    def counted(pulses, k, series):
        calls.append(np.asarray(k).copy())
        assert series is not None
        return seqsim.pixel_profiles(pulses, k, series)

    def counted_read(series, scales):
        reads.append(np.shape(scales))
        return read(series, scales)

    opts = pipeline.EstimateOptions(b1_k_min=0.7, b1_k_max=1.3)
    table = pipeline._ratio_table(seqsim.build_pulses(), opts)
    monkeypatch.setattr(pipeline, "pixel_profiles", counted)
    monkeypatch.setattr(bloch.CayleyKleinSeries, "cayley_klein",
                        counted_read)
    bits = np.zeros(pm.shape, dtype=bool)
    bits[16, 12:20] = True
    maps = pipeline.estimate_all(images, maskgen.Mask(bits=bits), opts,
                                 ratio_table=table)
    # The 8 noiseless pixels are 2 distinct rows: one call with their
    # snapped scales, read at both.
    assert len(calls) == 1 and calls[0].shape == (2,)
    npt.assert_allclose(np.sort(calls[0]), [0.9, 1.0], atol=0.005)
    assert reads == [(5, 2)]
    npt.assert_allclose(maps.b1[bits], np.where(np.arange(8) < 4, 0.9, 1.0),
                        atol=0.005)


def _disc_k11():
    pm = phantom.make_disc_phantom(32, 32, replace(WATER, b1_scale=1.1),
                                   radius_frac=0.25)
    bits = np.zeros(pm.shape, dtype=bool)
    bits[16, 15:18] = True
    return seqsim.simulate_scan(pm), maskgen.Mask(bits=bits)


def test_estimate_all_with_a_table_propagates_nothing(monkeypatch):
    images, mask = _disc_k11()
    opts = pipeline.EstimateOptions(b1_k_min=0.7, b1_k_max=1.3)
    table = pipeline._ratio_table(seqsim.build_pulses(timing=images.timing),
                                  opts)
    calls = []
    kernel = bloch.cayley_klein

    def counted(*args):
        calls.append(args)
        return kernel(*args)
    monkeypatch.setattr(bloch, "cayley_klein", counted)
    maps = pipeline.estimate_all(images, mask, opts, ratio_table=table)
    assert calls == []
    npt.assert_allclose(maps.b1[mask.bits], 1.1, atol=0.005)


@pytest.mark.parametrize("other", [
    {"timing": {"imaging_flip": np.pi / 4.0}},
    {"params": {"slice_thickness": 0.005}},
    {"params": {"z_count": 65}},
    {"params": {"hard": True}},
], ids=["flips", "thickness", "z-grid", "hard"])
def test_estimate_all_rejects_a_table_for_other_pulses(other):
    # A table for other pulses reads this k = 1.1 disc far off (b1 1.46,
    # every pixel valid, for 45/90-degree imaging flips over the default k
    # range), and its series would give T2 and T1 the wrong profiles.
    images, mask = _disc_k11()
    opts = pipeline.EstimateOptions(b1_k_min=0.7, b1_k_max=1.3)
    pulses = seqsim.build_pulses(
        replace(images.pulse_params, **other.get("params", {})),
        replace(images.timing, **other.get("timing", {})))
    table = pipeline._ratio_table(pulses, opts)
    with pytest.raises(ValueError, match="other pulses|shape times"):
        pipeline.estimate_all(images, mask, opts, ratio_table=table)


def test_a_given_table_sets_the_b1_range_and_grid():
    # The options' b1 grid only builds a table: with a [0.7, 1.3] table,
    # the default options give the maps of the matching ones, bit for bit.
    images, mask = _disc_k11()
    table = b1map.build_ratio_table(
        seqsim.build_pulses(timing=images.timing), 0.7, 1.3, 0.002)
    got = pipeline.estimate_all(images, mask, pipeline.EstimateOptions(),
                                ratio_table=table)
    want = pipeline.estimate_all(
        images, mask, pipeline.EstimateOptions(b1_k_min=0.7, b1_k_max=1.3),
        ratio_table=table)
    for name in pipeline.MAP_NAMES:
        npt.assert_array_equal(getattr(got, name), getattr(want, name))
        npt.assert_array_equal(got.valid[name], want.valid[name])


def test_estimate_all_reads_a_table_without_a_series():
    # A table without a series (built by hand) is read as before, with the
    # profiles propagated directly.
    images, mask = _disc_k11()
    table = b1map.build_ratio_table(
        seqsim.build_pulses(timing=images.timing), 0.7, 1.3, 0.002)
    opts = pipeline.EstimateOptions(b1_k_min=0.7, b1_k_max=1.3)
    bare = b1map.RatioTable(table.k_values, table.ratios)
    npt.assert_allclose(
        pipeline.estimate_all(images, mask, opts, ratio_table=bare).t1,
        pipeline.estimate_all(images, mask, opts, ratio_table=table).t1,
        rtol=1e-12, atol=0)


def test_estimate_all_builds_echo_bases_once_per_segment(monkeypatch):
    pm = phantom.make_disc_phantom(32, 32, WATER, radius_frac=0.25)
    pm.b1_scale[:, :16] = 0.9
    images = seqsim.simulate_scan(pm)
    calls = {"echo_basis": 0, "solve_boxed": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(t2fit, "echo_basis")
    counted(fitcore, "solve_boxed")
    bits = np.zeros(pm.shape, dtype=bool)
    bits[16, 12:20] = True
    maps = pipeline.estimate_all(images, maskgen.Mask(bits=bits),
                                 pipeline.EstimateOptions(b1_k_min=0.7,
                                                          b1_k_max=1.3))
    assert np.all(maps.valid["t1"][bits])
    # One call per segment over both distinct scales; T2 and T1 are fitted
    # by variable projection, so no Gauss-Newton solve runs.
    assert calls["echo_basis"] == 2
    assert calls["solve_boxed"] == 0


@pytest.fixture(scope="module")
def noisy_bottles():
    pm = phantom.make_bottle_phantom(32, 32)
    images = seqsim.simulate_scan(pm, noise_sigma=1e-4, seed=1)
    return images, maskgen.make_mask(maskgen.mean_image(images))


def test_a_pixel_reads_the_same_in_any_stratum(noisy_bottles):
    # B1, T2, water/fat and T1/M0 are fitted as arrays over the masked
    # pixels; a pixel's maps and flags are bit-equal whether it is estimated
    # with the whole mask or with every seventh masked pixel.
    images, mask = noisy_bottles
    full = pipeline.estimate_all(images, mask)
    bits = np.zeros_like(mask.bits)
    bits.ravel()[np.flatnonzero(mask.bits)[3::7]] = True
    part = pipeline.estimate_all(images, maskgen.Mask(bits=bits))
    assert bits.sum() > 20 and not full.valid["t1"][bits].all()
    for name in pipeline.MAP_NAMES:
        assert (getattr(part, name)[bits].tobytes()
                == getattr(full, name)[bits].tobytes()), name
        npt.assert_array_equal(part.valid[name][bits],
                               full.valid[name][bits])


@pytest.fixture(scope="module")
def noisy_water(water_disc, water_scan):
    # Every masked pixel of the noisy disc is a distinct row; every one of
    # the noiseless disc's is the same row.
    mask = maskgen.make_mask(maskgen.mean_image(water_scan))
    return seqsim.simulate_scan(water_disc, noise_sigma=1e-4, seed=1), mask


def test_estimate_all_fits_t2_and_t1_in_one_call_each(water_scan,
                                                      noisy_water,
                                                      monkeypatch):
    calls = []
    original = fitcore.fit_scaled_column

    def counted(column, data, bounds, params):
        calls.append(len(data))
        return original(column, data, bounds, params)

    monkeypatch.setattr(fitcore, "fit_scaled_column", counted)
    h, w = water_scan.data.shape[2:]
    for n in (1, 8):
        bits = np.zeros((h, w), dtype=bool)
        bits[h // 2, 12:12 + n] = True
        calls.clear()
        pipeline.estimate_all(water_scan, maskgen.Mask(bits=bits))
        assert calls == [1, 1]
    calls.clear()
    maps = pipeline.estimate_all(*noisy_water)
    assert calls == [maps.mask.sum()] * 2 and calls[0] > 100


def test_estimate_all_fits_waterfat_in_one_call(water_scan, noisy_water,
                                                monkeypatch):
    calls = []
    original = waterfat.fit_waterfat_pixels

    def counted(data, cfg):
        calls.append(len(data))
        return original(data, cfg)

    def one_row(data, cfg):
        raise AssertionError("estimate_all fitted one pixel at a time")

    monkeypatch.setattr(waterfat, "fit_waterfat_pixels", counted)
    monkeypatch.setattr(waterfat, "fit_waterfat", one_row)
    h, w = water_scan.data.shape[2:]
    for n in (1, 8):
        bits = np.zeros((h, w), dtype=bool)
        bits[h // 2, 12:12 + n] = True
        calls.clear()
        maps = pipeline.estimate_all(water_scan, maskgen.Mask(bits=bits))
        assert calls == [1] and maps.valid["fat_fraction"][bits].all()
    calls.clear()
    maps = pipeline.estimate_all(*noisy_water)
    assert calls == [maps.mask.sum()] == [153]


def test_equal_options_build_the_water_fat_grid_once(water_scan):
    h, w = water_scan.data.shape[2:]
    bits = np.zeros((h, w), dtype=bool)
    bits[h // 2, 12:20] = True
    waterfat._pair_decomposition.cache_clear()
    first, second = (pipeline.estimate_all(
        water_scan, maskgen.Mask(bits=bits), pipeline.EstimateOptions())
        for _ in range(2))
    info = waterfat._pair_decomposition.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for name in pipeline.MAP_NAMES:
        assert getattr(first, name).tobytes() == \
            getattr(second, name).tobytes()
        npt.assert_array_equal(first.valid[name], second.valid[name])
    cfg = waterfat.WfConfig(times=water_scan.timing.fid_times)
    assert not any(a.flags.writeable
                   for a in waterfat._pair_decomposition(cfg))


def test_t1_is_isolated_from_the_water_fat_stage():
    # A quadratic phase across I1-I5 at one pixel changes its water/fat
    # split, and through the echo-time factor its M0; B1, T2, T1 and every
    # validity stay byte-equal.  (A scale and a linear phase alone would
    # leave fat fraction and M0 unchanged in exact arithmetic.)
    pm = phantom.make_disc_phantom(
        32, 32, replace(WATER, water_amp=0.7, fat_amp=0.3), radius_frac=0.25)
    images = seqsim.simulate_scan(pm, noise_sigma=1e-4, seed=2)
    bits = np.zeros(pm.shape, dtype=bool)
    bits[16, 14:18] = True
    mask = maskgen.Mask(bits=bits)
    ref = pipeline.estimate_all(images, mask)
    changed = replace(images, data=images.data.copy())
    changed.data[:, 0:5, 16, 15] *= 1.5 * np.exp(0.4j * np.arange(5) ** 2)
    maps = pipeline.estimate_all(changed, mask)
    for name in ("b1", "t2", "t1"):
        npt.assert_array_equal(getattr(maps, name), getattr(ref, name))
    for name in pipeline.MAP_NAMES:
        npt.assert_array_equal(maps.valid[name], ref.valid[name])
    moved = np.zeros(pm.shape, dtype=bool)
    moved[16, 15] = True
    for name in pipeline.MAP_NAMES:
        diff = getattr(maps, name) != getattr(ref, name)
        assert not np.any(diff & ~moved), name
    for name in ("fat_fraction", "m0"):
        assert abs(getattr(maps, name)[16, 15]
                   - getattr(ref, name)[16, 15]) > 1e-6, name


def test_estimate_options_reject_bad_fit_bounds():
    with pytest.raises(ValueError):
        pipeline.EstimateOptions(t1_bounds=(5.0, 0.05))
    with pytest.raises(ValueError):
        pipeline.EstimateOptions(t2_bounds=(0.0, 3.0))


@pytest.mark.parametrize("options, message", [
    ({"b1_k_min": 1.5, "b1_k_max": 1.2}, "b1_k_min 1.5 must be in"),
    ({"b1_step": 0.0}, "b1_step must be > 0"),
    ({"b1_k_min": -0.1}, "b1_k_min -0.1 must be in")])
def test_estimate_options_check_the_b1_grid(options, message):
    # The ratio-table build once refused these, after the images were read.
    with pytest.raises(ValueError, match=message):
        pipeline.EstimateOptions(**options)


@pytest.mark.parametrize("name, bounds", [
    ("t2_bounds", (0.005, np.inf)), ("t1_bounds", (0.05, np.inf)),
    ("t2_bounds", (np.nan, 3.0)), ("t1_bounds", (0.05, np.nan))])
def test_estimate_options_reject_non_finite_fit_bounds(name, bounds):
    # An infinite upper bound once gave T2 = inf at every masked pixel.
    with pytest.raises(ValueError, match="need finite 0 < low < high"):
        pipeline.EstimateOptions(**{name: bounds})


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", [
    "b1_k_min", "b1_k_max", "b1_step", "t2s_min", "t2s_max", "d_omega_step",
    "omega_bound"])
def test_estimate_options_reject_non_finite_grid_values(name, value):
    # An infinite t2s_max once gave a non-finite, valid T2*water map, and an
    # infinite omega_bound or k_max an OverflowError mid-estimate.
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        pipeline.EstimateOptions(**{name: value})


def test_estimate_options_convert_numbers_as_config_values_do(water_scan):
    # A float t2s_points once passed the options and then raised TypeError
    # in the water/fat stage; a string step or bound raised numpy's or
    # Python's TypeError.
    opts = pipeline.EstimateOptions(t2s_points=16.0, b1_step="0.002",
                                    t1_bounds=("0.05", 5))
    assert opts == pipeline.EstimateOptions(t2s_points=16)
    assert type(opts.t2s_points) is int and opts.t1_bounds == (0.05, 5.0)
    maps = pipeline.estimate_all(water_scan, opts=opts)
    assert maps.valid["t2s_water"][maps.mask].all()


@pytest.mark.parametrize("options, name", [
    ({"b1_k_min": "x"}, "b1_k_min"), ({"b1_k_max": None}, "b1_k_max"),
    ({"b1_step": "x"}, "b1_step"), ({"t1_bounds": ("x", 5.0)}, "t1_bounds"),
    ({"t2_bounds": 3.0}, "t2_bounds"),
    ({"t2_bounds": (0.005, 1.0, 3.0)}, "t2_bounds"),
    ({"t2s_points": "16.5"}, "t2s_points")])
def test_estimate_options_name_a_value_of_the_wrong_kind(options, name):
    with pytest.raises(ValueError, match=f"^{name} must be a"):
        pipeline.EstimateOptions(**options)


@pytest.mark.parametrize("images, opts", [
    ({}, {"t2s_min": 0.1, "t2s_max": 0.05}), ({}, {"t2s_points": 1}),
    ({}, {"d_omega_step": 10.0, "omega_bound": 5.0}),
    ({"omega_cs": np.nan}, {})],
    ids=["t2s_range", "t2s_points", "offset_step", "omega_cs"])
def test_bad_waterfat_setting_raises_before_any_stage(water_scan, monkeypatch,
                                                      images, opts):
    calls = []
    original = b1map.estimate_b1

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(b1map, "estimate_b1", counted)
    with pytest.raises(ValueError):
        pipeline.estimate_all(replace(water_scan, **images),
                              opts=pipeline.EstimateOptions(**opts))
    assert calls == []


def test_non_finite_pixel_is_invalid_and_isolated(water_scan):
    bits = np.zeros(water_scan.data.shape[2:], dtype=bool)
    bits[16, 12:20] = True
    mask = maskgen.Mask(bits=bits)
    clean = pipeline.estimate_all(water_scan, mask)
    others = bits.copy()
    others[16, 15] = False
    for seg, acq in ((0, 2), (1, 6), (0, 9)):       # I3, I7, I10
        data = water_scan.data.copy()
        data[seg, acq, 16, 15] = np.nan
        maps = pipeline.estimate_all(replace(water_scan, data=data), mask)
        npt.assert_array_equal(maps.mask, bits)
        for name in pipeline.MAP_NAMES:
            got = getattr(maps, name)
            assert np.all(np.isfinite(got))
            assert got[16, 15] == 0.0 and not maps.valid[name][16, 15]
            npt.assert_array_equal(got[others], getattr(clean, name)[others])
            npt.assert_array_equal(maps.valid[name], clean.valid[name]
                                   & others)


def test_b1_invalid_pixel_invalidates_k_dependent_maps(water_scan):
    bits = np.zeros(water_scan.data.shape[2:], dtype=bool)
    bits[16, 12:20] = True
    mask = maskgen.Mask(bits=bits)
    clean = pipeline.estimate_all(water_scan, mask)
    others = bits.copy()
    others[16, 15] = False
    # Segment 2's I8 ten times too large: a ratio beyond the table's end,
    # so k-hat is clamped and B1 invalid.  Only I8 changes.
    data = water_scan.data.copy()
    data[1, 7, 16, 15] *= 10.0
    maps = pipeline.estimate_all(replace(water_scan, data=data), mask)
    for name in pipeline.MAP_NAMES:
        got = getattr(maps, name)
        assert (got[others].tobytes()
                == getattr(clean, name)[others].tobytes())
        npt.assert_array_equal(maps.valid[name][others],
                               clean.valid[name][others])
        k_dependent = name in ("b1", "t2", "t1", "m0", "t1_over_m0")
        assert maps.valid[name][16, 15] != k_dependent
    assert maps.b1[16, 15] == pipeline.EstimateOptions().b1_k_min


def test_t2_pinned_at_its_bound_is_invalid(water_scan):
    bits = np.zeros(water_scan.data.shape[2:], dtype=bool)
    bits[16, 12:20] = True
    mask = maskgen.Mask(bits=bits)
    clean = pipeline.estimate_all(water_scan, mask)
    others = bits.copy()
    others[16, 15] = False
    # Flat spin echoes I9-I11 in both segments: no decay, so T2 pins at the
    # upper fit bound.  Only the echoes change.
    data = water_scan.data.copy()
    data[:, 9:11, 16, 15] = data[:, 8:9, 16, 15]
    maps = pipeline.estimate_all(replace(water_scan, data=data), mask)
    assert maps.t2[16, 15] == pipeline.EstimateOptions().t2_bounds[1]
    assert not maps.valid["t2"][16, 15]
    assert clean.valid["t2"][16, 15]
    for name in pipeline.MAP_NAMES:
        got = getattr(maps, name)
        assert (got[others].tobytes()
                == getattr(clean, name)[others].tobytes())
        npt.assert_array_equal(maps.valid[name][others],
                               clean.valid[name][others])
        if name != "t2":
            assert maps.valid[name][16, 15]


def test_t1_pinned_at_its_bound_is_invalid(water_scan):
    # The disc's T1 is 0.8 s, beyond the 0.5 s upper bound, so every fit
    # pins there; its maps keep the bound's value but read invalid.
    bits = np.zeros(water_scan.data.shape[2:], dtype=bool)
    bits[16, 14:18] = True
    mask = maskgen.Mask(bits=bits)
    opts = pipeline.EstimateOptions(t1_bounds=(0.05, 0.5))
    maps = pipeline.estimate_all(water_scan, mask, opts)
    pinned = maps.t1 >= 0.5 * (1 - 1e-9)
    assert pinned[bits].all()
    for name in ("t1", "m0", "t1_over_m0"):
        assert not maps.valid[name][pinned].any()
    for name in ("b1", "t2", "fat_fraction"):
        assert maps.valid[name][bits].all()


def test_non_finite_sample_keeps_derived_mask(water_scan):
    clean = pipeline.estimate_all(water_scan)
    data = water_scan.data.copy()
    data[0, 3, 16, 16] = np.nan
    maps = pipeline.estimate_all(replace(water_scan, data=data))
    others = np.ones(clean.mask.shape, dtype=bool)
    others[16, 16] = False
    assert clean.mask.sum() > 100
    npt.assert_array_equal(maps.mask[others], clean.mask[others])
    for name in pipeline.MAP_NAMES:
        assert (getattr(maps, name)[others].tobytes()
                == getattr(clean, name)[others].tobytes())
        npt.assert_array_equal(maps.valid[name][others],
                               clean.valid[name][others])
        assert not maps.valid[name][16, 16]


_POOL_SCRIPT = r"""
import os, time
from qmapkit import phantom, pipeline, seqsim


def worker_ticks():
    # utime + stime of every thread but the main one, in clock ticks.
    ticks, workers = 0, 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == os.getpid():
            continue
        with open(f"/proc/self/task/{tid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks, workers = ticks + int(fields[11]) + int(fields[12]), workers + 1
    return ticks, workers


pm = phantom.phantom_from_config({"type": "bottles", "width": 32,
                                  "height": 32})
images = seqsim.simulate_scan(pm, noise_sigma=1e-4, seed=1)
time.sleep(1.0)
before, workers = worker_ticks()
pipeline.estimate_all(images)
time.sleep(0.3)
print(workers, before, worker_ticks()[0])
"""


def _numpy_blas_is_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "").lower()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread CPU times in /proc")
@pytest.mark.skipif(not _numpy_blas_is_openblas(),
                    reason="numpy's BLAS is not OpenBLAS")
def test_estimate_never_wakes_the_blas_thread_pool():
    # Every product of the estimate is small enough for OpenBLAS to run on
    # the calling thread, so its worker threads log no CPU time.  A woken
    # pool burns a core, and a worker that waits for one stalls the product.
    src = str(Path(pipeline.__file__).resolve().parents[1])
    env = os.environ.copy()
    env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = "2"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _POOL_SCRIPT], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    workers, before, after = map(int, proc.stdout.split())
    if workers == 0:
        pytest.skip("OpenBLAS started no worker thread")
    assert after == before


def test_every_pixel_reads_as_its_own_one_pixel_estimate():
    # A noiseless disc with two B1 regions is two distinct rows, each solved
    # once; every pixel's maps and flags are byte-equal to estimating it
    # alone.
    pm = phantom.make_disc_phantom(32, 32, WATER, radius_frac=0.2)
    pm.b1_scale[:, :16] = 0.9
    images = seqsim.simulate_scan(pm)
    opts = pipeline.EstimateOptions(b1_k_min=0.7, b1_k_max=1.3,
                                    t2s_points=8)
    table = pipeline._ratio_table(seqsim.build_pulses(), opts)
    full = pipeline.estimate_all(images, opts=opts, ratio_table=table)
    assert full.mask.sum() > 90 and full.valid["t1"][full.mask].all()
    assert np.unique(full.b1[full.mask]).size == 2
    for r, c in zip(*np.nonzero(full.mask)):
        bits = np.zeros(pm.shape, dtype=bool)
        bits[r, c] = True
        one = pipeline.estimate_all(images, maskgen.Mask(bits=bits), opts,
                                    ratio_table=table)
        for name in pipeline.MAP_NAMES:
            assert getattr(one, name)[r, c].tobytes() == \
                getattr(full, name)[r, c].tobytes(), (name, r, c)
            assert one.valid[name][r, c] == full.valid[name][r, c]
