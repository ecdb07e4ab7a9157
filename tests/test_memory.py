"""Transient memory of the closed loop's large steps.

tracemalloc sees numpy's allocations, so each test takes the peak of traced
memory over one call (its result included), after a first call has set up
any first-use state.  Each bound is the peak this code reaches plus the
stated margin; a step that holds a second copy of its data fails it.
"""

import tracemalloc

import numpy as np
import pytest

from qmapkit import formats, phantom, pipeline, seqsim, waterfat

MB = 2.0 ** 20


def _peak_mb(fn, *args):
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def noisy_bottles():
    timing = seqsim.default_timing()
    pulses = seqsim.build_pulses(timing=timing)
    pm = phantom.phantom_from_config(
        {"type": "bottles", "width": 64, "height": 64})
    return pm, timing, pulses


def test_simulate_scan_draws_noise_into_the_image_buffer(noisy_bottles):
    # 0.83 MB, of which 0.69 MB is the complex64 images: +10%.  Drawing the
    # whole set's noise at once as complex128 read 2.14 MB (34.1 MB at
    # 256 x 256, where this reads 13.2 MB).
    pm, timing, pulses = noisy_bottles
    assert _peak_mb(seqsim.simulate_scan, pm, timing, pulses, 1e-4,
                    1) < 0.83 * 1.1


def test_write_imageset_writes_a_complex64_set_as_it_is(noisy_bottles,
                                                        tmp_path):
    # 0.014 MB, no image copied: +10%.
    pm, timing, pulses = noisy_bottles
    images = seqsim.simulate_scan(pm, timing, pulses, 1e-4, 1)
    assert _peak_mb(formats.write_imageset, images, tmp_path) < 0.014 * 1.1


def test_write_imageset_streams_one_image_at_a_time(noisy_bottles,
                                                    tmp_path):
    # A complex128 set: 0.069 MB, about two complex64 images: +10%.
    # Casting the whole set at once reads 0.70 MB.
    pm, timing, pulses = noisy_bottles
    images = seqsim.simulate_scan(pm, timing, pulses, 1e-4, 1)
    images.data = images.data.astype(complex)
    assert _peak_mb(formats.write_imageset, images, tmp_path) < 0.069 * 1.1


def test_read_imageset_reads_into_one_complex64_buffer(noisy_bottles,
                                                       tmp_path):
    # 0.70 MB, of which 0.69 MB is the complex64 images: +10%.
    pm, timing, pulses = noisy_bottles
    formats.write_imageset(
        seqsim.simulate_scan(pm, timing, pulses, 1e-4, 1), tmp_path)
    assert formats.read_imageset(tmp_path).data.dtype == np.complex64
    assert _peak_mb(formats.read_imageset, tmp_path) < 0.70 * 1.1


def test_read_maps_reads_one_plane_at_a_time(noisy_bottles, tmp_path):
    # 0.385 MB, mostly the ten float64 maps it returns: +10%.  Holding the
    # 21-plane float32 payload (0.34 MB) beside them read 0.719 MB.
    pm, timing, pulses = noisy_bottles
    formats.write_maps(pipeline.estimate_all(
        seqsim.simulate_scan(pm, timing, pulses, 1e-4, 1)), tmp_path)
    assert _peak_mb(formats.read_maps, tmp_path) < 0.385 * 1.1


def test_one_pixel_water_fat_fit_at_the_default_grid():
    # 0.82 MB, mostly the 1600 pairs' Gram-Schmidt and projectors: +10%.
    cfg = waterfat.WfConfig(times=seqsim.default_timing().fid_times)
    rng = np.random.default_rng(2)
    data = rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5))

    def cold(data, cfg):  # the grid's decomposition is cached per config
        waterfat._pair_decomposition.cache_clear()
        return waterfat.fit_waterfat_pixels(data, cfg)

    assert _peak_mb(cold, data, cfg) < 0.82 * 1.1


def test_pixel_profiles_hold_one_pass_of_scales():
    # 944 distinct scales: 2.36 MB, one pass of 25 scales plus the fields
    # they make: +10%.
    pulses = seqsim.build_pulses()
    ks = np.linspace(0.2, 1.8, 944)
    assert _peak_mb(seqsim.pixel_profiles, pulses, ks) < 2.36 * 1.1
