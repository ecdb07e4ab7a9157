"""Exact symmetries of the estimator: each transformed scan's maps follow
from the original's without an oracle or the phantom's truth."""

import dataclasses

import numpy as np
import pytest

from qmapkit import maskgen, phantom, pipeline, seqsim
from qmapkit.pipeline import MAP_NAMES

SCALED = {"m0": 2.0, "t1_over_m0": 0.5}
NEGATED = ("d_omega0", "delta_b0")


@pytest.fixture(scope="module")
def scan():
    """32x32 bottles at sigma 1e-4 as complex64 (the payloads' precision),
    its mask, the ratio table and its maps."""
    images = seqsim.simulate_scan(phantom.make_bottle_phantom(32, 32),
                                  noise_sigma=1e-4, seed=1)
    images.data = images.data.astype(np.complex64)
    mask = maskgen.make_mask(maskgen.mean_image(images))
    table = pipeline._ratio_table(seqsim.build_pulses(timing=images.timing),
                                  pipeline.EstimateOptions())
    return images, mask, table, _estimate(images, mask, table)


def _estimate(images, mask, table):
    return pipeline.estimate_all(images, mask, ratio_table=table)


def _assert_bits(got, want):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _assert_same_validity(got, want):
    _assert_bits(got.mask, want.mask)
    for name in MAP_NAMES:
        _assert_bits(got.valid[name], want.valid[name])


def test_the_scan_has_valid_pixels_in_every_map(scan):
    maps = scan[3]
    assert all(maps.valid[name].sum() > 100 for name in MAP_NAMES)


def test_doubled_images_double_m0_alone(scan):
    images, mask, table, want = scan
    got = _estimate(dataclasses.replace(images, data=2 * images.data), mask,
                    table)
    _assert_same_validity(got, want)
    for name in MAP_NAMES:
        _assert_bits(getattr(got, name),
                     SCALED.get(name, 1.0) * getattr(want, name))


def test_conjugate_images_with_the_shift_negated_negate_the_offset(scan):
    images, mask, table, want = scan
    got = _estimate(dataclasses.replace(
        images, data=images.data.conj(), omega_cs=-images.omega_cs), mask,
        table)
    _assert_same_validity(got, want)
    for name in MAP_NAMES:
        # 0 - x, not -x: the unmasked zeros stay +0.
        _assert_bits(getattr(got, name), 0.0 - getattr(want, name)
                     if name in NEGATED else getattr(want, name))


def test_transposed_images_and_mask_transpose_every_map(scan):
    images, mask, table, want = scan
    got = _estimate(
        dataclasses.replace(images, data=np.ascontiguousarray(
            images.data.transpose(0, 1, 3, 2))),
        maskgen.Mask(bits=mask.bits.T.copy()), table)
    _assert_bits(got.mask, want.mask.T.copy())
    for name in MAP_NAMES:
        _assert_bits(getattr(got, name), getattr(want, name).T.copy())
        _assert_bits(got.valid[name], want.valid[name].T.copy())
