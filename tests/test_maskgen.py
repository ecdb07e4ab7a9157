import numpy as np
import numpy.testing as npt
import pytest

from qmapkit import maskgen


def test_disc_element_center_distance_rule():
    assert maskgen.disc_element(0).shape == (1, 1)
    e2 = maskgen.disc_element(2)
    assert e2.shape == (5, 5)
    assert e2[2, 0] and e2[2, 4] and e2[0, 2]
    assert not e2[0, 0]                 # corner distance 2*sqrt(2) > 2
    assert e2.sum() == 13
    with pytest.raises(ValueError):
        maskgen.disc_element(-1)


def test_mean_image_accepts_imageset_and_array(water_scan):
    from_set = maskgen.mean_image(water_scan)
    from_arr = maskgen.mean_image(water_scan.data)
    npt.assert_array_equal(from_set, from_arr)
    npt.assert_allclose(from_set,
                        np.abs(water_scan.data).mean(axis=(0, 1)))
    with pytest.raises(ValueError):
        maskgen.mean_image(np.zeros((4, 4)))


def test_threshold_validation_and_empty_input():
    mean = np.zeros((8, 8))
    assert maskgen.make_mask(mean).count == 0
    for bad in (0.0, 1.0, -0.2, 7.0):
        with pytest.raises(ValueError):
            maskgen.make_mask(np.ones((4, 4)), threshold=bad)
    with pytest.raises(ValueError):
        maskgen.make_mask(np.ones(5))


def test_non_finite_sample_does_not_empty_mask(water_scan):
    clean = maskgen.make_mask(maskgen.mean_image(water_scan))
    data = water_scan.data.copy()
    data[0, 3, 16, 16] = np.nan
    corrupt = maskgen.make_mask(maskgen.mean_image(data))
    assert clean.count > 100
    assert abs(corrupt.count - clean.count) <= 1


def test_threshold_is_relative_to_peak():
    rng = np.random.default_rng(4)
    mean = rng.uniform(0.0, 1.0, (24, 24))
    a = maskgen.make_mask(mean, threshold=0.4)
    b = maskgen.make_mask(mean * 123.0, threshold=0.4)
    npt.assert_array_equal(a.bits, b.bits)


def test_close_fills_pinhole_and_erode_trims_border():
    mean = np.zeros((32, 32))
    mean[8:24, 8:24] = 1.0
    mean[15, 15] = 0.0                   # pinhole inside the block
    mask = maskgen.make_mask(mean, threshold=0.5, close_radius=2,
                             erode_radius=1)
    assert mask.bits[15, 15]             # hole closed
    assert mask.bits[9, 9] and mask.bits[22, 22]
    assert not mask.bits[8, 8] and not mask.bits[23, 23]  # rim eroded
    assert not mask.bits[7, 16]


def test_isolated_speck_is_dropped():
    mean = np.zeros((32, 32))
    mean[10:20, 10:20] = 1.0
    mean[28, 3] = 1.0
    mask = maskgen.make_mask(mean, threshold=0.5)
    assert not mask.bits[28, 3]
    assert mask.bits[14, 14]


def test_structure_touching_edge_survives_close():
    # The close pads, so an edge-flush block is treated like an interior one.
    mean = np.zeros((16, 16))
    mean[0:8, 0:8] = 1.0
    mask = maskgen.make_mask(mean, threshold=0.5, close_radius=2,
                             erode_radius=0)
    assert mask.bits[0:8, 0:8].all()
    assert mask.count == 64


def test_close_is_idempotent():
    rng = np.random.default_rng(11)
    mean = (rng.uniform(0, 1, (40, 40)) > 0.55).astype(float)
    once = maskgen.make_mask(mean, threshold=0.5, close_radius=2,
                             erode_radius=0)
    twice = maskgen.make_mask(once.bits.astype(float), threshold=0.5,
                              close_radius=2, erode_radius=0)
    npt.assert_array_equal(once.bits, twice.bits)


def test_higher_threshold_masks_subset():
    rng = np.random.default_rng(5)
    mean = rng.uniform(0, 1, (30, 30))
    lo = maskgen.make_mask(mean, threshold=0.3, close_radius=0,
                           erode_radius=0)
    hi = maskgen.make_mask(mean, threshold=0.7, close_radius=0,
                           erode_radius=0)
    assert np.all(lo.bits[hi.bits])


def _brute_morph(bits, radius, reduce_hits):
    """Per-pixel dilation (any) or erosion (all) by the disc: a pixel's hits
    are its disc offsets, and an offset outside the array is unset."""
    h, w = bits.shape
    offsets = np.argwhere(maskgen.disc_element(radius)) - radius
    out = np.zeros_like(bits)
    for y in range(h):
        for x in range(w):
            out[y, x] = reduce_hits(
                0 <= y + dy < h and 0 <= x + dx < w and bits[y + dy, x + dx]
                for dy, dx in offsets)
    return out


def _brute_mask(bits, close_radius, erode_radius):
    if close_radius > 0:
        pad = close_radius + 1
        padded = np.pad(bits, pad)
        closed = _brute_morph(_brute_morph(padded, close_radius, any),
                              close_radius, all)
        bits = closed[pad:-pad, pad:-pad]
    if erode_radius > 0:
        bits = _brute_morph(bits, erode_radius, all)
    return bits


def _morphology_cases():
    rng = np.random.default_rng(21)
    for shape in ((1, 1), (1, 9), (9, 1), (1, 17), (13, 1), (2, 7), (12, 12)):
        yield np.ones(shape, dtype=bool)           # touches every edge
        yield rng.uniform(0, 1, shape) > 0.4
    block = np.zeros((14, 11), dtype=bool)
    block[:6, 3:] = True                          # flush with two edges
    block[9:, :4] = True
    yield block
    for _ in range(12):
        h, w = rng.integers(1, 20, 2)
        yield rng.uniform(0, 1, (h, w)) > rng.uniform(0.2, 0.8)


@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_close_and_erode_match_per_pixel_definition(radius):
    for bits in _morphology_cases():
        mean = bits.astype(float)
        for close_radius, erode_radius in ((radius, 0), (0, radius),
                                           (radius, radius)):
            got = maskgen.make_mask(mean, threshold=0.5,
                                    close_radius=close_radius,
                                    erode_radius=erode_radius)
            want = _brute_mask(bits, close_radius, erode_radius)
            npt.assert_array_equal(got.bits, want, err_msg=(
                f"shape {bits.shape}, close {close_radius}, "
                f"erode {erode_radius}"))


def test_negative_radius_is_rejected():
    for close_radius, erode_radius in ((-3, -2), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            maskgen.make_mask(np.ones((8, 8)), close_radius=close_radius,
                              erode_radius=erode_radius)


def test_mask_dataclass_properties():
    bits = np.zeros((3, 5), dtype=bool)
    bits[1, 2] = True
    m = maskgen.Mask(bits=bits)
    assert (m.height, m.width, m.count) == (3, 5, 1)
    with pytest.raises(ValueError):
        maskgen.Mask(bits=np.zeros(4, dtype=bool))
    # A raster with a zero dimension has no PBM header that read_mask takes.
    for shape in ((0, 5), (5, 0), (0, 0)):
        with pytest.raises(ValueError, match="non-empty"):
            maskgen.Mask(bits=np.zeros(shape, dtype=bool))
