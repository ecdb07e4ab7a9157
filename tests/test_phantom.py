import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from qmapkit import phantom


def test_tissue_params_validation():
    with pytest.raises(ValueError):
        phantom.TissueParams(water_amp=1, fat_amp=0, t1=0.0, t2=0.1,
                             t2s_water=0.05, t2s_fat=0.05)
    with pytest.raises(ValueError):
        phantom.TissueParams(water_amp=-1, fat_amp=0, t1=1, t2=0.1,
                             t2s_water=0.05, t2s_fat=0.05)
    with pytest.raises(ValueError):
        # T2* of water cannot exceed the spin-echo T2.
        phantom.TissueParams(water_amp=1, fat_amp=0, t1=1, t2=0.05,
                             t2s_water=0.06, t2s_fat=0.05)


NON_FINITE = [("t1", np.nan), ("water_amp", np.nan), ("b1_scale", np.nan),
              ("d_omega0", np.nan), ("t2", np.inf), ("fat_amp", -np.inf)]


@pytest.mark.parametrize("field, value", NON_FINITE)
def test_non_finite_tissue_value_is_rejected(field, value):
    fields = dataclasses.asdict(phantom.DEFAULT_BOTTLES[2])
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        phantom.TissueParams(**dict(fields, **{field: value}))
    bottles = [dataclasses.asdict(b) for b in phantom.DEFAULT_BOTTLES]
    bottles[4][field] = value
    for cfg in ({"type": "disc", "disc": {field: value}},
                {"type": "bottles", "bottles": bottles}):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            phantom.phantom_from_config(cfg)


def test_zero_b1_scale_is_valid():
    p = dataclasses.replace(phantom.DEFAULT_BOTTLES[0], b1_scale=0.0)
    pm = phantom.phantom_from_config({"type": "disc", "width": 32,
                                      "height": 32, "disc": {"b1_scale": 0}})
    assert p.b1_scale == 0.0 and pm.b1_scale.max() == 0.0


def test_fat_fraction_property():
    p = phantom.TissueParams(water_amp=0.6, fat_amp=0.4, t1=1, t2=0.1,
                             t2s_water=0.05, t2s_fat=0.03)
    pm = phantom.make_disc_phantom(32, 32, p, radius_frac=0.25)
    truth, inside = phantom.phantom_truth_arrays(pm), pm.label > 0
    npt.assert_allclose(truth["fat_fraction"][inside], 0.4)
    npt.assert_allclose(truth["m0"][inside], 1.0)
    # The background carries no signal.
    assert np.all(truth["fat_fraction"][~inside] == 0.0)


def test_bottle_phantom_layout():
    pm = phantom.make_bottle_phantom(64, 64)
    labels = np.unique(pm.label)
    npt.assert_array_equal(labels, np.arange(7))
    counts = [(pm.label == i).sum() for i in range(1, 7)]
    assert len(set(counts)) == 1          # six equal discs
    assert counts[0] > 100
    outside = pm.label == 0
    assert np.all(pm.water_amp[outside] + pm.fat_amp[outside] == 0.0)


def test_bottle_phantom_size_guard():
    with pytest.raises(ValueError):
        phantom.make_bottle_phantom(16, 64)
    with pytest.raises(ValueError):
        phantom.make_bottle_phantom(64, 64, bottles=phantom.DEFAULT_BOTTLES[:3])


def test_disc_phantom_geometry():
    p = phantom.DEFAULT_BOTTLES[0]
    pm = phantom.make_disc_phantom(40, 40, p, radius_frac=0.3)
    area = (pm.label == 1).sum()
    npt.assert_allclose(area, np.pi * 12.0 ** 2, rtol=0.05)
    assert pm.label[20, 20] == 1 and pm.label[0, 0] == 0


def test_uniform_b1_scale_applies():
    pm = phantom.make_bottle_phantom(64, 64, b1_scale=1.2)
    assert np.all(pm.b1_scale == 1.2)


def test_a_bottle_that_sets_b1_scale_1_keeps_it():
    # The section's scale is for each tissue that sets no other: 1.0 is a
    # setting, not "unset".
    bottles = [{"b1_scale": 1.0}] + [{}] * 5
    pm = phantom.phantom_from_config({"type": "bottles", "b1_scale": 0.9,
                                      "bottles": bottles})
    assert np.all(pm.b1_scale[pm.label == 1] == 1.0)
    assert np.all(pm.b1_scale[pm.label != 1] == 0.9)


@pytest.mark.parametrize("radius_frac", [0.0, -0.2, float("nan")])
def test_non_positive_radius_is_rejected(radius_frac):
    # Only radius**2 reaches the painter, so -0.2 would paint 0.2's disc.
    with pytest.raises(ValueError, match="radius_frac"):
        phantom.make_disc_phantom(32, 32, phantom.DEFAULT_BOTTLES[0],
                                  radius_frac=radius_frac)
    with pytest.raises(ValueError, match="radius_frac"):
        phantom.phantom_from_config({"type": "disc",
                                     "radius_frac": radius_frac})


@pytest.mark.parametrize("radius_frac", [float("inf"), 0.51])
def test_radius_beyond_the_grid_is_rejected(radius_frac):
    # inf would paint every pixel, leaving no background.
    with pytest.raises(ValueError, match="radius_frac"):
        phantom.make_disc_phantom(32, 32, phantom.DEFAULT_BOTTLES[0],
                                  radius_frac=radius_frac)
    with pytest.raises(ValueError, match="radius_frac"):
        phantom.phantom_from_config({"type": "disc",
                                     "radius_frac": radius_frac})


def test_largest_radius_fits_the_grid():
    pm = phantom.make_disc_phantom(32, 32, phantom.DEFAULT_BOTTLES[0],
                                   radius_frac=0.5)
    assert pm.label[16, 16] == 1 and pm.label[0, 0] == 0


@pytest.mark.parametrize("key", ["width", "height"])
def test_non_integral_grid_side_is_rejected(key):
    for value in (32.9, 40.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match=key):
            phantom.phantom_from_config({"type": "disc", key: value})
    pm = phantom.phantom_from_config({"type": "disc", key: 40.0})
    assert pm.shape == ((40, 64) if key == "height" else (64, 40))


@pytest.mark.parametrize("value", [1025, 10 ** 5, 2 ** 63, 1e30])
@pytest.mark.parametrize("key", ["width", "height"])
def test_grid_side_is_capped(key, value):
    # Numpy once refused the largest naming no key, and 10**5 asked a scan
    # for tens of GB.  The recipe is checked before any array is built.
    with pytest.raises(ValueError, match=f"^phantom {key} must be from 32 "
                                         f"to 1024, not {int(value)}$"):
        phantom.read_phantom({key: value})
    assert phantom.read_phantom({key: 1024}) == {key: 1024}


def test_whole_number_keeps_integers_exact():
    for value in (2 ** 60 + 1, np.int64(2 ** 60 + 1)):
        assert phantom.whole_number(value, "seed") == 2 ** 60 + 1
    assert phantom.whole_number(4.0, "seed") == 4
    with pytest.raises(ValueError, match="seed must be a whole number"):
        phantom.whole_number(4.5, "seed")


def test_truth_arrays_formulas():
    pm = phantom.make_bottle_phantom(64, 64)
    truth = phantom.phantom_truth_arrays(pm)
    sel = pm.label == 3
    npt.assert_allclose(truth["fat_fraction"][sel], 0.47)
    npt.assert_allclose(truth["t1_over_m0"][sel],
                        pm.t1[sel] / (pm.water_amp[sel] + pm.fat_amp[sel]))
    assert np.all(truth["fat_fraction"][pm.label == 0] == 0.0)
    npt.assert_allclose(truth["delta_b0"],
                        truth["d_omega0"] / (2 * np.pi * 42.577e6))
    assert set(truth) == {"b1", "t2", "t2s_water", "t2s_fat", "d_omega0",
                          "delta_b0", "fat_fraction", "t1", "m0",
                          "t1_over_m0"}


def test_bottle_dict_round_trip():
    p = phantom.DEFAULT_BOTTLES[4]
    assert phantom.bottle_from_dict(dataclasses.asdict(p)) == p
    with pytest.raises(ValueError):
        phantom.bottle_from_dict({"t2star": 0.05})


def test_phantom_from_config():
    pm = phantom.phantom_from_config({})
    ref = phantom.make_bottle_phantom(64, 64)
    npt.assert_array_equal(pm.label, ref.label)
    npt.assert_array_equal(pm.fat_amp, ref.fat_amp)

    disc = phantom.phantom_from_config({
        "type": "disc", "width": 32, "height": 32, "radius_frac": 0.25,
        "disc": {"water_amp": 1.0, "fat_amp": 0.0, "t1": 0.5, "t2": 0.08,
                 "t2s_water": 0.04, "t2s_fat": 0.03},
        "b1_scale": 0.9,
    })
    assert disc.label.max() == 1
    assert np.all(disc.b1_scale == 0.9)
    assert disc.t1[16, 16] == 0.5

    with pytest.raises(ValueError):
        phantom.phantom_from_config({"type": "cylinder"})
