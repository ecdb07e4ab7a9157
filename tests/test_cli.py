import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmapkit import (b1map, cli, formats, maskgen, phantom, pipeline,
                     seqsim, waterfat)

CHAIN_CONFIG = {
    "phantom": {
        "type": "disc", "width": 32, "height": 32, "radius_frac": 0.25,
        "disc": {"water_amp": 0.7, "fat_amp": 0.3, "t1": 0.5, "t2": 0.06,
                 "t2s_water": 0.04, "t2s_fat": 0.02, "d_omega0": 31.4159},
    },
    "noise": {"sigma": 0.0, "seed": 1},
    "b1": {"k_min": 0.85, "k_max": 1.15, "step": 0.002},
    "wf": {"t2s_points": 16, "omega_bound": 125.664},
}


def _write_config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_full_chain(tmp_path, capsys):
    cfg = _write_config(tmp_path, CHAIN_CONFIG)
    images_dir = str(tmp_path / "images")
    assert cli.main(["simulate", "--config", cfg, "--out", images_dir]) == 0
    assert "wrote 22 images (32x32)" in capsys.readouterr().out
    images = formats.read_imageset(images_dir)
    assert images.data.shape == (2, 11, 32, 32)

    mask_path = str(tmp_path / "mask.pbm")
    assert cli.main(["mask", "--config", cfg, "--images", images_dir,
                     "--out", mask_path]) == 0
    mask = formats.read_mask(mask_path)
    assert mask.count > 50

    maps_dir = str(tmp_path / "maps")
    assert cli.main(["estimate", "--config", cfg, "--images", images_dir,
                     "--mask", mask_path, "--out", maps_dir]) == 0
    maps = formats.read_maps(maps_dir)
    assert maps.valid["t1"].sum() == mask.count
    assert (f"estimated {mask.count} masked pixels, {mask.count} with a "
            "valid T1") in capsys.readouterr().out

    report_path = tmp_path / "report.json"
    assert cli.main(["compare", "--config", cfg, "--maps", maps_dir,
                     "--json", str(report_path)]) == 0
    assert "pixels compared" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["pixel_count"] == mask.count
    stats = report["maps"]
    assert abs(stats["b1"]["bias"]) < 0.005
    assert abs(stats["t2"]["bias"]) < 0.002
    assert abs(stats["fat_fraction"]["bias"]) < 0.01
    assert abs(stats["t1"]["bias"]) < 0.01
    assert abs(stats["d_omega0"]["bias"]) < 2.0 * np.pi


def test_lut_matches_library(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"b1": {"k_min": 0.9, "k_max": 1.1,
                                          "step": 0.01}})
    out = tmp_path / "table.json"
    assert cli.main(["lut", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    timing = seqsim.default_timing()
    table = b1map.build_ratio_table(
        seqsim.build_pulses(seqsim.PulseParams(), timing), 0.9, 1.1, 0.01)
    assert doc["k_values"] == [float(v) for v in table.k_values]
    assert doc["ratios"] == [float(v) for v in table.ratios]
    capsys.readouterr()
    # An empty config plays the library's standard schedule, and a JSON
    # null probe_times reads as unset: at thirds of the given t_sat.
    assert cli._pulses({}).timing == seqsim.SequenceTiming()
    cfg = phantom.read({"timing": {"t_sat": 1.8, "probe_times": None}},
                       cli._CONFIG, "config")
    assert cli._pulses(cfg).timing.probes == (0.6, 1.2)


def test_validation_errors_exit_1(tmp_path, water_scan, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert cli.main(["simulate", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 1

    cfg = _write_config(tmp_path, {"timing": {"banana": 1.0}})
    assert cli.main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1

    cfg2 = tmp_path / "p.json"
    cfg2.write_text(json.dumps({"pulses": {"nonsense": True}}))
    assert cli.main(["simulate", "--config", str(cfg2),
                     "--out", str(tmp_path / "o")]) == 1

    # A negative noise sigma writes nothing.
    cfg3 = _write_config(tmp_path, {"noise": {"sigma": -0.001}})
    assert cli.main(["simulate", "--config", cfg3,
                     "--out", str(tmp_path / "o")]) == 1
    assert "config noise sigma must be finite and >= 0" in \
        capsys.readouterr().err
    # A fractional grid side is an error, not a truncated phantom.
    cfg4 = _write_config(tmp_path, {"phantom": {"type": "disc",
                                                "width": 32.9}})
    assert cli.main(["simulate", "--config", cfg4,
                     "--out", str(tmp_path / "o")]) == 1
    assert "width" in capsys.readouterr().err
    # So is a fractional noise seed, which would run as its integer part.
    cfg6 = _write_config(tmp_path, {"noise": {"seed": 4.5}})
    assert cli.main(["simulate", "--config", cfg6,
                     "--out", str(tmp_path / "o")]) == 1
    assert "noise seed must be a whole number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()

    assert cli.main(["mask", "--images", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "m.pbm")]) == 1

    images_dir = str(tmp_path / "images")
    formats.write_imageset(water_scan, images_dir)
    for key in ("close_radius", "erode_radius"):
        cfg7 = _write_config(tmp_path, {"mask": {key: -1}})
        assert cli.main(["mask", "--config", cfg7, "--images", images_dir,
                         "--out", str(tmp_path / "m.pbm")]) == 1
        assert f"config mask {key} must be >= 0" in capsys.readouterr().err
    for key, value in (("close_radius", 2.7), ("erode_radius", 1.9)):
        cfg7 = _write_config(tmp_path, {"mask": {key: value}})
        assert cli.main(["mask", "--config", cfg7, "--images", images_dir,
                         "--out", str(tmp_path / "m.pbm")]) == 1
        assert f"mask {key} must be a whole number" in \
            capsys.readouterr().err
    assert not (tmp_path / "m.pbm").exists()
    cfg8 = _write_config(tmp_path, {"wf": {"t2s_points": 16.9}})
    assert cli.main(["estimate", "--config", cfg8, "--images", images_dir,
                     "--out", str(tmp_path / "maps")]) == 1
    assert "wf t2s_points must be a whole number" in capsys.readouterr().err
    assert not (tmp_path / "maps").exists()

    # Invalid pulse parameters, from the config or an image set's manifest,
    # write nothing, and each error names its section or table and key.
    for bad in ({"slice_thickness": float("nan")}, {"z_half_span": -1.0},
                {"z_count": 0}, {"n_pieces": 2.5}, {"hard": "false"}):
        [key] = bad
        cfg5 = _write_config(tmp_path, {"pulses": bad})
        assert cli.main(["simulate", "--config", cfg5,
                         "--out", str(tmp_path / "o")]) == 1
        assert f"config pulses {key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        manifest_path = tmp_path / "images" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["pulse_params"].update(bad)
        bad_images = tmp_path / "bad_images"
        bad_images.mkdir(exist_ok=True)
        for entry in (tmp_path / "images").iterdir():
            (bad_images / entry.name).write_bytes(entry.read_bytes())
        (bad_images / "manifest.json").write_text(json.dumps(manifest))
        assert cli.main(["mask", "--images", str(bad_images),
                         "--out", str(tmp_path / "m.pbm")]) == 1
        assert cli.main(["estimate", "--images", str(bad_images),
                         "--out", str(tmp_path / "maps")]) == 1
        assert f"manifest pulse_params {key}" in capsys.readouterr().err
        assert not (tmp_path / "m.pbm").exists()
        assert not (tmp_path / "maps").exists()


def test_non_finite_omega_cs_in_manifest_exits_1(tmp_path, water_scan,
                                                 capsys):
    # This once ran B1, the profiles and T2 first, then stopped with "SVD
    # did not converge".
    images_dir = tmp_path / "images"
    formats.write_imageset(water_scan, str(images_dir))
    manifest_path = images_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["omega_cs"] = float("nan")
    manifest_path.write_text(json.dumps(manifest))
    out = tmp_path / "maps"
    assert cli.main(["estimate", "--images", str(images_dir),
                     "--out", str(out)]) == 1
    assert "omega_cs must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_fractional_manifest_counts_exit_1(tmp_path, water_scan, capsys):
    # An image set whose manifest says "seed": 4.5 and maps whose manifest
    # says "height": 32.7 are rejected, not truncated.
    images_dir = tmp_path / "images"
    formats.write_imageset(water_scan, str(images_dir))
    maps_dir = tmp_path / "maps"
    formats.write_maps(pipeline.QuantMaps.zeros((32, 32)), maps_dir)
    for path, key, value in ((images_dir, "seed", 4.5),
                             (maps_dir, "height", 32.7)):
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["estimate", "--images", str(images_dir),
                     "--out", str(tmp_path / "maps2")]) == 1
    assert "manifest seed must be a whole number" in capsys.readouterr().err
    assert not (tmp_path / "maps2").exists()
    assert cli.main(["compare", "--maps", str(maps_dir)]) == 1
    assert "manifest height must be a whole number" in \
        capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"t2": {"max": 1e400}}', '{"t1": {"min": NaN}}'])
def test_non_finite_fit_bound_exits_1(tmp_path, water_scan, capsys, text):
    # JSON reads 1e400 as inf; the estimate stops before writing any map.
    images_dir = str(tmp_path / "images")
    formats.write_imageset(water_scan, images_dir)
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    out = tmp_path / "maps"
    assert cli.main(["estimate", "--config", str(cfg), "--images",
                     images_dir, "--out", str(out)]) == 1
    assert "need finite 0 < low < high" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, name", [
    ('{"wf": {"t2s_max": Infinity}}', "t2s_max"),
    ('{"wf": {"omega_bound": Infinity}}', "omega_bound"),
    ('{"b1": {"k_max": Infinity}}', "b1_k_max"),
    ('{"wf": {"t2s_min": NaN}}', "t2s_min"),
    ('{"wf": {"omega_bound": NaN}}', "omega_bound"),
    ('{"wf": {"d_omega_step": NaN}}', "d_omega_step"),
    ('{"b1": {"step": NaN}}', "b1_step")])
def test_non_finite_grid_option_exits_1(tmp_path, water_scan, capsys, text,
                                        name):
    # These once ran B1 and T2 first, then wrote non-finite valid maps or
    # ended in an OverflowError or an SVD failure.
    images_dir = str(tmp_path / "images")
    formats.write_imageset(water_scan, images_dir)
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    out = tmp_path / "maps"
    assert cli.main(["estimate", "--config", str(cfg), "--images",
                     images_dir, "--out", str(out)]) == 1
    # The error names the config's section and key, not the option's name.
    section = next(iter(json.loads(text)))
    assert (f"error: config {section} {name.removeprefix('b1_')} must be "
            "finite") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("t1", float("nan")), ("water_amp", float("nan")),
    ("b1_scale", float("nan")), ("d_omega0", float("nan")),
    ("t2", float("inf"))])
def test_non_finite_tissue_value_exits_1(tmp_path, capsys, field, value):
    disc = dict(CHAIN_CONFIG["phantom"]["disc"], **{field: value})
    cfg = _write_config(tmp_path, {"phantom": dict(CHAIN_CONFIG["phantom"],
                                                   disc=disc)})
    out = tmp_path / "images"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert f"{field} must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("timing", [
    {"t_sat": float("nan")}, {"echo_time": float("nan")},
    {"fid_times": [0.002, float("nan"), 0.006, 0.008, 0.01]},
    {"tr": float("nan")}, {"tr": float("inf")},
    {"sat_flip": float("inf")}, {"probe_flip": float("inf")},
    {"sat_flip": float("nan")}, {"echo_time": "abc"},
    {"fid_times": [0.002, "x", 0.006, 0.008, 0.01]}, {"probe_flip": None}],
    ids=lambda t: "-".join(map(str, t.items())))
def test_non_finite_timing_exits_1(tmp_path, water_scan, capsys, timing):
    # These once wrote image sets with non-finite samples (a NaN sat_flip
    # was rejected only by a pulse-set error of the Cayley-Klein kernel);
    # a value that is not a number once failed in numpy, unnamed.  From a
    # manifest, each once raised a bare ValueError naming no manifest key.
    [(field, value)] = timing.items()
    message = (f"timing {field} must be finite"
               if np.asarray(value).dtype.kind == "f"
               else f"timing {field} must be a number")
    cfg = _write_config(tmp_path, {"timing": timing})
    out = tmp_path / "images"
    assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
    # A tampered manifest fails as it is read.
    images_dir = tmp_path / "good"
    formats.write_imageset(water_scan, str(images_dir))
    manifest_path = images_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["timing"].update(timing)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(formats.FieldError, match=f"manifest {message}"):
        formats.read_imageset(str(images_dir))
    maps = tmp_path / "maps"
    assert cli.main(["estimate", "--images", str(images_dir),
                     "--out", str(maps)]) == 1
    assert not maps.exists()


@pytest.mark.parametrize("cfg, message", [
    ({"timing": {"t_sat": "abc"}}, "timing t_sat must be a number"),
    ({"timing": {"fid_times": 5}}, "timing fid_times must be a list"),
    ({"timing": {"fid_times": [[0.002, 0.003], 0.004, 0.006, 0.008, 0.01]}},
     "config timing fid_times must be a number"),
    ({"noise": {"sigma": "x"}}, "noise sigma must be a number")],
    ids=("t_sat", "fid_times", "fid_times-nested", "sigma"))
def test_config_values_of_the_wrong_type_name_their_field(tmp_path, capsys,
                                                          cfg, message):
    out = tmp_path / "images"
    assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg, names", [
    ("simulate", {"noise": {"sigm": 1e-3}}, ["noise", "sigm"]),
    ("simulate", {"phantom": {"type": "disc", "radius": 0.05}}, ["radius"]),
    ("simulate", {"phantom": {"radius_frac": 0.2}}, ["radius_frac"]),
    ("simulate", {"nosie": {"sigma": 1e-3}}, ["nosie"]),
    ("mask", {"mask": {"erode_raduis": 2}}, ["mask", "erode_raduis"]),
    ("estimate", {"mask": {"treshold": 0.2}}, ["mask", "treshold"]),
])
def test_unknown_config_keys_exit_1(tmp_path, water_scan, capsys, command,
                                    cfg, names):
    images_dir = str(tmp_path / "images")
    formats.write_imageset(water_scan, images_dir)
    out = tmp_path / "out"
    args = ["--out", str(out)]
    if command != "simulate":
        args += ["--images", images_dir]
    assert cli.main([command, "--config", _write_config(tmp_path, cfg)]
                    + args) == 1
    err = capsys.readouterr().err
    for name in names:
        assert name in err
    assert not out.exists()


@pytest.mark.parametrize("cfg, message", [
    ([1], "config must be a JSON object"),
    ({"phantom": {"b1_scale": "x"}}, "phantom b1_scale must be a number"),
    ({"phantom": {"type": "disc", "disc": 5}},
     "phantom disc must be a JSON object"),
    ({"phantom": {"type": "disc", "disc": {"t1": "x"}}},
     "phantom disc t1 must be a number"),
    ({"phantom": {"bottles": "abcdef"}},
     "phantom bottles must be a list of tissue objects"),
    ({"phantom": {"bottles": [{"t1": 0.5}, 7]}},
     "phantom bottles 2 must be a JSON object"),
    ({"timing": 5}, "config timing must be a JSON object"),
    ({"timing": {"tr": "x"}}, "timing tr must be a number"),
    ({"noise": 5}, "config noise must be a JSON object"),
    ({"pulses": []}, "config pulses must be a JSON object"),
    ({"mask": {"threshold": "x"}}, "mask threshold must be a number"),
    ({"b1": 5}, "config b1 must be a JSON object"),
    ({"b1": {"k_min": "x"}}, "b1 k_min must be a number"),
    ({"t2": {"max": "x"}}, "t2 max must be a number"),
    ({"wf": {"omega_bound": "x"}}, "wf omega_bound must be a number"),
    ({"t1": {"min": "x"}}, "t1 min must be a number")],
    ids=("document", "b1_scale", "disc", "disc-t1", "bottles", "bottle-2",
         "timing", "timing-tr", "noise", "pulses", "mask-threshold", "b1",
         "b1-k_min", "t2-max", "wf-omega_bound", "t1-min"))
@pytest.mark.parametrize("command", ["simulate", "lut"])
def test_config_values_name_their_section_and_key(tmp_path, capsys, command,
                                                  cfg, message):
    # A non-object once failed with "'int' object is not iterable", a
    # string of bottles as "unknown bottle fields: ['a']", and a string
    # where a number belongs in float() or numpy, naming no field.
    out = tmp_path / "out"
    assert cli.main([command, "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cfg, message", [
    ({"noise": {"sigma": True}}, "noise sigma must be a number, not True"),
    ({"phantom": {"type": "disc", "disc": {"t1": True}}},
     "phantom disc t1 must be a number, not True"),
    ({"noise": {"seed": True}}, "noise seed must be a number, not True"),
    ({"wf": {"t2s_points": False}}, "wf t2s_points must be a number"),
    ({"pulses": {"z_count": True}}, "pulses z_count must be an integer")],
    ids=("sigma", "disc-t1", "seed", "t2s_points", "z_count"))
def test_json_booleans_are_not_numbers(tmp_path, capsys, cfg, message):
    # The first three once simulated at sigma 1, T1 = 1 s and seed 1.
    out = tmp_path / "images"
    assert cli.main(["simulate", "--config", _write_config(tmp_path, cfg),
                     "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, cfg, names", [
    ("simulate", {"b1": {"kmin": 1}}, ["b1.kmin"]),
    ("lut", {"mask": {"treshold": 1}}, ["mask.treshold"]),
    ("lut", {"phantom": {"wdth": 1}}, ["phantom.wdth"]),
    ("lut", {"phantom": {"type": "disc", "disc": {"t2star": 0.05}}},
     ["phantom.disc.t2star"]),
    ("lut", {"phantom": {"radius_frac": 0.2}}, ["radius_frac", "bottles"]),
    ("mask", {"t1": {"mn": 1}}, ["t1.mn"]),
    ("estimate", {"pulses": {"n_piece": 3}}, ["pulses.n_piece"]),
    ("compare", {"noise": {"sigm": 1}, "wf": {"t2s_pts": 3}, "nosie": {}},
     ["['noise.sigm', 'nosie', 'wf.t2s_pts']"])] + [
    (command, cfg, [f"error: config {key}"])
    for command in ("simulate", "mask", "estimate", "compare", "lut")
    for cfg, key in (({"wf": {"t2s_points": 1}}, "wf t2s_points"),
                     ({"wf": {"t2s_min": 0.2}}, "wf t2s_min"),
                     ({"t1": {"min": 5, "max": 0.05}}, "t1 min"),
                     ({"phantom": {"width": 8}}, "phantom width"),
                     ({"noise": {"sigma": -1}}, "noise sigma"),
                     ({"mask": {"threshold": 2}}, "mask threshold"),
                     ({"b1": {"k_min": 1.5, "k_max": 1.2}}, "b1 k_min"),
                     ({"t2": {"min": 0}}, "t2 min"),
                     ({"phantom": {"bottles": [{}]}}, "phantom bottles"),
                     ({"phantom": {"type": "disc", "disc": {"t2s_water": 1}}},
                      "phantom t2s_water"))] + [
    # A t2s_min that leaves no signal at the default first FID time.
    (command, {"wf": {"t2s_min": 1e-6}}, ["error: config wf t2s_min"])
    for command in ("simulate", "mask", "estimate", "compare", "lut")] + [
    # Grids of one point or past their caps: lut and estimate once failed
    # naming no key, or with a MemoryError or numpy's TypeError.
    (command, cfg, [f"error: config {key}"])
    for command in ("simulate", "mask", "estimate", "compare", "lut")
    for cfg, key in (({"b1": {"step": 5}}, "b1 step 5.0 gives 1 points"),
                     ({"b1": {"step": 1e-9}}, "b1 step 1e-09 gives 1.6e+09"),
                     ({"wf": {"t2s_points": 1000}}, "wf t2s_points 1000 "),
                     ({"wf": {"d_omega_step": 1e-4}}, "wf t2s_points 40 "),
                     ({"mask": {"close_radius": 1e30}},
                      "mask close_radius must be at most 64"))] + [
    # Past the ratio's decreasing branch: only the commands that build the
    # table can tell.
    (command, {"b1": {"k_min": 1.7, "k_max": 1.8}},
     ["no decreasing branch from k_min 1.7 to k_max 1.8"])
    for command in ("estimate", "lut")] + [
    # A grid past k_max, sizes past their caps, and a flip that once ended
    # in an OverflowError traceback: each once failed naming no key.
    (command, cfg, [f"error: config {key}"])
    for command in ("simulate", "mask", "estimate", "compare", "lut")
    for cfg, key in (({"b1": {"step": 3}}, "b1 step 3.0 ends the grid at 3.2"),
                     ({"phantom": {"width": 1e30}}, "phantom width"),
                     ({"phantom": {"height": 2 ** 63}}, "phantom height"),
                     ({"phantom": {"width": 10 ** 5}}, "phantom width"),
                     ({"timing": {"imaging_flip": 1e-320}},
                      "timing imaging_flip"),
                     ({"timing": {"sat_flip": 1e30}}, "timing sat_flip"),
                     ({"pulses": {"n_pieces": 2 ** 63}}, "pulses n_pieces"),
                     ({"pulses": {"z_count": 2 ** 63}}, "pulses z_count"))])
def test_every_command_checks_the_whole_config(tmp_path, water_scan, capsys,
                                               command, cfg, names):
    # The first three once exited 0: each command read only its sections.
    # Of the out-of-range values, each command once refused only those of
    # the sections it used, naming the library's parameter.
    images_dir = str(tmp_path / "images")
    formats.write_imageset(water_scan, images_dir)
    maps_dir = tmp_path / "maps"
    formats.write_maps(pipeline.QuantMaps.zeros((32, 32)), maps_dir)
    out = str(tmp_path / "out")
    args = {"simulate": ["--out", out], "lut": ["--out", out],
            "mask": ["--images", images_dir, "--out", out],
            "estimate": ["--images", images_dir, "--out", out],
            "compare": ["--maps", str(maps_dir), "--json", out]}[command]
    assert cli.main([command, "--config", _write_config(tmp_path, cfg)]
                    + args) == 1
    err = capsys.readouterr().err
    for name in names:
        assert name in err
    assert not (tmp_path / "out").exists()


def test_estimate_checks_t2s_min_at_the_image_sets_first_time(
        tmp_path, water_scan, capsys):
    # The config's own first FID time (0.2 ms) leaves signal at this
    # t2s_min, the image set's (2 ms) does not.  This once exited 1 with a
    # message naming no key.
    images_dir = str(tmp_path / "images")
    formats.write_imageset(water_scan, images_dir)
    cfg = _write_config(tmp_path, {
        "timing": {"fid_times": [0.0002, 0.004, 0.006, 0.008, 0.010]},
        "wf": {"t2s_min": 5e-6}})
    assert cli.main(["lut", "--config", cfg, "--out",
                     str(tmp_path / "lut.json")]) == 0
    out = tmp_path / "maps"
    assert cli.main(["estimate", "--config", cfg, "--images", images_dir,
                     "--out", str(out)]) == 1
    assert "error: config wf t2s_min" in capsys.readouterr().err
    assert not out.exists()


def test_readme_config_loads_and_its_table_names_every_key(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    doc = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    args = cli.build_parser().parse_args(
        ["lut", "--config", _write_config(tmp_path, doc)])
    cfg, opts = cli._load_config(args)
    assert cfg == {**doc, "timing": seqsim.SequenceTiming(**doc["timing"]),
                   "wf": waterfat.WfGrid(**doc["wf"])}
    assert opts == pipeline.EstimateOptions(
        **{f"b1_{key}": value for key, value in doc["b1"].items()},
        t2_bounds=(doc["t2"]["min"], doc["t2"]["max"]),
        t1_bounds=(doc["t1"]["min"], doc["t1"]["max"]), **doc["wf"])
    rows = set(re.findall(r"^\| `(\w+)` \| `(\w+)` \|", section, re.M))
    schema = {(name, key) for name, kinds in cli._CONFIG.items()
              for key in (phantom.PHANTOM_KINDS if name == "phantom"
                          else [f.name for f in dataclasses.fields(kinds)]
                          if dataclasses.is_dataclass(kinds) else kinds)}
    assert rows == schema
    assert all(f"`{field}`" in section for field in phantom.TISSUE_FIELDS)


def test_misspelled_estimate_options_are_rejected(tmp_path, capsys):
    bad = {"t1": {"mn": 0.1}, "wf": {"t2s_pts": 3}, "b1": {"kmin": 0.5}}
    assert cli.main(["lut", "--config", _write_config(tmp_path, bad)]) == 1
    err = capsys.readouterr().err
    for key in ("b1.kmin", "t1.mn", "wf.t2s_pts"):
        assert key in err
    cfg = _write_config(tmp_path, {"t2": {"mx": 2.0}})
    assert cli.main(["lut", "--config", cfg]) == 1


def test_cli_import_leaves_scipy_unloaded():
    # numpy is qmapkit's only runtime dependency.  Importing scipy would
    # roughly double a CLI process's start-up time and raise its peak
    # resident memory from about 33 to 56 MB.  numpy.random and numpy.ma
    # each take about 16 ms to import after numpy (2-core Xeon), which
    # every CLI process would pay, so no CLI module imports them either.
    code = ("import sys, qmapkit.cli; print(sorted(m for m in sys.modules "
            "if (m + '.').startswith(('scipy.', 'numpy.random.', "
            "'numpy.ma.'))))")
    proc = subprocess.run([sys.executable, "-c", code], env=os.environ.copy(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_numpy_polynomial_unloaded():
    # b1map sums its Chebyshev series itself; loading numpy.polynomial
    # would add several milliseconds to every CLI process.
    code = ("import sys, qmapkit.cli; print(sorted(m for m in sys.modules "
            "if m == 'numpy.polynomial' "
            "or m.startswith('numpy.polynomial.')))")
    proc = subprocess.run([sys.executable, "-c", code], env=os.environ.copy(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_CHAIN = """
import sys
from pathlib import Path
from qmapkit import formats, maskgen, phantom, pipeline, seqsim
out = Path(sys.argv[1])
pm = phantom.make_bottle_phantom(32, 32)
formats.write_imageset(seqsim.simulate_scan(pm), out / "images")
images = formats.read_imageset(out / "images")
mask = maskgen.make_mask(maskgen.mean_image(images))
formats.write_maps(pipeline.estimate_all(images, mask), out / "maps")
formats.compare_maps(formats.read_maps(out / "maps"),
                     phantom.phantom_truth_arrays(pm), mask)
formats.write_mask(mask, out / "mask.pbm")
formats.read_mask(out / "mask.pbm")
print(sorted(m for m in sys.modules if (m + ".").startswith(
    ("scipy.", "numpy.random.", "numpy.ma."))))
"""


def test_a_noiseless_chain_leaves_scipy_and_slow_numpy_parts_unloaded(
        tmp_path):
    # Not only the import: a first call that loads numpy.ma (np.union1d
    # does) or numpy.random costs every first loop 10-20 ms.  Exact names,
    # since numpy.matrixlib shares numpy.ma's first letters.
    proc = subprocess.run([sys.executable, "-c", _CHAIN, str(tmp_path)],
                          env=os.environ.copy(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_an_internal_error_is_a_traceback_not_a_refusal(monkeypatch):
    # main once mapped every KeyError and TypeError to exit 1, so that a
    # bug read as a validation failure.
    def broken(*args):
        raise TypeError("a bug")

    monkeypatch.setattr(pipeline, "_ratio_table", broken)
    with pytest.raises(TypeError, match="a bug"):
        cli.main(["lut"])


def test_io_errors_exit_2(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == 2

    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    cfg = _write_config(tmp_path, {"b1": {"k_min": 0.95, "k_max": 1.05,
                                          "step": 0.05}})
    assert cli.main(["lut", "--config", cfg,
                     "--out", str(blocker / "t.json")]) == 2


def test_usage_errors_raise_systemexit(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--no-such-flag"])
    assert err.value.code == 1
    # The config document is the only way to set a value.
    out = tmp_path / "images"
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--seed", "3", "--out", str(out)])
    assert err.value.code == 1
    assert not out.exists()
