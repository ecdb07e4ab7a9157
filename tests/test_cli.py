import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qmapkit import b1map, cli, formats, maskgen, pipeline, seqsim

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

    # A negative noise sigma, from the flag or the config, writes nothing.
    assert cli.main(["simulate", "--noise-sigma=-1e-3",
                     "--out", str(tmp_path / "o")]) == 1
    cfg3 = _write_config(tmp_path, {"noise": {"sigma": -0.001}})
    assert cli.main(["simulate", "--config", cfg3,
                     "--out", str(tmp_path / "o")]) == 1
    assert "noise sigma" in capsys.readouterr().err
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
    for flag in ("--close-radius", "--erode-radius"):
        assert cli.main(["mask", "--images", images_dir, flag, "-1",
                         "--out", str(tmp_path / "m.pbm")]) == 1
        assert "radii must be >= 0" in capsys.readouterr().err
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
    # write nothing.
    for bad in ({"slice_thickness": float("nan")}, {"z_half_span": -1.0},
                {"z_count": 0}, {"n_pieces": 2.5}, {"hard": "false"}):
        cfg5 = _write_config(tmp_path, {"pulses": bad})
        assert cli.main(["simulate", "--config", cfg5,
                         "--out", str(tmp_path / "o")]) == 1
        assert "pulses" in capsys.readouterr().err
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
        assert "pulses" in capsys.readouterr().err
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
    assert f"{name} must be finite" in capsys.readouterr().err
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
    # a value that is not a number once failed in numpy, unnamed.
    [(field, value)] = timing.items()
    message = ("every timing value must be finite"
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
    with pytest.raises(ValueError, match=message):
        formats.read_imageset(str(images_dir))
    maps = tmp_path / "maps"
    assert cli.main(["estimate", "--images", str(images_dir),
                     "--out", str(maps)]) == 1
    assert not maps.exists()


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


def test_misspelled_estimate_options_are_rejected(tmp_path):
    bad = {"t1": {"mn": 0.1}, "wf": {"t2s_pts": 3}, "b1": {"kmin": 0.5}}
    with pytest.raises(ValueError) as err:
        cli._options_from_config(bad)
    for key in ("b1.kmin", "t1.mn", "wf.t2s_pts"):
        assert key in str(err.value)
    cfg = _write_config(tmp_path, {"t2": {"mx": 2.0}})
    assert cli.main(["lut", "--config", cfg]) == 1


def test_retired_t1_starts_key_is_ignored_with_a_warning(tmp_path, capsys):
    images_dir = str(tmp_path / "images")
    assert cli.main(["simulate", "--config",
                     _write_config(tmp_path, CHAIN_CONFIG),
                     "--out", images_dir]) == 0
    bits = np.zeros((32, 32), dtype=bool)
    bits[16, 14:18] = True
    mask_path = str(tmp_path / "mask.pbm")
    formats.write_mask(maskgen.Mask(bits=bits), mask_path)
    capsys.readouterr()
    outputs = []
    for extra in ({}, {"t1": {"starts": [0.2, 2.0], "min": 0.05}}):
        cfg_dir = tmp_path / str(len(outputs))
        cfg_dir.mkdir()
        maps_dir = cfg_dir / "maps"
        assert cli.main(["estimate", "--config",
                         _write_config(cfg_dir, {**CHAIN_CONFIG, **extra}),
                         "--images", images_dir, "--mask", mask_path,
                         "--out", str(maps_dir)]) == 0
        outputs.append({p.name: p.read_bytes()
                        for p in sorted(maps_dir.iterdir())})
        err = capsys.readouterr().err
        assert err.count("warning") == (1 if extra else 0)
    assert "t1.starts" in err
    assert outputs[0] == outputs[1]


def test_cli_import_leaves_scipy_unloaded():
    # numpy is qmapkit's only runtime dependency.  Importing scipy would
    # roughly double a CLI process's start-up time and raise its peak
    # resident memory from about 33 to 56 MB.
    code = ("import sys, qmapkit.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
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


def test_io_errors_exit_2(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == 2

    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    cfg = _write_config(tmp_path, {"b1": {"k_min": 0.95, "k_max": 1.05,
                                          "step": 0.05}})
    assert cli.main(["lut", "--config", cfg,
                     "--out", str(blocker / "t.json")]) == 2


def test_usage_errors_raise_systemexit():
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--no-such-flag"])
    assert err.value.code == 1
