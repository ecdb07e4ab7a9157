"""Smoke test of the benchmark harness on 32x32 phantoms.

It checks the record's schema and the output checks, never timings:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from qmapkit import phantom, pipeline, seqsim  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

DISC = {"water_amp": 0.7, "fat_amp": 0.3, "t1": 0.8, "t2": 0.08,
        "t2s_water": 0.045, "t2s_fat": 0.03, "d_omega0": 31.4159}
# Narrow, coarse tables and few T2* points keep each estimate near a second.
SMALL_LOOP = {
    "kind": "loop",
    "phantom": {"type": "disc", "width": 32, "height": 32,
                "radius_frac": 0.12, "disc": DISC},
    "sigma": 5e-5,
    "reference_seed": 3,
    "reference_loops": 2,
    "stride": 8,
    "options": {"b1_k_min": 0.9, "b1_k_max": 1.1, "b1_step": 0.01,
                "t2s_points": 8},
}
SMALL_CLI = {
    "kind": "cli",
    "config": {
        "phantom": {"type": "disc", "width": 32, "height": 32,
                    "radius_frac": 0.1, "disc": DISC},
        "noise": {"sigma": 5e-5, "seed": 5},
        "b1": {"k_min": 0.9, "k_max": 1.1, "step": 0.01},
        "wf": {"t2s_points": 8, "omega_bound": 125.664},
    },
}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("spec", [SMALL_LOOP, SMALL_CLI], ids=["loop", "cli"])
def test_record_schema(spec, trace, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the CLI shim imports src/ from its cwd
    runner = workloads.run_loop if spec["kind"] == "loop" else workloads.run_cli
    ops, metrics, dump = runner(spec, 7, 0.0, trace, tmp_path, print)
    assert ops.attempted >= 1 and ops.failed == 0
    section = "per_layer" if trace else "end_to_end"
    assert set(metrics) == {m["name"] for m in BENCH[section]}
    for name, value in metrics.items():
        assert isinstance(value, (int, float)) and math.isfinite(value), name
    if not trace:
        assert dump is None
        assert all(metrics[m["name"]] > 0 for m in BENCH["end_to_end"])
        return
    for proc in dump["processes"]:
        assert tracing.SpanTree(proc["spans"]).inconsistent() == []
    assert metrics["pipeline.estimate_all.s"] > 0
    assert metrics["seqsim.pixel_profiles.calls.estimate"] >= 1


def test_benchmark_json_schema():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in BENCH["end_to_end"])


def _scan():
    pm = phantom.make_disc_phantom(32, 32, phantom.TissueParams(**DISC),
                                   radius_frac=0.1)
    return seqsim.simulate_scan(pm, noise_sigma=5e-5, seed=1)


def test_imageset_check_catches_a_changed_payload():
    images = _scan()
    workloads.check_imageset(images, images)
    changed = seqsim.ImageSet(**{**images.__dict__,
                                 "data": images.data.copy()})
    changed.data[0, 7, 16, 16] *= 1.0 + 1e-3
    with pytest.raises(workloads.CheckFailed):
        workloads.check_imageset(images, changed)


def test_finite_check_catches_nan():
    maps = pipeline.QuantMaps.zeros((4, 4))
    workloads.check_finite(maps)
    maps.t1[1, 2] = np.nan
    with pytest.raises(workloads.CheckFailed):
        workloads.check_finite(maps)


def test_failed_operation_is_counted_not_fatal():
    ops = workloads.Ops(lambda msg: None)
    assert ops.run("ok", lambda: 3) == 3
    assert ops.run("bad", lambda: 1 / 0) is None
    assert (ops.attempted, ops.failed) == (2, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
