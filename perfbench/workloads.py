"""Workloads of the closed-loop benchmark and the operations they time.

An in-process workload builds the pulses and the B1 ratio table once (the
set-up every process pays), then repeats one closed loop:

    simulate_scan -> write/read image set -> make_mask -> estimate_all
    -> write/read maps -> compare_maps

The first loops (the reference loops) always scan the workload's fixed
reference noise realization and estimate fixed strata of the mask, so their
accuracy is comparable between runs, seeds and commits.  Later loops draw
their noise and stratum from the run seed.  ``cli-cold`` instead runs
the ``qmapkit`` subcommands as fresh processes, so every ``estimate`` pays
the table again.

Only public qmapkit calls are made; the tracer wraps them from outside.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from qmapkit import b1map, formats, maskgen, phantom, pipeline, seqsim

import tracer as tracing

HERE = Path(__file__).resolve().parent
SHIM = HERE / "cli_shim.py"

WORKLOADS = {
    # Six bottles at SNR ~19: noise spreads the estimated k, so the pipeline
    # computes many slice-profile sets; bottle 3 sits near water/fat
    # opposed phase and shows the B1 clamp defect.
    "bottles-noisy": {
        "kind": "loop",
        "phantom": {"type": "bottles", "width": 64, "height": 64},
        "sigma": 1e-4,
        "reference_seed": 1,
        "reference_loops": 2,
        "stride": 64,
        "options": {},
    },
    # Noiseless uniform disc off nominal B1 and off resonance: one k value,
    # so one slice-profile set per estimate; shows the T1 bias at k = 0.85.
    "offres-disc": {
        "kind": "loop",
        "phantom": {"type": "disc", "width": 48, "height": 48,
                    "disc": {"water_amp": 0.8, "fat_amp": 0.2, "t1": 0.8,
                             "t2": 0.08, "t2s_water": 0.045,
                             "t2s_fat": 0.025,
                             "d_omega0": 2.0 * np.pi * 25.0,
                             "b1_scale": 0.85}},
        "sigma": 0.0,
        "reference_seed": 0,
        "reference_loops": 1,
        "stride": 48,
        "options": {},
    },
    # The determinism acceptance config (k in [0.7, 1.3], 16 T2* points)
    # with a smaller disc, run as one subprocess per CLI step.
    "cli-cold": {
        "kind": "cli",
        "config": {
            "phantom": {"type": "disc", "width": 32, "height": 32,
                        "radius_frac": 0.12,
                        "disc": {"water_amp": 0.7, "fat_amp": 0.3, "t1": 0.8,
                                 "t2": 0.08, "t2s_water": 0.045,
                                 "t2s_fat": 0.03, "d_omega0": 31.4159}},
            "noise": {"sigma": 5e-5, "seed": 5},
            "b1": {"k_min": 0.7, "k_max": 1.3, "step": 0.002},
            "wf": {"t2s_points": 16, "omega_bound": 125.664},
        },
    },
}

# End-to-end accuracy metric -> (map, error of estimate against truth,
# resolution).  The end-to-end value is floored at the resolution: below it
# an error is numerical noise (noiseless workloads reach 1e-6), and a
# relative bound on noise would flag changes in rounding as regressions.
ERRORS = {
    "b1_err_p95": ("b1", lambda e, t: np.abs(e - t), 1e-3),
    "t2_relerr_p95": ("t2", lambda e, t: np.abs(e / t - 1.0), 1e-3),
    "ff_err_p95": ("fat_fraction", lambda e, t: np.abs(e - t), 1e-3),
    "offres_err_p95_hz": ("d_omega0",
                          lambda e, t: np.abs(e - t) / (2.0 * np.pi), 0.1),
    "t1_relerr_p95": ("t1", lambda e, t: np.abs(e / t - 1.0), 1e-3),
    "t1m0_relerr_p95": ("t1_over_m0", lambda e, t: np.abs(e / t - 1.0),
                        1e-3),
}

# Per-label per-layer metric prefix for the accuracy metrics above.
LABEL_METRICS = {
    "b1_err_p95": "b1map.err_p95",
    "t2_relerr_p95": "t2fit.relerr_p95",
    "ff_err_p95": "waterfat.ff_err_p95",
    "t1_relerr_p95": "t1fit.relerr_p95",
}
LABELS = range(1, 7)

CLI_STEPS = ("simulate", "mask", "estimate_threads1", "estimate_threads2",
             "compare")


class CheckFailed(Exception):
    """An output check of one operation failed."""


def max_threads():
    return min(2, len(os.sched_getaffinity(0)))


# -- accuracy ----------------------------------------------------------------

def label_errors(maps, truth, bits, label_grid):
    """{metric: {label: errors of its masked pixels}}, map values as given
    (as written, when ``maps`` was read back)."""
    out = {}
    for metric, (name, err, _) in ERRORS.items():
        with np.errstate(divide="ignore", invalid="ignore"):
            e = err(getattr(maps, name), np.asarray(truth[name]))
        out[metric] = {int(lab): e[bits & (label_grid == lab)]
                       for lab in np.unique(label_grid[bits]) if lab > 0}
    return out


def label_p95(errors):
    """{metric: {label: p95}} over the pixels of several label_errors."""
    out = {}
    for metric in ERRORS:
        pooled = {}
        for e in errors:
            for lab, values in e[metric].items():
                pooled.setdefault(lab, []).append(values)
        out[metric] = {lab: float(np.percentile(np.concatenate(v), 95))
                       for lab, v in pooled.items()}
    return out


def worst(per_label):
    """The worst label's p95 per metric, floored at the resolution."""
    return {m: max(max(v.values()), ERRORS[m][2])
            for m, v in per_label.items()}


# -- checks ------------------------------------------------------------------

def check_finite(maps):
    for name in pipeline.MAP_NAMES:
        if not np.all(np.isfinite(getattr(maps, name))):
            raise CheckFailed(f"map {name} has non-finite values")


def check_imageset(written, back):
    """The image set must read back bit-equal to what was written
    (float32 payloads)."""
    a = np.ascontiguousarray(written.data, dtype=np.complex64)
    b = np.ascontiguousarray(back.data, dtype=np.complex64)
    if a.shape != b.shape or not np.array_equal(a.view(np.uint32),
                                                b.view(np.uint32)):
        raise CheckFailed("image set payloads changed on the round trip")
    for attr in ("timing", "pulse_params", "omega_cs", "noise_sigma",
                 "seed"):
        if getattr(written, attr) != getattr(back, attr):
            raise CheckFailed(f"image set {attr} changed on the round trip")


def stratum(mask, stride, offset):
    """Every ``stride``-th masked pixel in raster order from ``offset``."""
    flat = np.flatnonzero(mask.bits.ravel())[offset::stride]
    bits = np.zeros(mask.bits.size, dtype=bool)
    bits[flat] = True
    return maskgen.Mask(bits=bits.reshape(mask.bits.shape))


def distinct_k(maps, bits, k_min, k_max, step):
    """Distinct table-grid k values among masked pixels: the number of
    slice-profile sets a per-k cache needs."""
    k = np.clip(maps.b1[bits], k_min, k_max)
    return int(np.unique(np.round((k - k_min) / step)).size)


def clamped_px(maps, bits, k_range):
    k = maps.b1[bits]
    lo, hi = k_range
    return int(np.count_nonzero((k <= lo) | (k >= hi)))


# -- in-process closed loop ---------------------------------------------------

class LoopContext:
    """Inputs and set-up shared by the loops of one in-process run."""

    def __init__(self, spec):
        self.spec = spec
        self.timing = seqsim.default_timing()
        self.pm = phantom.phantom_from_config(spec["phantom"])
        self.truth = phantom.phantom_truth_arrays(self.pm)
        self.opts = pipeline.EstimateOptions(**spec["options"])
        self.pulses = self.table = None

    def setup(self):
        """Pulses plus the ratio table (default range unless the options
        say otherwise); returns seconds."""
        t0 = time.perf_counter()
        self.pulses = seqsim.build_pulses(timing=self.timing)
        self.table = b1map.build_ratio_table(
            self.pulses, self.opts.b1_k_min, self.opts.b1_k_max,
            self.opts.b1_step)
        return time.perf_counter() - t0

    def loop(self, noise_seed, offset, scratch):
        """One operation; raises on a failed check."""
        t0 = time.perf_counter()
        images = seqsim.simulate_scan(
            self.pm, self.timing, pulses=self.pulses,
            noise_sigma=self.spec["sigma"], seed=noise_seed)
        formats.write_imageset(images, scratch / "images")
        back = formats.read_imageset(scratch / "images")
        check_imageset(images, back)
        mask = stratum(maskgen.make_mask(maskgen.mean_image(back)),
                       self.spec["stride"], offset)
        maps = pipeline.estimate_all(back, mask, self.opts,
                                     ratio_table=self.table)
        formats.write_maps(maps, scratch / "maps")
        written = formats.read_maps(scratch / "maps")
        check_finite(written)
        report = formats.compare_maps(written, self.truth, mask)
        if report["pixel_count"] != mask.count:
            raise CheckFailed("compare counted a different pixel set")
        return {
            "wall_s": time.perf_counter() - t0,
            "px": mask.count,
            "errors": label_errors(written, self.truth, mask.bits,
                                   self.pm.label),
            "distinct_k": distinct_k(maps, mask.bits, self.opts.b1_k_min,
                                     self.opts.b1_k_max, self.opts.b1_step),
            "clamped_px": clamped_px(
                maps, mask.bits,
                (self.table.k_values[0], self.table.k_values[-1])),
        }


def _loop_inputs(spec, seed, i):
    """Noise seed and stratum offset of loop ``i``.  The first
    ``reference_loops`` loops scan the fixed reference realization, one
    stratum each."""
    if i < spec["reference_loops"]:
        return spec["reference_seed"], i
    state = np.random.SeedSequence([seed, i]).generate_state(2)
    return int(state[0]), int(state[1] % spec["stride"])


def run_loop(spec, seed, seconds, trace, scratch, log):
    ctx = LoopContext(spec)
    ops = Ops(log)
    n_ref = spec["reference_loops"]
    if not trace:
        setup_s = ctx.setup()
        results, start, i = [], time.perf_counter(), 0
        while i <= n_ref or time.perf_counter() - start < seconds:
            noise_seed, offset = _loop_inputs(spec, seed, i)
            res = ops.run(f"loop {i}", ctx.loop, noise_seed, offset, scratch)
            if res is not None:
                results.append((i, res))
                log(f"loop {i} noise_seed {noise_seed} offset {offset}: "
                    f"{res['wall_s']:.3f} s, {res['px']} px, worst p95 "
                    + json.dumps(worst(label_p95([res["errors"]]))))
            i += 1
        refs = [r for j, r in results if j < n_ref]
        if len(refs) < n_ref:
            raise RuntimeError("a reference loop failed")
        metrics = {
            "setup_s": setup_s,
            "loop_s": setup_s + refs[0]["wall_s"],
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
        }
        metrics.update(worst(label_p95([r["errors"] for r in refs])))
        return ops, metrics, None

    tr = tracing.Tracer()
    tr.install()
    setup_s = tr.span("bench.setup", ctx.setup)
    tr.uninstall()
    inputs = [_loop_inputs(spec, seed, i) for i in range(n_ref)]
    plain = [ops.run("untraced reference loop", ctx.loop, *inp, scratch)
             for inp in inputs]
    tr.install()
    traced = [ops.run("traced reference loop", tr.span, "bench.loop",
                      ctx.loop, *inp, scratch) for inp in inputs]
    tr.uninstall()
    if None in plain or None in traced:
        raise RuntimeError("a reference loop failed")
    trees = [tracing.SpanTree(tr.spans)]
    layer = layer_metrics(trees, [tr.counts])
    layer["pipeline.estimate_ms_per_px"] = 1e3 * layer[
        "pipeline.estimate_all.s"] / sum(t["px"] for t in traced)
    layer.update(label_metrics(label_p95([t["errors"] for t in traced])))
    layer["pipeline.distinct_k"] = sum(t["distinct_k"] for t in traced)
    layer["b1map.clamped_px"] = sum(t["clamped_px"] for t in traced)
    for step in CLI_STEPS:  # no subprocesses in this workload
        layer[f"cli.{step}.s"] = 0.0
    layer["trace.loop_s"] = setup_s + traced[0]["wall_s"]
    layer["trace.overhead_s"] = sum(t["wall_s"] for t in traced) - sum(
        p["wall_s"] for p in plain)
    return ops, layer, {"processes": [tr.dump()]}


# -- cli-cold ------------------------------------------------------------------

def _thread_env(n):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(n)
    return env


def cli_chain(config, mode, scratch):
    """Run the CLI steps as subprocesses through the shim; returns
    per-step wall times and shim dumps.  Raises on a non-zero exit."""
    cfg = scratch / "config.json"
    cfg.write_text(json.dumps(config))
    img, mask = scratch / "images", scratch / "mask.pbm"
    argv = {
        "simulate": ["simulate", "--config", cfg, "--out", img],
        "mask": ["mask", "--config", cfg, "--images", img, "--out", mask],
        "estimate_threads1": ["estimate", "--config", cfg, "--images", img,
                              "--mask", mask, "--out", scratch / "maps1"],
        "estimate_threads2": ["estimate", "--config", cfg, "--images", img,
                              "--mask", mask, "--out", scratch / "maps2"],
        "compare": ["compare", "--config", cfg, "--maps", scratch / "maps1",
                    "--mask", mask, "--json", scratch / "report.json"],
    }
    walls, dumps = {}, {}
    t0 = time.perf_counter()
    for step in CLI_STEPS:
        out = scratch / f"{step}.spans.json"
        threads = 1 if step == "estimate_threads1" else max_threads()
        s0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(SHIM), mode, str(out)]
            + [str(a) for a in argv[step]],
            env=_thread_env(threads), capture_output=True, text=True,
            timeout=170)
        walls[step] = time.perf_counter() - s0
        if proc.returncode != 0:
            raise CheckFailed(f"cli {step} exited {proc.returncode}: "
                              f"{proc.stderr.strip()[-500:]}")
        dumps[step] = json.loads(out.read_text())
    chain_s = time.perf_counter() - t0
    return chain_s, walls, dumps


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())}


def check_cli_outputs(config, scratch):
    """Thread-count determinism, finiteness and the compare report; returns
    the maps as written, the mask and the phantom."""
    if _dir_bytes(scratch / "maps1") != _dir_bytes(scratch / "maps2"):
        raise CheckFailed("maps differ between 1 and 2 threads")
    maps = formats.read_maps(scratch / "maps1")
    check_finite(maps)
    pm = phantom.phantom_from_config(config["phantom"])
    report = json.loads((scratch / "report.json").read_text())
    mask = formats.read_mask(scratch / "mask.pbm")
    if report["pixel_count"] != mask.count:
        raise CheckFailed("compare counted a different pixel set")
    return maps, mask, pm


def _estimate_trees(dumps):
    return [tracing.SpanTree(dumps[step]["spans"])
            for step in ("estimate_threads1", "estimate_threads2")]


def _cli_op(config, mode, scratch):
    chain_s, walls, dumps = cli_chain(config, mode, scratch)
    maps, mask, pm = check_cli_outputs(config, scratch)
    return {"chain_s": chain_s, "walls": walls, "dumps": dumps,
            "maps": maps, "mask": mask, "pm": pm}


def run_cli(spec, seed, seconds, trace, scratch, log):
    config = spec["config"]
    ops = Ops(log)
    if not trace:
        res = ops.run("cli chain", _cli_op, config, "timers", scratch)
        if res is None:
            raise RuntimeError("the cli chain failed")
        metrics = {
            "setup_s": statistics.median(
                t.total("seqsim.build_pulses")
                + t.total("b1map.build_ratio_table")
                for t in _estimate_trees(res["dumps"])),
            "loop_s": res["chain_s"],
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
        }
        truth = phantom.phantom_truth_arrays(res["pm"])
        metrics.update(worst(label_p95([label_errors(
            res["maps"], truth, res["mask"].bits, res["pm"].label)])))
        for step, wall in res["walls"].items():
            log(f"cli {step}: {wall:.3f} s")
        return ops, metrics, None

    plain_dir, traced_dir = scratch / "plain", scratch / "traced"
    plain_dir.mkdir()
    traced_dir.mkdir()
    plain = ops.run("untraced cli chain", _cli_op, config, "timers",
                    plain_dir)
    traced = ops.run("traced cli chain", _cli_op, config, "trace",
                     traced_dir)
    if plain is None or traced is None:
        raise RuntimeError("the cli chain failed")
    dumps = list(traced["dumps"].values())
    trees = [tracing.SpanTree(d["spans"]) for d in dumps]
    layer = layer_metrics(trees, [d["counts"] for d in dumps])
    # The CLI's estimate_all builds its own table; take it out.
    est = _estimate_trees(traced["dumps"])
    layer["pipeline.estimate_ms_per_px"] = 1e3 * sum(
        t.total("pipeline.estimate_all") - t.total("b1map.build_ratio_table")
        - t.total("seqsim.build_pulses") for t in est) / (
        len(est) * traced["mask"].count)
    truth = phantom.phantom_truth_arrays(traced["pm"])
    bits = traced["mask"].bits
    layer.update(label_metrics(label_p95([label_errors(
        traced["maps"], truth, bits, traced["pm"].label)])))
    k_range = traced["dumps"]["estimate_threads1"]["notes"]["table_k_range"]
    b1 = config["b1"]
    layer["pipeline.distinct_k"] = distinct_k(
        traced["maps"], bits, b1["k_min"], b1["k_max"], b1["step"])
    layer["b1map.clamped_px"] = clamped_px(traced["maps"], bits, k_range)
    for step, wall in traced["walls"].items():
        layer[f"cli.{step}.s"] = wall
    layer["trace.loop_s"] = traced["chain_s"]
    layer["trace.overhead_s"] = traced["chain_s"] - plain["chain_s"]
    return ops, layer, {"processes": dumps}


# -- shared ------------------------------------------------------------------

class Ops:
    """Counts operations and failures; a failed operation is logged and
    skipped, never fatal."""

    def __init__(self, log):
        self.log = log
        self.attempted = 0
        self.failed = 0

    def run(self, what, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # one failed operation must not end the run
            self.failed += 1
            self.log(f"FAILED {what}: {type(exc).__name__}: {exc}")
            return None


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def label_metrics(per_label):
    out = {}
    for metric, prefix in LABEL_METRICS.items():
        for lab in LABELS:
            # 0 where the phantom has no such label (discs have label 1).
            out[f"{prefix}.label{lab}"] = per_label[metric].get(lab, 0.0)
    return out


def layer_metrics(trees, counts):
    """Per-layer times and counts summed over the given processes."""
    total = {}
    for c in counts:
        for k, v in c.items():
            total[k] = total.get(k, 0) + v

    def spans(name):
        return [(t, s) for t in trees for s in t.named(name)]

    def secs(name):
        return sum(s[4] - s[3] for _, s in spans(name))

    def calls(name):
        return len(spans(name))

    def self_s(name):
        return sum(t.self_time(s) for t, s in spans(name))

    def split(name, parent):
        picked = [s for t, s in spans(name) if t.under(s, parent)]
        return len(picked), sum(s[4] - s[3] for s in picked)

    prof_sim = split("seqsim.pixel_profiles", "seqsim.simulate_scan")
    prof_est = split("seqsim.pixel_profiles", "pipeline.estimate_all")
    solves = calls("fitcore.solve_boxed")
    mask_px = total.get("maskgen.mask_px", 0)
    return {
        "bloch.integrated_transverse_curve.s":
            secs("bloch.integrated_transverse_curve"),
        "bloch.slice_profile.calls": calls("bloch.slice_profile"),
        "bloch.slice_profile.s": secs("bloch.slice_profile"),
        "bloch.piece_rotations": total.get("bloch.piece_rotations", 0),
        "b1map.build_ratio_table.s": secs("b1map.build_ratio_table"),
        "b1map.estimate_b1.s": secs("b1map.estimate_b1"),
        "seqsim.simulate_scan.s": secs("seqsim.simulate_scan"),
        "seqsim.simulate_pixel.calls": calls("seqsim.simulate_pixel"),
        "seqsim.simulate_pixel.self_s": self_s("seqsim.simulate_pixel"),
        "seqsim.pixel_profiles.calls.simulate": prof_sim[0],
        "seqsim.pixel_profiles.s.simulate": prof_sim[1],
        "seqsim.pixel_profiles.calls.estimate": prof_est[0],
        "seqsim.pixel_profiles.s.estimate": prof_est[1],
        "pipeline.estimate_all.s": secs("pipeline.estimate_all"),
        "pipeline.estimate_all.self_s": self_s("pipeline.estimate_all"),
        "t2fit.fit_t2.calls": calls("t2fit.fit_t2"),
        "t2fit.fit_t2.s": secs("t2fit.fit_t2"),
        "t2fit.at_bound_px": total.get("t2fit.at_bound_px", 0),
        "waterfat.fit_waterfat.calls": calls("waterfat.fit_waterfat"),
        "waterfat.fit_waterfat.s": secs("waterfat.fit_waterfat"),
        "waterfat.candidates": total.get("waterfat.candidates", 0),
        "t1fit.fit_t1_m0.calls": calls("t1fit.fit_t1_m0"),
        "t1fit.fit_t1_m0.s": secs("t1fit.fit_t1_m0"),
        "t1fit.residual_evals": total.get("t1fit.residual_evals", 0),
        "t1fit.at_bound_px": total.get("t1fit.at_bound_px", 0),
        "fitcore.solve_boxed.calls": solves,
        "fitcore.iterations": total.get("fitcore.iterations", 0),
        "fitcore.converged_frac":
            total.get("fitcore.converged", 0) / solves if solves else 0.0,
        "maskgen.make_mask.s": secs("maskgen.make_mask"),
        "maskgen.mask_px": mask_px,
        "formats.write_imageset.s": secs("formats.write_imageset"),
        "formats.write_imageset.bytes":
            total.get("formats.write_imageset.bytes", 0),
        "formats.read_imageset.s": secs("formats.read_imageset"),
        "formats.write_maps.s": secs("formats.write_maps"),
        "formats.read_maps.s": secs("formats.read_maps"),
        "formats.compare_maps.s": secs("formats.compare_maps"),
    }


def run(name, seed, seconds, trace, root, log):
    """Run one workload; returns (ops, metrics, trace dump or None)."""
    spec = WORKLOADS[name]
    work = root / ".bench_out"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work))
    try:
        runner = run_loop if spec["kind"] == "loop" else run_cli
        return runner(spec, seed, seconds, trace, scratch, log)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
