"""Closed-loop benchmark of qmapkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qmapkit is imported from ``./src``.  With
``--trace 0`` the last stdout line is a JSON record of the end-to-end
metrics named in ``BENCHMARK.json``; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run, whose spans are also written to
``.bench_out/``.  Earlier lines give the environment and each metric with
its unit.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def environment(root):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or "unknown"
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((root / "src" / "qmapkit").glob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": commit,
        "qmapkit_src_lines": lines,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "qmapkit" / "__init__.py").is_file():
        log("error: no src/qmapkit here; run from the root of a checkout")
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    # Threads are fixed before numpy loads BLAS.
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in THREAD_VARS:
        os.environ[var] = threads
    sys.path.insert(0, str(root / "src"))
    import qmapkit
    import tracer as tracing
    import workloads

    if Path(qmapkit.__file__).resolve().parent != \
            (root / "src" / "qmapkit").resolve():
        log(f"error: imported qmapkit from {qmapkit.__file__}")
        return 2
    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}")
        return 2

    env = environment(root)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    ops, metrics, dump = workloads.run(args.workload, args.seed,
                                       args.seconds, bool(args.trace), root,
                                       log)
    correct = ops.failed == 0
    if set(metrics) != set(units):
        log(f"error: metrics {sorted(set(metrics) ^ set(units))} do not "
            f"match the {section} list of BENCHMARK.json")
        return 1
    if dump is not None:
        for proc in dump["processes"]:
            bad = tracing.SpanTree(proc["spans"]).inconsistent()
            if bad:
                correct = False
                log(f"span tree check failed on {len(bad)} spans, "
                    f"first {bad[0]}")
        out = root / ".bench_out" / (f"trace-{args.workload}-"
                                     f"seed{args.seed}.json")
        out.write_text(json.dumps({"env": env, "metrics": metrics,
                                   **dump}))
        log(f"spans written to {out}")
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]!r} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
