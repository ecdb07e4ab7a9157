"""Run one ``qmapkit`` subcommand with the benchmark's wrappers installed.

    python3 perfbench/cli_shim.py {timers|trace} SPANS_JSON SUBCOMMAND ARGS...

``timers`` wraps only the calls the end-to-end metrics need (pulses, ratio
table, simulate_scan, estimate_all: one span each per process); ``trace``
wraps every layer.  The spans are written to SPANS_JSON when the command
ends, and the exit code is the command's own.  Run from the checkout root,
which holds ``src/qmapkit``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import tracer as tracing  # noqa: E402
from qmapkit import cli  # noqa: E402


def main(argv):
    mode, out, args = argv[0], Path(argv[1]), argv[2:]
    tr = tracing.Tracer()
    if mode == "timers":
        tr.install(tracing.TIMERS, ())
    elif mode == "trace":
        tr.install()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    try:
        return tr.span("cli.main", cli.main, args)
    finally:
        tr.uninstall()
        out.write_text(json.dumps(tr.dump()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
