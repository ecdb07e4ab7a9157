"""Command line: simulate a scan, build a mask, estimate maps, compare
against ground truth, and dump the transmit-scale lookup table.

Every command's only input besides its paths is one JSON config document,
read and checked whole through one table of its sections (``_CONFIG``):
every command refuses an unknown key, a value of the wrong kind or out of
its range, naming ``config <section> <key>``.  Exit codes: 0 success, 1
validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import b1map, formats, maskgen, phantom, pipeline, seqsim, waterfat
from .phantom import number, whole_number


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the validation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# Every config section: its kind (see ``phantom.read``).
_CONFIG = {
    "phantom": phantom.read_phantom,
    "timing": seqsim.SequenceTiming,
    "noise": {"sigma": number, "seed": whole_number},
    "pulses": seqsim.PulseParams,
    "mask": {"threshold": number, "close_radius": whole_number,
             "erode_radius": whole_number},
    "b1": dict.fromkeys(("k_min", "k_max", "step"), number),
    "t2": dict.fromkeys(("min", "max"), number),
    "wf": waterfat.WfGrid,
    "t1": dict.fromkeys(("min", "max"), number),
}


def _load_config(args) -> tuple:
    """The config document of ``args.config`` ({} without one), read whole,
    its dataclass sections built, every section checked by the range rules
    that the library applies to it, and the estimate options it sets."""
    doc = json.loads(Path(args.config).read_text()) if args.config else {}
    cfg = phantom.read(doc, _CONFIG, "config")
    seqsim.check_noise("config noise ", **cfg.get("noise", {}))
    maskgen.check_options("config mask ", **cfg.get("mask", {}))
    return cfg, _options_from_config(cfg)


def _pulses(cfg: dict) -> seqsim.SequencePulses:
    """The pulse set of the config's ``pulses`` section, built for the
    schedule of its ``timing`` section."""
    return seqsim.build_pulses(cfg.get("pulses", seqsim.PulseParams()),
                               cfg.get("timing"))


def _options_from_config(cfg: dict) -> pipeline.EstimateOptions:
    """The estimate options that a read config sets, each section checked
    first by the rule that the options apply, naming its config key, and
    ``wf t2s_min`` against the first FID time of the config's schedule."""
    defaults = vars(pipeline.EstimateOptions())
    kw = {f"b1_{key}": value for key, value in cfg.get("b1", {}).items()}
    for stage in ("t2", "t1"):
        low, high = defaults[f"{stage}_bounds"]
        given = cfg.get(stage, {})
        kw[f"{stage}_bounds"] = (given.get("min", low),
                                 given.get("max", high))
        pipeline.check_bounds(*kw[f"{stage}_bounds"],
                              f"config {stage} min and max ")
    opts = {**defaults, **kw}
    b1map.check_grid(opts["b1_k_min"], opts["b1_k_max"], opts["b1_step"],
                     "config b1 ")
    grid = cfg.get("wf", waterfat.WfGrid())
    timing = cfg.get("timing") or seqsim.default_timing()
    waterfat.check_first_time(grid.t2s_min, timing.fid_times[0], "config wf ")
    return pipeline.EstimateOptions(**kw, **vars(grid))


def cmd_simulate(args, cfg: dict, opts) -> int:
    pm = phantom.phantom_from_config(cfg.get("phantom", {}))
    noise = cfg.get("noise", {})
    images = seqsim.simulate_scan(
        pm, pulses=_pulses(cfg), noise_sigma=noise.get("sigma", 0.0),
        seed=noise.get("seed", 0))
    formats.write_imageset(images, args.out)
    print(f"wrote {images.data.shape[0] * images.data.shape[1]} images "
          f"({images.width}x{images.height}) to {args.out}")
    return 0


def cmd_mask(args, cfg: dict, opts) -> int:
    images = formats.read_imageset(args.images)
    mask = maskgen.make_mask(maskgen.mean_image(images),
                             **cfg.get("mask", {}))
    formats.write_mask(mask, args.out)
    print(f"mask {mask.width}x{mask.height}, {mask.count} pixels in mask "
          f"-> {args.out}")
    return 0


def cmd_estimate(args, cfg: dict, opts) -> int:
    images = formats.read_imageset(args.images)
    waterfat.check_first_time(opts.t2s_min, images.timing.fid_times[0],
                              "config wf ")
    mask = formats.read_mask(args.mask) if args.mask else \
        maskgen.make_mask(maskgen.mean_image(images), **cfg.get("mask", {}))
    maps = pipeline.estimate_all(images, mask, opts)
    formats.write_maps(maps, args.out)
    print(f"estimated {int(maps.mask.sum())} masked pixels, "
          f"{int(maps.valid['t1'].sum())} with a valid T1 -> {args.out}")
    return 0


def cmd_compare(args, cfg: dict, opts) -> int:
    maps = formats.read_maps(args.maps)
    pm = phantom.phantom_from_config(cfg.get("phantom", {}))
    truth = phantom.phantom_truth_arrays(pm)
    mask = formats.read_mask(args.mask) if args.mask else None
    report = formats.compare_maps(maps, truth, mask)
    print(formats.format_report(report))
    if args.json:
        Path(args.json).write_text(
            json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_lut(args, cfg: dict, opts) -> int:
    table = pipeline._ratio_table(_pulses(cfg), opts)
    doc = {"k_values": [float(v) for v in table.k_values],
           "ratios": [float(v) for v in table.ratios]}
    if args.out:
        Path(args.out).write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n")
        print(f"wrote {table.k_values.size}-entry table to {args.out}")
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qmapkit",
                     description="two-segment saturation-recovery MRI "
                                 "simulation and map estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a scan into a directory")
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=cmd_simulate)

    msk = sub.add_parser("mask", help="build the processing mask")
    msk.add_argument("--images", required=True, help="image-set directory")
    msk.add_argument("--out", required=True, help="output PBM path")
    msk.set_defaults(func=cmd_mask)

    est = sub.add_parser("estimate", help="estimate parameter maps")
    est.add_argument("--images", required=True, help="image-set directory")
    est.add_argument("--out", required=True, help="output directory")
    est.add_argument("--mask", help="PBM mask (default: derive from images)")
    est.set_defaults(func=cmd_estimate)

    cmp_ = sub.add_parser("compare", help="compare maps to phantom truth")
    cmp_.add_argument("--maps", required=True, help="QuantMaps directory")
    cmp_.add_argument("--mask", help="PBM mask (default: the maps' own)")
    cmp_.add_argument("--json", help="also write the report as JSON here")
    cmp_.set_defaults(func=cmd_compare)

    lut = sub.add_parser("lut", help="emit the transmit-scale ratio table")
    lut.add_argument("--out", help="output JSON path (default: stdout)")
    lut.set_defaults(func=cmd_lut)
    for cmd in (sim, msk, est, cmp_, lut):
        cmd.add_argument("--config", help="JSON config document")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, *_load_config(args))
    except (formats.FormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
