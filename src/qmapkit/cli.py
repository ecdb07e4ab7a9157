"""Command line: simulate a scan, build a mask, estimate maps, compare
against ground truth, and dump the transmit-scale lookup table.

All commands read one JSON config document with optional sections
``phantom``, ``timing``, ``noise``, ``pulses``, ``mask``, ``b1``, ``t2``,
``wf``, ``t1``; command-line flags override matching config keys.  Exit
codes: 0 success, 1 validation failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import formats, maskgen, phantom, pipeline, seqsim


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to the validation exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_SECTIONS = ("phantom", "timing", "noise", "pulses", "mask", "b1", "t2",
             "wf", "t1")


def _load_config(path) -> dict:
    if path is None:
        return {}
    cfg = json.loads(Path(path).read_text())
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(cfg) - set(_SECTIONS))
    if unknown:
        raise ValueError(f"unknown config sections {unknown}")
    return cfg


def _section(cfg: dict, name: str, known) -> dict:
    """A copy of one config section, rejecting keys outside ``known``."""
    section = dict(cfg.get(name, {}))
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}")
    return section


def _timing_from_config(cfg: dict, t_sat=None, tr=None) -> seqsim.SequenceTiming:
    known = {f.name for f in dataclasses.fields(seqsim.SequenceTiming)}
    section = _section(cfg, "timing", known)
    if t_sat is not None:
        section["t_sat"] = t_sat
    if tr is not None:
        section["tr"] = tr
    base = dataclasses.asdict(seqsim.default_timing(
        t_sat=float(section.pop("t_sat", 1.2)),
        tr=float(section.pop("tr", 2.4))))
    return seqsim.SequenceTiming(**{**base, **section})


def _pulse_params_from_config(cfg: dict) -> seqsim.PulseParams:
    known = {f.name for f in dataclasses.fields(seqsim.PulseParams)}
    return seqsim.PulseParams(**_section(cfg, "pulses", known))


# The estimate sections of a config: section -> key -> (EstimateOptions
# field, converter).  A bound key gives, in place of a converter, its index
# in the field's (low, high) pair; the other bound keeps its default.
_OPTION_KEYS = {
    "b1": {"k_min": ("b1_k_min", float), "k_max": ("b1_k_max", float),
           "step": ("b1_step", float)},
    "t2": {"min": ("t2_bounds", 0), "max": ("t2_bounds", 1)},
    "wf": {"t2s_min": ("t2s_min", float), "t2s_max": ("t2s_max", float),
           "t2s_points": ("t2s_points", int),
           "d_omega_step": ("d_omega_step", float),
           "omega_bound": ("omega_bound", float)},
    "t1": {"min": ("t1_bounds", 0), "max": ("t1_bounds", 1)},
}

# Keys of older configs that no longer set anything: accepted and ignored,
# with a warning on stderr.
_IGNORED_KEYS = {"t1.starts"}


def _options_from_config(cfg: dict) -> pipeline.EstimateOptions:
    named = {f"{s}.{k}" for s in _OPTION_KEYS for k in cfg.get(s, {})}
    known = {f"{s}.{k}" for s, keys in _OPTION_KEYS.items() for k in keys}
    unknown = sorted(named - known - _IGNORED_KEYS)
    if unknown:
        raise ValueError(f"unknown estimate option keys {unknown}")
    for key in sorted(named & _IGNORED_KEYS):
        print(f"warning: config key {key} is ignored", file=sys.stderr)
    defaults = pipeline.EstimateOptions()
    kw = {}
    for section, keys in _OPTION_KEYS.items():
        given = cfg.get(section, {})
        for key, (field, convert) in keys.items():
            if key not in given:
                continue
            if isinstance(convert, int):
                bounds = list(kw.get(field, getattr(defaults, field)))
                bounds[convert] = float(given[key])
                kw[field] = tuple(bounds)
            else:
                kw[field] = convert(given[key])
    return pipeline.EstimateOptions(**kw)


def _mask_kwargs(cfg: dict, args) -> dict:
    section = _section(cfg, "mask",
                       ("threshold", "close_radius", "erode_radius"))
    out = {
        "threshold": float(section.get("threshold", 0.1)),
        "close_radius": int(section.get("close_radius", 2)),
        "erode_radius": int(section.get("erode_radius", 1)),
    }
    for key in out:
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
    return out


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    pm = phantom.phantom_from_config(cfg.get("phantom", {}))
    timing = _timing_from_config(cfg, t_sat=args.t_sat, tr=args.tr)
    params = _pulse_params_from_config(cfg)
    noise = _section(cfg, "noise", ("sigma", "seed"))
    sigma = args.noise_sigma if args.noise_sigma is not None \
        else float(noise.get("sigma", 0.0))
    seed = args.seed if args.seed is not None else int(noise.get("seed", 0))
    images = seqsim.simulate_scan(
        pm, timing, pulses=seqsim.build_pulses(params, timing),
        noise_sigma=sigma, seed=seed)
    formats.write_imageset(images, args.out)
    print(f"wrote {images.data.shape[0] * images.data.shape[1]} images "
          f"({images.width}x{images.height}) to {args.out}")
    return 0


def cmd_mask(args) -> int:
    cfg = _load_config(args.config)
    images = formats.read_imageset(args.images)
    mask = maskgen.make_mask(maskgen.mean_image(images),
                             **_mask_kwargs(cfg, args))
    formats.write_mask(mask, args.out)
    print(f"mask {mask.width}x{mask.height}, {mask.count} pixels in mask "
          f"-> {args.out}")
    return 0


def cmd_estimate(args) -> int:
    cfg = _load_config(args.config)
    images = formats.read_imageset(args.images)
    mask = formats.read_mask(args.mask) if args.mask else \
        maskgen.make_mask(maskgen.mean_image(images),
                          **_mask_kwargs(cfg, args))
    maps = pipeline.estimate_all(images, mask, _options_from_config(cfg))
    formats.write_maps(maps, args.out)
    print(f"estimated {int(maps.mask.sum())} masked pixels, "
          f"{int(maps.valid['t1'].sum())} with a valid T1 -> {args.out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args.config)
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


def cmd_lut(args) -> int:
    cfg = _load_config(args.config)
    timing = _timing_from_config(cfg)
    pulses = seqsim.build_pulses(_pulse_params_from_config(cfg), timing)
    table = pipeline._ratio_table(pulses, _options_from_config(cfg))
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
    sim.add_argument("--config", help="JSON config file")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--t-sat", dest="t_sat", type=float)
    sim.add_argument("--tr", type=float)
    sim.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    sim.add_argument("--seed", type=int)
    sim.set_defaults(func=cmd_simulate)

    msk = sub.add_parser("mask", help="build the processing mask")
    msk.add_argument("--config", help="JSON config file")
    msk.add_argument("--images", required=True, help="image-set directory")
    msk.add_argument("--out", required=True, help="output PBM path")
    msk.add_argument("--threshold", type=float)
    msk.add_argument("--close-radius", dest="close_radius", type=int)
    msk.add_argument("--erode-radius", dest="erode_radius", type=int)
    msk.set_defaults(func=cmd_mask)

    est = sub.add_parser("estimate", help="estimate parameter maps")
    est.add_argument("--config", help="JSON config file")
    est.add_argument("--images", required=True, help="image-set directory")
    est.add_argument("--out", required=True, help="output directory")
    est.add_argument("--mask", help="PBM mask (default: derive from images)")
    est.add_argument("--threshold", type=float)
    est.add_argument("--close-radius", dest="close_radius", type=int)
    est.add_argument("--erode-radius", dest="erode_radius", type=int)
    est.set_defaults(func=cmd_estimate)

    cmp_ = sub.add_parser("compare", help="compare maps to phantom truth")
    cmp_.add_argument("--config", help="JSON config with the phantom section")
    cmp_.add_argument("--maps", required=True, help="QuantMaps directory")
    cmp_.add_argument("--mask", help="PBM mask (default: the maps' own)")
    cmp_.add_argument("--json", help="also write the report as JSON here")
    cmp_.set_defaults(func=cmd_compare)

    lut = sub.add_parser("lut", help="emit the transmit-scale ratio table")
    lut.add_argument("--config", help="JSON config file")
    lut.add_argument("--out", help="output JSON path (default: stdout)")
    lut.set_defaults(func=cmd_lut)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except formats.FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, TypeError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
