"""On-disk formats: image sets and parameter maps as a JSON manifest plus
one raw payload, masks as PBM bitmaps, and windowed PGM exports.

A set's directory holds ``manifest.json`` and one payload of 32-bit
little-endian IEEE floats, its planes one after another, each row-major
with the origin at the top-left pixel: ``images.f32`` holds the 2 x 11
complex images, segment-major, as (real, imaginary) pairs per pixel;
``maps.f32`` holds 21 real planes (see :func:`write_maps`).  The manifest's
``sha256`` is the payload's checksum, verified on read.  Units on disk:
seconds, rad/s, tesla, dimensionless.  Both kinds of set share one writer
and one reader.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np

from .maskgen import Mask
from .phantom import number, read, whole_number
from .pipeline import MAP_NAMES, QuantMaps
from .seqsim import ImageSet, PulseParams, SequenceTiming, check_noise

FORMAT_VERSION = 3

_MAP_UNITS = {
    "b1": "dimensionless", "t2": "s", "t2s_water": "s", "t2s_fat": "s",
    "d_omega0": "rad/s", "delta_b0": "T", "fat_fraction": "dimensionless",
    "t1": "s", "m0": "signal", "t1_over_m0": "s/signal",
}


class FormatError(Exception):
    """Base class for all manifest/payload validation failures."""


class ManifestNotFoundError(FormatError):
    pass


class FormatVersionError(FormatError):
    pass


class DimensionError(FormatError):
    pass


class ChecksumError(FormatError):
    pass


class FieldError(FormatError):
    """A manifest field is missing or holds a value of the wrong kind."""


def _digest(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, not {value!r}")
    return value


_IMAGESET_KINDS = {
    **dict.fromkeys(("width", "height", "seed"), whole_number),
    "omega_cs": number, "noise_sigma": number, "timing": SequenceTiming,
    "pulse_params": PulseParams, "sha256": _digest}


def _map_names(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of map names, not {value!r}")
    if value != list(MAP_NAMES):
        raise DimensionError(f"{name} must be {list(MAP_NAMES)}, not {value}")
    return value


_MAPS_KINDS = {"width": whole_number, "height": whole_number,
               "maps": _map_names, "sha256": _digest}


def _dump_manifest(manifest: dict, path: Path):
    text = json.dumps(manifest, sort_keys=True, indent=2,
                      separators=(",", ": "))
    path.write_text(text + "\n")


def _write_set(out_dir, kind: str, payload: str, planes, fields: dict):
    """Write the planes as little-endian float32 into the one file
    ``payload``, a plane at a time, hashing them as they go; then the
    manifest: ``fields``, the format version, ``kind`` and the checksum."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    with open(out / payload, "wb") as file:
        for plane in planes:
            blob = np.ascontiguousarray(plane, dtype="<f4")
            digest.update(blob)
            file.write(blob)
    _dump_manifest({**fields, "format_version": FORMAT_VERSION, "kind": kind,
                    "sha256": digest.hexdigest()}, out / "manifest.json")


def _read_set(in_dir, kind: str, kinds: dict, payload: str, dtype: str,
              chunks: int, planes: int):
    """The manifest's fields, read as ``kinds``, and a generator of the file
    ``payload`` as ``chunks`` reads of ``planes`` (height, width) planes of
    ``dtype``, each into one reused buffer, hashed as it goes.  The file's
    size is checked before anything is allocated, so that a manifest cannot
    ask for more memory than its file holds; the generator raises before
    it yields the last chunk if the file does not match its size or
    checksum."""
    path = Path(in_dir) / "manifest.json"
    if not path.is_file():
        raise ManifestNotFoundError(f"no manifest at {path}")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise FormatVersionError(f"manifest {path} is not UTF-8 JSON: "
                                 f"{exc}") from None
    version = manifest.get("format_version") if isinstance(manifest, dict) \
        else None
    if version != FORMAT_VERSION:
        raise FormatVersionError(
            f"unsupported manifest format_version {version!r} (expected "
            f"{FORMAT_VERSION})")
    if manifest.get("kind") != kind:
        raise FormatVersionError(
            f"manifest kind {manifest.get('kind')!r} is not {kind!r}")
    # A manifest takes no defaults: its dataclass tables list every field.
    missing = [f"manifest {key} {f.name}" for key, cls in kinds.items()
               if isinstance(cls, type) and isinstance(manifest.get(key), dict)
               for f in dataclasses.fields(cls) if f.name not in manifest[key]]
    if missing:
        raise FieldError(f"missing {', '.join(missing)}")
    try:
        fields = read({key: manifest[key] for key in kinds}, kinds, "manifest")
    except KeyError as exc:
        raise FieldError(f"manifest has no key {exc}") from None
    except ValueError as exc:
        raise FieldError(str(exc)) from None
    h, w = fields["height"], fields["width"]
    if h <= 0 or w <= 0:
        raise DimensionError(f"manifest height and manifest width must be "
                             f"> 0, not {h} and {w}")
    file = path.with_name(payload)
    if not file.is_file():
        raise ManifestNotFoundError(f"missing payload {file}")
    _check_size(payload, file.stat().st_size,
                chunks * planes * h * w * np.dtype(dtype).itemsize)
    return fields, _chunks(file, np.empty((planes, h, w), dtype), chunks,
                           payload, fields["sha256"])


def _chunks(file, buffer, chunks: int, payload: str, stored):
    digest, got = hashlib.sha256(), 0
    with open(file, "rb") as stream:  # the file may have changed since
        for left in range(chunks - 1, -1, -1):
            got += stream.readinto(buffer)
            digest.update(buffer)
            if not left:  # the payload is checked before its last chunk
                got += len(stream.read(1))
                _check_size(payload, got, chunks * buffer.nbytes)
                if digest.hexdigest() != stored:
                    raise ChecksumError(
                        f"checksum mismatch for {payload}: manifest sha256 "
                        f"{stored}, computed {digest.hexdigest()}")
            yield buffer


def _check_size(name: str, size: int, expected: int) -> None:
    if size != expected:
        raise DimensionError(f"{name}: {size} bytes, expected {expected} "
                             "from manifest height and manifest width")


def write_imageset(images: ImageSet, out_dir) -> None:
    """Manifest plus ``images.f32``: the 2 x 11 images, segment-major, each
    cast to complex64 (if it is not) as it is written, (real, imaginary)
    interleaved."""
    _write_set(out_dir, "imageset", "images.f32", (
        image.astype(np.complex64, copy=False).view(np.float32)
        for segment in images.data for image in segment), {
        "width": int(images.width), "height": int(images.height),
        "acq_times": list(images.timing.acq_times),
        "pixel_encoding": "float32 (real, imaginary) pairs, row-major, "
                          "origin top-left",
        "byte_order": "little-endian",
        "timing": dataclasses.asdict(images.timing),
        "pulse_params": dataclasses.asdict(images.pulse_params),
        "omega_cs": images.omega_cs,
        "noise_sigma": images.noise_sigma,
        "seed": images.seed,
    })


def read_imageset(in_dir) -> ImageSet:
    """The 2 x 11 images as one complex64 array, read from ``images.f32``
    straight into it: the payload's own precision."""
    manifest, chunks = _read_set(in_dir, "imageset", _IMAGESET_KINDS,
                                 "images.f32", "<c8", 1, 22)
    try:
        check_noise("manifest ", noise_sigma=manifest["noise_sigma"],
                    seed=manifest["seed"])
    except ValueError as exc:
        raise FieldError(str(exc)) from None
    [data] = chunks
    return ImageSet(
        data=data.reshape(2, 11, *data.shape[1:]), timing=manifest["timing"],
        pulse_params=manifest["pulse_params"], omega_cs=manifest["omega_cs"],
        noise_sigma=manifest["noise_sigma"], seed=manifest["seed"])


def write_maps(maps: QuantMaps, out_dir) -> None:
    """Manifest plus ``maps.f32``: 21 real planes, each map then its
    validity flags (1 or 0) in ``MAP_NAMES`` order, then the mask."""
    h, w = maps.shape
    planes = [plane for name in MAP_NAMES
              for plane in (getattr(maps, name), maps.valid[name])]
    _write_set(out_dir, "quantmaps", "maps.f32", planes + [maps.mask], {
        "width": int(w), "height": int(h), "maps": list(MAP_NAMES),
        "units": _MAP_UNITS,
        "pixel_encoding": "float32, row-major, origin top-left",
        "byte_order": "little-endian",
    })


def read_maps(in_dir) -> QuantMaps:
    """Float64 maps, boolean flags and mask from ``maps.f32`` (see
    :func:`write_maps`), read a plane at a time into one float32 buffer."""
    manifest, chunks = _read_set(in_dir, "quantmaps", _MAPS_KINDS, "maps.f32",
                                 "<f4", 2 * len(MAP_NAMES) + 1, 1)
    out = QuantMaps.zeros((manifest["height"], manifest["width"]))
    targets = [t for name in MAP_NAMES
               for t in (getattr(out, name), out.valid[name])] + [out.mask]
    for [plane], target in zip(chunks, targets):
        np.copyto(target, plane > 0.5 if target.dtype == bool else plane)
    return out


def write_mask(mask: Mask, path) -> None:
    """PBM (P4) bitmap plus a JSON sidecar.

    Bit 1 (black) marks in-mask pixels; rows are packed most-significant
    bit first and padded to whole bytes, per the PBM convention.
    """
    path = Path(path)
    bits = mask.bits
    h, w = bits.shape
    header = f"P4\n{w} {h}\n".encode("ascii")
    packed = np.packbits(bits, axis=1)
    path.write_bytes(header + packed.tobytes())
    sidecar = {
        "width": int(w),
        "height": int(h),
        "pixels_in_mask": int(bits.sum()),
        "convention": "PBM bit 1 (black) = in mask",
    }
    _dump_manifest(sidecar, path.with_suffix(path.suffix + ".json"))


def read_mask(path) -> Mask:
    path = Path(path)
    if not path.is_file():
        raise ManifestNotFoundError(f"no mask file at {path}")
    blob = path.read_bytes()
    if not blob.startswith(b"P4"):
        raise FormatVersionError("mask file is not binary PBM (P4)")
    # Width and height after the magic, each after whitespace and comment
    # lines, then one whitespace byte: the raster is all that follows.
    header = re.match(rb"P4(?:\s|#.*\n)+(\d+)(?:\s|#.*\n)+(\d+)\s", blob)
    w, h = map(int, header.groups()) if header else (0, 0)
    if not (w > 0 and h > 0):
        raise DimensionError("PBM header: width and height must be positive "
                             "whole numbers")
    row_bytes = (w + 7) // 8
    raster = blob[header.end():]
    if len(raster) != h * row_bytes:
        raise DimensionError(f"PBM raster of {len(raster)} bytes, where the "
                             f"header promises {h * row_bytes}")
    rows = np.frombuffer(raster, dtype=np.uint8).reshape(h, row_bytes)
    bits = np.unpackbits(rows, axis=1)[:, :w].astype(bool)
    return Mask(bits=bits)


def export_map_pgm(values: np.ndarray, lo: float, hi: float, path) -> None:
    """16-bit PGM with linear windowing: lo maps to 0, hi to 65535, values
    (+-inf too) clamped, codes rounded half-up.  A NaN has no code, and a
    window needs finite ends and width: either raises ValueError."""
    lo, hi = float(lo), float(hi)
    if not (lo < hi and np.isfinite(hi - lo)):
        raise ValueError(f"need lo < hi with a finite hi - lo, not "
                         f"({lo}, {hi})")
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("map must be 2-d and non-empty")
    if np.isnan(arr).any():
        raise ValueError("map has NaN values, which have no PGM code")
    frac = np.clip((arr - lo) / (hi - lo), 0.0, 1.0)
    codes = np.floor(frac * 65535.0 + 0.5).astype(np.uint16)
    h, w = arr.shape
    header = f"P5\n{w} {h}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + codes.astype(">u2").tobytes())


def compare_maps(estimated: QuantMaps, truth, mask=None) -> dict:
    """Per-map bias, RMSE, and max relative error over masked pixels.

    ``truth`` is a dict of ground-truth arrays keyed like the maps (extra
    keys ignored, missing keys skipped); a phantom with a
    ``truth_arrays``-style dict works via phantom.phantom_truth_arrays.
    The max relative error is taken over pixels whose true value is
    non-zero (None when there are no such pixels).
    """
    if mask is None:
        bits = estimated.mask
    else:
        bits = mask.bits if isinstance(mask, Mask) else np.asarray(
            mask, dtype=bool)
    if bits.shape != estimated.shape:
        raise DimensionError("mask shape does not match the maps")
    report = {"pixel_count": int(bits.sum()), "maps": {}}
    if report["pixel_count"] == 0:
        report["no_pixels"] = True
        return report
    for name in MAP_NAMES:
        if name not in truth:
            continue
        t = np.asarray(truth[name], dtype=float)
        if t.shape != estimated.shape:
            raise DimensionError(f"truth for {name!r} has shape {t.shape}")
        est = getattr(estimated, name)[bits]
        ref = t[bits]
        err = est - ref
        nonzero = ref != 0
        max_rel = (float(np.max(np.abs(err[nonzero] / ref[nonzero])))
                   if np.any(nonzero) else None)
        report["maps"][name] = {
            "bias": float(err.mean()),
            "rmse": float(np.sqrt(np.mean(err * err))),
            "max_rel": max_rel,
        }
    return report


def format_report(report: dict) -> str:
    """Human-readable table for a compare_maps report."""
    lines = [f"pixels compared: {report['pixel_count']}"]
    if report.get("no_pixels"):
        lines.append("no pixels in mask: nothing to compare")
        return "\n".join(lines)
    lines.append(f"{'map':<14}{'bias':>14}{'rmse':>14}{'max_rel':>12}")
    for name, stats in report["maps"].items():
        rel = ("-" if stats["max_rel"] is None
               else f"{stats['max_rel']:.4g}")
        lines.append(f"{name:<14}{stats['bias']:>14.6g}"
                     f"{stats['rmse']:>14.6g}{rel:>12}")
    return "\n".join(lines)
