"""On-disk formats: image sets and parameter maps as a JSON manifest plus
raw payloads, masks as PBM bitmaps, and windowed PGM exports.

Payload layout (both image sets and maps): 32-bit little-endian IEEE floats,
row-major, origin at the top-left pixel.  Complex images interleave
(real, imaginary) pairs per pixel; maps are one float per pixel.  Every
payload's SHA-256 is recorded in the manifest and verified on read.  Units
on disk: seconds, rad/s, tesla, dimensionless.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from .maskgen import Mask
from .phantom import number, read, whole_number
from .pipeline import MAP_NAMES, QuantMaps
from .seqsim import (PULSE_KINDS, TIMING_KINDS, ImageSet, PulseParams,
                     SequenceTiming)

FORMAT_VERSION = 1

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


def _payloads(value, name: str) -> list:
    """Payload entries, each an object whose ``file`` is a bare file name in
    the set's own directory and whose ``sha256`` is a string."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of objects, not {value!r}")
    for i, entry in enumerate(value):
        if not isinstance(entry, dict):
            raise ValueError(f"{name}[{i}] must be an object with file and "
                             f"sha256, not {entry!r}")
        file, digest = entry.get("file"), entry.get("sha256")
        if not (isinstance(file, str) and file not in ("", "..")
                and Path(file).name == file):
            raise ValueError(
                f"{name}[{i}] file must be a bare file name, not {file!r}")
        if not isinstance(digest, str):
            raise ValueError(
                f"{name}[{i}] sha256 must be a string, not {digest!r}")
    return value


_IMAGESET_KINDS = {
    **dict.fromkeys(("width", "height", "segments", "images_per_segment",
                     "seed"), whole_number),
    "omega_cs": number, "noise_sigma": number, "timing": TIMING_KINDS,
    "pulse_params": PULSE_KINDS, "payloads": _payloads}
_MAPS_KINDS = {"width": whole_number, "height": whole_number, "maps": None,
               "payloads": _payloads}


def _fields(manifest: dict, kinds: dict) -> dict:
    """The manifest's ``kinds`` keys, each read as its kind, or FieldError."""
    try:
        return read({key: manifest[key] for key in kinds}, kinds, "manifest")
    except KeyError as exc:
        raise FieldError(f"manifest has no key {exc}") from None
    except ValueError as exc:
        raise FieldError(str(exc)) from None


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dump_manifest(manifest: dict, path: Path):
    text = json.dumps(manifest, sort_keys=True, indent=2,
                      separators=(",", ": "))
    path.write_text(text + "\n")


def _load_manifest(dir_path: Path, kind: str) -> dict:
    path = dir_path / "manifest.json"
    if not path.is_file():
        raise ManifestNotFoundError(f"no manifest at {path}")
    manifest = json.loads(path.read_text())
    version = manifest.get("format_version") if isinstance(manifest, dict) \
        else None
    if version != FORMAT_VERSION:
        raise FormatVersionError(
            f"unsupported format_version {version!r} (expected "
            f"{FORMAT_VERSION})")
    if manifest.get("kind") != kind:
        raise FormatVersionError(
            f"manifest kind {manifest.get('kind')!r} is not {kind!r}")
    return manifest


def _read_payload(dir_path: Path, entry: dict, count: int) -> np.ndarray:
    path = dir_path / entry["file"]
    if not path.is_file():
        raise ManifestNotFoundError(f"missing payload {path}")
    blob = path.read_bytes()
    digest = _sha256(blob)
    if digest != entry["sha256"]:
        raise ChecksumError(
            f"checksum mismatch for {path.name}: stored {entry['sha256']}, "
            f"computed {digest}")
    if len(blob) != 4 * count:
        raise DimensionError(
            f"{path.name}: {len(blob)} bytes, expected {4 * count}")
    return np.frombuffer(blob, dtype="<f4")


def _payload_entry(dir_path: Path, name: str, values: np.ndarray) -> dict:
    blob = np.ascontiguousarray(values, dtype="<f4").tobytes()
    (dir_path / name).write_bytes(blob)
    return {"file": name, "sha256": _sha256(blob)}


def write_imageset(images: ImageSet, out_dir) -> None:
    """Manifest plus one (real, imaginary)-interleaved payload per image."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    segs, count, h, w = images.data.shape
    payloads = []
    for s in range(segs):
        for i in range(count):
            pairs = images.data[s, i].astype(np.complex64).view(np.float32)
            payloads.append(
                _payload_entry(out, f"seg{s + 1}_img{i + 1:02d}.f32", pairs))
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "imageset",
        "width": int(w),
        "height": int(h),
        "segments": int(segs),
        "images_per_segment": int(count),
        "acq_times": list(images.timing.acq_times),
        "pixel_encoding": "float32 (real, imaginary) pairs, row-major, "
                          "origin top-left",
        "byte_order": "little-endian",
        "payloads": payloads,
        "timing": dataclasses.asdict(images.timing),
        "pulse_params": images.pulse_params.to_dict(),
        "omega_cs": images.omega_cs,
        "noise_sigma": images.noise_sigma,
        "seed": images.seed,
    }
    _dump_manifest(manifest, out / "manifest.json")


def read_imageset(in_dir) -> ImageSet:
    src = Path(in_dir)
    manifest = _fields(_load_manifest(src, "imageset"), _IMAGESET_KINDS)
    h, w = manifest["height"], manifest["width"]
    segs, count = manifest["segments"], manifest["images_per_segment"]
    if h <= 0 or w <= 0 or segs != 2 or count != 11:
        raise DimensionError(
            f"unsupported geometry: {segs} segments x {count} images, "
            f"{w}x{h} pixels")
    payloads = manifest["payloads"]
    if len(payloads) != segs * count:
        raise DimensionError(
            f"{len(payloads)} payloads for {segs * count} images")
    # The payloads' own precision: (real, imaginary) float32 pairs.
    data = np.empty((segs, count, h, w), dtype=np.complex64)
    pairs = data.reshape(segs * count, h * w).view(np.float32)
    for idx, entry in enumerate(payloads):
        pairs[idx] = _read_payload(src, entry, h * w * 2)
    return ImageSet(
        data=data,
        timing=SequenceTiming(**manifest["timing"]),
        pulse_params=PulseParams(**manifest["pulse_params"]),
        omega_cs=manifest["omega_cs"],
        noise_sigma=manifest["noise_sigma"],
        seed=manifest["seed"],
    )


def write_maps(maps: QuantMaps, out_dir) -> None:
    """One real payload per map, one per validity flag, plus the mask."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    h, w = maps.shape
    payloads = []
    for name in MAP_NAMES:
        payloads.append(
            _payload_entry(out, f"map_{name}.f32", getattr(maps, name)))
        payloads.append(
            _payload_entry(out, f"valid_{name}.f32",
                           maps.valid[name].astype(float)))
    payloads.append(_payload_entry(out, "mask.f32",
                                   maps.mask.astype(float)))
    manifest = {
        "format_version": FORMAT_VERSION,
        "kind": "quantmaps",
        "width": int(w),
        "height": int(h),
        "maps": list(MAP_NAMES),
        "units": _MAP_UNITS,
        "pixel_encoding": "float32, row-major, origin top-left",
        "byte_order": "little-endian",
        "payloads": payloads,
    }
    _dump_manifest(manifest, out / "manifest.json")


def read_maps(in_dir) -> QuantMaps:
    src = Path(in_dir)
    manifest = _fields(_load_manifest(src, "quantmaps"), _MAPS_KINDS)
    h, w = manifest["height"], manifest["width"]
    if h <= 0 or w <= 0:
        raise DimensionError(f"bad dimensions {w}x{h}")
    names = manifest["maps"]
    if list(names) != list(MAP_NAMES):
        raise DimensionError(f"unexpected map list {names}")
    entries = {e["file"]: e for e in manifest["payloads"]}
    if len(entries) != 2 * len(MAP_NAMES) + 1:
        raise DimensionError(
            f"{len(entries)} payloads for {2 * len(MAP_NAMES) + 1} expected")

    def grab(fname):
        if fname not in entries:
            raise DimensionError(f"manifest lists no payload {fname!r}")
        return _read_payload(src, entries[fname], h * w).reshape(
            h, w).astype(float)

    out = QuantMaps.zeros((h, w))
    for name in MAP_NAMES:
        setattr(out, name, grab(f"map_{name}.f32"))
        out.valid[name] = grab(f"valid_{name}.f32") > 0.5
    out.mask = grab("mask.f32") > 0.5
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
    fields = []
    pos = 2
    while len(fields) < 2:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos:pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    pos += 1  # single whitespace after the header
    w, h = int(fields[0]), int(fields[1])
    row_bytes = (w + 7) // 8
    raster = blob[pos:pos + h * row_bytes]
    if len(raster) != h * row_bytes:
        raise DimensionError("PBM raster shorter than the header promises")
    rows = np.frombuffer(raster, dtype=np.uint8).reshape(h, row_bytes)
    bits = np.unpackbits(rows, axis=1)[:, :w].astype(bool)
    return Mask(bits=bits)


def export_map_pgm(values: np.ndarray, lo: float, hi: float, path) -> None:
    """16-bit PGM with linear windowing: lo maps to 0, hi to 65535, values
    clamped, codes rounded half-up."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError("map must be 2-d")
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
