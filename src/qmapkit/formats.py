"""On-disk formats: image sets and parameter maps as a JSON manifest plus
raw payloads, masks as PBM bitmaps, and windowed PGM exports.

Payload layout (both image sets and maps): 32-bit little-endian IEEE floats,
row-major, origin at the top-left pixel.  Complex images interleave
(real, imaginary) pairs per pixel; maps are one float per pixel.  Every
payload's SHA-256 is recorded in the manifest and verified on read.  Units
on disk: seconds, rad/s, tesla, dimensionless.  Both kinds of set share
one writer and one reader, which finds each payload by its file name: the
manifest may list the entries in any order, but each file exactly once.
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

FORMAT_VERSION = 2

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


def _map_names(value, name: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of map names, not {value!r}")
    if value != list(MAP_NAMES):
        raise DimensionError(f"unexpected map list {value}")
    return value


_MAPS_KINDS = {"width": whole_number, "height": whole_number,
               "maps": _map_names, "payloads": _payloads}

# The payload files each reader looks up, in the order it reads them.
_IMAGE_FILES = [f"seg{s}_img{i:02d}.f32" for s in (1, 2) for i in range(1, 12)]
_MAP_FILES = [f"{part}_{name}.f32" for name in MAP_NAMES
              for part in ("map", "valid")] + ["mask.f32"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dump_manifest(manifest: dict, path: Path):
    text = json.dumps(manifest, sort_keys=True, indent=2,
                      separators=(",", ": "))
    path.write_text(text + "\n")


def _write_set(out_dir, kind: str, payloads, fields: dict) -> None:
    """Write each (file name, values) payload as little-endian float32, in
    the order given, then the manifest: ``fields``, the format version,
    ``kind`` and one {file, sha256} entry per payload."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, values in payloads:
        blob = np.ascontiguousarray(values, dtype="<f4").tobytes()
        (out / name).write_bytes(blob)
        entries.append({"file": name, "sha256": _sha256(blob)})
    _dump_manifest({**fields, "format_version": FORMAT_VERSION, "kind": kind,
                    "payloads": entries}, out / "manifest.json")


def _read_set(in_dir, kind: str, kinds: dict, names, per_pixel: int):
    """The manifest's fields, read as ``kinds``, and an iterator over the
    payloads ``names``, each found by its file name and read when reached
    (``per_pixel`` floats a pixel).  The entries may come in any order but
    must list each name once and no other file."""
    path = Path(in_dir) / "manifest.json"
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
    try:
        fields = read({key: manifest[key] for key in kinds}, kinds, "manifest")
    except KeyError as exc:
        raise FieldError(f"manifest has no key {exc}") from None
    except ValueError as exc:
        raise FieldError(str(exc)) from None
    # A manifest takes no defaults: its nested tables list every key.
    missing = [f"manifest {key} {sub}" for key, kind in kinds.items()
               if isinstance(kind, dict) for sub in kind
               if sub not in fields[key]]
    if missing:
        raise FieldError(f"missing {', '.join(missing)}")
    h, w = fields["height"], fields["width"]
    if h <= 0 or w <= 0:
        raise DimensionError(f"bad dimensions {w}x{h}")
    listed = [entry["file"] for entry in fields["payloads"]]
    faults = {"missing": sorted(set(names) - set(listed)),
              "duplicated": sorted({f for f in listed if listed.count(f) > 1}),
              "unexpected": sorted(set(listed) - set(names))}
    if any(faults.values()):
        raise DimensionError("manifest payloads: " + "; ".join(
            f"{fault} {files}" for fault, files in faults.items() if files))
    # Sizes are checked before a caller allocates for the dimensions, so
    # that a manifest cannot ask for more memory than its files hold, and
    # again as each payload is read.
    size = 4 * h * w * per_pixel
    for name in names:
        file = path.with_name(name)
        if not file.is_file():
            raise ManifestNotFoundError(f"missing payload {file}")
        _check_size(name, file.stat().st_size, size)
    digests = {entry["file"]: entry["sha256"] for entry in fields["payloads"]}
    return fields, (_read_payload(path.with_name(name), digests[name], size)
                    for name in names)


def _check_size(name: str, size: int, expected: int) -> None:
    if size != expected:
        raise DimensionError(f"{name}: {size} bytes, expected {expected}")


def _read_payload(path: Path, digest: str, size: int) -> np.ndarray:
    blob = path.read_bytes()
    computed = _sha256(blob)
    if computed != digest:
        raise ChecksumError(f"checksum mismatch for {path.name}: stored "
                            f"{digest}, computed {computed}")
    _check_size(path.name, len(blob), size)
    return np.frombuffer(blob, dtype="<f4")


def write_imageset(images: ImageSet, out_dir) -> None:
    """Manifest plus one complex64 payload per image, (real, imaginary)
    interleaved: ``seg<s>_img<ii>.f32``, segment-major."""
    segs, count, h, w = images.data.shape
    _write_set(out_dir, "imageset", (
        (f"seg{s + 1}_img{i + 1:02d}.f32",
         images.data[s, i].astype(np.complex64).view(np.float32))
        for s in range(segs) for i in range(count)), {
        "width": int(w), "height": int(h),
        "segments": int(segs), "images_per_segment": int(count),
        "acq_times": list(images.timing.acq_times),
        "pixel_encoding": "float32 (real, imaginary) pairs, row-major, "
                          "origin top-left",
        "byte_order": "little-endian",
        "timing": dataclasses.asdict(images.timing),
        "pulse_params": images.pulse_params.to_dict(),
        "omega_cs": images.omega_cs,
        "noise_sigma": images.noise_sigma,
        "seed": images.seed,
    })


def read_imageset(in_dir) -> ImageSet:
    """The 2 x 11 images as one complex64 array, image j of segment s read
    from ``seg<s>_img<jj>.f32`` whatever the order of the entries."""
    manifest, payloads = _read_set(in_dir, "imageset", _IMAGESET_KINDS,
                                   _IMAGE_FILES, 2)
    h, w = manifest["height"], manifest["width"]
    segs, count = manifest["segments"], manifest["images_per_segment"]
    if segs != 2 or count != 11:
        raise DimensionError(
            f"unsupported geometry: {segs} segments x {count} images, "
            f"{w}x{h} pixels")
    # The payloads' own precision: (real, imaginary) float32 pairs.
    data = np.empty((segs, count, h, w), dtype=np.complex64)
    for row in data.reshape(segs * count, h * w).view(np.float32):
        row[:] = next(payloads)  # one payload held at a time
    return ImageSet(
        data=data, timing=SequenceTiming(**manifest["timing"]),
        pulse_params=PulseParams(**manifest["pulse_params"]),
        omega_cs=manifest["omega_cs"], noise_sigma=manifest["noise_sigma"],
        seed=manifest["seed"])


def write_maps(maps: QuantMaps, out_dir) -> None:
    """One real payload per map and per validity flag, in ``MAP_NAMES``
    order (``map_<name>.f32``, ``valid_<name>.f32``), then ``mask.f32``."""
    h, w = maps.shape
    planes = [plane for name in MAP_NAMES
              for plane in (getattr(maps, name), maps.valid[name])]
    _write_set(out_dir, "quantmaps", zip(_MAP_FILES, planes + [maps.mask]), {
        "width": int(w), "height": int(h), "maps": list(MAP_NAMES),
        "units": _MAP_UNITS,
        "pixel_encoding": "float32, row-major, origin top-left",
        "byte_order": "little-endian",
    })


def read_maps(in_dir) -> QuantMaps:
    """Float64 maps, boolean flags and mask, each read from its file name
    (see :func:`write_maps`) whatever the order of the entries."""
    manifest, payloads = _read_set(in_dir, "quantmaps", _MAPS_KINDS,
                                   _MAP_FILES, 1)
    shape = manifest["height"], manifest["width"]
    planes = (values.reshape(shape) for values in payloads)
    out = QuantMaps.zeros(shape)
    for name in MAP_NAMES:
        setattr(out, name, next(planes).astype(float))
        out.valid[name] = next(planes) > 0.5
    out.mask = next(planes) > 0.5
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
    if not all(f.isdigit() and int(f) > 0 for f in fields):
        raise DimensionError(
            "PBM header: width and height must be positive whole numbers, "
            f"not {b' '.join(fields).decode(errors='replace')!r}")
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
    (+-inf too) clamped, codes rounded half-up.  A NaN has no code: it raises
    ValueError."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2:
        raise ValueError("map must be 2-d")
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
