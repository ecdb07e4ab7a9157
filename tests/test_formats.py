import hashlib
import json

import numpy as np
import numpy.testing as npt
import pytest

from qmapkit import formats
from qmapkit.maskgen import Mask
from qmapkit.pipeline import MAP_NAMES, QuantMaps


def _edit_manifest(dir_path, mutate):
    path = dir_path / "manifest.json"
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))


def test_imageset_round_trip(water_scan, tmp_path):
    formats.write_imageset(water_scan, tmp_path)
    back = formats.read_imageset(tmp_path)
    expect = (water_scan.data.real.astype(np.float32).astype(float)
              + 1j * water_scan.data.imag.astype(np.float32).astype(float))
    npt.assert_array_equal(back.data, expect)
    assert back.timing == water_scan.timing
    assert back.pulse_params == water_scan.pulse_params
    assert back.omega_cs == water_scan.omega_cs
    assert back.noise_sigma == water_scan.noise_sigma
    assert back.seed == water_scan.seed


def test_imageset_corrupt_payload(water_scan, tmp_path):
    formats.write_imageset(water_scan, tmp_path)
    target = tmp_path / "images.f32"
    blob = bytearray(target.read_bytes())
    blob[-1] ^= 0xFF
    target.write_bytes(bytes(blob))
    with pytest.raises(formats.ChecksumError):
        formats.read_imageset(tmp_path)


def test_imageset_missing_pieces(water_scan, tmp_path):
    with pytest.raises(formats.ManifestNotFoundError):
        formats.read_imageset(tmp_path / "nowhere")
    formats.write_imageset(water_scan, tmp_path)
    (tmp_path / "images.f32").unlink()
    with pytest.raises(formats.ManifestNotFoundError):
        formats.read_imageset(tmp_path)


def test_imageset_version_and_kind(water_scan, tmp_path):
    formats.write_imageset(water_scan, tmp_path)
    with pytest.raises(formats.FormatVersionError):
        formats.read_maps(tmp_path)  # right manifest, wrong kind
    # 1 held the retired timing keys, 2 one payload file per image.
    for version in (99, 2, 1):
        _edit_manifest(tmp_path, lambda m: m.update(format_version=version))
        with pytest.raises(formats.FormatVersionError):
            formats.read_imageset(tmp_path)


@pytest.mark.parametrize("section, keys", [
    ("timing", ["t_sat", "probe_times"]), ("timing", ["imaging_flip"]),
    ("pulse_params", ["slice_thickness"])])
def test_imageset_schedule_and_pulse_fields_are_required(
        water_scan, tmp_path, section, keys):
    # A manifest without t_sat and probe_times once read the defaults: a
    # T1 0.3 s disc scanned at t_sat 0.9 read 0.400 s, every pixel valid.
    formats.write_imageset(water_scan, tmp_path)
    _edit_manifest(tmp_path, lambda m: [m[section].pop(k) for k in keys])
    with pytest.raises(formats.FieldError) as err:
        formats.read_imageset(tmp_path)
    for key in keys:
        assert f"manifest {section} {key}" in str(err.value)


def test_manifest_that_is_no_object_has_no_version(water_scan, tmp_path):
    # This once ended in an AttributeError that the CLI did not catch.
    formats.write_imageset(water_scan, tmp_path)
    (tmp_path / "manifest.json").write_text("[]")
    with pytest.raises(formats.FormatVersionError):
        formats.read_imageset(tmp_path)


@pytest.mark.parametrize("raw", [b"{", b"\xff\xfe"], ids=["json", "utf-8"])
@pytest.mark.parametrize("read", [formats.read_imageset, formats.read_maps],
                         ids=["images", "maps"])
def test_manifest_that_does_not_parse_is_a_format_error(water_scan, tmp_path,
                                                        raw, read):
    # Either once escaped as the decoder's bare ValueError, which a caller
    # catching FormatError missed.
    formats.write_imageset(water_scan, tmp_path)
    (tmp_path / "manifest.json").write_bytes(raw)
    with pytest.raises(formats.FormatVersionError, match="^manifest .*JSON"):
        read(tmp_path)


def test_imageset_geometry_tamper(water_scan, tmp_path):
    # The payload holds 2 x 11 images of the stated size, no more or less.
    formats.write_imageset(water_scan, tmp_path)
    _edit_manifest(tmp_path, lambda m: m.update(height=m["height"] - 1))
    with pytest.raises(formats.DimensionError, match="images.f32: "):
        formats.read_imageset(tmp_path)


@pytest.mark.parametrize("key, value", [
    ("seed", 4.5), ("height", 32.7), ("width", float("nan"))])
def test_imageset_fractional_counts_are_rejected(water_scan, tmp_path, key,
                                                 value):
    # A count is read as a whole number or refused, never truncated.
    formats.write_imageset(water_scan, tmp_path)
    _edit_manifest(tmp_path, lambda m: m.update({key: value}))
    with pytest.raises(formats.FieldError, match=f"manifest {key}"):
        formats.read_imageset(tmp_path)


@pytest.mark.parametrize("mutate, message", [
    (lambda m: m.update(omega_cs="x"), "manifest omega_cs must be a number"),
    (lambda m: m.update(noise_sigma=True),
     "manifest noise_sigma must be a number"),
    (lambda m: m.update(timing=5), "manifest timing must be a JSON object"),
    (lambda m: m["timing"].update(banana=1.0),
     r"unknown manifest keys \['timing.banana'\]"),
    (lambda m: m.update(sha256=7), "manifest sha256 must be a string"),
    (lambda m: m.pop("sha256"), "manifest has no key 'sha256'"),
    (lambda m: m["timing"].update(echo_time="x"),
     "manifest timing echo_time must be a number"),
    (lambda m: m["timing"].update(
        fid_times=[[0.002, 0.003], 0.004, 0.006, 0.008, 0.01]),
     "manifest timing fid_times must be a number"),
    (lambda m: m["timing"].update(tr=0.5),
     r"manifest timing tr \(0.5 s\) must come after t_sat \+ echo_offsets"),
    (lambda m: m["pulse_params"].update(duration="x"),
     "manifest pulse_params duration must be a number")],
    ids=("omega_cs", "noise_sigma", "timing", "timing-key", "sha256",
         "no-sha256", "echo_time", "fid_times", "tr", "duration"))
def test_imageset_fields_of_the_wrong_kind_name_their_key(
        water_scan, tmp_path, mutate, message):
    # These once read "x" with a bare float(), a bool as 1.0, or failed
    # with a message naming no field.  A bad timing or pulse_params value
    # once raised a bare ValueError, naming the config's section or, for a
    # ragged list, no key at all.
    formats.write_imageset(water_scan, tmp_path)
    _edit_manifest(tmp_path, mutate)
    with pytest.raises(formats.FieldError, match=message):
        formats.read_imageset(tmp_path)


def test_imageset_whole_float_counts_read_as_ints(water_scan, tmp_path):
    formats.write_imageset(water_scan, tmp_path)
    _edit_manifest(tmp_path, lambda m: m.update(seed=7.0, height=32.0))
    back = formats.read_imageset(tmp_path)
    assert back.seed == 7 and type(back.seed) is int
    assert back.data.shape == water_scan.data.shape


def test_imageset_truncated_payload(water_scan, tmp_path):
    formats.write_imageset(water_scan, tmp_path)
    target = tmp_path / "images.f32"
    blob = target.read_bytes()[:-4]
    target.write_bytes(blob)
    digest = hashlib.sha256(blob).hexdigest()
    _edit_manifest(tmp_path, lambda m: m.update(sha256=digest))
    with pytest.raises(formats.DimensionError):
        formats.read_imageset(tmp_path)


def _sample_maps(rng):
    maps = QuantMaps.zeros((4, 5))
    for i, name in enumerate(MAP_NAMES):
        setattr(maps, name, rng.standard_normal((4, 5)) + i)
        maps.valid[name] = rng.uniform(size=(4, 5)) > 0.4
    maps.mask = rng.uniform(size=(4, 5)) > 0.3
    return maps


def test_maps_round_trip(tmp_path):
    maps = _sample_maps(np.random.default_rng(5))
    formats.write_maps(maps, tmp_path)
    back = formats.read_maps(tmp_path)
    assert back.shape == maps.shape
    for name in MAP_NAMES:
        npt.assert_array_equal(
            getattr(back, name),
            getattr(maps, name).astype(np.float32).astype(float))
        npt.assert_array_equal(back.valid[name], maps.valid[name])
    npt.assert_array_equal(back.mask, maps.mask)


def test_maps_manifest_tamper(tmp_path):
    maps = _sample_maps(np.random.default_rng(6))
    formats.write_maps(maps, tmp_path)
    _edit_manifest(tmp_path, lambda m: m["maps"].__setitem__(0, "bogus"))
    with pytest.raises(formats.DimensionError):
        formats.read_maps(tmp_path)

    formats.write_maps(maps, tmp_path)
    target = tmp_path / "maps.f32"
    blob = target.read_bytes()
    target.write_bytes(blob + blob[:4 * 4 * 5])  # a 22nd plane
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    _edit_manifest(tmp_path, lambda m: m.update(sha256=digest))
    with pytest.raises(formats.DimensionError, match="maps.f32: "):
        formats.read_maps(tmp_path)


@pytest.mark.parametrize("key, value", [("height", 4.5), ("width", 5.2)])
def test_maps_fractional_dimensions_are_rejected(tmp_path, key, value):
    formats.write_maps(_sample_maps(np.random.default_rng(7)), tmp_path)
    _edit_manifest(tmp_path, lambda m: m.update({key: value}))
    with pytest.raises(formats.FieldError, match=f"manifest {key}"):
        formats.read_maps(tmp_path)


def _write_a_set(kind, water_scan, path):
    """Write an image set or a map set to ``path``; return its reader and
    its planes, in the payload's order."""
    if kind == "imageset":
        formats.write_imageset(water_scan, path)
        return formats.read_imageset, [
            image.astype(np.complex64).view(np.float32)
            for segment in water_scan.data for image in segment]
    maps = _sample_maps(np.random.default_rng(9))
    formats.write_maps(maps, path)
    return formats.read_maps, [
        *(plane for name in MAP_NAMES
          for plane in (getattr(maps, name), maps.valid[name])), maps.mask]


@pytest.mark.parametrize("kind, payload", [("imageset", "images.f32"),
                                           ("maps", "maps.f32")])
def test_a_set_is_its_manifest_and_one_payload(water_scan, tmp_path, kind,
                                               payload):
    # The payload is the planes' little-endian float32 values in order, and
    # the manifest's sha256 is its checksum.
    _, planes = _write_a_set(kind, water_scan, tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == {"manifest.json", payload}
    blob = (tmp_path / payload).read_bytes()
    assert blob == b"".join(np.asarray(plane, dtype="<f4").tobytes()
                            for plane in planes)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["sha256"] == hashlib.sha256(blob).hexdigest()
    assert manifest["format_version"] == 3
    assert not {"payloads", "segments", "images_per_segment"} & set(manifest)


@pytest.mark.parametrize("kind", ["imageset", "maps"])
def test_payload_sizes_are_checked_before_allocating(water_scan, tmp_path,
                                                     kind):
    # These once died in np.empty or np.zeros with a MemoryError (6.4 TiB
    # for an image set) that named no payload.
    read, _ = _write_a_set(kind, water_scan, tmp_path)
    _edit_manifest(tmp_path, lambda m: m.update(width=200000, height=200000))
    with pytest.raises(formats.DimensionError, match="bytes, expected"):
        read(tmp_path)


@pytest.mark.parametrize("value", [5, None, "b1", {"b1": 1}])
def test_maps_field_that_is_no_list_names_its_key(tmp_path, value):
    # 5 and None once raised "'int' object is not iterable", naming no field.
    formats.write_maps(_sample_maps(np.random.default_rng(10)), tmp_path)
    _edit_manifest(tmp_path, lambda m: m.update(maps=value))
    with pytest.raises(formats.FieldError,
                       match="manifest maps must be a list of map names"):
        formats.read_maps(tmp_path)


def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    bits = rng.uniform(size=(3, 13)) > 0.5  # width not a byte multiple
    mask = Mask(bits=bits)
    path = tmp_path / "mask.pbm"
    formats.write_mask(mask, path)
    sidecar = json.loads((tmp_path / "mask.pbm.json").read_text())
    assert sidecar["width"] == 13 and sidecar["height"] == 3
    assert sidecar["pixels_in_mask"] == int(bits.sum())
    back = formats.read_mask(path)
    npt.assert_array_equal(back.bits, bits)


def test_mask_comments_and_errors(tmp_path):
    bits = np.zeros((2, 9), dtype=bool)
    bits[0, 0] = bits[1, 8] = True
    packed = np.packbits(bits, axis=1).tobytes()
    path = tmp_path / "c.pbm"
    path.write_bytes(b"P4\n# a comment\n9\n# another\n2\n" + packed)
    npt.assert_array_equal(formats.read_mask(path).bits, bits)

    with pytest.raises(formats.ManifestNotFoundError):
        formats.read_mask(tmp_path / "missing.pbm")
    ascii_path = tmp_path / "a.pbm"
    ascii_path.write_bytes(b"P1\n2 2\n0 1 1 0\n")
    with pytest.raises(formats.FormatVersionError):
        formats.read_mask(ascii_path)
    short = tmp_path / "s.pbm"
    short.write_bytes(b"P4\n9 2\n\x00")
    with pytest.raises(formats.DimensionError):
        formats.read_mask(short)
    # Bytes past the raster once read as if they were not there.
    long = tmp_path / "l.pbm"
    long.write_bytes(b"P4\n9 2\n" + packed + b"\x00\x00")
    with pytest.raises(formats.DimensionError, match="header promises 4"):
        formats.read_mask(long)


@pytest.mark.parametrize("header", [
    b"P4\n-3 2\n", b"P4\n0 2\n", b"P4\n3 0\n", b"P4", b"P4\n3",
    b"P4\nx 2\n"])
def test_mask_header_needs_a_positive_width_and_height(tmp_path, header):
    # The first two once read as a (2, 0) mask; the rest failed in int()
    # with a message naming no field.
    path = tmp_path / "h.pbm"
    path.write_bytes(header)
    with pytest.raises(formats.DimensionError, match="PBM header"):
        formats.read_mask(path)


def test_export_pgm(tmp_path):
    values = np.array([[0.0, 1.0], [0.5, -3.0]])
    path = tmp_path / "map.pgm"
    formats.export_map_pgm(values, 0.0, 1.0, path)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n2 2\n65535\n")
    codes = np.frombuffer(blob[len(b"P5\n2 2\n65535\n"):], dtype=">u2")
    npt.assert_array_equal(codes, [0, 65535, 32768, 0])
    with pytest.raises(ValueError):
        formats.export_map_pgm(values, 1.0, 1.0, path)
    with pytest.raises(ValueError):
        formats.export_map_pgm(np.ones(4), 0.0, 1.0, path)
    # An empty map once wrote a "P5 0 0" header.
    for shape in ((0, 0), (0, 3)):
        with pytest.raises(ValueError, match="non-empty"):
            formats.export_map_pgm(np.zeros(shape), 0.0, 1.0, path)
    # +-inf clamp to the window's ends; a NaN has no code.
    formats.export_map_pgm(np.array([[np.inf, -np.inf]]), 0.0, 1.0, path)
    assert path.read_bytes().endswith(b"\xff\xff\x00\x00")
    with pytest.raises(ValueError, match="NaN"):
        formats.export_map_pgm(np.array([[0.5, np.nan]]), 0.0, 1.0, path)
    # A window with an infinite end or width once divided inf by inf, or
    # wrote every pixel as code 0.
    for lo, hi in ((-np.inf, 1.0), (0.0, np.inf), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="finite"):
            formats.export_map_pgm(values, lo, hi, path)


def test_compare_maps_statistics():
    est = QuantMaps.zeros((2, 2))
    est.t2 = np.array([[0.11, 0.2], [0.3, 0.4]])
    est.mask = np.ones((2, 2), dtype=bool)
    truth = {"t2": np.array([[0.1, 0.2], [0.3, 0.4]]), "ignored": 1}
    report = formats.compare_maps(est, truth)
    assert report["pixel_count"] == 4
    assert set(report["maps"]) == {"t2"}
    stats = report["maps"]["t2"]
    assert stats["bias"] == pytest.approx(0.0025)
    assert stats["rmse"] == pytest.approx(0.005)
    assert stats["max_rel"] == pytest.approx(0.1)
    text = formats.format_report(report)
    assert "pixels compared: 4" in text and "t2" in text

    report = formats.compare_maps(est, {"m0": np.zeros((2, 2))})
    assert report["maps"]["m0"]["max_rel"] is None
    assert "-" in formats.format_report(report)


def test_compare_maps_edge_cases():
    est = QuantMaps.zeros((2, 2))
    report = formats.compare_maps(est, {}, mask=np.zeros((2, 2), dtype=bool))
    assert report.get("no_pixels") and report["pixel_count"] == 0
    assert "nothing to compare" in formats.format_report(report)
    with pytest.raises(formats.DimensionError):
        formats.compare_maps(est, {}, mask=np.zeros((3, 3), dtype=bool))
    est.mask = np.ones((2, 2), dtype=bool)
    with pytest.raises(formats.DimensionError):
        formats.compare_maps(est, {"t2": np.zeros((3, 3))})
