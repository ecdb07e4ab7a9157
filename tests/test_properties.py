"""The readers' properties, under hypothesis (the ``suite`` profile of
``conftest``): sets and masks round-trip bit-equal, a manifest edited at
any one path reads back equal or is refused naming that path, and a
damaged payload is refused.
"""

import contextlib
import dataclasses
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from qmapkit import cli, formats, phantom, seqsim
from qmapkit.maskgen import Mask
from qmapkit.pipeline import MAP_NAMES, QuantMaps

# Every float32 but NaN: +-0, subnormals and +-inf included.
FLOAT32 = st.floats(width=32, allow_nan=False)
SIDES = st.integers(1, 5)
# The JSON values each manifest field is set to (or deleted, as DELETE).
VALUES = (None, True, False, 0, -1, 1, 0.5, 3, -0.0, 1e-320, 1e30, 2 ** 63,
          float("inf"), float("nan"), "x", "1", [], {}, [1, 2], {"a": 1})
DELETE = "<deleted>"
SECTIONS = {"timing": "timing", "pulse_params": "pulses"}


def _image_set(values) -> seqsim.ImageSet:
    """A default-schedule image set of float32 (real, imaginary) pairs."""
    return seqsim.ImageSet(data=values.view(np.complex64)[..., 0],
                           timing=seqsim.SequenceTiming(),
                           pulse_params=seqsim.PulseParams())


def _map_set(values, flags) -> QuantMaps:
    """Ten maps of float32 values, their flags and a mask."""
    maps = QuantMaps.zeros(values.shape[1:])
    for name, plane, flag in zip(MAP_NAMES, values, flags):
        setattr(maps, name, plane.astype(float))
        maps.valid[name] = flag
    maps.mask = flags[-1]
    return maps


def _bits(array) -> np.ndarray:
    return np.ascontiguousarray(array).view(np.uint8)


def _assert_maps_equal(a: QuantMaps, b: QuantMaps):
    for name in MAP_NAMES:
        np.testing.assert_array_equal(_bits(getattr(a, name)),
                                      _bits(getattr(b, name)))
        np.testing.assert_array_equal(a.valid[name], b.valid[name])
    np.testing.assert_array_equal(a.mask, b.mask)


@given(SIDES.flatmap(lambda h: SIDES.flatmap(lambda w: hnp.arrays(
    np.float32, (2, 11, h, w, 2), elements=FLOAT32))))
def test_an_image_set_round_trips_bit_equal(tmp_path_factory, values):
    images = _image_set(values)
    out = tmp_path_factory.mktemp("images")
    formats.write_imageset(images, out)
    back = formats.read_imageset(out)
    np.testing.assert_array_equal(_bits(back.data), _bits(images.data))
    assert back.timing == images.timing
    assert back.pulse_params == images.pulse_params


@given(SIDES.flatmap(lambda h: SIDES.flatmap(lambda w: st.tuples(
    hnp.arrays(np.float32, (10, h, w), elements=FLOAT32),
    hnp.arrays(np.bool_, (11, h, w))))))
def test_a_map_set_round_trips_bit_equal(tmp_path_factory, drawn):
    maps = _map_set(*drawn)
    out = tmp_path_factory.mktemp("maps")
    formats.write_maps(maps, out)
    _assert_maps_equal(formats.read_maps(out), maps)


@given(st.integers(1, 5).flatmap(lambda h: st.integers(1, 20).flatmap(
    lambda w: hnp.arrays(np.bool_, (h, w)))))
def test_a_mask_round_trips_bit_equal(tmp_path_factory, bits):
    path = tmp_path_factory.mktemp("mask") / "mask.pbm"
    formats.write_mask(Mask(bits=bits), path)
    np.testing.assert_array_equal(formats.read_mask(path).bits, bits)


@pytest.fixture(scope="module")
def written(tmp_path_factory, water_scan):
    """The water scan's image set and a map set, each in its directory,
    with its manifest and every path into that manifest."""
    sets = {}
    rng = np.random.default_rng(11)
    maps = _map_set(rng.standard_normal((10, 4, 5)).astype(np.float32),
                    rng.uniform(size=(11, 4, 5)) > 0.5)
    for kind, write, read, value in (
            ("imageset", formats.write_imageset, formats.read_imageset,
             water_scan),
            ("quantmaps", formats.write_maps, formats.read_maps, maps)):
        out = tmp_path_factory.mktemp(kind)
        write(value, out)
        manifest = json.loads((out / "manifest.json").read_text())
        sets[kind] = (out, read, manifest, sorted(_paths(manifest), key=str))
    return sets


def _paths(node, prefix=()):
    """The path of every key and list item in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutated(document, path, value):
    """A deep copy of ``document`` with ``value`` at ``path`` (DELETE
    removes it)."""
    out = json.loads(json.dumps(document))
    *parents, last = path
    node = out
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return out


def _names(message: str, path) -> bool:
    """Whether ``message`` names ``path``'s keys (not its list indices),
    the first after "manifest"."""
    keys = [k for k in path if isinstance(k, str)]
    after = message.split("manifest", 1)
    return len(after) == 2 and all(
        re.search(rf"\b{re.escape(k)}\b", after[1]) for k in keys)


def _same(a, b) -> bool:
    """Equality that holds a NaN equal to itself."""
    return a == b or (a != a and b != b)


def _fields(images: seqsim.ImageSet) -> dict:
    return {**{f"timing {k}": v for k, v in
               dataclasses.asdict(images.timing).items()},
            **{f"pulse_params {k}": v for k, v in
               dataclasses.asdict(images.pulse_params).items()},
            "omega_cs": images.omega_cs, "noise_sigma": images.noise_sigma,
            "seed": images.seed}


@pytest.mark.parametrize("kind", ["imageset", "quantmaps"])
@given(data=st.data())
def test_a_mutated_manifest_reads_back_equal_or_names_its_path(
        tmp_path_factory, written, kind, data):
    # A refusal is a FormatError subclass naming the path.  An accepted
    # edit changes no payload value and no field but the one at its path,
    # and reads back the same when written again.
    out, read, manifest, paths = written[kind]
    path = data.draw(st.sampled_from(paths))
    value = data.draw(st.sampled_from(VALUES + (DELETE,)))
    original = read(out)
    (out / "manifest.json").write_text(
        json.dumps(_mutated(manifest, path, value)))
    try:
        back = read(out)
    except formats.FormatError as exc:
        assert _names(str(exc), path), (path, value, str(exc))
        refused = True
    else:
        refused = False
        if kind == "quantmaps":
            _assert_maps_equal(back, original)
            return
        np.testing.assert_array_equal(_bits(back.data), _bits(original.data))
        changed = {k for k, v in _fields(back).items()
                   if not _same(v, _fields(original)[k])}
        assert changed <= {" ".join(map(str, path[:2]))}, (path, value)
        again = tmp_path_factory.mktemp("again")
        formats.write_imageset(back, again)
        assert all(_same(v, _fields(formats.read_imageset(again))[k])
                   for k, v in _fields(back).items())
    finally:
        (out / "manifest.json").write_text(json.dumps(manifest))
    # The same edit in a config's section: refused there exactly when the
    # manifest refuses it, naming the config's section and key.
    if path[0] in SECTIONS and len(path) > 1 and value is not DELETE:
        section = SECTIONS[path[0]]
        doc = {section: {path[1]: _mutated(manifest, path, value)[path[0]][
            path[1]]}}
        if not refused:
            phantom.read(doc, cli._CONFIG, "config")
            return
        cfg = tmp_path_factory.mktemp("config") / "config.json"
        cfg.write_text(json.dumps(doc))
        err, target = io.StringIO(), cfg.with_name("images")
        with contextlib.redirect_stderr(err):
            assert cli.main(["simulate", "--config", str(cfg),
                             "--out", str(target)]) == 1
        assert f"config {section} " in err.getvalue()
        assert re.search(rf"\b{path[1]}\b", err.getvalue()), err.getvalue()
        assert not target.exists()


def _damaged(blob: bytes, how: str, at: int, extra: bytes) -> bytes:
    """``blob`` cut short by ``at`` + 1 bytes, extended by ``extra``, or
    with byte ``at`` flipped by a non-zero mask."""
    at %= len(blob)
    if how == "truncate":
        return blob[:len(blob) - at - 1]
    if how == "extend":
        return blob + extra
    return blob[:at] + bytes([blob[at] ^ (extra[0] or 1)]) + blob[at + 1:]


AT = st.integers(0, 10 ** 6)
EXTRA = st.binary(min_size=1, max_size=9)


@pytest.mark.parametrize("how", ["truncate", "extend", "flip"])
@pytest.mark.parametrize("kind", ["imageset", "quantmaps"])
@given(at=AT, extra=EXTRA)
def test_a_damaged_payload_is_refused(tmp_path_factory, kind, how, at,
                                      extra):
    out = tmp_path_factory.mktemp(kind)
    rng = np.random.default_rng(12)
    if kind == "imageset":
        formats.write_imageset(_image_set(rng.standard_normal(
            (2, 11, 3, 4, 2)).astype(np.float32)), out)
        read, payload = formats.read_imageset, out / "images.f32"
    else:
        formats.write_maps(_map_set(
            rng.standard_normal((10, 3, 4)).astype(np.float32),
            rng.uniform(size=(11, 3, 4)) > 0.5), out)
        read, payload = formats.read_maps, out / "maps.f32"
    payload.write_bytes(_damaged(payload.read_bytes(), how, at, extra))
    with pytest.raises(formats.FormatError):
        read(out)


def _mask(tmp_path_factory, h, w):
    """A written h x w mask, its bits, its file and the raster's offset."""
    path = tmp_path_factory.mktemp("mask") / "mask.pbm"
    bits = np.arange(h * w).reshape(h, w) % 3 == 0
    formats.write_mask(Mask(bits=bits), path)
    return bits, path, len(f"P4\n{w} {h}\n")


@pytest.mark.parametrize("how", ["truncate", "extend", "header"])
@given(h=st.integers(1, 4), w=st.integers(1, 20), at=AT, extra=EXTRA)
def test_a_damaged_mask_is_refused(tmp_path_factory, how, h, w, at, extra):
    # The header's damage names another height, or a width whose rows pack
    # to another byte count.
    bits, path, start = _mask(tmp_path_factory, h, w)
    blob = path.read_bytes()
    if how == "header":
        blob = (f"P4\n{w} {h + 1 + at % 9}\n" if at % 2 else
                f"P4\n{w + 8 + 8 * (at % 9)} {h}\n").encode() + blob[start:]
    path.write_bytes(_damaged(blob, how, at, extra) if how != "header"
                     else blob)
    with pytest.raises(formats.FormatError):
        formats.read_mask(path)


@given(st.integers(1, 4), st.integers(1, 20), AT)
def test_a_flipped_mask_bit_is_another_mask(tmp_path_factory, h, w, at):
    # A PBM carries no checksum: a flipped raster bit reads as the mask with
    # that pixel flipped, or as the same mask where it pads a row.
    bits, path, start = _mask(tmp_path_factory, h, w)
    row_bytes = -(-w // 8)
    row, col = divmod(at % (8 * row_bytes * h), 8 * row_bytes)
    blob = bytearray(path.read_bytes())
    blob[start + row * row_bytes + col // 8] ^= 0x80 >> col % 8
    path.write_bytes(bytes(blob))
    if col < w:
        bits[row, col] = not bits[row, col]
    np.testing.assert_array_equal(formats.read_mask(path).bits, bits)
