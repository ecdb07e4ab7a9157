"""Digital bottle phantom on a raster grid, and the JSON config reader."""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields, is_dataclass, replace

import numpy as np


@dataclass(frozen=True)
class TissueParams:
    """Ground-truth parameters for one pixel.

    water_amp / fat_amp are species signal amplitudes (arbitrary units);
    time constants are seconds; d_omega0 is the off-resonance in rad/s;
    b1_scale multiplies every RF amplitude.
    """

    water_amp: float
    fat_amp: float
    t1: float
    t2: float
    t2s_water: float
    t2s_fat: float
    d_omega0: float = 0.0
    b1_scale: float = 1.0

    def __post_init__(self):
        check_tissues([astuple(self)])


TISSUE_FIELDS = tuple(f.name for f in fields(TissueParams))


def check_tissues(tissues) -> None:
    """Raise ValueError unless every (n, 8) row is a valid TissueParams."""
    cols = dict(zip(TISSUE_FIELDS, np.asarray(tissues).T))
    for name, values in cols.items():
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} must be finite")
    for name in ("t1", "t2", "t2s_water", "t2s_fat"):
        if np.any(cols[name] <= 0):
            raise ValueError(f"{name} must be strictly positive")
    if np.any(cols["water_amp"] < 0) or np.any(cols["fat_amp"] < 0):
        raise ValueError("species amplitudes must be non-negative")
    if np.any(cols["t2s_water"] > cols["t2"]):
        raise ValueError("t2s_water cannot exceed t2")
    if np.any(cols["b1_scale"] < 0):
        raise ValueError("b1_scale must be non-negative")


# Background filler: zero signal, positive dummy time constants.
BACKGROUND = TissueParams(
    water_amp=0.0, fat_amp=0.0, t1=1.0, t2=0.1,
    t2s_water=0.05, t2s_fat=0.05,
)

# Frozen synthetic six-bottle recipe.  Bottles 1-2 are fat-free with distinct
# (T1, T2); bottle 2 carries a T2 far above the echo-train span, where the
# estimate is expected to come out low.  Bottles 3-6 step the fat signal
# fraction through 0.47 / 0.29 / 0.11 / 0.00.
DEFAULT_BOTTLES = (
    TissueParams(water_amp=1.0, fat_amp=0.0, t1=0.30, t2=0.080,
                 t2s_water=0.050, t2s_fat=0.030),
    TissueParams(water_amp=1.0, fat_amp=0.0, t1=1.00, t2=0.400,
                 t2s_water=0.060, t2s_fat=0.030),
    TissueParams(water_amp=0.53, fat_amp=0.47, t1=0.90, t2=0.060,
                 t2s_water=0.040, t2s_fat=0.025),
    TissueParams(water_amp=0.71, fat_amp=0.29, t1=0.85, t2=0.070,
                 t2s_water=0.042, t2s_fat=0.025),
    TissueParams(water_amp=0.89, fat_amp=0.11, t1=0.80, t2=0.080,
                 t2s_water=0.045, t2s_fat=0.025),
    TissueParams(water_amp=1.0, fat_amp=0.0, t1=0.75, t2=0.090,
                 t2s_water=0.048, t2s_fat=0.025),
)

@dataclass
class PhantomMap:
    """Per-pixel tissue parameters as a bundle of (h, w) float arrays plus an
    integer region-label grid (0 = background, 1..n = bottle index)."""

    water_amp: np.ndarray
    fat_amp: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    t2s_water: np.ndarray
    t2s_fat: np.ndarray
    d_omega0: np.ndarray
    b1_scale: np.ndarray
    label: np.ndarray

    @property
    def shape(self):
        return self.label.shape

    @property
    def height(self):
        return self.label.shape[0]

    @property
    def width(self):
        return self.label.shape[1]


def _blank_map(width: int, height: int) -> PhantomMap:
    shape = (height, width)
    arrays = {}
    for name in TISSUE_FIELDS:
        arrays[name] = np.full(shape, getattr(BACKGROUND, name), dtype=float)
    return PhantomMap(label=np.zeros(shape, dtype=np.int32), **arrays)


def _paint_disc(pm: PhantomMap, cx: float, cy: float, radius: float,
                params: TissueParams, label: int):
    yy, xx = np.mgrid[0:pm.height, 0:pm.width]
    inside = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius ** 2
    for name in TISSUE_FIELDS:
        getattr(pm, name)[inside] = getattr(params, name)
    pm.label[inside] = label


# Largest width or height.  simulate holds 280 bytes a pixel at its peak:
# 22 complex64 images (176 B), the phantom's eight float64 fields and int32
# labels (68 B) and one complex128 image in the making (16 B).  compare
# holds 240: the phantom, ten float64 truth maps and the read maps (both by
# tracemalloc at 512 x 512).  So a phantom within the cap asks for at most
# about 300 MB.
_MAX_SIDE = 1024


def check_sizes(prefix: str = "phantom ", **given) -> None:
    """Raise ValueError, naming ``<prefix><key>``, unless each given size is
    in range: a width or height of 32 to ``_MAX_SIDE`` pixels, a radius_frac
    in (0, 0.5], six bottles; other keys are ignored."""
    for key, value in given.items():
        if key in ("width", "height") and not 32 <= value <= _MAX_SIDE:
            raise ValueError(f"{prefix}{key} must be from 32 to {_MAX_SIDE}, "
                             f"not {value}")
        if key == "radius_frac" and not 0.0 < value <= 0.5:
            raise ValueError(f"{prefix}radius_frac must be in (0, 0.5], "
                             f"not {value}")
        if key == "bottles" and len(value) != 6:
            raise ValueError(f"{prefix}bottles must be six tissues, "
                             f"not {len(value)}")


def make_bottle_phantom(width: int, height: int, bottles=None,
                        b1_scale: float = 1.0) -> PhantomMap:
    """Six equal discs in two rows of three, radius 0.12*min(width, height).

    ``bottles`` overrides the default recipe (sequence of six TissueParams),
    each bottle keeping its own b1_scale; ``b1_scale`` is the background's
    and the default recipe's.  Labels run 1..6 in reading order (top row
    left-to-right, then bottom).
    """
    if bottles is None:
        bottles = [replace(b, b1_scale=b1_scale) for b in DEFAULT_BOTTLES]
    bottles = tuple(bottles)
    check_sizes(width=width, height=height, bottles=bottles)
    radius = 0.12 * min(width, height)
    xs = [0.25 * width, 0.50 * width, 0.75 * width]
    ys = [height / 3.0, 2.0 * height / 3.0]
    centers = [(x, y) for y in ys for x in xs]
    pm = _blank_map(width, height)
    pm.b1_scale[:] = b1_scale
    for i, ((cx, cy), params) in enumerate(zip(centers, bottles), start=1):
        _paint_disc(pm, cx, cy, radius, params, i)
    return pm


def make_disc_phantom(width: int, height: int, params: TissueParams,
                      radius_frac: float = 0.35) -> PhantomMap:
    """Single centered disc of uniform parameters; handy for round trips."""
    check_sizes(width=width, height=height, radius_frac=radius_frac)
    pm = _blank_map(width, height)
    pm.b1_scale[:] = params.b1_scale
    radius = radius_frac * min(width, height)
    _paint_disc(pm, width / 2.0, height / 2.0, radius, params, 1)
    return pm


def number(value, name: str) -> float:
    """``float(value)`` of a number or a numeric string, or ValueError naming
    the field.  A bool is not a number."""
    try:
        if not isinstance(value, (bool, np.bool_)):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a number, not {value!r}")


def whole_number(value, name: str) -> int:
    """A value that counts something, as an int: 32, 32.0 and "32" give 32,
    while 32.9, a bool or a non-finite value raise ValueError naming it."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if not number(value, name).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(float(value))


class _UnknownKeys(ValueError):
    def __init__(self, name: str, keys: list):
        super().__init__(f"unknown {name} keys {keys}")
        self.keys = keys


def read(given, kinds, name: str):
    """The JSON object ``given``, each value read as its kind in ``kinds``:
    ``number``, ``whole_number``, None (as given), a nested table or
    dataclass, or a function ``(value, name)``; a dataclass ``kinds`` is
    built from the values of its fields.  Every error names ``<name>
    <key>``; all unknown keys, nested ones as ``key.sub``, raise one
    ValueError."""
    if not isinstance(given, dict):
        raise ValueError(f"{name} must be a JSON object, not {given!r}")
    table = dict.fromkeys(f.name for f in fields(kinds)) \
        if is_dataclass(kinds) else kinds
    out, unknown = {}, [key for key in given if key not in table]
    for key, value in given.items():
        kind, field = table.get(key), f"{name} {key}"
        try:
            out[key] = (value if kind is None else read(value, kind, field)
                        if isinstance(kind, dict) or is_dataclass(kind)
                        else kind(value, field))
        except _UnknownKeys as exc:
            unknown += [f"{key}.{sub}" for sub in exc.keys]
    if unknown:
        raise _UnknownKeys(name, sorted(unknown))
    try:
        return out if table is kinds else kinds(**out)
    except ValueError as exc:
        raise ValueError(f"{name} {exc}") from None


_TISSUE_KINDS = dict.fromkeys(TISSUE_FIELDS, number)


def _tissues(value, name: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of tissue objects")
    return [read(v, _TISSUE_KINDS, f"{name} {i}")
            for i, v in enumerate(value, start=1)]


# The phantom section of a config, and the keys each type refuses: those
# that belong to the other type.
PHANTOM_KINDS = {"type": None, "width": whole_number, "height": whole_number,
                 "b1_scale": number, "bottles": _tissues,
                 "disc": _TISSUE_KINDS, "radius_frac": number}
_FOREIGN_KEYS = {"bottles": {"disc", "radius_frac"}, "disc": {"bottles"}}


def read_phantom(cfg, name: str = "phantom") -> dict:
    """A phantom recipe read through ``PHANTOM_KINDS`` and checked whole,
    its sizes by :func:`check_sizes` and its tissues by ``TissueParams``,
    without building its arrays.  An unknown type, or a key of the other
    type, raises ValueError too; every error starts ``<name>``."""
    cfg = read(cfg, PHANTOM_KINDS, name)
    kind = cfg.get("type", "bottles")
    if not isinstance(kind, str) or kind not in _FOREIGN_KEYS:
        raise ValueError(f"{name} type must be 'bottles' or 'disc', "
                         f"not {kind!r}")
    foreign = sorted(_FOREIGN_KEYS[kind] & set(cfg))
    if foreign:
        raise ValueError(f"{name} type {kind!r} takes no keys {foreign}")
    check_sizes(f"{name} ", **cfg)
    _recipe_tissues(cfg, name)
    return cfg


def bottle_from_dict(d: dict, name: str = "bottle") -> TissueParams:
    """Bottle 1 with the fields of ``d``; each error names ``<name>``."""
    given = read(d, _TISSUE_KINDS, name)
    return read({**vars(DEFAULT_BOTTLES[0]), **given}, TissueParams, name)


def _recipe_tissues(cfg: dict, name: str) -> list:
    """A read recipe's tissues: its bottles, else its disc, each b1_scale
    that it leaves unset the phantom's."""
    b1_scale = cfg.get("b1_scale", 1.0)
    return [bottle_from_dict({"b1_scale": b1_scale, **tissue}, name)
            for tissue in cfg.get("bottles", [cfg.get("disc", {})])]


def phantom_from_config(cfg: dict) -> PhantomMap:
    """Build a phantom from a recipe that ``read_phantom`` accepts."""
    cfg = read_phantom(cfg)
    width, height = cfg.get("width", 64), cfg.get("height", 64)
    tissues = _recipe_tissues(cfg, "phantom")
    if cfg.get("type", "bottles") == "bottles":
        return make_bottle_phantom(
            width, height, tissues if "bottles" in cfg else None,
            b1_scale=cfg.get("b1_scale", 1.0))
    return make_disc_phantom(width, height, tissues[0],
                             radius_frac=cfg.get("radius_frac", 0.35))


def phantom_truth_arrays(pm: PhantomMap) -> dict:
    """Ground-truth map stack matching the estimated QuantMaps fields."""
    from .constants import GAMMA

    total = pm.water_amp + pm.fat_amp
    with np.errstate(divide="ignore", invalid="ignore"):
        ff = np.where(total > 0, pm.fat_amp / np.maximum(total, 1e-300), 0.0)
        t1_over_m0 = np.where(total > 0, pm.t1 / np.maximum(total, 1e-300), 0.0)
    return {
        "b1": pm.b1_scale.copy(),
        "t2": pm.t2.copy(),
        "t2s_water": pm.t2s_water.copy(),
        "t2s_fat": pm.t2s_fat.copy(),
        "d_omega0": pm.d_omega0.copy(),
        "delta_b0": pm.d_omega0 / GAMMA,
        "fat_fraction": ff,
        "t1": pm.t1.copy(),
        "m0": total,
        "t1_over_m0": t1_over_m0,
    }
