"""Digital bottle phantom: per-pixel tissue parameters on a raster grid."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

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
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("t1", "t2", "t2s_water", "t2s_fat"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.water_amp < 0 or self.fat_amp < 0:
            raise ValueError("species amplitudes must be non-negative")
        if self.t2s_water > self.t2:
            raise ValueError("t2s_water cannot exceed t2")
        if self.b1_scale < 0:
            raise ValueError("b1_scale must be non-negative")

    @property
    def m0(self):
        return self.water_amp + self.fat_amp

    @property
    def fat_fraction(self):
        total = self.water_amp + self.fat_amp
        return self.fat_amp / total if total > 0 else 0.0


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

TISSUE_FIELDS = tuple(f.name for f in fields(TissueParams))


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
    arrays["b1_scale"] = np.ones(shape, dtype=float)
    return PhantomMap(label=np.zeros(shape, dtype=np.int32), **arrays)


def _paint_disc(pm: PhantomMap, cx: float, cy: float, radius: float,
                params: TissueParams, label: int):
    yy, xx = np.mgrid[0:pm.height, 0:pm.width]
    inside = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius ** 2
    for name in TISSUE_FIELDS:
        getattr(pm, name)[inside] = getattr(params, name)
    pm.label[inside] = label


def make_bottle_phantom(width: int, height: int, bottles=None,
                        b1_scale: float = 1.0) -> PhantomMap:
    """Six equal discs in two rows of three, radius 0.12*min(width, height).

    ``bottles`` overrides the default recipe (sequence of six TissueParams).
    ``b1_scale`` applies uniformly unless a bottle recipe sets its own.
    Labels run 1..6 in reading order (top row left-to-right, then bottom).
    """
    if width < 32 or height < 32:
        raise ValueError("phantom must be at least 32x32")
    if bottles is None:
        bottles = DEFAULT_BOTTLES
    bottles = tuple(bottles)
    if len(bottles) != 6:
        raise ValueError("exactly six bottle recipes required")
    radius = 0.12 * min(width, height)
    xs = [0.25 * width, 0.50 * width, 0.75 * width]
    ys = [height / 3.0, 2.0 * height / 3.0]
    centers = [(x, y) for y in ys for x in xs]
    for (x0, y0), (x1, y1) in zip(centers, centers[1:]):
        if (x1 - x0) ** 2 + (y1 - y0) ** 2 < (2 * radius) ** 2 and y0 == y1:
            raise ValueError("dimensions too small for non-overlapping discs")
    pm = _blank_map(width, height)
    pm.b1_scale[:] = b1_scale
    for i, ((cx, cy), params) in enumerate(zip(centers, bottles), start=1):
        if params.b1_scale == 1.0 and b1_scale != 1.0:
            params = replace(params, b1_scale=b1_scale)
        _paint_disc(pm, cx, cy, radius, params, i)
    return pm


def make_disc_phantom(width: int, height: int, params: TissueParams,
                      radius_frac: float = 0.35) -> PhantomMap:
    """Single centered disc of uniform parameters; handy for round trips."""
    if width < 32 or height < 32:
        raise ValueError("phantom must be at least 32x32")
    if not 0.0 < radius_frac <= 0.5:
        raise ValueError(f"radius_frac must be in (0, 0.5], got {radius_frac}")
    pm = _blank_map(width, height)
    pm.b1_scale[:] = params.b1_scale
    radius = radius_frac * min(width, height)
    _paint_disc(pm, width / 2.0, height / 2.0, radius, params, 1)
    return pm


def bottle_from_dict(d: dict) -> TissueParams:
    base = {name: getattr(DEFAULT_BOTTLES[0], name) for name in TISSUE_FIELDS}
    unknown = set(d) - set(base)
    if unknown:
        raise ValueError(f"unknown bottle fields: {sorted(unknown)}")
    base.update(d)
    return TissueParams(**base)


def _grid_side(cfg: dict, key: str) -> int:
    side = float(cfg.get(key, 64))
    if not side.is_integer():
        raise ValueError(f"phantom {key} must be a whole number, got "
                         f"{cfg[key]!r}")
    return int(side)


def phantom_from_config(cfg: dict) -> PhantomMap:
    """Build a phantom from a JSON-style recipe dict.

    ``{"type": "bottles"|"disc", "width": .., "height": .., "b1_scale": ..,
    "bottles": [six dicts], "disc": {bottle dict}, "radius_frac": ..}``;
    ``bottles`` belongs to the bottles type and ``disc``/``radius_frac`` to
    the disc type.  Any other key raises ValueError.
    """
    kind = cfg.get("type", "bottles")
    own = {"bottles": {"bottles"}, "disc": {"disc", "radius_frac"}}.get(kind)
    if own is None:
        raise ValueError(f"unknown phantom type: {kind!r}")
    unknown = set(cfg) - {"type", "width", "height", "b1_scale"} - own
    if unknown:
        raise ValueError(f"unknown {kind} phantom keys {sorted(unknown)}")
    width, height = (_grid_side(cfg, key) for key in ("width", "height"))
    b1_scale = float(cfg.get("b1_scale", 1.0))
    if kind == "bottles":
        bottles = cfg.get("bottles")
        if bottles is not None:
            bottles = [bottle_from_dict(b) for b in bottles]
        return make_bottle_phantom(width, height, bottles, b1_scale=b1_scale)
    d = dict(cfg.get("disc", {}))
    d.setdefault("b1_scale", b1_scale)
    params = bottle_from_dict(d)
    return make_disc_phantom(width, height, params,
                             radius_frac=float(cfg.get("radius_frac", 0.35)))


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
