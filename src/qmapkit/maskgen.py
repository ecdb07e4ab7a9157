"""Binary processing mask from the mean magnitude of all 22 acquisitions.

Thresholding keeps pixels with appreciable signal; a morphological close
(fill pinholes and slim gaps) followed by a light erosion (drop rims and
isolated specks) cleans the result before per-pixel fitting.

Dilation is the OR, and erosion the AND, of the mask shifted by every
offset of the disc structuring element.  Shifts read from a copy padded
with False, so outside the array counts as unset; the disc is symmetric,
so no reflection of the element is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np


@dataclass(frozen=True)
class Mask:
    bits: np.ndarray   # 2-d boolean

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2 or 0 in b.shape:
            raise ValueError("mask must be 2-d and non-empty")
        object.__setattr__(self, "bits", b.astype(bool))

    @property
    def height(self):
        return self.bits.shape[0]

    @property
    def width(self):
        return self.bits.shape[1]

    @property
    def count(self):
        return int(self.bits.sum())


# Largest radius of a disc element: its 12,853 offsets take 206 KB as
# index pairs, and each is one shift of the whole image.
_MAX_RADIUS = 64


def check_options(prefix: str = "", **given) -> None:
    """Raise ValueError, naming ``<prefix><key>``, unless each given option
    of :func:`make_mask` or :func:`disc_element` is in range: the threshold
    a fraction in (0, 1), each radius in [0, ``_MAX_RADIUS``]."""
    for key, value in given.items():
        if key == "threshold" and not 0.0 < value < 1.0:
            raise ValueError(f"{prefix}threshold must be a fraction in "
                             f"(0, 1), not {value!r}")
        if key != "threshold" and value < 0:
            raise ValueError(f"{prefix}{key} must be >= 0, not {value!r}")
        if key != "threshold" and value > _MAX_RADIUS:
            raise ValueError(f"{prefix}{key} must be at most {_MAX_RADIUS}, "
                             f"not {value!r}")


def disc_element(radius: int) -> np.ndarray:
    """Discrete disc: offsets whose center distance is <= radius."""
    check_options(radius=radius)
    span = np.arange(-radius, radius + 1)
    dx, dy = np.meshgrid(span, span, indexing="ij")
    return (dx * dx + dy * dy) <= radius * radius


def _morph(bits: np.ndarray, radius: int, op) -> np.ndarray:
    """Dilate (op=np.logical_or) or erode (op=np.logical_and) ``bits`` by
    ``disc_element(radius)``, with a False border."""
    h, w = bits.shape
    padded = np.pad(bits, radius)
    return reduce(op, (padded[i:i + h, j:j + w]
                       for i, j in np.argwhere(disc_element(radius))))


def mean_image(images) -> np.ndarray:
    """Pixel-wise mean magnitude over every acquisition of both segments."""
    data = np.asarray(images.data if hasattr(images, "data") else images)
    if data.ndim != 4:
        raise ValueError("expected (segments, acquisitions, h, w) data")
    flat = data.reshape(-1, data.shape[2], data.shape[3])
    return sum(np.abs(image.astype(complex)) for image in flat) / len(flat)


def make_mask(mean: np.ndarray, threshold: float = 0.1,
              close_radius: int = 2, erode_radius: int = 1) -> Mask:
    """Threshold at ``threshold * max(mean)``, close, then erode.

    Non-finite mean values count as no signal.

    The close runs on a zero-padded copy so structures touching the array
    edge are treated the same as interior ones.
    """
    mean = np.asarray(mean, dtype=float)
    if mean.ndim != 2 or mean.size == 0:
        raise ValueError("mean image must be 2-d and non-empty")
    check_options(threshold=threshold, close_radius=close_radius,
                  erode_radius=erode_radius)
    # One corrupt sample must not become a NaN peak and empty the mask.
    mean = np.where(np.isfinite(mean), mean, 0.0)
    peak = float(mean.max())
    if peak <= 0.0:
        return Mask(bits=np.zeros(mean.shape, dtype=bool))
    raw = mean >= threshold * peak
    if close_radius > 0:
        pad = close_radius + 1
        padded = np.pad(raw, pad, mode="constant", constant_values=False)
        closed = _morph(_morph(padded, close_radius, np.logical_or),
                        close_radius, np.logical_and)
        raw = closed[pad:-pad, pad:-pad]
    if erode_radius > 0:
        raw = _morph(raw, erode_radius, np.logical_and)
    return Mask(bits=raw)
