"""Binary processing mask from the mean magnitude of all 22 acquisitions.

Thresholding keeps pixels with appreciable signal; a morphological close
(fill pinholes and slim gaps) followed by a light erosion (drop rims and
isolated specks) cleans the result before per-pixel fitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage


@dataclass(frozen=True)
class Mask:
    bits: np.ndarray   # 2-d boolean

    def __post_init__(self):
        b = np.asarray(self.bits)
        if b.ndim != 2:
            raise ValueError("mask must be 2-d")
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


def disc_element(radius: int) -> np.ndarray:
    """Discrete disc: offsets whose center distance is <= radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    span = np.arange(-radius, radius + 1)
    dx, dy = np.meshgrid(span, span, indexing="ij")
    return (dx * dx + dy * dy) <= radius * radius


def mean_image(images) -> np.ndarray:
    """Pixel-wise mean magnitude over every acquisition of both segments."""
    data = np.asarray(images.data if hasattr(images, "data") else images)
    if data.ndim != 4:
        raise ValueError("expected (segments, acquisitions, h, w) data")
    flat = np.abs(data).reshape(-1, data.shape[2], data.shape[3])
    return flat.mean(axis=0)


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
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be a fraction in (0, 1)")
    # One corrupt sample must not become a NaN peak and empty the mask.
    mean = np.where(np.isfinite(mean), mean, 0.0)
    peak = float(mean.max())
    if peak <= 0.0:
        return Mask(bits=np.zeros(mean.shape, dtype=bool))
    raw = mean >= threshold * peak
    if close_radius > 0:
        pad = close_radius + 1
        padded = np.pad(raw, pad, mode="constant", constant_values=False)
        closed = ndimage.binary_closing(padded,
                                        structure=disc_element(close_radius))
        raw = closed[pad:-pad, pad:-pad]
    if erode_radius > 0:
        raw = ndimage.binary_erosion(raw,
                                     structure=disc_element(erode_radius))
    return Mask(bits=raw)
