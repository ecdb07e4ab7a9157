"""T2 estimation from the three spin echoes of each segment.

The three refocusing pulses are imperfect across the slice; an echo formed
after n of them is attenuated by a factor that depends only on the local
rotation angle theta of the refocusing pulse.  Echoes are modeled as

    amp * |integral_z w(z) * f_n(theta(z)) dz| * exp(-dt_n / t2)

with w(z) the (complex, rephased) transverse response of the excitation
pulse and dt_n the echo time measured from excitation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import bloch, fitcore


def echo_attenuation(n: int, theta):
    """Amplitude attenuation of echo ``n`` (1-3) for refocusing angle theta.

    f_1 = (1-c)/2
    f_2 = (1-c)^2/4
    f_3 = (1-c)^3/8 + (1-c)(1+c)^2/8 + c*sin(theta)^2/2

    with c = cos(theta).  All three equal 1 at theta = pi (perfect
    refocusing) and 0 at theta = 0.
    """
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta)
    if n == 1:
        return (1.0 - c) / 2.0
    if n == 2:
        return (1.0 - c) ** 2 / 4.0
    if n == 3:
        return ((1.0 - c) ** 3 / 8.0
                + (1.0 - c) * (1.0 + c) ** 2 / 8.0
                + c * np.sin(theta) ** 2 / 2.0)
    raise ValueError("echo index n must be 1, 2, or 3")


def echo_basis(weights, theta, z) -> np.ndarray:
    """|integral w(z) f_n(theta(z)) dz| for n = 1, 2, 3.

    ``weights`` is the complex transverse response w(z) of a segment's
    excitation pulse (rephased) and ``theta`` the refocusing rotation angle,
    both over the z grid on the last axis; any leading axes are kept, so the
    result has shape ``(..., 3)``.
    """
    return np.stack([
        np.abs(bloch.integrate_slice(weights * echo_attenuation(n, theta), z))
        for n in (1, 2, 3)], axis=-1)


def predict_echoes(amp: float, basis, dt_over_t2) -> np.ndarray:
    """Predicted echo magnitudes for source amplitude ``amp``, given the
    segment's echo basis and the three echo times since excitation over
    T2."""
    return amp * basis * np.exp(-dt_over_t2)


class T2Fit(NamedTuple):
    t2: float
    amp: float
    cost: float
    at_bound: bool
    valid: bool


def fit_t2_pixels(echoes, bases, echo_times, t2_bounds) -> T2Fit:
    """Joint two-segment fit of (amp, t2) at each of n pixels, from the
    three segment-1 then three segment-2 echo magnitudes (n, 6) and the two
    segments' echo bases (n, 6); every field of the result has shape (n,).

    One source amplitude is shared: the two segments tip the same
    longitudinal magnetization, and their different excitation responses are
    already carried by each segment's echo basis.  Both segments share the
    echo times.  :func:`fitcore.fit_scaled_column` projects the amplitude
    out, so only t2 is searched.  A pixel without a positive echo reads 0
    and invalid.
    """
    d = np.asarray(echoes, dtype=float)
    dts = np.tile(np.asarray(echo_times, dtype=float), 2)

    def column(t2, basis):
        ratio = dts / t2[..., np.newaxis]
        g = predict_echoes(1.0, basis[:, np.newaxis], ratio)
        return g, g * ratio

    fit = fitcore.fit_scaled_column(column, d, t2_bounds, bases)
    return T2Fit(*fit, valid=np.any(d > 0, axis=-1))


def fit_t2(echoes_seg1, echoes_seg2, basis1, basis2, echo_times,
           t2_bounds) -> T2Fit:
    """:func:`fit_t2_pixels` at one pixel, with Python scalar fields."""
    e1 = np.asarray(echoes_seg1, dtype=float)
    e2 = np.asarray(echoes_seg2, dtype=float)
    if e1.shape != (3,) or e2.shape != (3,):
        raise ValueError("each segment supplies three echo magnitudes")
    return T2Fit(*(f.item() for f in fit_t2_pixels(
        np.concatenate([e1, e2])[np.newaxis],
        np.concatenate([basis1, basis2])[np.newaxis], echo_times, t2_bounds)))
