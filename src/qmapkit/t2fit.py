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
        out = (1.0 - c) / 2.0
    elif n == 2:
        out = (1.0 - c) ** 2 / 4.0
    elif n == 3:
        out = ((1.0 - c) ** 3 / 8.0
               + (1.0 - c) * (1.0 + c) ** 2 / 8.0
               + c * np.sin(theta) ** 2 / 2.0)
    else:
        raise ValueError("echo index n must be 1, 2, or 3")
    return out if out.ndim else float(out)


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


def predict_echoes(amp: float, t2: float, basis, echo_times) -> np.ndarray:
    """Predicted echo magnitudes for source amplitude ``amp`` and decay t2,
    given the segment's echo basis and the three echo times since
    excitation."""
    return amp * basis * np.exp(-np.asarray(echo_times) / t2)


def loglinear_init(echoes, basis, echo_times, t2_bounds) -> tuple:
    """Straight-line fit of log(echo / basis) against echo time.

    Equals the closed-form two-parameter exponential fit when the
    attenuation factors are all 1.  Non-positive echoes fall back to
    mid-range defaults.
    """
    echoes = np.asarray(echoes, dtype=float)
    good = (echoes > 0) & (basis > 0)
    if good.sum() < 2:
        return 3.0 * max(echoes.max(), 1e-12), np.sqrt(
            t2_bounds[0] * t2_bounds[1])
    dts = np.asarray(echo_times)[good]
    y = np.log(echoes[good] / basis[good])
    a = np.stack([np.ones_like(dts), -dts], axis=1)
    coef, *_ = np.linalg.lstsq(a, y, rcond=None)
    amp = float(np.exp(coef[0]))
    rate = float(coef[1])
    t2 = 1.0 / rate if rate > 0 else t2_bounds[1]
    t2 = min(max(t2, t2_bounds[0] * 1.001), t2_bounds[1] * 0.999)
    return amp, t2


_MAX_ITER = 200     # Gauss-Newton iterations
_TOL = 1e-10        # projected-gradient convergence threshold


class T2Fit(NamedTuple):
    t2: float
    amp: float
    cost: float
    at_bound: bool
    valid: bool


def fit_t2(echoes_seg1, echoes_seg2, basis1, basis2, echo_times,
           t2_bounds) -> T2Fit:
    """Joint two-segment fit of (amp, t2) to six echo magnitudes.

    One source amplitude is shared: the two segments tip the same
    longitudinal magnetization, and their different excitation responses are
    already carried by each segment's echo basis.  Both segments share the
    echo times.
    """
    e1 = np.asarray(echoes_seg1, dtype=float)
    e2 = np.asarray(echoes_seg2, dtype=float)
    if e1.shape != (3,) or e2.shape != (3,):
        raise ValueError("each segment supplies three echo magnitudes")
    if not (np.any(e1 > 0) or np.any(e2 > 0)):
        return T2Fit(t2=0.0, amp=0.0, cost=0.0, at_bound=False, valid=False)
    dts = np.asarray(echo_times)
    data = np.concatenate([e1, e2])

    def residual(x):
        amp, t2 = x
        pred = np.concatenate([
            amp * basis1 * np.exp(-dts / t2),
            amp * basis2 * np.exp(-dts / t2),
        ])
        return pred - data

    amp0, t20 = loglinear_init(e1, basis1, echo_times, t2_bounds)
    amp_hi = 1e6 * max(data.max(), 1e-12)
    res = fitcore.solve_boxed(
        residual,
        x0=np.array([min(max(amp0, 1e-12), amp_hi * 0.5), t20]),
        lower=np.array([0.0, t2_bounds[0]]),
        upper=np.array([amp_hi, t2_bounds[1]]),
        max_iter=_MAX_ITER, tol=_TOL)
    amp, t2 = res.x
    edge = 1e-9 * (t2_bounds[1] - t2_bounds[0])
    at_bound = t2 <= t2_bounds[0] + edge or t2 >= t2_bounds[1] - edge
    return T2Fit(t2=float(t2), amp=float(amp), cost=res.cost,
                 at_bound=bool(at_bound), valid=True)
