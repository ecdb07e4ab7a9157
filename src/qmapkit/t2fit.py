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

from . import bloch


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


_UNIT = np.linspace(0.0, 1.0, 128)  # grid points as fractions of log(hi/lo)
_TOL = 1e-12       # width in log T2 at which the bracket search stops


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

    The model is separable (variable projection): for any t2 the best
    amplitude is max(g.d / g.g, 0), with g the six-echo model column and d
    the data.  The projected cost is scanned on a log-spaced t2 grid, and
    its minimum is refined by an Illinois regula falsi on the cost's slope
    in log t2 inside the neighbouring grid cells.
    """
    e1 = np.asarray(echoes_seg1, dtype=float)
    e2 = np.asarray(echoes_seg2, dtype=float)
    if e1.shape != (3,) or e2.shape != (3,):
        raise ValueError("each segment supplies three echo magnitudes")
    if not (np.any(e1 > 0) or np.any(e2 > 0)):
        return T2Fit(t2=0.0, amp=0.0, cost=0.0, at_bound=False, valid=False)
    dts = np.asarray(echo_times, dtype=float)
    p = basis1 * e1 + basis2 * e2           # g.d = sum(decay * p)
    q = basis1 * basis1 + basis2 * basis2   # g.g = sum(decay**2 * q)

    def amp_at(decay):
        return max(decay @ p / (decay * decay @ q), 0.0)

    def slope(u):  # d cost / d log t2 is 2 * amp * exp(-u) * slope(u)
        decay = np.exp(-dts * np.exp(-u))
        return dts * decay @ (amp_at(decay) * decay * q - p)

    def fit_at(t2):
        t2 = min(max(float(t2), lo), hi)
        decay = np.exp(-dts / t2)
        amp = amp_at(decay)
        r1, r2 = amp * basis1 * decay - e1, amp * basis2 * decay - e2
        return t2, amp, float(r1 @ r1 + r2 @ r2)

    lo, hi = t2_bounds
    grid = lo * (hi / lo) ** _UNIT
    decay = np.exp(-dts / grid[:, np.newaxis])              # (grid, 3)
    gd = np.maximum(np.sum(decay * p, axis=1), 0.0)
    # The projected cost is d.d - (g.d)**2 / g.g.
    j = int(np.argmax(gd * gd / np.sum(decay * decay * q, axis=1)))
    t2, amp, cost = fit_at(grid[j])
    a, b = np.log(grid[max(j - 1, 0)]), np.log(grid[min(j + 1, grid.size - 1)])
    fa, fb = slope(a), slope(b)
    side = 0
    while fa < 0.0 < fb and b - a > _TOL:
        u = (a * fb - b * fa) / (fb - fa)
        fu = slope(u)
        if fu < 0.0:
            a, fa = u, fu
            fb *= 0.5 if side < 0 else 1.0
            side = -1
        else:  # a zero or NaN slope ends the search here
            b, fb = u, fu
            fa *= 0.5 if side > 0 else 1.0
            side = 1
    if side:
        refined = fit_at(np.exp(u))
        if refined[2] <= cost:
            t2, amp, cost = refined
    edge = 1e-9 * (hi - lo)
    at_bound = t2 <= lo + edge or t2 >= hi - edge
    return T2Fit(t2=float(t2), amp=float(amp), cost=cost,
                 at_bound=bool(at_bound), valid=True)
