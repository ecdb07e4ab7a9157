"""Shared fitting machinery: linear least squares (the water/fat stage),
and the one-parameter variable-projection fit of a scaled model column (the
T2 and T1 stages).

``solve_boxed``, a box-constrained Gauss-Newton, has no caller left in the
pipeline; it stays while the benchmark's ``perfbench/tracer.py`` wraps it.

All solvers here are deterministic: no randomness, no threads, and
tie-breaking rules that do not depend on evaluation schedule.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class LsqResult(NamedTuple):
    x: np.ndarray
    residual_norm: float
    rank: int
    rank_deficient: bool


def lsq_solve(a, b):
    """Least-squares solution of ``a @ x = b`` for real or complex ``a``.

    Uses an orthogonal factorization (SVD via ``numpy.linalg.lstsq``), never
    normal equations.  Rank-deficient systems return the minimum-norm
    solution with ``rank_deficient`` set.  Returns an :class:`LsqResult`.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2:
        raise ValueError("design matrix must be 2-D")
    if b.shape[0] != a.shape[0]:
        raise ValueError(
            f"shape mismatch: a has {a.shape[0]} rows, b has {b.shape[0]}"
        )
    x, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
    residual_norm = float(np.linalg.norm(a @ x - b))
    return LsqResult(x, residual_norm, int(rank), rank < a.shape[1])


class BoxedResult(NamedTuple):
    x: np.ndarray
    cost: float
    n_iter: int
    converged: bool


def solve_boxed(residual, x0, lower, upper, max_iter: int = 200,
                tol: float = 1e-8):
    """Projected Gauss-Newton with backtracking line search.

    Minimizes the squared Euclidean norm of the 1-D real array
    ``residual(x)`` over the box [lower, upper].  Bounds may be
    ``-inf``/``+inf`` on either side; ``x0`` must lie strictly inside every
    finite bound.  Iterates are clipped to the box after each step;
    convergence is declared when the sup-norm of the projected gradient of
    the cost drops below ``tol``.  Deterministic for fixed inputs.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    lower, upper = (np.broadcast_to(np.asarray(v, dtype=float), x.shape)
                    for v in (lower, upper))
    if np.any(lower >= upper):
        raise ValueError("lower bounds must be strictly below upper bounds")
    if np.any(x <= lower) or np.any(x >= upper):
        raise ValueError("x0 must lie strictly inside the bounds")

    def resid(x):
        return np.atleast_1d(np.asarray(residual(x), dtype=float))

    def stationary(g):  # the projected gradient's sup-norm is below tol
        g = np.where(x <= lower + 1e-12, np.minimum(g, 0.0), g)
        g = np.where(x >= upper - 1e-12, np.maximum(g, 0.0), g)
        return bool(np.max(np.abs(g)) < tol)

    r = resid(x)
    cost = float(r @ r)
    n_iter, converged = 0, False
    for n_iter in range(1, max_iter + 1):
        # Forward differences, stepping backward when a bound is in the way.
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        h = np.where(x + h >= upper, -h, h)
        jac = np.stack([(resid(x + hi * e) - r) / hi
                        for hi, e in zip(h, np.eye(x.size))], axis=1)
        g = 2.0 * (jac.T @ r)
        if stationary(g):
            converged = True
            n_iter -= 1
            break
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            step = -g  # fall back to steepest descent
        alpha = 1.0
        while alpha > 1e-14:
            x_new = np.clip(x + alpha * step, lower, upper)
            r_new = resid(x_new)
            cost_new = float(r_new @ r_new)
            # Armijo on the actual (projected) displacement; for ascent-ish
            # directions just require plain decrease.
            slope = min(float(g @ (x_new - x)), 0.0)
            if cost_new <= cost + 1e-4 * slope and cost_new < cost:
                break
            alpha *= 0.5
        else:
            # No admissible decrease along GN or gradient: stationary.
            converged = stationary(g)
            break
        x, r, cost = x_new, r_new, cost_new
    return BoxedResult(x, cost, n_iter, converged)


class ScaledFit(NamedTuple):
    x: np.ndarray
    amp: np.ndarray
    cost: np.ndarray
    at_bound: np.ndarray


_UNIT = np.linspace(0.0, 1.0, 128)  # scan points as fractions of log(hi/lo)
_TOL = 1e-12       # width in log x at which the bracket search stops
_BLOCK_ELEMENTS = 1 << 17  # a block's (pixels, scan points, data) size


def fit_scaled_column(column, data, bounds, params) -> ScaledFit:
    """Least-squares fit of ``amp * g(x)`` to each row of ``data`` (n, m),
    amp >= 0 and x in ``bounds`` = (lo, hi) with 0 < lo < hi.

    ``params`` holds one row of model parameters per pixel.  ``column(x,
    p)`` takes x of shape (b, j), or (1, j) for the same points at every
    pixel, and the rows p of those b pixels; it returns the model column g
    and its derivative in log x, each of shape (b, j, m).

    The model is separable (variable projection): for any x the best
    amplitude is max(g.d / g.g, 0), so only x is searched.  The projected
    cost d.d - (g.d)**2 / g.g is scanned on 128 log-spaced points, and its
    minimum is refined by an Illinois regula falsi on the cost's slope in
    log x inside the neighbouring grid cells; each pixel keeps its own
    bracket and stops on its own.  The refined point is kept unless its
    cost is higher than the grid point's.  ``at_bound`` flags an x within
    1e-9 (relative) of either bound.  A row with no positive datum is not
    fitted and reads 0.  Every field has shape (n,).

    Dot products are sums of elementwise products over the last axis, so a
    pixel's result depends on its own row alone: not on n, on its block or
    on the BLAS build.
    """
    d = np.asarray(data, dtype=float)
    out = ScaledFit(*(np.zeros(len(d), dtype=t) for t in (float,) * 3
                      + (bool,)))
    fitted = np.flatnonzero(np.any(d > 0, axis=-1))
    step = max(1, _BLOCK_ELEMENTS // (_UNIT.size * d.shape[1]))
    for start in range(0, fitted.size, step):
        i = fitted[start:start + step]
        block = _fit_block(column, d[i], np.asarray(params)[i], bounds)
        for field, value in zip(out, block):
            field[i] = value
    return out


def _fit_block(column, d, params, bounds):
    lo, hi = bounds

    def project(x, i):  # the best amplitude, the residual and dg at x
        g, dg = (v[:, 0] for v in column(x[:, np.newaxis], params[i]))
        amp = np.maximum(np.sum(g * d[i], -1) / np.sum(g * g, -1), 0.0)
        return amp, amp[:, np.newaxis] * g - d[i], dg

    def slope(u, i):  # d cost / d log x is 2 * amp * slope(u)
        _, r, dg = project(np.exp(u), i)
        return np.sum(r * dg, -1)

    def fit_at(x, i):
        x = np.clip(x, lo, hi)
        amp, r, _ = project(x, i)
        return x, amp, np.sum(r * r, -1)

    grid = lo * (hi / lo) ** _UNIT
    g, _ = column(grid[np.newaxis], params)
    gd = np.maximum(np.sum(g * d[:, np.newaxis], -1), 0.0)
    j = np.argmax(gd * gd / np.sum(g * g, -1), axis=1)
    x, amp, cost = fit_at(grid[j], slice(None))
    a, b = (np.log(grid[np.clip(j + s, 0, grid.size - 1)]) for s in (-1, 1))
    fa, fb = slope(a, slice(None)), slope(b, slice(None))
    u, side = np.zeros_like(a), np.zeros(a.shape, dtype=int)
    i = np.flatnonzero((fa < 0.0) & (fb > 0.0) & (b - a > _TOL))
    while i.size:
        u[i] = (a[i] * fb[i] - b[i] * fa[i]) / (fb[i] - fa[i])
        fu = slope(u[i], i)
        left = fu < 0.0  # a zero or NaN slope ends the search here
        moved = np.where(left, -1, 1)
        # Illinois: an end left in place twice running has its slope halved.
        half = np.where(side[i] == moved, 0.5, 1.0)
        a[i] = np.where(left, u[i], a[i])
        b[i] = np.where(left, b[i], u[i])
        fa[i] = np.where(left, fu, fa[i] * half)
        fb[i] = np.where(left, fb[i] * half, fu)
        side[i] = moved
        i = i[(fa[i] < 0.0) & (fb[i] > 0.0) & (b[i] - a[i] > _TOL)]
    i = np.flatnonzero(side)
    rx, ramp, rcost = fit_at(np.exp(u[i]), i)
    kept = rcost <= cost[i]
    x[i[kept]], amp[i[kept]], cost[i[kept]] = rx[kept], ramp[kept], rcost[kept]
    return x, amp, cost, (x <= lo * (1 + 1e-9)) | (x >= hi * (1 - 1e-9))
