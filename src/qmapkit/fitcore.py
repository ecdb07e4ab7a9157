"""Shared fitting machinery: linear least squares, box-constrained
Gauss-Newton, and multi-start.

All solvers here are deterministic: no randomness, no threads, and
tie-breaking rules that do not depend on evaluation schedule.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

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
    solution with ``rank_deficient`` set.

    Returns an :class:`LsqResult`; the first two fields are ``(x,
    residual_norm)``.
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


def _fd_jacobian(residual, x, r0, lower, upper):
    # Forward differences, stepping backward when a bound is in the way.
    n = x.size
    jac = np.empty((r0.size, n))
    for i in range(n):
        h = 1e-6 * max(1.0, abs(x[i]))
        xi = x.copy()
        if x[i] + h >= upper[i]:
            h = -h
        xi[i] = x[i] + h
        jac[:, i] = (residual(xi) - r0) / h
    return jac


def _projected_gradient(g, x, lower, upper, eps=1e-12):
    pg = g.copy()
    at_lo = x <= lower + eps
    at_hi = x >= upper - eps
    pg[at_lo] = np.minimum(pg[at_lo], 0.0)
    pg[at_hi] = np.maximum(pg[at_hi], 0.0)
    return pg


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
    lower = np.broadcast_to(np.asarray(lower, dtype=float), x.shape)
    upper = np.broadcast_to(np.asarray(upper, dtype=float), x.shape)
    if np.any(lower >= upper):
        raise ValueError("lower bounds must be strictly below upper bounds")
    if np.any(x <= lower) or np.any(x >= upper):
        raise ValueError("x0 must lie strictly inside the bounds")
    r = np.atleast_1d(np.asarray(residual(x), dtype=float))
    cost = float(r @ r)
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        jac = _fd_jacobian(residual, x, r, lower, upper)
        g = 2.0 * (jac.T @ r)
        if np.max(np.abs(_projected_gradient(g, x, lower, upper))) < tol:
            converged = True
            n_iter -= 1
            break
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        if not np.all(np.isfinite(step)):
            step = -g  # fall back to steepest descent
        alpha = 1.0
        improved = False
        while alpha > 1e-14:
            x_new = np.clip(x + alpha * step, lower, upper)
            direction = x_new - x
            slope = float(g @ direction)
            r_new = np.atleast_1d(np.asarray(residual(x_new), dtype=float))
            cost_new = float(r_new @ r_new)
            # Armijo on the actual (projected) displacement; for ascent-ish
            # directions just require plain decrease.
            target = cost + 1e-4 * min(slope, 0.0)
            if cost_new <= target and cost_new < cost:
                x, r, cost = x_new, r_new, cost_new
                improved = True
                break
            alpha *= 0.5
        if not improved:
            # No admissible decrease along GN or gradient: treat as stationary.
            converged = (
                np.max(np.abs(_projected_gradient(g, x, lower, upper))) < tol
            )
            break
    return BoxedResult(x, cost, n_iter, converged)


def multi_start(residual, starts: Sequence[np.ndarray], lower, upper,
                max_iter: int = 200, tol: float = 1e-8):
    """Run :func:`solve_boxed` from each start; return the lowest-cost result.

    Ties go to the earliest start in list order.  Starts are clipped to the
    interior of the box before solving.
    """
    starts = list(starts)
    if not starts:
        raise ValueError("at least one start is required")
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    span = np.where(np.isfinite(upper - lower), upper - lower, 1.0)
    nudge = 1e-9 * np.maximum(span, 1.0)
    best = None
    for x0 in starts:
        x0 = np.clip(np.atleast_1d(np.asarray(x0, dtype=float)),
                     lower + nudge, upper - nudge)
        res = solve_boxed(residual, x0, lower, upper, max_iter=max_iter,
                          tol=tol)
        if best is None or res.cost < best.cost:
            best = res
    return best
