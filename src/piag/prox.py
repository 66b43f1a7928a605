"""Closed-form proximal operators and the prox-residual stationarity measure,
each at a point or at every row of a (K, d) stack, through one body."""

from __future__ import annotations

import numpy as np

from .model import NonsmoothTerm, Problem, _as_points, as_vector, grad_f

Array = np.ndarray


def soft_threshold(y: Array, threshold: float) -> Array:
    """Componentwise shrinkage toward zero; ties at the threshold map to 0."""
    return np.sign(y) * np.maximum(np.abs(y) - threshold, 0.0)


def prox(term: NonsmoothTerm, anchor, scale: float) -> Array:
    """Minimizer of ``term(x) + ||x - anchor||^2 / (2 * scale)``, for a
    point or for each row of a (K, d) stack of anchors.

    All supported kinds have closed forms, so the subproblem is solved
    exactly: identity for ``zero``, soft threshold for ``l1``, clamp for
    ``box``, and soft threshold followed by clamp for ``box_plus_l1``.
    Every kind is elementwise, so a row's result does not depend on the stack.
    """
    if not scale > 0:
        raise ValueError("prox scale must be positive")
    y = np.asarray(anchor, dtype=float) if np.ndim(anchor) == 2 else as_vector(anchor)
    if term.kind == "zero":
        return y.copy()
    if term.kind == "l1":
        return soft_threshold(y, scale * term.lam)
    if term.kind == "box":
        return np.clip(y, term.lo, term.hi)
    # box_plus_l1: the scalar objective is convex, so clamping the
    # unconstrained soft-threshold minimizer onto the box is exact.
    return np.clip(soft_threshold(y, scale * term.lam), term.lo, term.hi)


def prox_residual(problem: Problem, scale: float, x) -> float | Array:
    """Stationarity measure ``||prox_{scale*h}(x - scale*grad f(x)) - x||``
    at a point, or at each row of a (K, d) stack of points.

    Vanishes exactly at stationary points of the composite objective.  The
    gradient is ``S x + sb`` (one gemv per row, through numpy's matmul
    gufunc) when the problem keeps a summed quadratic, else ``grad_f`` of each
    row.  A row's norm is the dot-then-sqrt that ``np.linalg.norm`` takes of a
    vector, so a point's value is bitwise its value as a row of any stack.
    """
    X = _as_points(x, problem.dimension)
    if problem.quadratic_sum is not None:
        S, sb, _ = problem.quadratic_sum
        G = np.matmul(S, X[:, :, None])[:, :, 0] + sb
    else:
        G = np.array([grad_f(problem, row) for row in X]).reshape(X.shape)
    D = prox(problem.nonsmooth, X - scale * G, scale) - X
    out = np.sqrt(np.matmul(D[:, None, :], D[:, :, None])[:, 0, 0])
    return out if np.ndim(x) == 2 else float(out[0])


def check_prox_scaling_monotonicity(problem: Problem, x, t_grid, tol: float = 1e-10) -> bool:
    """True iff ``t -> prox_residual(problem, t, x) / t`` is nonincreasing
    over the ascending grid, up to an absolute tolerance.

    This monotonicity always holds for convex nonsmooth terms, so a False
    return indicates an implementation bug rather than a problem feature.
    """
    grid = [float(t) for t in t_grid]
    if not grid:
        raise ValueError("t_grid must be nonempty")
    if any(t <= 0 for t in grid):
        raise ValueError("t_grid entries must be positive")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("t_grid must be sorted ascending")
    values = [prox_residual(problem, t, x) / t for t in grid]
    return all(b <= a + tol for a, b in zip(values, values[1:]))
