"""Closed-form proximal operators and the prox-residual stationarity measure."""

from __future__ import annotations

import numpy as np

from .model import NonsmoothTerm, Problem, as_vector, grad_f

Array = np.ndarray


def soft_threshold(y: Array, threshold: float) -> Array:
    """Componentwise shrinkage toward zero; ties at the threshold map to 0."""
    return np.sign(y) * np.maximum(np.abs(y) - threshold, 0.0)


def prox(term: NonsmoothTerm, anchor, scale: float) -> Array:
    """Minimizer of ``term(x) + ||x - anchor||^2 / (2 * scale)``.

    All supported kinds have closed forms, so the subproblem is solved
    exactly: identity for ``zero``, soft threshold for ``l1``, clamp for
    ``box``, and soft threshold followed by clamp for ``box_plus_l1``.
    """
    if not scale > 0:
        raise ValueError("prox scale must be positive")
    y = as_vector(anchor)
    if term.kind == "zero":
        return y.copy()
    if term.kind == "l1":
        return soft_threshold(y, scale * term.lam)
    if term.kind == "box":
        return np.clip(y, term.lo, term.hi)
    # box_plus_l1: the scalar objective is convex, so clamping the
    # unconstrained soft-threshold minimizer onto the box is exact.
    return np.clip(soft_threshold(y, scale * term.lam), term.lo, term.hi)


def prox_residual(problem: Problem, scale: float, x) -> float:
    """Stationarity measure ``||prox_{scale*h}(x - scale*grad f(x)) - x||``.

    Vanishes exactly at stationary points of the composite objective.  The
    gradient is ``S x + sb`` when the problem keeps a summed quadratic.
    """
    x = as_vector(x, problem.dimension)
    if problem.quadratic_sum is not None:
        S, sb, _ = problem.quadratic_sum
        g = S @ x + sb
    else:
        g = grad_f(problem, x)
    z = prox(problem.nonsmooth, x - scale * g, scale)
    return float(np.linalg.norm(z - x))


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
    x = as_vector(x, problem.dimension)
    g = grad_f(problem, x)
    values = []
    for t in grid:
        z = prox(problem.nonsmooth, x - t * g, t)
        values.append(float(np.linalg.norm(z - x)) / t)
    return all(b <= a + tol for a, b in zip(values, values[1:]))
