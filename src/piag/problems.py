"""Desk-scale test problem generators with known smoothness constants and,
where feasible, an enumerable stationary set.

Two families are provided.  ``make_quadratic_box`` sums random quadratics
(possibly indefinite) over a box, so the objective is bounded by compactness
and the stationary set can be enumerated in low dimension.
``make_quadratic_l1`` keeps the component sum strongly convex and adds an l1
term, giving a unique, computable minimizer.  Both families belong to the
quadratic-plus-polyhedral class for which the proximal error bound holds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import (NonsmoothTerm, Problem, _build_quadratics, _quadratic_values, as_count,
                    as_vector, eval_F, smoothness_totals)
from .prox import prox_residual, soft_threshold

Array = np.ndarray

MAX_DIMENSION = 200
MAX_COMPONENTS = 100


class ReferenceUnavailableError(RuntimeError):
    """No reference stationary set is computable for this problem family."""


@dataclass
class ReferenceSolution:
    """Enumerated (or uniquely determined) stationary points of a problem."""

    points: list
    objective_values: list
    method: str  # analytic | kkt_enumeration | fixed_point


def _random_symmetric(rng: np.random.Generator, d: int, eig_lo: float,
                      eig_hi: float) -> Array:
    """Symmetric matrix with eigenvalues drawn uniformly from [eig_lo, eig_hi],
    planted through a random orthogonal basis."""
    lam = rng.uniform(eig_lo, eig_hi, size=d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    A = (q * lam) @ q.T
    A += A.T  # the bits of 0.5 * (A + A.T); 100x200 generates ~6% faster (2-core host)
    A *= 0.5
    return A


def _quadratic_lower_bound(lam_min: float, sb: Array, const: float, radius: float) -> float:
    """Lower bound of ``0.5 x'Sx + sb'x + const`` over ``||x|| <= radius``,
    where ``lam_min`` is the smallest eigenvalue of ``S``."""
    b = float(np.linalg.norm(sb))

    def phi(r: float) -> float:
        return 0.5 * lam_min * r * r - b * r + const

    candidates = [0.0, radius]
    if lam_min > 0:
        candidates.append(min(radius, b / lam_min))
    return min(phi(r) for r in candidates)


def _check_generator_args(N: int, d: int, seed: int, param: float, param_name: str) -> tuple:
    N, d, seed = as_count("N", N), as_count("d", d), as_count("seed", seed)
    if not 1 <= d <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}]")
    if not 1 <= N <= MAX_COMPONENTS:
        raise ValueError(f"component count must be in [1, {MAX_COMPONENTS}]")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if not 0 <= param < math.inf:  # nan fails both comparisons
        kind = "nonnegative" if param < 0 else "a finite nonnegative number"
        raise ValueError(f"{param_name} must be {kind}")
    return N, d, seed


def _draw_components(rng: np.random.Generator, N: int, d: int, eig_lo: float) -> tuple:
    """``N`` quadratic components, each a random symmetric matrix with
    eigenvalues in ``[eig_lo, 1]`` and a standard normal linear term, as the
    rows of one stack (see ``model._Rows``).  The matrices are drawn in this
    thread while others find their eigenvalues."""
    def draws():
        for _ in range(N):
            A = _random_symmetric(rng, d, eig_lo, 1.0)
            yield A, rng.standard_normal(d), 0.0

    return _build_quadratics(N, d, draws())


def make_quadratic_box(N: int, d: int, seed: int,
                       negative_curvature: float = 0.0) -> Problem:
    """Sum of ``N`` random quadratics over a symmetric box.

    Component eigenvalues are drawn from ``[-negative_curvature, 1]``, so
    every component is convex when ``negative_curvature`` is 0.  The box
    half-width scales with the linear terms so that interior stationary
    points stay reachable, and compactness bounds the objective below.
    """
    N, d, seed = _check_generator_args(N, d, seed, negative_curvature, "negative_curvature")
    comps = _draw_components(np.random.default_rng(seed), N, d, -negative_curvature)
    S, sb, const = comps.quadratic_sum
    lam_min = float(np.linalg.eigvalsh(S)[0])
    half_width = 10.0 * (1.0 + float(np.linalg.norm(sb)) / max(lam_min, 0.1))
    hint = _quadratic_lower_bound(lam_min, sb, const, half_width * math.sqrt(d))
    return Problem(comps, NonsmoothTerm.box(-half_width, half_width), d, f_lower_bound_hint=hint)


def make_quadratic_l1(N: int, d: int, seed: int, lam: float) -> Problem:
    """Strongly convex component sum plus an l1 term.

    Individual components may be indefinite for ``N > 1``; draws are repeated
    until the summed matrix has smallest eigenvalue at least 0.1.  Few
    components of a large dimension rarely get there: after 100 attempts,
    the spectrum of each component of the last draw is shifted up by an
    equal share of the missing margin.
    """
    N, d, seed = _check_generator_args(N, d, seed, lam, "l1 weight")
    rng = np.random.default_rng(seed)
    eig_lo = 0.15 if N == 1 else -0.2
    nonsmooth = NonsmoothTerm.l1(lam)
    for _ in range(100):
        comps = _draw_components(rng, N, d, eig_lo)
        S, sb, _ = comps.quadratic_sum
        missing = 0.1 - float(np.linalg.eigvalsh(S)[0])
        if missing <= 0:
            break
    else:
        # 1e-9 more than the margin: far above the rounding of the sum and of eigvalsh.
        A, b, c = comps.stack
        A += (missing + 1e-9) / N * np.eye(d)
        comps = _build_quadratics(N, d, stack=(A, b, c))
        S, sb, _ = comps.quadratic_sum
    x_free = np.linalg.solve(S, -sb)
    hint = float(_quadratic_values(comps.quadratic_sum, x_free.reshape(1, d))[0])  # eval_f
    return Problem(comps, nonsmooth, d, f_lower_bound_hint=hint)


def _require_quadratic(problem: Problem) -> tuple[Array, Array]:
    if problem.quadratic_sum is None:
        raise ReferenceUnavailableError("reference solutions need quadratic components")
    S, sb, _ = problem.quadratic_sum
    return S, sb


def _box_bounds(problem: Problem) -> tuple[Array, Array]:
    d, term = problem.dimension, problem.nonsmooth
    return np.full(d, term.lo), np.full(d, term.hi)


def _kkt_box_points(S: Array, sb: Array, lo: Array, hi: Array) -> list:
    """Enumerate stationary points of a quadratic over a box via face cases.

    Each coordinate is pinned to its lower bound, its upper bound, or left
    free; the free block is solved exactly and the gradient sign conditions
    on the pinned block are checked.
    """
    d = len(sb)
    points = []
    for pattern in itertools.product((0, 1, 2), repeat=d):
        free = [j for j in range(d) if pattern[j] == 2]
        pinned = [j for j in range(d) if pattern[j] != 2]
        x = np.zeros(d)
        for j in pinned:
            x[j] = lo[j] if pattern[j] == 0 else hi[j]
        if free:
            Ff = np.ix_(free, free)
            rhs = -sb[free]
            if pinned:
                rhs = rhs - S[np.ix_(free, pinned)] @ x[pinned]
            try:
                x_free = np.linalg.solve(S[Ff], rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(x_free < lo[free] - 1e-12) or np.any(x_free > hi[free] + 1e-12):
                continue
            x[free] = x_free
        g = S @ x + sb
        ok = True
        for j in range(d):
            if pattern[j] == 2:
                ok = abs(g[j]) <= 1e-9
            elif pattern[j] == 0:
                ok = g[j] >= -1e-12  # lower face: negative gradient points outward
            else:
                ok = g[j] <= 1e-12
            if not ok:
                break
        if ok:
            points.append(np.clip(x, lo, hi))
    unique: list = []
    for p in points:
        if not any(np.linalg.norm(p - q) <= 1e-8 for q in unique):
            unique.append(p)
    return unique


def _l1_minimizer(S: Array, sb: Array, lam: float, L: float) -> Array:
    """Unique minimizer of a strongly convex quadratic plus l1 term.

    A forward-backward fixed-point iteration localizes the support, then the
    reduced linear system is solved exactly and checked against the
    first-order conditions.
    """
    d = len(sb)
    x = np.zeros(d)
    step = 1.0 / L
    for _ in range(200000):
        x_new = soft_threshold(x - step * (S @ x + sb), step * lam)
        if np.linalg.norm(x_new - x) <= 1e-15 * (1.0 + np.linalg.norm(x_new)):
            x = x_new
            break
        x = x_new
    support = np.abs(x) > 1e-10
    if np.any(support):
        signs = np.sign(x[support])
        sup = np.nonzero(support)[0]
        x_sup = np.linalg.solve(S[np.ix_(sup, sup)], -(sb[sup] + lam * signs))
        candidate = np.zeros(d)
        candidate[sup] = x_sup
        g = S @ candidate + sb
        if (np.all(np.sign(candidate[sup]) == signs)
                and np.all(np.abs(g[~support]) <= lam + 1e-9)):
            return candidate
    return x


def reference_solution(problem: Problem) -> ReferenceSolution:
    """Stationary set of a generated problem, when computable.

    Supported: strongly convex quadratic sum with no nonsmooth term
    (analytic), quadratic-over-box in dimension at most 3 (exact face
    enumeration), and strongly convex quadratic plus l1 in any dimension
    (fixed-point localization with an exact polish).  Every returned point
    is certified by a prox residual at scale ``1/L`` of at most 1e-10.
    """
    S, sb = _require_quadratic(problem)
    L, _ = smoothness_totals(problem)
    kind = problem.nonsmooth.kind
    if kind == "zero":
        if float(np.linalg.eigvalsh(S)[0]) <= 1e-8:
            raise ReferenceUnavailableError("smooth reference needs a positive definite sum")
        points = [np.linalg.solve(S, -sb)]
        method = "analytic"
    elif kind == "box":
        if problem.dimension > 3:
            raise ReferenceUnavailableError("box enumeration supports dimension <= 3")
        lo, hi = _box_bounds(problem)
        points = _kkt_box_points(S, sb, lo, hi)
        method = "kkt_enumeration"
    elif kind == "l1":
        if float(np.linalg.eigvalsh(S)[0]) <= 1e-8:
            raise ReferenceUnavailableError("l1 reference needs a positive definite sum")
        points = [_l1_minimizer(S, sb, problem.nonsmooth.lam, L)]
        method = "fixed_point"
    else:
        raise ReferenceUnavailableError(f"no reference method for nonsmooth kind {kind!r}")
    points = np.reshape(points, (-1, problem.dimension))
    certified = points[prox_residual(problem, 1.0 / L, points) <= 1e-10]
    if not len(certified):
        raise RuntimeError("reference computation produced no certified stationary point")
    return ReferenceSolution(
        points=list(certified),
        objective_values=eval_F(problem, certified).tolist(),
        method=method,
    )


def dist_to_stationary(x, ref: ReferenceSolution) -> float:
    """Euclidean distance from ``x`` to the enumerated stationary set."""
    if not ref.points:
        raise ValueError("reference stationary set is empty")
    x = as_vector(x, len(ref.points[0]))
    return min(float(np.linalg.norm(x - p)) for p in ref.points)


# fit_error_bound_constant samples this many points, each a reference point
# plus a Gaussian offset scaled by up to _C0_RADIUS.
_C0_SAMPLES = 200
_C0_RADIUS = 0.5


def fit_error_bound_constant(problem: Problem, ref: ReferenceSolution, seed: int = 0) -> float:
    """Empirical error-bound constant: twice the largest observed ratio of
    distance-to-stationary-set over prox residual at scale ``1/L``, sampled
    near the reference points.  The factor two is a safety margin so the
    fitted constant stays valid slightly away from the samples.
    """
    L, _ = smoothness_totals(problem)
    scale = 1.0 / L
    rng = np.random.default_rng(seed)
    X = np.array([ref.points[i % len(ref.points)]
                  + _C0_RADIUS * rng.uniform(0.01, 1.0) * rng.standard_normal(problem.dimension)
                  for i in range(_C0_SAMPLES)])
    if problem.nonsmooth.kind in ("box", "box_plus_l1"):
        X = np.clip(X, *_box_bounds(problem))
    worst = 0.0
    for x, residual in zip(X, prox_residual(problem, scale, X).tolist()):
        if residual > 1e-12:
            worst = max(worst, dist_to_stationary(x, ref) / residual)
    return max(2.0 * worst, 1e-6)
