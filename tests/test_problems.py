import hashlib
import json
import math

import numpy as np
import pytest

from piag import (DelaySchedule, NonsmoothTerm, Problem, SolverConfig,
                  dist_to_stationary, eval_F, fit_error_bound_constant,
                  prox, prox_residual, quadratic_component, reference_fbs,
                  reference_solution, smoothness_totals, solve)
from piag.model import problem_to_dict, sum_quadratics
from piag.problems import (ReferenceSolution, ReferenceUnavailableError,
                           make_quadratic_box, make_quadratic_l1)

from helpers import min_eigenvalue_oracle, spectral_norm_oracle


def one_d_box_instance():
    comp = quadratic_component(np.array([[-1.0]]), np.zeros(1))
    return Problem([comp], NonsmoothTerm.box(-1.0, 1.0), 1)


# ---------------------------------------------------------------- generators


def test_box_generator_constants_match_power_iteration():
    p = make_quadratic_box(4, 6, seed=12, negative_curvature=0.6)
    for comp in p.components:
        assert np.allclose(comp.matrix, comp.matrix.T, atol=1e-12)
        spectral = spectral_norm_oracle(comp.matrix, seed=1)
        assert comp.lipschitz == pytest.approx(spectral, abs=1e-8, rel=1e-8)
        lam_min = min_eigenvalue_oracle(comp.matrix, seed=2)
        assert comp.weak_convexity == pytest.approx(max(0.0, -lam_min),
                                                    abs=1e-8, rel=1e-8)
        assert -0.6 - 1e-9 <= lam_min and comp.lipschitz <= 1.0 + 1e-9


def test_box_generator_convex_corner_case():
    p = make_quadratic_box(5, 4, seed=3, negative_curvature=0.0)
    assert all(c.weak_convexity == 0.0 for c in p.components)


def test_box_generator_objective_bounded_by_hint():
    p = make_quadratic_box(3, 3, seed=9, negative_curvature=0.8)
    rng = np.random.default_rng(0)
    hi = np.asarray(p.nonsmooth.hi, dtype=float)
    for _ in range(200):
        x = rng.uniform(-1.0, 1.0, size=3) * hi
        assert eval_F(p, x) >= p.f_lower_bound_hint - 1e-9


def test_l1_generator_sum_strongly_convex():
    for seed in range(5):
        p = make_quadratic_l1(4, 5, seed=seed, lam=0.3)
        S = sum(c.matrix for c in p.components)
        assert np.linalg.eigvalsh(S)[0] >= 0.1 - 1e-12


def _redrawn_until_strongly_convex(N, d, seed):
    """The stack ``make_quadratic_l1`` returned before it shifted spectra: the
    first of 100 draws whose sum reaches the margin, or None.  Each draw is
    that of the generator: per component, eigenvalues uniform in [-0.2, 1]
    planted through the sign-fixed Q of a QR, then a standard normal b."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        A, b = np.empty((N, d, d)), np.empty((N, d))
        for i in range(N):
            lam = rng.uniform(-0.2, 1.0, size=d)
            q, r = np.linalg.qr(rng.standard_normal((d, d)))
            q = q * np.sign(np.diag(r))
            M = (q * lam) @ q.T
            A[i], b[i] = 0.5 * (M + M.T), rng.standard_normal(d)
        stack = A, b, np.zeros(N)
        if np.linalg.eigvalsh(sum_quadratics(*stack)[0])[0] >= 0.1:
            return stack
    return None


def test_l1_generator_shifts_spectra_when_redraws_fail():
    # Two components of dimension 40 reach the margin on 26 of seeds 0-39;
    # seed 15 does not in 100 draws, and seed 9 is the first such seed.
    p = make_quadratic_l1(2, 40, seed=15, lam=0.5)
    assert np.linalg.eigvalsh(p.quadratic_sum[0])[0] >= 0.1
    for comp in p.components:
        eigenvalues = np.linalg.eigvalsh(comp.matrix)
        assert comp.lipschitz == max(float(np.max(np.abs(eigenvalues))), 1e-12)
        assert comp.weak_convexity == max(0.0, float(-eigenvalues[0]))
    for seed in range(12):
        stack = make_quadratic_l1(2, 40, seed=seed, lam=0.5).quadratic_stack
        assert np.linalg.eigvalsh(sum(stack[0]))[0] >= 0.1
        redrawn = _redrawn_until_strongly_convex(2, 40, seed)
        if redrawn is not None:  # a seed that reached the margin keeps its bits
            assert [v.tobytes() for v in stack] == [v.tobytes() for v in redrawn]
        else:
            assert seed == 9


def test_generator_caps():
    with pytest.raises(ValueError):
        make_quadratic_box(1, 500, seed=0)
    with pytest.raises(ValueError):
        make_quadratic_l1(200, 2, seed=0, lam=0.1)


@pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf, -0.5])
def test_box_generator_needs_a_finite_nonnegative_curvature(value):
    with pytest.raises(ValueError, match="negative_curvature must be"):
        make_quadratic_box(3, 2, seed=1, negative_curvature=value)


@pytest.mark.parametrize("make", [lambda seed: make_quadratic_l1(3, 2, seed, lam=0.1),
                                  lambda seed: make_quadratic_box(3, 2, seed)],
                         ids=["l1", "box"])
@pytest.mark.parametrize("seed, message", [(-1, "seed must be nonnegative"),
                                           (2.5, "seed must be an integer, got 2.5"),
                                           (True, "seed must be an integer, got True")])
def test_generators_name_a_bad_seed(make, seed, message):
    # numpy's own messages ("expected non-negative integer") named no field.
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(seed)


@pytest.mark.parametrize("make", [make_quadratic_box, lambda N, d, seed: make_quadratic_l1(
    N, d, seed, lam=0.1)], ids=["box", "l1"])
@pytest.mark.parametrize("N, d, message", [(2.5, 3, "N must be an integer, got 2.5"),
                                           (2, 3.0, "d must be an integer, got 3.0"),
                                           (True, 3, "N must be an integer, got True")],
                         ids=["float-N", "float-d", "bool-N"])
def test_generators_name_a_count_that_is_not_an_integer(make, N, d, message):
    # numpy's "'float' object cannot be interpreted as an integer" and an
    # islice message named no field.
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(N, d, 1)


def test_generators_accept_numpy_integer_counts():
    # The problem kept the dimension as given, so its file could not be written.
    p = make_quadratic_l1(np.int64(2), np.int32(3), np.uint8(1), lam=0.1)
    expected = make_quadratic_l1(2, 3, 1, lam=0.1)
    assert json.dumps(problem_to_dict(p)) == json.dumps(problem_to_dict(expected))


def test_box_generator_builds_at_a_large_negative_curvature():
    # The builder's symmetry check is absolute (1e-12), so the generator has
    # to hand it matrices that are symmetric already: at eigenvalues near
    # -1e5, the rounding of (q * lam) @ q.T alone leaves more than 1e-12.
    p = make_quadratic_box(2, 10, seed=1, negative_curvature=1e5)
    for comp in p.components:
        assert np.array_equal(comp.matrix, comp.matrix.T)
    assert p.components[0].weak_convexity > 1e4


def _generated_bits(problem):
    spec = json.dumps(problem_to_dict(problem), sort_keys=True).encode()
    return hashlib.sha256(spec).hexdigest(), problem.f_lower_bound_hint.hex()


# Exact outputs of the generators, so that a change to the order of the random
# draws shows.  The first l1 case redraws once to reach a strongly convex sum.
@pytest.mark.parametrize("make, expected", [
    (lambda: make_quadratic_l1(2, 3, seed=1, lam=0.5),
     ("04affe09fcc578c021dc154e9de0f1a7854eac80a37c1ca25a13ab9c1955a5a2",
      "-0x1.13fdf83e18b50p+2")),
    (lambda: make_quadratic_l1(2, 3, seed=2, lam=0.5),
     ("bcd1f5a4dc055701e1bb95c67a8c839af2a3507e9a9e159cbb32247dfbf26bb1",
      "-0x1.c18e464d3ed89p+2")),
    (lambda: make_quadratic_box(3, 2, seed=1, negative_curvature=0.5),
     ("f41144f35db11090c9df3ea8bdcc4d69fe90fecc08b4ee479efa7c3ebf76d800",
      "-0x1.1c3958e415416p+7")),
    (lambda: make_quadratic_box(3, 2, seed=2, negative_curvature=0.5),
     ("5299a6857cd1529c89fb724af07f1ae65d601882385453db834cdacb381e0075",
      "-0x1.d3c86fd4de01fp+0")),
], ids=["l1-seed1", "l1-seed2", "box-seed1", "box-seed2"])
def test_generators_draw_the_pinned_problems(make, expected):
    assert _generated_bits(make()) == expected


# ---------------------------------------------------------------- references


def test_one_d_box_stationary_set():
    ref = reference_solution(one_d_box_instance())
    assert ref.method == "kkt_enumeration"
    points = sorted(float(p[0]) for p in ref.points)
    assert points == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)
    values = sorted(ref.objective_values)
    assert values == pytest.approx([-0.5, -0.5, 0.0], abs=1e-12)


def test_reference_points_are_certified():
    p = make_quadratic_box(2, 2, seed=21, negative_curvature=0.7)
    ref = reference_solution(p)
    L, _ = smoothness_totals(p)
    for point in ref.points:
        assert prox_residual(p, 1.0 / L, point) <= 1e-10


def test_l1_one_d_closed_form():
    comp = quadratic_component(np.array([[1.0]]), np.array([-2.0]))
    p = Problem([comp], NonsmoothTerm.l1(1.0), 1)
    ref = reference_solution(p)
    assert ref.method == "fixed_point"
    assert ref.points[0][0] == pytest.approx(1.0, abs=1e-12)
    assert ref.objective_values[0] == pytest.approx(-0.5, abs=1e-12)


def test_l1_zero_weight_reduces_to_linear_solve():
    p = make_quadratic_l1(3, 4, seed=8, lam=0.0)
    ref = reference_solution(p)
    S = sum(c.matrix for c in p.components)
    sb = sum(c.offset for c in p.components)
    assert np.allclose(ref.points[0], np.linalg.solve(S, -sb), atol=1e-9)


def test_smooth_strongly_convex_reference():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((3, 3))
    comp = quadratic_component(m @ m.T + 0.5 * np.eye(3), rng.standard_normal(3))
    p = Problem([comp], NonsmoothTerm.zero(), 3)
    ref = reference_solution(p)
    assert ref.method == "analytic"
    assert np.allclose(comp.matrix @ ref.points[0] + comp.offset, 0.0, atol=1e-10)


def test_reference_unavailable_cases():
    with pytest.raises(ReferenceUnavailableError):
        reference_solution(make_quadratic_box(2, 5, seed=1, negative_curvature=0.2))
    indefinite = Problem([quadratic_component(np.array([[-1.0]]), np.zeros(1))],
                         NonsmoothTerm.l1(0.5), 1)
    with pytest.raises(ReferenceUnavailableError):
        reference_solution(indefinite)


def test_cross_method_agreement_on_l1():
    p = make_quadratic_l1(3, 6, seed=17, lam=0.4)
    ref = reference_solution(p)
    L, l = smoothness_totals(p)
    cfg = SolverConfig(alpha=0.9 / L, schedule=DelaySchedule("none", tau=0),
                       x0=np.zeros(6), max_iters=100000, prox_residual_tol=1e-12)
    mine = solve(p, cfg)
    other = reference_fbs(p, cfg)
    assert np.linalg.norm(mine.final_x - other.final_x) <= 1e-8
    assert np.linalg.norm(mine.final_x - ref.points[0]) <= 1e-8


# ---------------------------------------------------------------- distances


def test_dist_examples():
    ref = reference_solution(one_d_box_instance())
    assert dist_to_stationary(np.array([1.0]), ref) == 0.0
    assert dist_to_stationary(np.array([0.4]), ref) == pytest.approx(0.4, abs=1e-12)


def test_dist_refuses_a_point_of_another_dimension():
    # Broadcasting would measure a scalar or a one-entry point against
    # every entry of each 4-d reference point.
    ref = reference_solution(make_quadratic_l1(3, 4, seed=1, lam=0.1))
    for x in (0.5, [0.5], np.zeros(5)):
        with pytest.raises(ValueError, match="dimension mismatch: expected 4"):
            dist_to_stationary(x, ref)


def test_dist_requires_points():
    empty = ReferenceSolution(points=[], objective_values=[], method="analytic")
    with pytest.raises(ValueError, match="empty"):
        dist_to_stationary(np.zeros(1), empty)


def _per_point_c0(problem, ref, seed):
    """``fit_error_bound_constant`` as a loop that draws and measures one
    sample at a time."""
    L, _ = smoothness_totals(problem)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(200):
        x = ref.points[i % len(ref.points)] + 0.5 * rng.uniform(0.01, 1.0) * rng.standard_normal(
            problem.dimension)
        if problem.nonsmooth.kind == "box":
            x = np.clip(x, problem.nonsmooth.lo, problem.nonsmooth.hi)
        residual = prox_residual(problem, 1.0 / L, x)
        if residual > 1e-12:
            worst = max(worst, dist_to_stationary(x, ref) / residual)
    return max(2.0 * worst, 1e-6)


@pytest.mark.parametrize("make", [
    lambda: make_quadratic_box(3, 2, seed=5, negative_curvature=0.8),
    lambda: make_quadratic_box(2, 3, seed=6, negative_curvature=0.3),
    lambda: make_quadratic_l1(4, 7, seed=7, lam=0.3),
    lambda: Problem(make_quadratic_l1(3, 5, seed=8, lam=0.1).components, NonsmoothTerm.zero(), 5),
], ids=["box-2d", "box-3d", "l1", "zero"])
def test_stacked_reference_and_c0_are_the_per_point_values(make):
    p = make()
    ref = reference_solution(p)
    L, _ = smoothness_totals(p)
    assert all(prox_residual(p, 1.0 / L, x) <= 1e-10 for x in ref.points)
    assert ref.objective_values == [eval_F(p, x) for x in ref.points]
    for seed in (0, 3):
        assert fit_error_bound_constant(p, ref, seed=seed) == _per_point_c0(p, ref, seed)


def test_error_bound_cross_check():
    p = make_quadratic_box(2, 2, seed=33, negative_curvature=0.5)
    ref = reference_solution(p)
    c0 = fit_error_bound_constant(p, ref, seed=1)
    assert math.isfinite(c0) and c0 > 0
    L, _ = smoothness_totals(p)
    rng = np.random.default_rng(2)
    lo = np.broadcast_to(np.asarray(p.nonsmooth.lo, float), (2,))
    hi = np.broadcast_to(np.asarray(p.nonsmooth.hi, float), (2,))
    for _ in range(100):
        base = ref.points[rng.integers(0, len(ref.points))]
        x = np.clip(base + 0.25 * rng.standard_normal(2), lo, hi)
        for alpha in (1.0 / L, 0.5 / L, 0.1 / L):
            residual = prox_residual(p, alpha, x)
            if residual <= 1e-13:
                continue
            assert dist_to_stationary(x, ref) <= (c0 / (alpha * L)) * residual * (1 + 1e-9)


# ---------------------------------------------------------------- grid oracle


def _residual_grid(p, scale, xs, ys, lo, hi):
    S = sum(c.matrix for c in p.components)
    sb = sum(c.offset for c in p.components)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    moved = pts - scale * (pts @ S + sb)
    clipped = np.clip(moved, lo, hi)
    return pts, np.linalg.norm(clipped - pts, axis=1)


def _refine_by_pattern_search(p, scale, x0, step=1e-3, rounds=45):
    x = np.asarray(x0, dtype=float)
    best = prox_residual(p, scale, x)
    for _ in range(rounds):
        improved = False
        for j in range(x.size):
            for sign in (1.0, -1.0):
                cand = x.copy()
                cand[j] += sign * step
                val = prox_residual(p, scale, cand)
                if val < best:
                    x, best, improved = cand, val, True
        if not improved:
            step *= 0.5
    return x, best


def test_two_d_box_grid_oracle():
    # small hand-made instance so the grid covers the whole box
    A1 = np.array([[1.0, 0.3], [0.3, -0.6]])
    A2 = np.array([[0.4, -0.2], [-0.2, 0.8]])
    comps = [quadratic_component(A1, np.array([0.3, -0.1])),
             quadratic_component(A2, np.array([-0.2, 0.4]))]
    p = Problem(comps, NonsmoothTerm.box(-2.0, 2.0), 2)
    ref = reference_solution(p)
    L, _ = smoothness_totals(p)
    scale = 1.0 / L

    xs = np.arange(-2.0, 2.0 + 5e-4, 1e-3)
    hits = []
    low_res_far = 0
    for chunk in np.array_split(xs, 8):
        pts, res = _residual_grid(p, scale, chunk, xs, -2.0, 2.0)
        small = res <= 1e-4
        for q in pts[small]:
            if min(np.linalg.norm(q - r) for r in ref.points) > 0.05:
                low_res_far += 1
        for r in ref.points:
            near = np.linalg.norm(pts - r, axis=1) <= 2e-3
            if np.any(near):
                hits.append(float(res[near].min()))
    assert low_res_far == 0  # no spurious near-stationary region
    assert len(hits) >= len(ref.points)
    assert max(hits) <= 1e-2  # residual is small next to every reference point

    # local refinement from the grid recovers each point to high accuracy
    for r in ref.points:
        refined, residual = _refine_by_pattern_search(p, scale, r + 8e-4)
        assert residual <= 1e-7
        assert np.linalg.norm(refined - r) <= 1e-4
