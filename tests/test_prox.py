import numpy as np
import pytest

from piag import (NonsmoothTerm, Problem, SmoothComponent,
                  check_prox_scaling_monotonicity, prox, prox_residual)
from piag.problems import make_quadratic_box, make_quadratic_l1

from helpers import grid_argmin, prox_scalar_oracle


def scalar_problem(factor, nonsmooth):
    comp = SmoothComponent(
        value=lambda x: 0.5 * factor * float(np.dot(x, x)),
        grad=lambda x: factor * x,
        lipschitz=abs(factor) if factor else 1e-9,
        weak_convexity=max(0.0, -factor),
    )
    return Problem([comp], nonsmooth, 1)


ALL_KINDS = [
    NonsmoothTerm.zero(),
    NonsmoothTerm.l1(0.8),
    NonsmoothTerm.box(-1.2, 0.9),
    NonsmoothTerm.box_plus_l1(-1.2, 0.9, 0.5),
]


def test_prox_zero_is_identity():
    y = np.array([2.5, -0.3, 0.0])
    assert np.array_equal(prox(NonsmoothTerm.zero(), y, 0.7), y)


def test_prox_l1_soft_threshold_with_oracle():
    term = NonsmoothTerm.l1(1.0)
    out = prox(term, np.array([2.5, -0.3]), 1.0)
    assert np.allclose(out, [1.5, 0.0], atol=0)
    for anchor in (2.5, -0.3, 0.99999, -1.00001):
        expected = prox_scalar_oracle(lambda v: abs(v), anchor, 1.0)
        got = prox(term, np.array([anchor]), 1.0)[0]
        assert got == pytest.approx(expected, abs=1e-8)


def test_prox_box_clamp_with_oracle():
    term = NonsmoothTerm.box(-1.0, 1.0)
    out = prox(term, np.array([3.0, -0.2]), 0.5)
    assert np.allclose(out, [1.0, -0.2], atol=0)

    for anchor in (3.0, -0.2, -5.0, 0.4):
        # the indicator restricts the search to the box itself
        expected = prox_scalar_oracle(lambda v: 0.0, anchor, 0.5, domain=(-1.0, 1.0))
        got = prox(term, np.array([anchor]), 0.5)[0]
        assert got == pytest.approx(expected, abs=1e-8)


def test_prox_box_plus_l1_matches_grid_oracle():
    term = NonsmoothTerm.box_plus_l1(-1.0, 1.0, 1.0)
    got = prox(term, np.array([2.5]), 1.0)[0]
    assert got == pytest.approx(1.0, abs=0)

    for anchor in (2.5, 0.7, -0.4, -3.0):
        def objective(xs, y=anchor):
            return np.abs(xs) + (xs - y) ** 2 / 2.0
        expected = grid_argmin(objective, -1.0, 1.0, 1e-6)
        got = prox(term, np.array([anchor]), 1.0)[0]
        assert got == pytest.approx(expected, abs=2e-6)


def test_prox_soft_threshold_tie_maps_to_zero():
    out = prox(NonsmoothTerm.l1(1.0), np.array([1.0, -1.0]), 1.0)
    assert np.array_equal(out, [0.0, 0.0])


def test_prox_rejects_nonpositive_scale():
    with pytest.raises(ValueError, match="scale"):
        prox(NonsmoothTerm.zero(), np.zeros(2), 0.0)


def test_prox_nonexpansive_all_kinds():
    rng = np.random.default_rng(13)
    for term in ALL_KINDS:
        for _ in range(50):
            y1 = rng.standard_normal(4) * 3
            y2 = rng.standard_normal(4) * 3
            scale = rng.uniform(0.05, 4.0)
            gap = np.linalg.norm(prox(term, y1, scale) - prox(term, y2, scale))
            assert gap <= np.linalg.norm(y1 - y2) * (1 + 1e-12) + 1e-15


def test_prox_optimality_certificates():
    rng = np.random.default_rng(19)
    lam, lo, hi = 0.8, -1.2, 0.9
    for _ in range(50):
        y = rng.standard_normal(5) * 2
        scale = rng.uniform(0.1, 2.0)
        # l1: (y - z)/scale must be a subgradient of lam * |.| at z
        z = prox(NonsmoothTerm.l1(lam), y, scale)
        v = (y - z) / scale
        on = np.abs(z) > 0
        assert np.allclose(v[on], lam * np.sign(z[on]), atol=1e-12)
        assert np.all(np.abs(v[~on]) <= lam + 1e-12)
        # box: (y - z)/scale must sit in the normal cone at z
        z = prox(NonsmoothTerm.box(lo, hi), y, scale)
        v = (y - z) / scale
        assert np.all(v[np.abs(z - lo) > 1e-14] >= -1e-12)
        assert np.all(v[np.abs(z - hi) > 1e-14] <= 1e-12)
        interior = (np.abs(z - lo) > 1e-14) & (np.abs(z - hi) > 1e-14)
        assert np.allclose(v[interior], 0.0, atol=1e-12)


# ---------------------------------------------------------------- residual


def test_prox_residual_zero_at_stationary_point():
    p = scalar_problem(1.0, NonsmoothTerm.zero())
    assert prox_residual(p, 0.3, np.array([0.0])) == 0.0


def test_prox_residual_gradient_step_hand_value():
    p = scalar_problem(1.0, NonsmoothTerm.zero())
    assert prox_residual(p, 0.5, np.array([1.0])) == pytest.approx(0.5, abs=0)


def test_prox_residual_boundary_stationary_point():
    p = scalar_problem(-1.0, NonsmoothTerm.box(-1.0, 1.0))
    assert prox_residual(p, 0.1, np.array([1.0])) == 0.0


# ---------------------------------------------------------------- monotonicity


def test_scaling_monotonicity_constant_for_zero_term():
    p = scalar_problem(1.0, NonsmoothTerm.zero())
    x = np.array([2.0])
    grid = [0.1, 0.5, 1.0, 2.0]
    assert check_prox_scaling_monotonicity(p, x, grid)
    # with h = 0 the scaled residual equals ||grad f(x)|| for every t
    for t in grid:
        assert prox_residual(p, t, x) / t == pytest.approx(2.0, abs=1e-12)


def test_scaling_monotonicity_l1_example_against_oracle():
    p = scalar_problem(1.0, NonsmoothTerm.l1(1.0))
    x = np.array([2.0])
    grid = [0.1, 0.5, 1.0]
    assert check_prox_scaling_monotonicity(p, x, grid)
    values = []
    for t in grid:
        anchor = 2.0 - t * 2.0
        z = prox_scalar_oracle(lambda v: abs(v), anchor, t)
        values.append(abs(z - 2.0) / t)
    assert all(b <= a + 1e-7 for a, b in zip(values, values[1:]))


def test_scaling_monotonicity_randomized_draws():
    rng = np.random.default_rng(101)
    for trial in range(40):
        if trial % 2 == 0:
            p = make_quadratic_box(rng.integers(1, 4), rng.integers(1, 5), seed=trial,
                                   negative_curvature=0.5)
        else:
            p = make_quadratic_l1(rng.integers(1, 4), rng.integers(1, 5), seed=trial,
                                  lam=0.4)
        x = rng.standard_normal(p.dimension)
        grid = np.sort(rng.uniform(0.01, 5.0, size=10))
        assert check_prox_scaling_monotonicity(p, x, grid)


@pytest.mark.parametrize("kind", ["zero", "l1", "box", "box_plus_l1"])
def test_scaling_monotonicity_reads_the_prox_residual(kind):
    # With tol 0 on the flat stretches of t -> residual / t, rounding decides
    # the answer, so it matches only if both read the same residual bits.
    rng = np.random.default_rng(23)
    terms = {"zero": NonsmoothTerm.zero(), "l1": NonsmoothTerm.l1(0.3),
             "box": NonsmoothTerm.box(-np.inf, 0.4),
             "box_plus_l1": NonsmoothTerm.box_plus_l1(-0.5, np.inf, 0.3)}
    for trial in range(30):
        d = int(rng.integers(1, 6))
        comps = make_quadratic_l1(int(rng.integers(2, 5)), d, seed=trial, lam=0.1).components
        p = Problem(comps, terms[kind], d)
        x = rng.standard_normal(d)
        grid = np.sort(rng.uniform(0.01, 2.0, size=8))
        values = [prox_residual(p, t, x) / t for t in grid]
        for tol in (0.0, 1e-10, -1e-3):
            expected = all(b <= a + tol for a, b in zip(values, values[1:]))
            assert check_prox_scaling_monotonicity(p, x, grid, tol=tol) == expected


def test_scaling_monotonicity_grid_validation():
    p = scalar_problem(1.0, NonsmoothTerm.zero())
    with pytest.raises(ValueError, match="nonempty"):
        check_prox_scaling_monotonicity(p, np.array([1.0]), [])
    with pytest.raises(ValueError, match="positive"):
        check_prox_scaling_monotonicity(p, np.array([1.0]), [-1.0, 1.0])
    with pytest.raises(ValueError, match="ascending"):
        check_prox_scaling_monotonicity(p, np.array([1.0]), [1.0, 0.5])
