import math

import numpy as np
import pytest

from piag import (NonsmoothTerm, Problem, SmoothComponent, dc_decompose,
                  eval_F, eval_f, grad_f, quadratic_component,
                  smoothness_totals)
from piag.model import load_problem, problem_from_dict, problem_to_dict, save_problem

from helpers import central_diff_grad, quad_value_loops


def half_sq_norm_component(d, factor=1.0):
    scale = abs(factor) if factor != 0 else 1e-9
    return SmoothComponent(
        value=lambda x: 0.5 * factor * float(np.dot(x, x)),
        grad=lambda x: factor * x,
        lipschitz=scale,
        weak_convexity=max(0.0, -factor),
    )


def random_quadratic_problem(rng, n, d, nonsmooth=None):
    comps = []
    for _ in range(n):
        m = rng.standard_normal((d, d))
        A = 0.5 * (m + m.T)
        comps.append(quadratic_component(A, rng.standard_normal(d)))
    return Problem(comps, nonsmooth or NonsmoothTerm.zero(), d)


# ---------------------------------------------------------------- eval_f / eval_F


def test_eval_f_zero_at_origin():
    p = Problem([half_sq_norm_component(2)], NonsmoothTerm.zero(), 2)
    assert eval_f(p, np.zeros(2)) == 0.0


def test_eval_f_hand_sum_two_components():
    p = Problem([half_sq_norm_component(2, 1.0), half_sq_norm_component(2, -0.5)],
                NonsmoothTerm.zero(), 2)
    assert eval_f(p, np.array([2.0, 0.0])) == pytest.approx(1.0, abs=0)


def test_eval_f_matches_loop_summation_oracle():
    rng = np.random.default_rng(42)
    p = random_quadratic_problem(rng, 3, 4)
    for _ in range(10):
        x = rng.standard_normal(4)
        expected = sum(quad_value_loops(c.matrix, c.offset, c.constant, x)
                       for c in p.components)
        assert eval_f(p, x) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_eval_f_dimension_mismatch():
    p = Problem([half_sq_norm_component(2)], NonsmoothTerm.zero(), 2)
    with pytest.raises(ValueError, match="dimension"):
        eval_f(p, np.zeros(3))


def test_eval_F_indicator_outside_domain():
    p = Problem([half_sq_norm_component(1, 0.0)], NonsmoothTerm.box(-1.0, 1.0), 1)
    assert eval_F(p, np.array([2.0])) == math.inf


def test_eval_F_l1_hand_value():
    p = Problem([half_sq_norm_component(1)], NonsmoothTerm.l1(1.0), 1)
    assert eval_F(p, np.array([3.0])) == pytest.approx(7.5, abs=0)


def test_eval_F_equals_eval_f_for_zero_term():
    rng = np.random.default_rng(7)
    p = random_quadratic_problem(rng, 2, 3)
    for _ in range(50):
        x = rng.standard_normal(3)
        assert eval_F(p, x) == eval_f(p, x)


# ---------------------------------------------------------------- dc_decompose


def test_dc_decompose_concave_quadratic():
    comp = half_sq_norm_component(1, -1.0)  # f(x) = -x^2/2, lipschitz 1
    split = dc_decompose(comp, 2.0)
    for x in np.linspace(-3, 3, 13):
        xv = np.array([x])
        assert split.f1.value(xv) == pytest.approx(0.5 * x * x, abs=1e-12)
        assert split.f2.value(xv) == pytest.approx(x * x, abs=1e-12)
    assert split.f1.lipschitz == pytest.approx(3.0)
    assert split.f2.lipschitz == pytest.approx(2.0)


def test_dc_decompose_reproduces_value_and_gradient():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3))
    comp = quadratic_component(0.5 * (m + m.T), rng.standard_normal(3))
    split = dc_decompose(comp, comp.lipschitz + 1.0)
    for _ in range(100):
        x = rng.standard_normal(3)
        diff = split.f1.value(x) - split.f2.value(x)
        assert diff == pytest.approx(comp.value(x), rel=1e-12, abs=1e-12)
        gdiff = split.f1.grad(x) - split.f2.grad(x)
        assert np.allclose(gdiff, comp.grad(x), rtol=1e-10, atol=1e-10)


def test_dc_decompose_zero_function():
    comp = half_sq_norm_component(2, 0.0)  # identically zero, tiny lipschitz
    split = dc_decompose(comp, 1.0)
    x = np.array([1.5, -2.0])
    assert split.f1.value(x) == pytest.approx(split.f2.value(x), abs=1e-12)
    assert split.f1.value(x) == pytest.approx(0.5 * float(np.dot(x, x)), abs=1e-12)


def test_dc_decompose_rejects_small_shift():
    comp = half_sq_norm_component(1, -1.0)
    with pytest.raises(ValueError, match="shift"):
        dc_decompose(comp, 1.0)


def test_dc_split_parts_are_midpoint_convex():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((2, 2))
    comp = quadratic_component(0.5 * (m + m.T), rng.standard_normal(2))
    split = dc_decompose(comp, comp.lipschitz + 0.5)
    for part in (split.f1, split.f2):
        for _ in range(50):
            x, y = rng.standard_normal(2), rng.standard_normal(2)
            mid = part.value(0.5 * (x + y))
            avg = 0.5 * (part.value(x) + part.value(y))
            scale = 1.0 + abs(part.value(x)) + abs(part.value(y))
            assert mid <= avg + 1e-10 * scale


# ---------------------------------------------------------------- totals


def test_smoothness_totals_single():
    comp = SmoothComponent(lambda x: 0.0, lambda x: np.zeros_like(x),
                           lipschitz=4.0, weak_convexity=2.0)
    p = Problem([comp], NonsmoothTerm.zero(), 1)
    assert smoothness_totals(p) == (4.0, 2.0)


def test_smoothness_totals_hand_sum():
    comps = [SmoothComponent(lambda x: 0.0, lambda x: np.zeros_like(x), L, w)
             for L, w in ((1.0, 0.0), (2.0, 1.0), (3.0, 1.0))]
    p = Problem(comps, NonsmoothTerm.zero(), 1)
    assert smoothness_totals(p) == (6.0, 2.0)


def test_smoothness_totals_convex_components():
    rng = np.random.default_rng(5)
    comps = []
    for _ in range(4):
        m = rng.standard_normal((3, 3))
        A = m @ m.T  # PSD, so weak convexity 0
        comps.append(quadratic_component(A, rng.standard_normal(3)))
    _, l = smoothness_totals(Problem(comps, NonsmoothTerm.zero(), 3))
    assert l == 0.0


# ---------------------------------------------------------------- gradients


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    p = random_quadratic_problem(rng, 3, 4)
    for comp in p.components:
        for _ in range(100):
            x = rng.standard_normal(4) * rng.uniform(0.1, 3.0)
            fd = central_diff_grad(comp.value, x)
            g = comp.grad(x)
            denom = max(1.0, float(np.linalg.norm(g)))
            assert np.linalg.norm(fd - g) / denom <= 1e-6


def test_lipschitz_constant_holds_on_sampled_pairs():
    rng = np.random.default_rng(23)
    p = random_quadratic_problem(rng, 3, 5)
    for comp in p.components:
        for _ in range(50):
            x, y = rng.standard_normal(5), rng.standard_normal(5)
            lhs = np.linalg.norm(comp.grad(x) - comp.grad(y))
            assert lhs <= comp.lipschitz * np.linalg.norm(x - y) * (1 + 1e-12)


# ---------------------------------------------------------------- validation


def test_component_constant_validation():
    with pytest.raises(ValueError):
        SmoothComponent(lambda x: 0.0, lambda x: x, lipschitz=1.0, weak_convexity=2.0)
    with pytest.raises(ValueError):
        SmoothComponent(lambda x: 0.0, lambda x: x, lipschitz=0.0)


def test_quadratic_component_requires_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        quadratic_component(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros(2))


def test_quadratic_component_constants():
    comp = quadratic_component(np.array([[-1.0]]), np.zeros(1))
    assert comp.lipschitz == pytest.approx(1.0)
    assert comp.weak_convexity == pytest.approx(1.0)


def test_nonsmooth_validation():
    with pytest.raises(ValueError):
        NonsmoothTerm.l1(-1.0)
    with pytest.raises(ValueError):
        NonsmoothTerm.box(1.0, -1.0)
    with pytest.raises(ValueError):
        NonsmoothTerm(kind="spline")


def test_nonsmooth_value_is_midpoint_convex():
    rng = np.random.default_rng(29)
    terms = [NonsmoothTerm.l1(0.7), NonsmoothTerm.box(-2.0, 2.0),
             NonsmoothTerm.box_plus_l1(-2.0, 2.0, 0.3)]
    for term in terms:
        for _ in range(50):
            x = rng.uniform(-2, 2, size=3)
            y = rng.uniform(-2, 2, size=3)
            mid = term.value(0.5 * (x + y))
            assert mid <= 0.5 * (term.value(x) + term.value(y)) + 1e-10


def test_problem_requires_l_below_L():
    bad = SmoothComponent(lambda x: 0.0, lambda x: x, lipschitz=1.0, weak_convexity=1.0)
    ok = Problem([bad], NonsmoothTerm.zero(), 1)  # l == L is allowed
    assert smoothness_totals(ok) == (1.0, 1.0)


# ---------------------------------------------------------------- problem files


def test_problem_file_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    p = random_quadratic_problem(rng, 2, 3, NonsmoothTerm.box_plus_l1(-1.5, 1.5, 0.25))
    path = tmp_path / "problem.json"
    save_problem(p, path)
    q = load_problem(path)
    assert q.dimension == 3
    assert q.nonsmooth.kind == "box_plus_l1"
    for a, b in zip(p.components, q.components):
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.offset, b.offset)
    x = rng.standard_normal(3)
    assert eval_F(p, x) == eval_F(q, x)


def test_problem_file_rejects_unknown_fields():
    base = {
        "dimension": 1,
        "components": [{"A": [1.0], "b": [0.0]}],
        "nonsmooth": {"kind": "zero"},
    }
    with pytest.raises(ValueError, match="unknown field"):
        problem_from_dict({**base, "extra": 1})
    with pytest.raises(ValueError, match="unknown field"):
        problem_from_dict({**base, "components": [{"A": [1.0], "b": [0.0], "c": 2}]})
    with pytest.raises(ValueError, match="unknown field"):
        problem_from_dict({**base, "nonsmooth": {"kind": "zero", "w": 1}})


def test_problem_file_shape_errors():
    with pytest.raises(ValueError, match="row-major"):
        problem_from_dict({
            "dimension": 2,
            "components": [{"A": [1.0, 0.0, 1.0], "b": [0.0, 0.0]}],
            "nonsmooth": {"kind": "zero"},
        })
    with pytest.raises(ValueError, match="missing"):
        problem_from_dict({"dimension": 1, "components": []})


def test_problem_to_dict_rejects_non_quadratic():
    p = Problem([half_sq_norm_component(1)], NonsmoothTerm.zero(), 1)
    with pytest.raises(ValueError, match="quadratic"):
        problem_to_dict(p)


def test_quadratic_component_rejects_non_finite_data():
    # a NaN must not surface as a symmetry failure, nor an inf as a divergence
    with pytest.raises(ValueError, match="finite"):
        quadratic_component(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        quadratic_component(np.eye(2), np.array([0.0, np.inf]))
    with pytest.raises(ValueError, match="finite"):
        quadratic_component(np.eye(2), np.zeros(2), constant=-np.inf)
