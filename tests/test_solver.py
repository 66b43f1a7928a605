import contextlib
import dataclasses
import math
import os
import subprocess
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

import piag.model
import piag.solver
from piag import (DelaySchedule, GradientTable, NonsmoothTerm, Problem, QuadraticComponent,
                  SmoothComponent, SolverConfig, check_step_recursion_coefficient, piag_step,
                  prox_residual, quadratic_component, rate_constants, reference_fbs, solve,
                  stepsize_threshold)
from piag.delay import SCHEDULE_KINDS
from piag.problems import make_quadratic_box, make_quadratic_l1
from piag.solver import read_iterates_csv, write_iterates_csv


def scalar_problem(factor, nonsmooth):
    return Problem([quadratic_component(np.array([[float(factor)]]), np.zeros(1))],
                   nonsmooth, 1)


# ---------------------------------------------------------------- thresholds


def test_stepsize_threshold_hand_values():
    assert stepsize_threshold(2.0, 0.0, 0) == pytest.approx(1.0, abs=0)
    assert stepsize_threshold(4.0, 2.0, 1) == pytest.approx(0.1, rel=1e-15)


def test_stepsize_threshold_monotone():
    rng = np.random.default_rng(1)
    for _ in range(200):
        L = rng.uniform(0.1, 50.0)
        l = rng.uniform(0.0, 1.0) * L
        tau = int(rng.integers(0, 12))
        base = stepsize_threshold(L, l, tau)
        assert stepsize_threshold(L, l, tau + 1) < base
        assert stepsize_threshold(L * 1.5, l, tau) < base


def test_stepsize_threshold_validation():
    with pytest.raises(ValueError):
        stepsize_threshold(0.0, 0.0, 1)
    with pytest.raises(ValueError):
        stepsize_threshold(1.0, 2.0, 1)
    with pytest.raises(ValueError):
        stepsize_threshold(1.0, 0.0, -1)


@pytest.mark.parametrize("tau", [1.5, 2.0, True, "1"])
def test_the_threshold_and_constants_take_an_integer_tau(tau):
    # The threshold is defined for an integer tau; 1.5 gave 0.32.
    for call in (lambda: stepsize_threshold(1.0, 0.0, tau),
                 lambda: rate_constants(1.0, 0.0, tau, 1.0)):
        with pytest.raises(ValueError, match="^tau must be an integer, got "):
            call()
    assert rate_constants(1.0, 0.0, np.int64(3), 1.0) == rate_constants(1.0, 0.0, 3, 1.0)


# ---------------------------------------------------------------- constants


def test_constants_zero_delay_forms():
    tc = rate_constants(3.0, 1.0, 0, 2.0)
    assert tc.c1 == pytest.approx(1.5)
    assert tc.c2 == pytest.approx(2.0)
    assert tc.c7 == tc.c6  # zero delay collapses the window bound


def test_constants_hand_values():
    tc = rate_constants(1.0, 0.0, 1, 1.0)
    assert tc.c5 == pytest.approx(2.0, abs=0)
    assert tc.c6 == pytest.approx(3.0, abs=0)
    assert tc.c7 == pytest.approx(9.0, abs=0)


def test_constants_against_symbolic_evaluation():
    import sympy

    Ls, ls, taus, c0s = sympy.symbols("Ls ls taus c0s", positive=True)
    sym = {
        "c1": Ls * (taus + 1) / 2,
        "c2": (ls + Ls) * (taus + 1) / 2,
        "c3": (c0s**2 * (2 * ls * (taus + 1) + Ls) + Ls * taus) / (2 * Ls**2),
        "c4": ((ls + Ls) * (1 + taus) + 2 * taus * (ls + Ls + ls * taus) * c0s**2)
              / (2 * Ls**2),
        "c5": ls + Ls + ls * taus + Ls * taus / 2 + Ls * taus / (2 * c0s**2),
        "c6": ((taus + 1) * (ls + Ls) / c0s**2
               + 2 * ls * taus**2 + 3 * ls * taus + ls + 3 * Ls * taus + Ls) / 2,
    }
    sym["c7"] = sym["c6"] * (1 + taus * (1 + 1 / c0s**2) ** taus)
    Lbar, lbar = Ls * (taus + 1) / 2, ls * (taus + 1) / 2
    sym["step_threshold"] = 1 / (Lbar + taus * (lbar + Lbar))
    rng = np.random.default_rng(2)
    for _ in range(20):
        L = float(rng.uniform(0.5, 10.0))
        l = float(rng.uniform(0.0, 1.0)) * L
        tau = int(rng.integers(0, 8))
        c0 = float(rng.uniform(0.2, 5.0))
        tc = rate_constants(L, l, tau, c0)
        subs = {Ls: L, ls: l, taus: tau, c0s: c0}
        values = {name: expr.subs(subs) for name, expr in sym.items()}
        values["c8"] = sympy.Min(values["step_threshold"],
                                 1 / (2 * values["c5"] + 2 * values["c7"]), 1 / Ls.subs(subs))
        for name, value in values.items():
            assert getattr(tc, name) == pytest.approx(float(value), rel=1e-12), name
        assert stepsize_threshold(L, l, tau) == tc.step_threshold


def test_the_constants_are_exact_on_fractions_and_their_floats_lie_near():
    # The threshold and the chain are plain arithmetic, so Fraction inputs
    # give each constant exactly; the float chain of the same inputs lies
    # within 16 ulps of it (9.6 at worst in this sample, at c7).
    rng = np.random.default_rng(12)
    for _ in range(300):
        L = float(rng.uniform(0.05, 80.0))
        l = float(rng.uniform(0.0, 1.0)) * L
        tau = int(rng.integers(0, 11))
        c0 = float(rng.uniform(0.01, 100.0))
        exact = rate_constants(Fraction(L), Fraction(l), tau, Fraction(c0))
        rounded = rate_constants(L, l, tau, c0)
        assert stepsize_threshold(Fraction(L), Fraction(l), tau) == exact.step_threshold
        for name in (f.name for f in dataclasses.fields(exact) if f.name != "tau"):
            value = getattr(exact, name)
            assert type(value) is Fraction, name
            error = abs(Fraction(getattr(rounded, name)) - value)
            assert error <= 16 * Fraction(math.ulp(float(value))), name
        if tau >= 1:
            assert check_step_recursion_coefficient(exact, exact.c8)


def test_cap_below_inverse_lipschitz_and_threshold():
    rng = np.random.default_rng(3)
    for _ in range(300):
        L = rng.uniform(0.05, 80.0)
        l = rng.uniform(0.0, 1.0) * L
        tau = int(rng.integers(0, 11))
        c0 = rng.uniform(0.01, 100.0)
        tc = rate_constants(L, l, tau, c0)
        assert tc.c8 <= 1.0 / L + 1e-15
        assert tc.c8 <= tc.step_threshold + 1e-15


def test_contraction_factor_in_unit_interval():
    tc = rate_constants(2.0, 0.5, 3, 1.5)
    for alpha in (1e-6, 0.01, tc.c8, 10.0):
        a = tc.contraction(alpha)
        assert 0.0 < a < 1.0


def test_constants_validation():
    with pytest.raises(ValueError):
        rate_constants(1.0, 0.0, 1, 0.0)


@pytest.mark.parametrize("c0", [1e-155, 1e-170, 5e-324, 1.49e-154, 1.35e154, 1e300, math.inf])
def test_constants_refuse_a_c0_whose_square_is_not_a_normal_float(c0):
    # 1e-170 divided by zero: c0 * c0 underflows.
    with pytest.raises(ValueError, match="c0"):
        rate_constants(3.0, 1.0, 2, c0)
    with pytest.raises(ValueError, match="c0"):
        base_config(np.zeros(2), c0=c0)


@pytest.mark.parametrize("tau", [0, 2])
@pytest.mark.parametrize("c0", [1.5e-154, 1.3e154])
def test_constants_at_the_ends_of_the_c0_range_raise_nothing(tau, c0):
    tc = rate_constants(3.0, 1.0, tau, c0)
    assert 0.0 <= tc.c8 <= tc.step_threshold
    for alpha in (1e-300, 1e-3, 1e300):
        assert 0.0 <= tc.contraction(alpha) <= 1.0


def test_contraction_of_a_huge_step_is_zero():
    # (L * alpha / c0) ** 2 raised OverflowError.
    assert rate_constants(3.0, 1.0, 2, 1.0).contraction(1e300) == 0.0


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
def test_contraction_needs_a_positive_stepsize(alpha):
    # It gave 1.0 at alpha 0, 0.5 at alpha -1, and NaN.
    with pytest.raises(ValueError, match="stepsize must be positive"):
        rate_constants(3.0, 1.0, 2, 1.0).contraction(alpha)


# ---------------------------------------------------------------- piag_step


def test_step_gradient_descent_identity():
    p = scalar_problem(1.0, NonsmoothTerm.zero())
    table = GradientTable(p, np.array([1.0]), tau=0)
    out = piag_step(p, table, np.array([1.0]), 0.1, {0})
    assert out[0] == pytest.approx(0.9, abs=0)


def test_step_nonconvex_box_interior():
    p = scalar_problem(-1.0, NonsmoothTerm.box(-1.0, 1.0))
    table = GradientTable(p, np.array([0.5]), tau=0)
    out = piag_step(p, table, np.array([0.5]), 0.1, {0})
    assert out[0] == pytest.approx(0.55, abs=0)


def test_step_rejects_bad_alpha():
    p = scalar_problem(1.0, NonsmoothTerm.zero())
    table = GradientTable(p, np.zeros(1), tau=0)
    with pytest.raises(ValueError):
        piag_step(p, table, np.zeros(1), -0.1, {0})


# ---------------------------------------------------------------- solve


def base_config(x0, **kw):
    defaults = dict(alpha=0.5, schedule=DelaySchedule("none", tau=0), x0=x0,
                    max_iters=200, prox_residual_tol=1e-8, keep_iterates=True)
    defaults.update(kw)
    return SolverConfig(**defaults)


def test_solve_geometric_contraction():
    p = Problem([quadratic_component(np.eye(2), np.zeros(2))], NonsmoothTerm.zero(), 2)
    trace = solve(p, base_config(np.ones(2), check_every=1))
    assert trace.termination == "converged"
    assert trace.iterations <= 30
    # closed form: x_k = 0.5^k * (1, 1), so F(x_k) = 0.25^k
    for k, f in enumerate(trace.objective_values):
        assert f == pytest.approx(0.25**k, rel=1e-12)
    assert trace.final_residual < 1e-8


def test_solve_nonconvex_box_reaches_boundary():
    p = scalar_problem(-1.0, NonsmoothTerm.box(-1.0, 1.0))
    trace = solve(p, base_config(np.array([0.3]), alpha=0.05, max_iters=2000))
    assert trace.termination == "converged"
    assert trace.final_x[0] == pytest.approx(1.0, abs=1e-10)
    assert trace.final_objective == pytest.approx(-0.5, abs=1e-10)
    xs = trace.iterates[:, 0]
    assert np.all(np.diff(xs) >= 0)  # monotone climb to the boundary


def test_solve_stationary_start_terminates_immediately():
    p = scalar_problem(1.0, NonsmoothTerm.zero())
    trace = solve(p, base_config(np.zeros(1)))
    assert trace.termination == "converged"
    assert trace.iterations == 0
    assert trace.records[0].prox_residual == 0.0


def test_fixed_point_of_iteration_is_exact():
    p = scalar_problem(-1.0, NonsmoothTerm.box(-1.0, 1.0))
    x = np.array([1.0])
    assert prox_residual(p, 0.1, x) == 0.0
    table = GradientTable(p, x, tau=0)
    out = piag_step(p, table, x, 0.1, {0})
    assert np.array_equal(out, x)


def test_solve_divergence_detected():
    p = scalar_problem(-1.0, NonsmoothTerm.zero())  # unbounded below
    with pytest.warns(RuntimeWarning, match="overflow encountered"):
        trace = solve(p, base_config(np.array([1.0]), alpha=5.0, max_iters=100000))
    assert trace.termination == "diverged"


def test_solve_validates_start_point():
    p = scalar_problem(1.0, NonsmoothTerm.box(-1.0, 1.0))
    with pytest.raises(ValueError, match="domain"):
        solve(p, base_config(np.array([2.0])))
    for nonsmooth in (NonsmoothTerm.zero(), NonsmoothTerm.l1(0.5), NonsmoothTerm.box(-1.0, 1.0)):
        for runner in (solve, reference_fbs):
            with pytest.raises(ValueError, match="x0 must be finite"):
                runner(scalar_problem(1.0, nonsmooth), base_config(np.array([math.nan])))


def test_an_infinite_x0_is_refused_before_any_component_gradient():
    # solve built its gradient table at x0 first: N component gradients, and
    # numpy's "invalid value encountered in matmul" before the ValueError.
    quadratic = make_quadratic_l1(6, 12, seed=1, lam=1.0)
    calls = []

    def counted(grad):
        return lambda x: calls.append(x) or grad(x)

    callable_problem = Problem([SmoothComponent(c.value, counted(c.grad), c.lipschitz,
                                                c.weak_convexity)
                                for c in quadratic.components], quadratic.nonsmooth, 12)
    for problem in (quadratic, callable_problem):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="x0 must be finite"):
                solve(problem, base_config(np.full(12, np.inf),
                                           schedule=DelaySchedule("cyclic", tau=2, block=2)))
    assert calls == []


def test_solve_stepsize_specs():
    p = make_quadratic_l1(2, 3, seed=4, lam=0.3)
    cfg = base_config(np.zeros(3), alpha="auto_lemma2", max_iters=4000)
    trace = solve(p, cfg)
    assert trace.termination == "converged"
    with pytest.raises(ValueError, match="c0"):
        solve(p, base_config(np.zeros(3), alpha="auto_c8"))
    trace = solve(p, base_config(np.zeros(3), alpha="auto_c8", c0=2.0,
                                 max_iters=200000))
    assert trace.termination in ("converged", "max_iters")
    with pytest.raises(ValueError, match="stepsize"):
        solve(p, base_config(np.zeros(3), alpha="auto_fast"))


def test_enforce_theory_tightens_stepsize():
    p = make_quadratic_l1(2, 3, seed=5, lam=0.3)
    cfg = base_config(np.zeros(3), alpha=0.5, enforce_theory=True, c0=1.0,
                      max_iters=10)
    trace = solve(p, cfg)
    tc = rate_constants(*__import__("piag").smoothness_totals(p), 0, 1.0)
    assert trace.alpha == pytest.approx(tc.c8)
    assert any("tightened" in w for w in trace.warnings)


@pytest.mark.parametrize("alpha", [0.5, "auto_lemma2"])
def test_enforce_theory_needs_c0(alpha):
    p = scalar_problem(1.0, NonsmoothTerm.zero())
    with pytest.raises(ValueError, match="enforce_theory requires the error-bound constant c0"):
        solve(p, base_config(np.ones(1), alpha=alpha, enforce_theory=True))


def test_warning_recorded_above_threshold():
    p = scalar_problem(1.0, NonsmoothTerm.zero())  # threshold is 2.0 here
    trace = solve(p, base_config(np.array([1.0]), alpha=2.0, max_iters=50))
    assert any("threshold" in w for w in trace.warnings)


def test_trace_record_structure():
    p = make_quadratic_box(3, 2, seed=6, negative_curvature=0.4)
    sched = DelaySchedule("cyclic", tau=3, block=1)
    trace = solve(p, base_config(np.zeros(2), alpha="auto_lemma2", schedule=sched,
                                 max_iters=500, trace_every=50))
    ks = [r.k for r in trace.records]
    assert ks == sorted(set(ks))  # strictly increasing
    assert set(range(min(4, len(ks)))) <= set(ks)  # first tau + 1 present
    assert ks[-1] == trace.iterations
    for r in trace.records:
        assert r.step_norm >= 0.0 and r.delta >= 0.0
        assert 0 <= r.max_staleness <= 3


def _overflowing_gradient_problem():
    """``0.5 x^2`` on the box [-10, 10], with a gradient that is infinite past
    |x| = 3.  F stays finite and the box clamps the residual's step, so a check
    passes there and the next step raises ``DivergenceError``."""
    def grad(x):
        return x if abs(x[0]) < 3.0 else np.full(1, np.inf)

    return Problem([SmoothComponent(lambda x: 0.5 * float(x @ x), grad, 1.0)],
                   NonsmoothTerm.box(-10.0, 10.0), 1)


# x0 = 1 on 0.5 x^2: alpha 0.5 halves x (the residual x/2 passes 1e-8 at the
# check at k = 27), alpha 5 multiplies it by -4 (F passes the divergence
# margin at the check at k = 20), and alpha 3 multiplies it by -2.
_HALF_SQUARE = scalar_problem(1.0, NonsmoothTerm.zero())
_ENDINGS = {
    "converged at a check": (_HALF_SQUARE, dict(check_every=3), "converged", 27),
    "diverged at a check": (_HALF_SQUARE, dict(alpha=5.0), "diverged", 20),
    "step raises": (_overflowing_gradient_problem(), dict(alpha=3.0, check_every=1),
                    "diverged", 2),
    "budget spent": (_HALF_SQUARE, dict(max_iters=7), "max_iters", 7),
    "no iterations": (_HALF_SQUARE, dict(max_iters=0), "max_iters", 0),
}


@pytest.mark.parametrize("runner", [solve, reference_fbs])
@pytest.mark.parametrize("ending", _ENDINGS)
def test_every_ending_writes_one_terminal_record_last(runner, ending):
    p, settings, termination, iterations = _ENDINGS[ending]
    trace = runner(p, base_config(np.ones(1), trace_every=1, **settings))
    assert trace.termination == termination
    assert trace.iterations == iterations
    ks = [r.k for r in trace.records]
    assert all(a < b for a, b in zip(ks, ks[1:]))
    assert [r.k for r in trace.records if r.step_norm == 0.0] == [trace.iterations]
    assert ks[-1] == trace.iterations
    at_last = prox_residual(p, trace.alpha, trace.final_x)
    assert trace.records[-1].prox_residual == (math.inf if ending == "step raises" else at_last)


# (9, 1): numpy sums an (N, 1) column pairwise from N = 8 on, rows in order otherwise.
@pytest.mark.parametrize("n, d", [(4, 8), (9, 1)])
def test_zero_delay_bitwise_equivalence(n, d):
    p = make_quadratic_l1(n, d, seed=7, lam=0.2)
    cfg = base_config(np.zeros(d), alpha="auto_lemma2", max_iters=300,
                      prox_residual_tol=0.0)
    mine = solve(p, cfg)
    ref = reference_fbs(p, cfg)
    assert np.array_equal(mine.iterates, ref.iterates)
    assert mine.records == ref.records


def test_the_zero_delay_gate_sees_rows_that_are_not_the_component_gradients():
    # The table's rows come from the matrices and reference_fbs's gradient
    # from each component's grad, so components whose two disagree split
    # the trajectories.
    comps = [QuadraticComponent(lambda x: 0.0, lambda x: 2.0 * x + 1.0, 2.0,
                                matrix=np.eye(3), offset=np.ones(3)) for _ in range(2)]
    p = Problem(comps, NonsmoothTerm.l1(0.1), 3)
    cfg = base_config(np.zeros(3), alpha=0.1, max_iters=5, prox_residual_tol=0.0)
    assert not np.array_equal(solve(p, cfg).iterates, reference_fbs(p, cfg).iterates)


def test_config_rejects_out_of_range_settings():
    for bad in (dict(max_iters=-1), dict(prox_residual_tol=-1e-8),
                dict(prox_residual_tol=math.nan), dict(trace_every=0), dict(check_every=0)):
        with pytest.raises(ValueError):
            base_config(np.zeros(2), **bad)


@pytest.mark.parametrize("field", ["max_iters", "trace_every", "check_every"])
@pytest.mark.parametrize("value", [2.5, 2.0, True])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        base_config(np.zeros(2), **{field: value})


@pytest.mark.parametrize("field", ["alpha", "prox_residual_tol", "c0"])
@pytest.mark.parametrize("value", [True, False, 1 + 0j, [0.5]],
                         ids=["true", "false", "complex", "list"])
def test_config_rejects_non_real_numbers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a real number"):
        base_config(np.zeros(2), **{field: value})


def test_config_accepts_numpy_floating_scalars():
    p = Problem([quadratic_component(np.eye(2), np.zeros(2))], NonsmoothTerm.zero(), 2)
    cfg = base_config(np.ones(2), alpha=np.float32(0.5), prox_residual_tol=np.float64(0.0),
                      c0=np.float16(2.0), enforce_theory=True, max_iters=3)
    plain = base_config(np.ones(2), alpha=0.5, prox_residual_tol=0.0, c0=2.0,
                        enforce_theory=True, max_iters=3)
    assert solve(p, cfg).records == solve(p, plain).records


def test_config_keeps_python_numbers():
    cfg = base_config(np.ones(2), alpha=np.float32(0.5), prox_residual_tol=np.int64(0),
                      c0=np.float16(2.0), max_iters=np.int64(3), trace_every=np.int32(1),
                      check_every=np.uint16(2))
    assert [type(getattr(cfg, name)) for name in (
        "max_iters", "trace_every", "check_every", "alpha", "prox_residual_tol", "c0")] == [
        int, int, int, float, float, float]
    assert base_config(np.ones(2), alpha="auto_lemma2").alpha == "auto_lemma2"


def test_config_accepts_numpy_integer_counts():
    p = Problem([quadratic_component(np.eye(2), np.zeros(2))], NonsmoothTerm.zero(), 2)
    cfg = base_config(np.ones(2), max_iters=np.int64(3), trace_every=np.int32(1),
                      check_every=np.uint16(2), prox_residual_tol=0.0)
    assert solve(p, cfg).iterations == 3


@pytest.mark.parametrize("runner", [solve, reference_fbs])
def test_objective_evaluated_at_most_once_per_iterate(monkeypatch, runner):
    # The loop reads F only at checks and records, at most once per iterate;
    # a kept log is evaluated once, as one stack, after the loop.  So with
    # the log kept, x0 and each iterate read at a check or a record are
    # evaluated twice: once as a point in the loop and once as a row of the
    # stack.
    calls = []
    real = piag.solver.eval_F

    def counting_eval_F(problem, x):
        calls.append((np.shape(x), real(problem, x)))
        return calls[-1][1]

    monkeypatch.setattr(piag.solver, "eval_F", counting_eval_F)
    p = make_quadratic_l1(5, 20, seed=7, lam=0.3)
    sched = DelaySchedule("cyclic", tau=4, block=2)
    trace = runner(p, base_config(np.zeros(20), alpha="auto_lemma2", schedule=sched,
                                  max_iters=5000))
    assert trace.termination == "converged"
    points = [shape for shape, _ in calls if len(shape) == 1]
    stacks = [(shape, values) for shape, values in calls if len(shape) == 2]
    assert len(points) <= len(trace.records) + 1
    assert [shape for shape, _ in stacks] == [(trace.iterations + 1, 20)]
    assert stacks[0][1] is trace.objective_values
    calls.clear()
    trace = runner(p, base_config(np.zeros(20), alpha="auto_lemma2", schedule=sched,
                                  max_iters=5000, keep_iterates=False))
    assert len(calls) <= len(trace.records) + 1


# Values whose "%.17g" text is easy to get wrong: signed zero, non-finite
# values, subnormals, and the switch points of the exponent notation.
_CSV_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308,
              1e16, -1e16, 1e-5, 1e-4, 0.1, 1.7976931348623157e308, 12345.678, -3.0]


def test_iterate_log_bytes_match_formatting_each_float(tmp_path):
    iterates = np.array([_CSV_EDGES, _CSV_EDGES[::-1], np.arange(len(_CSV_EDGES)) * 1e-3])
    path = tmp_path / "iterates.csv"
    write_iterates_csv(iterates, path)
    d = iterates.shape[1]
    expected = "k," + ",".join(f"x_{j}" for j in range(d)) + "\n" + "".join(
        str(k) + "," + ",".join(format(v, ".17g") for v in row) + "\n"
        for k, row in enumerate(iterates))
    assert path.read_text() == expected
    assert np.array_equal(read_iterates_csv(path), iterates, equal_nan=True)


# --------------------------------------------------- rows shared out on threads


def _started_threads(monkeypatch, cpus: int) -> list:
    """Take the host to have ``cpus`` CPUs; returns the list of the names of
    the threads started from then on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    names, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: names.append(thread.name) or start(thread))
    return names


def _run_bytes(trace) -> tuple:
    records = np.array([dataclasses.astuple(r) for r in trace.records], dtype=float)
    return (trace.iterates.tobytes(), trace.objective_values.tobytes(), records.tobytes(),
            trace.termination, trace.iterations)


@pytest.fixture(scope="module")
def large_l1():
    """13 matrices of 200 x 200: a refresh of seven or more fills 2 MiB, so
    it is shared out across the CPUs (README)."""
    return make_quadratic_l1(13, 200, seed=3, lam=0.2)


@pytest.mark.parametrize("runner, kind", [(solve, kind) for kind in SCHEDULE_KINDS]
                         + [(reference_fbs, "none")])
def test_rows_shared_out_on_threads_give_bitwise_the_same_run(monkeypatch, large_l1, runner,
                                                              kind):
    # Block 7 gives cyclic windows that wrap, so a refresh is two runs; at
    # tau 2, uniform_random and adversarial_max sets are scattered, some of
    # them shared out and some not.
    tau = 0 if kind == "none" else 2
    sched = DelaySchedule(kind, tau=tau, block=7 if kind == "cyclic" else None, seed=5)
    cfg = base_config(np.linspace(-1.0, 1.0, 200), alpha="auto_lemma2", schedule=sched,
                      max_iters=60, prox_residual_tol=0.0, trace_every=1)
    runs = []
    for cpus in (1, 2, 5):
        names = _started_threads(monkeypatch, cpus)
        runs.append(_run_bytes(runner(large_l1, cfg)))
        # reference_fbs sums the components' own gradients in one thread
        assert ("piag-rows" in names) == (cpus > 1 and runner is solve)
    assert runs[0] == runs[1] == runs[2]


def test_a_scattered_refresh_above_the_split_size_is_shared_out(monkeypatch, large_l1):
    # At d = 200 seven lone rows fill 2.1 MiB, at least the split size, and
    # six fill 1.8 MiB, below it (README); the host is taken to have two CPUs.
    names = _started_threads(monkeypatch, 2)
    x = np.random.default_rng(4).standard_normal(200)
    shared = []
    with piag.model.RowThreads() as threads:
        table = GradientTable(large_l1, np.zeros(200), 13, threads)
        for rows in ([0, 2, 4, 6, 8, 10, 12], [1, 3, 5, 7, 9, 11]):
            threads.close()  # the next call that shares out starts new workers
            names.clear()
            table.refresh_and_aggregate(large_l1, x, np.array(rows))
            shared.append("piag-rows" in names)
    assert shared == [True, False]
    expected = np.array([c.grad(x) for c in large_l1.components])
    assert table.entries.tobytes() == expected.tobytes()


def _no_refresh(schedule, k, n, ages=None):
    return np.arange(0)


# How a run on the 13 x 200 problem ends: each way leaves the same threads.
_THREAD_ENDINGS = {
    "converged": (dict(alpha="auto_lemma2", prox_residual_tol=1e-3, max_iters=5000),
                  "converged"),
    "diverged at a check": (dict(alpha=100.0), "diverged"),
    "step overflows": (dict(alpha=1e300, check_every=1000), "diverged"),
    "budget spent": (dict(max_iters=7), "max_iters"),
    "no iterations": (dict(max_iters=0), "max_iters"),
    "delay bound": (dict(schedule=DelaySchedule("adversarial_max", tau=1)), RuntimeError),
    "start point": (dict(x0=np.full(200, np.inf)), ValueError),
}


@pytest.mark.parametrize("runner, ending", [
    (runner, ending) for ending in _THREAD_ENDINGS for runner in (solve, reference_fbs)
    if runner is solve or ending != "delay bound"])  # reference_fbs keeps no table
def test_no_worker_thread_outlives_a_run(monkeypatch, large_l1, runner, ending):
    settings, outcome = _THREAD_ENDINGS[ending]
    if ending == "delay bound":
        monkeypatch.setattr(piag.solver, "next_refresh_set", _no_refresh)
    names = _started_threads(monkeypatch, 3)
    cfg = base_config(**{"x0": np.ones(200), **settings})
    before = threading.enumerate()
    # The step overflows on purpose.  An infinite x0 is refused before the
    # table reads any row at it, so it raises no numpy warning.
    with pytest.warns(RuntimeWarning) if ending == "step overflows" else contextlib.nullcontext():
        if isinstance(outcome, str):
            assert runner(large_l1, cfg).termination == outcome
        else:
            with pytest.raises(outcome):
                runner(large_l1, cfg)
    assert threading.enumerate() == before
    # solve refreshes every row at a good x0 first; reference_fbs starts no thread
    assert ("piag-rows" in names) == (runner is solve and ending != "start point")


def test_saving_a_problem_after_a_solve_forks_no_threaded_process(tmp_path):
    # save_problem forks its encoder processes, which Python 3.12 and later
    # warn against (DeprecationWarning) while another thread is alive.
    code = "\n".join([
        "import os, sys",
        "import numpy as np",
        "from piag import (DelaySchedule, NonsmoothTerm, Problem, QuadraticComponent,",
        "                  SolverConfig, model, solve)",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "A = np.eye(200) + np.diag(np.full(199, 0.25), 1) + np.diag(np.full(199, 0.25), -1)",
        "comps = [QuadraticComponent(lambda x: 0.0, lambda x: x, 1.5 * (k + 1),",
        "                            matrix=(k + 1.0) * A, offset=np.full(200, 0.5))",
        "         for k in range(7)]",
        "p = Problem(comps, NonsmoothTerm.l1(0.1), 200)  # refreshes of 2.2 MiB: shared out",
        "solve(p, SolverConfig(alpha='auto_lemma2', schedule=DelaySchedule('none'),",
        "                      x0=np.zeros(200), max_iters=20))",
        "model.save_problem(p, sys.argv[1])",
    ])
    src = os.path.dirname(os.path.dirname(piag.model.__file__))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, str(tmp_path / "p.json")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "p.json").exists()
