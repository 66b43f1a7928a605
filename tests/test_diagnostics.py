import math
import re
from fractions import Fraction

import numpy as np
import pytest

from piag import (DelaySchedule, NonsmoothTerm, Problem, SolverConfig,
                  Trace, characteristic_root, check_delayed_recursion_rate,
                  check_perturbed_contraction, check_step_recursion_coefficient,
                  check_sufficient_descent, check_summability, delay_window_sums,
                  fit_rlinear_rate,
                  quadratic_component, rate_constants, resolve_stepsize, smoothness_totals,
                  solve, stepsize_threshold, trace_from_iterates)
from piag.diagnostics import AboveThresholdError
from piag.problems import make_quadratic_box, make_quadratic_l1

from helpers import (gen_delayed_recursion_sequence,
                     gen_perturbed_contraction_instance)


def run_random_problem(seed, tau=3, kind="cyclic", iters=300):
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        p = make_quadratic_box(int(rng.integers(1, 6)), int(rng.integers(1, 8)),
                               seed=seed, negative_curvature=0.5)
    else:
        p = make_quadratic_l1(int(rng.integers(1, 6)), int(rng.integers(1, 8)),
                              seed=seed, lam=0.3)
    L, l = smoothness_totals(p)
    if kind == "cyclic":
        sched = DelaySchedule("cyclic", tau=tau,
                              block=math.ceil(p.n_components / (tau + 1)))
    elif kind == "none":
        sched = DelaySchedule("none", tau=0)
    else:
        sched = DelaySchedule(kind, tau=tau, seed=seed)
    cfg = SolverConfig(alpha=0.9 * stepsize_threshold(L, l, sched.tau), schedule=sched,
                       x0=np.zeros(p.dimension), max_iters=iters,
                       prox_residual_tol=0.0, keep_iterates=True)
    constants = rate_constants(L, l, sched.tau, 1.0)
    trace = solve(p, cfg)
    return p, trace, constants, cfg.alpha


# ---------------------------------------------------------------- descent


def test_descent_zero_violations_on_random_runs():
    for seed in range(10):
        _, trace, constants, alpha = run_random_problem(seed, tau=(seed % 4))
        report = check_sufficient_descent(trace, constants, alpha)
        assert report.violations == 0
        assert report.checked == trace.iterations


def test_descent_stationary_trace_has_zero_slack():
    p = Problem([quadratic_component(np.eye(1), np.zeros(1))], NonsmoothTerm.zero(), 1)
    constants = rate_constants(1.0, 0.0, 0, 1.0)
    x = np.zeros((3, 1))
    trace = trace_from_iterates(p, x, alpha=0.5)
    report = check_sufficient_descent(trace, constants, 0.5)
    assert report.violations == 0
    assert report.worst_margin == 0.0


def test_descent_reduces_to_classical_smooth_bound_without_delay():
    # tau = 0, h = 0: the bound is F(x+) <= F(x) - (1/alpha - L/2) ||x+ - x||^2
    p, trace, constants, alpha = run_random_problem(4, tau=0, kind="none")
    x = trace.iterates
    f = trace.objective_values
    L, _ = smoothness_totals(p)
    for k in range(len(x) - 1):
        sq = float(np.dot(x[k + 1] - x[k], x[k + 1] - x[k]))
        classical = f[k] - (1.0 / alpha - L / 2.0) * sq
        assert f[k + 1] <= classical + 1e-9 * (1 + abs(f[k]))
    report = check_sufficient_descent(trace, constants, alpha)
    assert report.violations == 0


def test_descent_requires_full_log():
    p = Problem([quadratic_component(np.eye(1), np.zeros(1))], NonsmoothTerm.zero(), 1)
    trace = Trace(records=[], final_x=np.zeros(1), termination="converged",
                  iterations=0, alpha=0.5)
    with pytest.raises(ValueError, match="iterate log"):
        check_sufficient_descent(trace, rate_constants(1.0, 0.0, 0, 1.0), 0.5)


@pytest.mark.parametrize("check", [
    lambda trace, tc: check_sufficient_descent(trace, tc, 0.5),
    lambda trace, tc: check_summability(trace, 0.5, tc, -1.0),
], ids=["descent", "summability"])
@pytest.mark.parametrize("iterates, values, message", [
    (np.zeros((3, 1)), np.zeros(2), "iterate log and objective log have different lengths"),
    (np.zeros((0, 1)), np.zeros(0), "trace is empty"),
], ids=["lengths-differ", "empty"])
def test_checks_refuse_a_log_they_cannot_read(check, iterates, values, message):
    trace = Trace(records=[], final_x=np.zeros(1), termination="converged", iterations=0,
                  alpha=0.5, iterates=iterates, objective_values=values)
    with pytest.raises(ValueError, match=message):
        check(trace, rate_constants(1.0, 0.0, 1, 1.0))


def test_descent_flags_corrupted_run():
    p, trace, constants, alpha = run_random_problem(6, tau=2)
    bad = trace.iterates.copy()
    bad[len(bad) // 2] += 25.0  # objective jumps at one index
    corrupted = trace_from_iterates(p, bad, alpha)
    report = check_sufficient_descent(corrupted, constants, alpha)
    assert report.violations >= 1
    assert report.first_violation_k is not None
    assert report.worst_margin < 0


def test_descent_counts_a_non_finite_slack_as_a_violation():
    # F = -x^2/2 replayed at x = 1, 1e150, 1e200, 1e300: the last two F
    # overflow to -inf, so the last two slacks are not finite.
    p = Problem([quadratic_component(-np.eye(1), np.zeros(1))], NonsmoothTerm.zero(), 1)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = trace_from_iterates(p, np.array([[1.0], [1e150], [1e200], [1e300]]), alpha=5.0)
        report = check_sufficient_descent(trace, rate_constants(1.0, 1.0, 0, 1.0), 5.0)
    assert report.checked == 3
    assert report.violations == 2
    assert report.first_violation_k == 1


# ---------------------------------------------------------------- summability


def test_summability_single_step_equality():
    p = Problem([quadratic_component(np.eye(1), np.zeros(1))], NonsmoothTerm.zero(), 1)
    trace = trace_from_iterates(p, np.array([[1.0], [0.5]]), alpha=0.5)
    constants = rate_constants(1.0, 0.0, 0, 1.0)
    report = check_summability(trace, 0.5, constants, f_lower=0.0)
    # one gradient step on the exactly-L-smooth quadratic attains equality:
    # lhs = 0.25 and rhs = (0.5 - 0.125) / (2 - 0.5) = 0.25
    assert report.checked == 1
    assert report.violations == 0
    assert report.worst_margin == 0.0


def test_summability_stationary_start():
    p = Problem([quadratic_component(np.eye(1), np.zeros(1))], NonsmoothTerm.zero(), 1)
    trace = trace_from_iterates(p, np.zeros((4, 1)), alpha=0.5)
    report = check_summability(trace, 0.5, rate_constants(1.0, 0.0, 0, 1.0), f_lower=0.0)
    assert report.violations == 0
    assert report.worst_margin == 0.0


def test_summability_zero_violations_on_random_runs():
    for seed in range(10):
        p, trace, constants, alpha = run_random_problem(seed, tau=(seed % 3))
        f_lower = p.f_lower_bound_hint if p.f_lower_bound_hint is not None else -1e12
        report = check_summability(trace, alpha, constants, f_lower)
        assert report.violations == 0


def test_summability_rejects_an_objective_below_the_lower_bound():
    p = Problem([quadratic_component(np.eye(1), np.zeros(1))], NonsmoothTerm.zero(), 1)
    trace = trace_from_iterates(p, np.array([[1.0], [0.5]]), alpha=0.5)
    constants = rate_constants(1.0, 0.0, 0, 1.0)
    check_summability(trace, 0.5, constants, f_lower=0.125)  # F reaches the bound
    with pytest.raises(ValueError, match="drops below the declared lower bound"):
        check_summability(trace, 0.5, constants, f_lower=0.2)


def test_summability_rejects_oversized_stepsize():
    p, trace, constants, _ = run_random_problem(3, tau=2)
    too_big = 2.0 / constants.L_bar
    with pytest.raises(ValueError, match="threshold"):
        check_summability(trace, too_big, constants, f_lower=-1e12)


def test_the_solver_warns_exactly_when_the_summability_check_refuses():
    # One test decides "below the descent threshold": alpha < threshold and a
    # positive summability denominator.  The solver tested only the first and
    # check_summability only the second, so at the threshold they disagreed.
    rng = np.random.default_rng(14)
    one_step = Trace(records=[], final_x=np.zeros(1), termination="loaded", iterations=1,
                     alpha=1.0, iterates=np.zeros((2, 1)), objective_values=np.zeros(2))
    schedule = DelaySchedule("none")
    for _ in range(2000):
        L = float(rng.uniform(0.05, 80.0))
        l = float(rng.uniform(0.0, 1.0)) * L
        tau = int(rng.integers(0, 13))
        threshold = stepsize_threshold(L, l, tau)
        constants = rate_constants(L, l, tau, 1.0)
        for alpha in (math.nextafter(threshold, 0), threshold, math.nextafter(threshold, 1)):
            config = SolverConfig(alpha=alpha, schedule=schedule, x0=np.zeros(1))
            warned = any("not below the descent threshold" in w
                         for w in resolve_stepsize(config, L, l, tau)[1])
            try:
                check_summability(one_step, alpha, constants, f_lower=-1.0)
                refused = False
            except AboveThresholdError:
                refused = True
            assert warned == refused, (L, l, tau, alpha)


# ---------------------------------------------------------------- contraction oracle


def test_perturbed_contraction_pure_decay():
    v = [5.0 * 0.7**k for k in range(40)]
    cond, bound = check_perturbed_contraction(0.7, 0.0, 0.0, 2, v, [0.0] * 40)
    assert cond and bound


def test_perturbed_contraction_hand_condition():
    # budget lhs = (0.1 / 0.5) * (1 - 0.25) / 0.5 = 0.3 <= 1
    a, b, c, window = 0.5, 1.0, 0.1, 1
    lhs = (c / (1 - a)) * (1 - a ** (window + 1)) / a**window
    assert lhs == pytest.approx(0.3, abs=1e-15)
    rng = np.random.default_rng(0)
    _, _, _, _, v, w = gen_perturbed_contraction_instance(rng)
    cond, bound = check_perturbed_contraction(a, b, c, window, v[:5], w[:5])
    assert cond


def test_perturbed_contraction_condition_failure_reported():
    v = [1.0, 1.0, 1.0]
    w = [0.0, 0.0, 0.0]
    cond, _ = check_perturbed_contraction(0.9, 0.0, 1.0, 2, v, w)
    assert not cond


def test_perturbed_contraction_randomized_implication():
    rng = np.random.default_rng(42)
    for _ in range(500):
        a, b, c, window, v, w = gen_perturbed_contraction_instance(
            rng, force_boundary=bool(rng.integers(0, 2)))
        cond, bound = check_perturbed_contraction(a, b, c, window, v, w)
        assert cond  # generator satisfies the budget by construction
        assert bound


def test_perturbed_contraction_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        check_perturbed_contraction(0.5, 1.0, 0.1, 1, [1.0, -1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        check_perturbed_contraction(1.5, 1.0, 0.1, 1, [1.0], [0.0])


# ---------------------------------------------------------------- characteristic root


def test_characteristic_root_linear_case():
    assert characteristic_root(0.3, 1) == pytest.approx(0.3, abs=1e-10)


def test_characteristic_root_quadratic_formula():
    # x^2 - 0.25 x - 0.25 = 0  ->  x = (0.25 + sqrt(0.0625 + 1)) / 2
    expected = (0.25 + math.sqrt(1.0625)) / 2.0
    assert characteristic_root(0.5, 2) == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(0.640388, abs=1e-6)


def test_characteristic_root_properties():
    for tau in (1, 2, 3, 5, 10, 20):
        last = 0.0
        for c in np.linspace(0.05, 0.95, 10):
            p = characteristic_root(float(c), tau)
            assert c - 1e-10 <= p < 1.0
            geom = sum(p**j for j in range(tau))
            assert abs(p**tau - (c / tau) * geom) <= 1e-10
            assert p >= last - 1e-12  # nondecreasing in c
            last = p


# ---------------------------------------------------------------- delayed recursion


def test_delayed_recursion_geometric_sequence():
    seq = [2.0 * 0.5**k for k in range(120)]
    assert check_delayed_recursion_rate(2.0, 0.5, 0.3, 2, seq)


def test_delayed_recursion_saturated_tail_rate():
    rng = np.random.default_rng(1)
    seq = [1.0, 1.0]
    for k in range(2, 200):
        seq.append(1.0 * 0.5**k + (0.5 / 2) * (seq[k - 1] + seq[k - 2]))
    assert check_delayed_recursion_rate(1.0, 0.5, 0.5, 2, seq)
    fit = fit_rlinear_rate(seq, 0.0, skip=100)
    assert fit.rate <= max(characteristic_root(0.5, 2), 0.5) + 1e-3


def test_delayed_recursion_hypothesis_violation_identified():
    seq = [1.0, 1.0]
    for k in range(2, 40):
        seq.append(1.0 * 0.5**k + 0.25 * (seq[k - 1] + seq[k - 2]))
    seq[5] *= 100.0  # inflate one term beyond its admissible bound
    with pytest.raises(ValueError, match="k=5"):
        check_delayed_recursion_rate(1.0, 0.5, 0.5, 2, seq)


def test_delayed_recursion_randomized():
    rng = np.random.default_rng(7)
    for _ in range(100):
        b0, q, c, tau, seq = gen_delayed_recursion_sequence(rng)
        assert check_delayed_recursion_rate(b0, q, c, tau, seq)


# ---------------------------------------------------------------- rate fitting


def test_fit_rate_exact_geometric():
    values = [2.0**-k for k in range(40)]
    fit = fit_rlinear_rate(values, 0.0, skip=0)
    assert fit.rate == pytest.approx(0.5, abs=1e-12)
    assert fit.log_linear_r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_shifted_geometric():
    values = [3.0 * 0.8**k + 1.0 for k in range(60)]
    fit = fit_rlinear_rate(values, 1.0, skip=5)
    assert fit.rate == pytest.approx(0.8, abs=1e-10)
    assert fit.log_linear_r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_of_a_constant_gap_is_one_with_a_perfect_fit():
    fit = fit_rlinear_rate([3.0] * 20, 1.0, skip=5)
    assert (fit.rate, fit.log_linear_r2) == (1.0, 1.0)


def test_fit_rate_matches_gradient_descent_contraction():
    # diagonal quadratic, no nonsmooth term, stepsize 1/L: coordinates decay
    # as (1 - lambda_j / L)^k, so the objective rate tends to (1 - mu/L)^2
    A = np.diag([0.2, 0.5, 1.0])
    p = Problem([quadratic_component(A, np.zeros(3))], NonsmoothTerm.zero(), 3)
    cfg = SolverConfig(alpha=1.0, schedule=DelaySchedule("none", tau=0),
                       x0=np.ones(3), max_iters=80, prox_residual_tol=0.0,
                       keep_iterates=True)
    trace = solve(p, cfg)
    fit = fit_rlinear_rate(trace.objective_values, 0.0, skip=20)
    assert fit.rate == pytest.approx(0.8**2, rel=0.05)
    assert fit.log_linear_r2 >= 0.99


def test_fit_rate_validation():
    with pytest.raises(ValueError, match="at least 10"):
        fit_rlinear_rate([1.0, 0.5], 0.0, skip=0)
    with pytest.raises(ValueError, match="residual"):
        fit_rlinear_rate([1.0] * 10 + [0.0] * 10, 0.0, skip=0)


@pytest.mark.parametrize("limit", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_fit_rate_rejects_a_non_finite_limit(limit):
    with pytest.raises(ValueError, match="limit must be finite"):
        fit_rlinear_rate(2.0 ** -np.arange(20.0), limit)


@pytest.mark.parametrize("limit", [True, "0", 1j])
def test_fit_rate_rejects_a_limit_that_is_not_a_real_number(limit):
    with pytest.raises(ValueError, match="limit must be a real number"):
        fit_rlinear_rate(2.0 ** -np.arange(20.0), limit)


@pytest.mark.parametrize("skip", [True, 2.5, 2.0, "2", None])
def test_fit_rate_rejects_a_skip_that_is_not_an_integer(skip):
    with pytest.raises(ValueError, match="transient skip must be an integer"):
        fit_rlinear_rate(2.0 ** -np.arange(20.0), 0.0, skip)


def test_fit_rate_accepts_numpy_integer_skip_and_floating_limit():
    values = 2.0 ** -np.arange(20.0)
    assert (fit_rlinear_rate(values, np.float32(0.0), np.int64(2))
            == fit_rlinear_rate(values, 0.0, 2))


@pytest.mark.parametrize("limit", [None, 0.0])
@pytest.mark.parametrize("ks", [[5], list(range(21))], ids=["short", "long"])
def test_fit_rate_rejects_ks_of_another_length(limit, ks):
    values = 2.0 ** -np.arange(20.0)
    with pytest.raises(ValueError, match=f"ks holds {len(ks)} iteration indices for 20 values"):
        fit_rlinear_rate(values, limit, 0, ks=ks)


# ---------------------------------------------------------------- step recursion


def test_step_recursion_coefficient_hand_case():
    tc = rate_constants(1.0, 0.0, 1, 1.0)
    # c1 = 1, c2 = 1, c8 = min(1/3, 1/22, 1) = 1/22:
    # coefficient = 1 / (22 - 1) < 1
    assert tc.c8 == pytest.approx(1.0 / 22.0)
    assert check_step_recursion_coefficient(tc, tc.c8)


def test_step_recursion_coefficient_random_at_cap():
    rng = np.random.default_rng(9)
    for _ in range(200):
        L = rng.uniform(0.05, 60.0)
        l = rng.uniform(0.0, 1.0) * L
        tau = int(rng.integers(1, 11))
        c0 = rng.uniform(0.01, 50.0)
        tc = rate_constants(L, l, tau, c0)
        assert check_step_recursion_coefficient(tc, tc.c8)


def test_step_recursion_coefficient_boundary_blowup():
    tc = rate_constants(1.0, 0.0, 2, 1.0)
    near = (1.0 / tc.c1) * (1.0 - 1e-9)
    assert check_step_recursion_coefficient(tc, near) is False
    with pytest.raises(ValueError):
        check_step_recursion_coefficient(tc, 1.0 / tc.c1)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan])
def test_step_recursion_coefficient_needs_a_positive_stepsize(alpha):
    # 1/0 raised ZeroDivisionError; a negative or NaN step reached the c1 test.
    with pytest.raises(ValueError, match="stepsize must be positive"):
        check_step_recursion_coefficient(rate_constants(1.0, 0.0, 2, 1.0), alpha)


def test_step_recursion_coefficient_needs_delay():
    tc = rate_constants(1.0, 0.0, 0, 1.0)
    with pytest.raises(ValueError, match="delay"):
        check_step_recursion_coefficient(tc, tc.c8)


GEOMETRIC = 0.5 ** np.arange(40.0)


@pytest.mark.parametrize("call, message", [
    (lambda: check_perturbed_contraction(1.0, 1.0, 0.1, 1, [1.0], [0.0]),
     "contraction factor a must lie in (0, 1)"),
    (lambda: check_perturbed_contraction(0.5, 1.0, -0.1, 1, [1.0], [0.0]),
     "coefficients b and c must be nonnegative"),
    (lambda: check_perturbed_contraction(0.5, 1.0, 0.1, 0, [1.0], [0.0]),
     "window must be a positive integer"),
    (lambda: check_perturbed_contraction(0.5, 1.0, 0.1, 1, [1.0], [-1.0]),
     "sequences must be nonnegative"),
    (lambda: characteristic_root(0.0, 2), "coefficient c must lie in (0, 1)"),
    (lambda: characteristic_root(0.5, 0), "tau must be a positive integer"),
    # c^tau and (c/tau) * tau round to 1 and to 1 - 2**-53
    (lambda: characteristic_root(1 - Fraction(1, 10**30), 49),
     "no sign change: polynomial positive at the lower endpoint"),
    (lambda: check_delayed_recursion_rate(0.0, 0.5, 0.5, 2, GEOMETRIC), "b0 must be positive"),
    (lambda: check_delayed_recursion_rate(1.0, 1.0, 0.5, 2, GEOMETRIC), "q must lie in (0, 1)"),
    (lambda: check_delayed_recursion_rate(1.0, 0.5, 1.0, 2, GEOMETRIC), "c must lie in (0, 1)"),
    (lambda: check_delayed_recursion_rate(1.0, 0.5, 0.5, 0, GEOMETRIC),
     "tau must be a positive integer"),
    (lambda: check_delayed_recursion_rate(1.0, 0.5, 0.5, 2, [1.0, 0.0]),
     "sequence entries must be positive"),
    (lambda: check_step_recursion_coefficient(rate_constants(1.0, 0.0, 0, 1.0), 0.1),
     "coefficient check needs a positive delay parameter"),
    (lambda: check_step_recursion_coefficient(rate_constants(1.0, 0.0, 2, 1.0), 0.0),
     "stepsize must be positive"),
    (lambda: check_step_recursion_coefficient(rate_constants(1.0, 0.0, 2, 1.0), 1 / 1.5),
     "1/alpha must exceed the leading descent constant"),
], ids=["contraction-a", "contraction-b-c", "contraction-window", "contraction-sequences",
        "root-c", "root-tau", "root-sign", "rate-b0", "rate-q", "rate-c", "rate-tau",
        "rate-sequence", "step-tau", "step-alpha", "step-c1"])
def test_each_guard_of_the_scalar_oracles_refuses_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda n: delay_window_sums([1.0, 2.0], n), "tau"),
    (lambda n: characteristic_root(0.5, n), "tau"),
    (lambda n: check_delayed_recursion_rate(1.0, 0.5, 0.5, n, 0.5 ** np.arange(40.0)), "tau"),
    (lambda n: check_perturbed_contraction(0.5, 1.0, 0.1, n, [1.0], [0.0]), "window"),
], ids=["window-sums", "characteristic-root", "recursion-rate", "perturbed-contraction"])
@pytest.mark.parametrize("count", [1.5, 2.0, True])
def test_the_oracles_take_integer_counts(call, name, count):
    # A float window ran in check_perturbed_contraction, and the others
    # raised numpy's or range's TypeError, naming no field.
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(count)
    call(np.int64(2))


@pytest.mark.parametrize("tau", [0, 1, 3, 7, 12])
def test_delay_window_sums_match_oldest_first_loop(tau):
    rng = np.random.default_rng(tau)
    # R-linear decay over many orders of magnitude, where a difference of
    # prefix sums would leave rounding noise of either sign
    sq = rng.uniform(0.5, 1.5, 200) * 0.8 ** np.arange(200)
    expected = np.zeros(len(sq))
    for k in range(len(sq)):
        total = 0.0
        for j in range(max(k - tau, 0), k):
            total += sq[j]
        expected[k] = total
    got = delay_window_sums(sq, tau)
    assert np.array_equal(got, expected)
    assert np.all(got >= 0)
