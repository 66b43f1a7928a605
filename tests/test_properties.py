"""Property tests: the paper's guarantees on randomly drawn problems.

Each example draws a problem family, its size, a delay schedule and a start
point, runs the solver at the ``auto_lemma2`` stepsize for a fixed budget,
and checks the Lemma-2 descent and summability reports, the staleness bound,
and (at zero delay) bitwise agreement with the forward-backward reference.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from piag import (DelaySchedule, SolverConfig, check_sufficient_descent,
                  check_summability, rate_constants, reference_fbs,
                  smoothness_totals, solve)
from piag.problems import make_quadratic_box, make_quadratic_l1


@st.composite
def runs(draw):
    family = draw(st.sampled_from(["l1", "box"]))
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    if family == "l1":
        problem = make_quadratic_l1(n, d, seed, lam=draw(st.floats(0.0, 1.0)))
    else:
        problem = make_quadratic_box(n, d, seed,
                                     negative_curvature=draw(st.floats(0.0, 0.8)))
    tau = draw(st.integers(0, 5))
    kind = "none" if tau == 0 else draw(
        st.sampled_from(["cyclic", "uniform_random", "adversarial_max"]))
    block = draw(st.integers(math.ceil(n / (tau + 1)), n)) if kind == "cyclic" else None
    schedule = DelaySchedule(kind, tau=tau, block=block, seed=draw(st.integers(0, 99)))
    # Every generated box has half-width at least 10, so x0 starts inside it.
    x0 = np.asarray(draw(st.lists(st.floats(-5.0, 5.0), min_size=d, max_size=d)))
    config = SolverConfig(alpha="auto_lemma2", schedule=schedule, x0=x0, max_iters=400,
                          prox_residual_tol=0.0, keep_iterates=True)
    return problem, config


@settings(max_examples=30, deadline=None, derandomize=True)
@given(runs())
def test_lemma2_guarantees_hold_on_random_runs(case):
    problem, config = case
    tau = config.schedule.tau
    trace = solve(problem, config)
    assert trace.termination != "diverged"
    assert all(r.max_staleness <= tau for r in trace.records)

    L, l = smoothness_totals(problem)
    constants = rate_constants(L, l, tau, c0=1.0)
    f_lower = problem.f_lower_bound_hint
    reports = [check_sufficient_descent(trace, constants, trace.alpha),
               check_summability(trace, trace.alpha, constants, f_lower)]
    assert [r.violations for r in reports] == [0, 0], reports

    if tau == 0:
        ref = reference_fbs(problem, config)
        assert np.array_equal(ref.iterates, trace.iterates)
        assert np.array_equal(ref.objective_values, trace.objective_values)
