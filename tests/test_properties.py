"""Property tests: the paper's guarantees on randomly drawn problems.

Each example draws a problem family, its size, a delay schedule and a start
point, runs the solver at the ``auto_lemma2`` stepsize for a fixed budget,
and checks the Lemma-2 descent and summability reports, the staleness bound,
and (at zero delay) bitwise agreement with the forward-backward reference.
A second property compares the summed-quadratic objective and prox residual
with their per-component forms on random all-quadratic problems.  The next
three check the gradient table's aggregate against the sum of its entries
after every refresh, every schedule's refresh indices against the set
formula they replace and against the array formula they replace (across
blocks of ``uniform_random`` masks and at iterations beyond 2**62), and the prox of every nonsmooth kind against its
optimality condition.  The last properties and test check that the objective
of a stack of points, the solver's iterate log and its replay are bitwise the
row-by-row objective, and the row-by-row objective is bitwise its formula on
one vector; so is the prox residual of a stack.  The rate fit, left to choose
its limit, gives bitwise the rate, r² and limit of the CLI's former record
selection.  The gradient table and the full gradient hold bitwise each
component's own gradient for every kind of index set, on any number of
CPUs, at sizes whose refreshes are shared out across threads and at sizes
whose refreshes are not.
"""

import functools
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piag import (DelaySchedule, SolverConfig, check_sufficient_descent,
                  check_summability, rate_constants, reference_fbs,
                  smoothness_totals, solve)
from piag import (NonsmoothTerm, Problem, SmoothComponent, eval_F, eval_f, grad_f, prox,
                  prox_residual, quadratic_component, trace_from_iterates)
from piag.delay import SCHEDULE_KINDS, GradientTable, next_refresh_set
from piag.model import RowThreads
from piag.diagnostics import ShortSeriesError, fit_rlinear_rate
from piag.problems import make_quadratic_box, make_quadratic_l1


def draw_schedule(draw, n):
    tau = draw(st.integers(0, 5))
    kind = "none" if tau == 0 else draw(
        st.sampled_from(["cyclic", "uniform_random", "adversarial_max"]))
    block = draw(st.integers(math.ceil(n / (tau + 1)), n)) if kind == "cyclic" else None
    return DelaySchedule(kind, tau=tau, block=block, seed=draw(st.integers(0, 99)))


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
    schedule = draw_schedule(draw, n)
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


@st.composite
def quadratic_problems(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    unit = st.floats(-1.0, 1.0)
    comps = []
    for _ in range(n):
        m = np.reshape(draw(st.lists(unit, min_size=d * d, max_size=d * d)), (d, d))
        b = draw(st.lists(unit, min_size=d, max_size=d))
        constant = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.1, 1.0))
        comps.append(quadratic_component(0.5 * (m + m.T), b, constant))
    nonsmooth = draw(st.sampled_from([NonsmoothTerm.zero(), NonsmoothTerm.l1(0.3),
                                      NonsmoothTerm.box(-2.0, 2.0)]))
    x = np.asarray(draw(st.lists(st.floats(-1.5, 1.5), min_size=d, max_size=d)))
    return Problem(comps, nonsmooth, d), x, draw(st.floats(0.01, 2.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(quadratic_problems())
def test_summed_quadratic_matches_per_component_sums(case):
    problem, x, scale = case
    assert problem.quadratic_sum is not None
    values = [comp.value(x) for comp in problem.components]
    total = 0.0
    for v in values:
        total += v
    expected_F = total + problem.nonsmooth.value(x)
    assert abs(eval_F(problem, x) - expected_F) <= 1e-12 * (1.0 + sum(map(abs, values)))

    z = prox(problem.nonsmooth, x - scale * grad_f(problem, x), scale)
    expected_r = float(np.linalg.norm(z - x))
    grad_scale = sum(float(np.linalg.norm(comp.grad(x))) for comp in problem.components)
    assert abs(prox_residual(problem, scale, x) - expected_r) <= 1e-12 * (1.0 + scale * grad_scale)


@st.composite
def gradient_tables(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 5))
    problem = make_quadratic_l1(n, d, draw(st.integers(0, 2**16)), lam=0.0)
    return problem, draw_schedule(draw, n), draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(gradient_tables())
def test_aggregate_equals_entry_sum_after_every_refresh(case):
    problem, schedule, seed = case
    n, d = problem.n_components, problem.dimension
    rng = np.random.default_rng(seed)
    table = GradientTable(problem, rng.standard_normal(d), schedule.tau)
    for k in range(60):
        refresh = next_refresh_set(schedule, k, n, table.ages)
        aggregate = table.refresh_and_aggregate(problem, 10.0 * rng.standard_normal(d), refresh)
        assert np.array_equal(aggregate, np.sum(table.entries, axis=0))


def _set_formula(schedule, k, n, ages):
    """The refresh set as a Python set, by the formula next_refresh_set used
    before it returned an index array."""
    if schedule.kind == "none":
        return set(range(n))
    if schedule.kind == "cyclic":
        start = (k * schedule.block) % n
        return {(start + j) % n for j in range(min(schedule.block, n))}
    forced = {int(i) for i in np.nonzero(np.asarray(ages) >= schedule.tau)[0]}
    if schedule.kind == "adversarial_max":
        return forced
    rng = np.random.default_rng([int(schedule.seed), int(k)])
    extra = np.nonzero(rng.random(n) < 1.0 / (schedule.tau + 1))[0]
    return forced | {int(i) for i in extra}


@st.composite
def refresh_calls(draw):
    n = draw(st.integers(1, 40))
    tau = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(SCHEDULE_KINDS))
    block = None
    if kind == "cyclic":
        block = draw(st.one_of(st.integers(math.ceil(n / (tau + 1)), n + 3),
                               st.integers(n, 10**25)))
    schedule = DelaySchedule(kind, tau=tau, block=block, seed=draw(st.integers(0, 2**64)))
    ages = np.asarray(draw(st.lists(st.integers(0, tau), min_size=n, max_size=n)))
    return schedule, draw(st.integers(0, 2**70)), n, ages


@settings(max_examples=300, deadline=None, derandomize=True)
@given(refresh_calls())
def test_refresh_indices_are_distinct_in_range_and_the_set_formula(case):
    schedule, k, n, ages = case
    indices = next_refresh_set(schedule, k, n, ages)
    assert isinstance(indices, np.ndarray) and indices.ndim == 1
    assert np.issubdtype(indices.dtype, np.integer)
    listed = indices.tolist()
    assert len(set(listed)) == len(listed)
    assert all(0 <= i < n for i in listed)
    assert set(listed) == _set_formula(schedule, k, n, ages)


def _former_refresh_set(schedule, k, n, ages):
    """The refresh indices by the formula next_refresh_set used before it drew
    random masks in blocks and kept its cyclic windows."""
    if schedule.kind == "none":
        return np.arange(n)
    if schedule.kind == "cyclic":
        start = (k * schedule.block) % n
        stop = start + min(schedule.block, n)
        return np.arange(start, stop) if stop <= n else np.arange(start, stop) % n
    due = np.asarray(ages) >= schedule.tau
    if schedule.kind == "uniform_random":
        due |= np.random.default_rng([int(schedule.seed), int(k)]).random(n) < 1.0 / (
            schedule.tau + 1)
    return np.flatnonzero(due)


_PASS_EDGE = math.lcm(*range(1, 33))


@st.composite
def refresh_sequences(draw):
    """A schedule and iterations on both sides of a boundary between two
    blocks of uniform_random masks, with the table ages of each call."""
    # Above 2048 components a block holds fewer than 32 iterations.
    n = draw(st.one_of(st.integers(1, 40), st.integers(2040, 5000)))
    tau = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(SCHEDULE_KINDS))
    block = None
    if kind == "cyclic":
        block = draw(st.one_of(st.integers(math.ceil(n / (tau + 1)), n + 3),
                               st.integers(n, 10**25)))
    schedule = DelaySchedule(kind, tau=tau, block=block, seed=draw(st.integers(0, 2**64)))
    # uniform_random draws the masks of at most 32 iterations in one pass, so
    # a multiple of lcm(1, ..., 32) is a boundary between two passes.
    boundary = _PASS_EDGE * draw(st.one_of(st.integers(0, 2**8), st.integers(2**20, 2**24)))
    ks = draw(st.lists(st.integers(max(0, boundary - 33), boundary + 32), min_size=1,
                       max_size=4))
    ages = [np.asarray(draw(st.lists(st.integers(0, tau), min_size=n, max_size=n)))
            if n < 100 else np.random.default_rng(draw(st.integers(0, 99))).integers(0, tau + 1, n)
            for _ in ks]
    return schedule, n, ks, ages


@settings(max_examples=150, deadline=None, derandomize=True)
@given(refresh_sequences())
def test_refresh_indices_are_the_former_formula_across_mask_blocks(case):
    schedule, n, ks, ages = case
    for k, a in zip(ks + ks, ages + ages):  # each call twice: the second is served from a cache
        indices = next_refresh_set(schedule, k, n, a)
        assert indices.dtype == np.intp
        assert np.array_equal(indices, _former_refresh_set(schedule, k, n, a))
        # Writing through a returned array must not change a later call.
        if indices.flags.writeable:
            indices[...] = -1
        elif len(indices):
            with pytest.raises(ValueError):
                indices[0] = -1


@st.composite
def prox_cases(draw, kind):
    d = draw(st.integers(1, 6))

    def vector():
        return np.asarray(draw(st.lists(st.floats(-10.0, 10.0), min_size=d, max_size=d)))

    lam = draw(st.floats(0.0, 3.0)) if kind in ("l1", "box_plus_l1") else 0.0
    lo = hi = None
    if kind in ("box", "box_plus_l1"):
        a, b = vector(), vector()
        lo, hi = np.minimum(a, b), np.maximum(a, b)
    return NonsmoothTerm(kind, lam=lam, lo=lo, hi=hi), vector(), draw(st.floats(1e-3, 10.0))


@pytest.mark.parametrize("kind", ["zero", "l1", "box", "box_plus_l1"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_prox_satisfies_its_optimality_condition(kind, data):
    # p = prox_{t h}(y) iff (y - p) / t lies in the subdifferential of h at p,
    # coordinatewise lam * d|p_i| plus the box's normal cone at p_i.
    term, y, t = data.draw(prox_cases(kind))
    p = prox(term, y, t)
    g = (y - p) / t
    lo = -np.inf if term.lo is None else term.lo
    hi = np.inf if term.hi is None else term.hi
    assert np.all(lo <= p) and np.all(p <= hi)
    sign = np.sign(p)
    lower = np.where(p == lo, -np.inf, np.where(p != 0, term.lam * sign, -term.lam))
    upper = np.where(p == hi, np.inf, np.where(p != 0, term.lam * sign, term.lam))
    tol = 1e-12 * (1.0 + term.lam + (np.abs(y) + np.abs(p)) / t)
    assert np.all(lower - tol <= g) and np.all(g <= upper + tol)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def point_stacks(draw):
    """A problem of any nonsmooth kind, with infinite box bounds among the
    finite ones and sometimes a callable component, and a (K, d) stack of
    points of which, at the larger scales, some leave the box."""
    n = draw(st.integers(1, 4))
    d = draw(st.sampled_from([1, 2, 3, 5, 9, 130, 200]))  # np.sum goes pairwise past 128
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    comps = []
    for _ in range(n):
        m = rng.standard_normal((d, d))
        comps.append(quadratic_component(0.5 * (m + m.T), rng.standard_normal(d),
                                         rng.standard_normal()))
    if draw(st.booleans()):
        comps.append(SmoothComponent(lambda x: 0.5 * float(np.dot(x, x)), lambda x: x, 1.0))
    kind = draw(st.sampled_from(["zero", "l1", "box", "box_plus_l1"]))
    lo = hi = None
    if kind in ("box", "box_plus_l1"):
        if draw(st.booleans()):
            lo, hi = draw(st.sampled_from([-np.inf, -1.0])), draw(st.sampled_from([np.inf, 1.5]))
        else:
            lo, hi = rng.choice([-np.inf, -1.0, -2.5], d), rng.choice([np.inf, 1.0, 2.0], d)
    lam = draw(st.floats(0.0, 2.0))  # drawn for every kind, so the examples stay the same
    nonsmooth = NonsmoothTerm(kind, lam=lam if kind in ("l1", "box_plus_l1") else 0.0,
                              lo=lo, hi=hi)
    k = draw(st.one_of(st.just(1), st.integers(1, 300)))  # 300 rows of 200 span two blocks
    points = draw(st.sampled_from([0.01, 1.0, 3.0])) * rng.standard_normal((k, d))
    return Problem(comps, nonsmooth, d), points


def _point_f(problem, x) -> float:
    """``eval_f`` at one point, as a formula on the vector: the oracle for
    the stacked evaluation."""
    if problem.quadratic_sum is None:
        total = 0.0
        for comp in problem.components:
            total += comp.value(x)
        return total
    S, sb, const = problem.quadratic_sum
    return float(0.5 * np.dot(x, S @ x) + np.dot(sb, x) + const)


def _point_h(term, x) -> float:
    """``NonsmoothTerm.value`` at one point, as a formula on the vector."""
    if term.kind in ("box", "box_plus_l1") and not (np.all(x >= term.lo)
                                                     and np.all(x <= term.hi)):
        return math.inf
    return float(term.lam * np.sum(np.abs(x))) if term.kind in ("l1", "box_plus_l1") else 0.0


def _point_F(problem, x) -> float:
    return _point_f(problem, x) + _point_h(problem.nonsmooth, x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(point_stacks())
def test_stacked_objective_is_the_row_by_row_objective_bit_for_bit(case):
    problem, points = case
    values = eval_F(problem, points)
    assert values.shape == (len(points),)
    assert _bits(values) == _bits([eval_F(problem, x) for x in points])
    assert _bits(values) == _bits([_point_F(problem, x) for x in points])
    f_values = eval_f(problem, points)
    assert _bits(f_values) == _bits([eval_f(problem, x) for x in points])
    assert _bits(f_values) == _bits([_point_f(problem, x) for x in points])
    term = problem.nonsmooth
    h_values = term.value(points)
    assert _bits(h_values) == _bits([term.value(x) for x in points])
    assert _bits(h_values) == _bits([_point_h(term, x) for x in points])
    if term.kind in ("box", "box_plus_l1"):
        outside = ~(np.all(points >= term.lo, axis=1) & np.all(points <= term.hi, axis=1))
        assert np.all(values[outside] == math.inf)
        assert np.all(np.isfinite(values[~outside]))


def _point_residual(problem, scale, x) -> float:
    """``prox_residual`` at one point, as a formula on the vector: ``S x + sb``
    (``grad_f`` with a callable component), then ``prox``, then ``np.linalg.norm``."""
    if problem.quadratic_sum is None:
        g = grad_f(problem, x)
    else:
        S, sb, _ = problem.quadratic_sum
        g = S @ x + sb
    return float(np.linalg.norm(prox(problem.nonsmooth, x - scale * g, scale) - x))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(point_stacks(), st.floats(1e-3, 10.0))
def test_stacked_prox_residual_is_the_per_point_formula_bit_for_bit(case, scale):
    problem, points = case
    values = prox_residual(problem, scale, points)
    assert values.shape == (len(points),)
    assert _bits(values) == _bits([prox_residual(problem, scale, x) for x in points])
    assert _bits(values) == _bits([_point_residual(problem, scale, x.copy()) for x in points])
    assert np.all(np.isfinite(values))


@pytest.mark.parametrize("kind", SCHEDULE_KINDS)
@pytest.mark.parametrize("family, n, d", [("l1", 6, 5), ("box", 12, 150)])
def test_replayed_objective_is_the_solvers_bit_for_bit(kind, family, n, d):
    if family == "l1":
        problem = make_quadratic_l1(n, d, 7, lam=0.2)
    else:
        problem = make_quadratic_box(n, d, 7, negative_curvature=0.4)
    tau = 0 if kind == "none" else 3
    block = math.ceil(n / (tau + 1)) if kind == "cyclic" else None
    config = SolverConfig(alpha="auto_lemma2", schedule=DelaySchedule(kind, tau, block, seed=4),
                          x0=np.linspace(-3.0, 3.0, d), max_iters=300, prox_residual_tol=0.0,
                          keep_iterates=True)
    trace = solve(problem, config)
    assert _bits(trace.objective_values) == _bits([_point_F(problem, x) for x in trace.iterates])
    replay = trace_from_iterates(problem, trace.iterates, trace.alpha)
    assert _bits(replay.objective_values) == _bits(trace.objective_values)


@functools.lru_cache(maxsize=None)
def _shared_problem(n: int, d: int) -> Problem:
    """An l1 problem whose refreshes of at least 2 MiB of matrices (seven of
    200 x 200, sixteen of 128 x 128) are shared out across threads (README)."""
    return make_quadratic_l1(n, d, seed=n, lam=0.0)


@st.composite
def gradient_rows(draw):
    """A problem (sometimes with a callable component, sometimes a list of
    components, so that its stack is a copy), two points, one of the index
    sets a refresh takes, and a CPU count."""
    if draw(st.booleans()):  # refreshes of up to 1.6 MiB: never shared out
        n, d = draw(st.integers(1, 9)), draw(st.sampled_from([1, 2, 7, 40]))
        problem = make_quadratic_l1(n, d, draw(st.integers(0, 2**16)), lam=0.0)
    else:
        n, d = draw(st.sampled_from([(13, 200), (24, 128)]))
        problem = _shared_problem(n, d)
    comps = list(problem.components)
    build = draw(st.sampled_from(["rows", "copied", "callable"]))
    if build == "callable":
        comps.insert(draw(st.integers(0, n)), SmoothComponent(
            lambda x: 0.5 * float(np.dot(x, x)), lambda x: 2.0 * x, 2.0))
    if build != "rows":
        problem = Problem(comps, problem.nonsmooth, d)
        n = problem.n_components
    start = draw(st.integers(0, n - 1))
    length = draw(st.integers(1, n))
    shape = draw(st.sampled_from(["full", "contiguous", "wrapped", "scattered", "holes",
                                  "pairs", "single", "empty"]))
    holes = set(draw(st.lists(st.integers(0, n - 1), max_size=3)))
    indices = {"full": range(n),
               "contiguous": range(start, min(start + length, n)),
               "wrapped": [(start + j) % n for j in range(length)],
               "scattered": sorted(set(draw(st.lists(st.integers(0, n - 1), max_size=n)))),
               "holes": [i for i in range(n) if i not in holes],
               "pairs": [i for i in range(n) if i % 3 < 2],  # runs of two rows
               "single": [start],
               "empty": []}[shape]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x0, x = draw(st.sampled_from([1e-3, 1.0, 1e3])) * rng.standard_normal((2, d))
    return problem, x0, x, indices, draw(st.integers(1, 5))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(gradient_rows())
def test_row_kernel_rows_are_the_component_gradients_bit_for_bit(case):
    """The gradient table refreshes row i to ``components[i].grad(x)`` for
    each listed index and no other row, and ``grad_f`` is the sum of those
    gradients, on any number of CPUs."""
    problem, x0, x, indices, cpus = case
    grads = np.array([comp.grad(x) for comp in problem.components])
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))), \
            RowThreads() as threads:
        assert threads.shares == cpus
        table = GradientTable(problem, x0, 1, threads)
        table.refresh_and_aggregate(problem, x, indices)
        full = grad_f(problem, x, threads)
    for i, comp in enumerate(problem.components):
        assert _bits(table.entries[i]) == _bits(grads[i] if i in indices else comp.grad(x0))
    assert _bits(full) == _bits(np.sum(grads, axis=0))


def _former_shares(indices, count):
    """The former cut of a refresh's index list into at most ``count``
    shares: its runs of consecutive ascending indices, cut at row bounds
    ``total * j // count`` by one pass over the runs for each share."""
    runs = []
    for i in indices:
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    total = sum(hi - lo for lo, hi in runs)
    count = min(count, total)
    bounds = [total * j // count for j in range(count + 1)] if total else []
    shares = []
    for start, stop in zip(bounds, bounds[1:]):
        share, offset = [], 0
        for lo, hi in runs:
            first, last = max(start - offset, 0), min(stop - offset, hi - lo)
            if first < last:
                share.extend(range(lo + first, lo + last))
            offset += hi - lo
        shares.append(share)
    return shares


@st.composite
def refresh_sets(draw):
    """A problem whose larger refreshes fill 2 MiB of matrices, and one of
    the index sets a refresh takes."""
    n, d = draw(st.sampled_from([(13, 200), (24, 128)]))
    start, length = draw(st.integers(0, n - 1)), draw(st.integers(1, n))
    shape = draw(st.sampled_from(["full", "contiguous", "wrapped", "scattered", "empty"]))
    indices = {"full": range(n),
               "contiguous": range(start, min(start + length, n)),
               "wrapped": [(start + j) % n for j in range(length)],
               "scattered": sorted(set(draw(st.lists(st.integers(0, n - 1), max_size=n)))),
               "empty": []}[shape]
    return _shared_problem(n, d), list(indices)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(refresh_sets(), st.integers(1, 5))
def test_refresh_slices_are_the_former_shares(case, cpus):
    """A refresh of at least 2 MiB of matrices hands ``RowThreads.map`` one
    contiguous slice of its index list per CPU, in order, with sizes that
    differ by at most one (README): the shares the former cut of its runs
    gave.  A smaller refresh hands it nothing."""
    problem, indices = case
    handed, original = [], RowThreads.map

    def recording(threads, fn, items):
        items = list(items)
        handed.extend(list(item) for item in items)
        return original(threads, fn, items)

    x = np.linspace(-1.0, 1.0, problem.dimension)
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))), \
            RowThreads() as threads:
        table = GradientTable(problem, np.zeros(problem.dimension), 1, threads)
        with mock.patch.object(RowThreads, "map", recording):
            table.refresh_and_aggregate(problem, x, indices)
    shared = 8 * problem.dimension ** 2 * len(indices) >= 2 << 20
    assert handed == (_former_shares(indices, cpus) if shared else [])
    for i in indices:
        assert _bits(table.entries[i]) == _bits(problem.components[i].grad(x))


@st.composite
def decaying_series(draw):
    """``c + a q^k`` at gapped ``ks``, jittered by a few ulps and ending in a
    repeated minimum, with a skip that may pass the end.  Long or fast series
    end inside the fit's noise floor of 100 pads."""
    n = draw(st.integers(1, 80))
    ks = np.cumsum(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))) - 1
    c, a = draw(st.floats(-1e3, 1e3)), draw(st.floats(1e-6, 1e3))
    values = c + a * draw(st.floats(0.3, 0.99)) ** ks.astype(float)
    jitter = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    values = values + np.asarray(jitter) * np.spacing(values)
    repeats = draw(st.integers(0, 5))
    values = np.concatenate([values, np.full(repeats, values.min())])
    ks = np.concatenate([ks, ks[-1] + 1 + np.arange(repeats)])
    return values, ks, draw(st.integers(0, 10) | st.integers(0, int(ks[-1]) + 10))


def _former_cli_rate_fit(ks, fs, skip_iters, limit):
    """The CLI's rate fit of a run's records before the fit chose its own
    limit, on the records' ``k`` and ``F`` columns."""
    ks = np.asarray(ks, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if limit is None:
        f_min = float(np.min(fs))
        pad = 1e-14 * (1.0 + abs(f_min))
        limit = f_min - pad
        keep = fs - limit > 100.0 * pad
        ks, fs = ks[keep], fs[keep]
    fit = fit_rlinear_rate(fs, limit, skip_iters, ks=ks)
    return fit.rate, fit.log_linear_r2, float(limit)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(decaying_series())
def test_rate_fit_chooses_the_former_cli_limit_and_records_bit_for_bit(case):
    values, ks, skip = case

    def chosen():
        fit = fit_rlinear_rate(values, None, skip, ks)
        return fit.rate, fit.log_linear_r2, fit.limit

    outcomes = []
    for fit in (chosen, lambda: _former_cli_rate_fit(ks, values, skip, None)):
        try:
            outcomes.append(_bits(fit()))
        except ShortSeriesError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
