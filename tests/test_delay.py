import numpy as np
import pytest

from piag import (DelaySchedule, GradientTable, NonsmoothTerm, Problem, SmoothComponent,
                  grad_f, next_refresh_set, piag_step, quadratic_component)
from piag.delay import StepWindow, min_cyclic_block
from piag.problems import make_quadratic_box

from helpers import simulate_max_staleness


def small_problem(n=3, d=4, seed=0):
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(n):
        m = rng.standard_normal((d, d))
        comps.append(quadratic_component(0.4 * (m + m.T), rng.standard_normal(d)))
    return Problem(comps, NonsmoothTerm.zero(), d)


# ---------------------------------------------------------------- schedules


def test_none_schedule_refreshes_everything():
    sched = DelaySchedule("none", tau=0)
    for k in (0, 1, 17):
        assert set(next_refresh_set(sched, k, 5)) == {0, 1, 2, 3, 4}


def test_cyclic_single_block_rotation():
    sched = DelaySchedule("cyclic", tau=2, block=1)
    assert set(next_refresh_set(sched, 0, 3)) == {0}
    assert set(next_refresh_set(sched, 1, 3)) == {1}
    assert set(next_refresh_set(sched, 2, 3)) == {2}
    assert simulate_max_staleness(sched, 3, 100) <= 2


def test_cyclic_window_start_is_exact_beyond_int64():
    sched = DelaySchedule("cyclic", tau=3, block=10**23 + 1)
    for k in (5, np.int64(5), 2**70):
        start = (int(k) * (10**23 + 1)) % 7
        assert next_refresh_set(sched, k, 7).tolist() == [(start + j) % 7 for j in range(7)]


def test_cyclic_block_too_small_rejected():
    sched = DelaySchedule("cyclic", tau=1, block=1)
    with pytest.raises(ValueError, match="block"):
        next_refresh_set(sched, 0, 5)  # needs ceil(5/2) = 3


def test_adversarial_refresh_period():
    p = small_problem(n=2, d=2, seed=1)
    sched = DelaySchedule("adversarial_max", tau=3)
    table = GradientTable(p, np.zeros(2), tau=3)
    x = np.zeros(2)
    refresh_iters = {0: [0], 1: [0]}  # table init counts as the first evaluation
    staleness_seen = []
    for k in range(24):
        rs = next_refresh_set(sched, k, 2, table.ages)
        for i in rs:
            refresh_iters[i].append(k)
        x = piag_step(p, table, x, 0.01, rs)
        staleness_seen.append(table.max_staleness())
    for i in (0, 1):
        gaps = np.diff(refresh_iters[i])
        assert np.all(gaps == 4)  # refreshed exactly every tau + 1 iterations
    assert max(staleness_seen) == 3


def test_bounded_delay_invariant_all_kinds():
    n = 7
    schedules = [
        DelaySchedule("none", tau=0),
        DelaySchedule("cyclic", tau=3, block=2),
        DelaySchedule("uniform_random", tau=4, seed=123),
        DelaySchedule("adversarial_max", tau=5),
    ]
    for sched in schedules:
        assert simulate_max_staleness(sched, n, 10_000) <= sched.tau


def test_uniform_random_is_reproducible():
    sched = DelaySchedule("uniform_random", tau=3, seed=99)
    ages = np.array([0, 1, 3, 2, 0])
    first = next_refresh_set(sched, 7, 5, ages)
    second = next_refresh_set(sched, 7, 5, ages)
    assert first == second
    assert 2 in first  # age == tau forces a refresh


def test_cyclic_windows_cannot_be_written_through():
    # Windows are views of an array that later calls share.
    sched = DelaySchedule("cyclic", tau=2, block=3)
    window = next_refresh_set(sched, 2, 7)
    assert window.tolist() == [6, 0, 1]
    with pytest.raises(ValueError):
        window[0] = 5
    with pytest.raises(ValueError):
        window.setflags(write=True)
    window.shape = (1, 3)
    assert next_refresh_set(sched, 2, 7).tolist() == [6, 0, 1]
    assert next_refresh_set(sched, 9, 7).tolist() == [6, 0, 1]


def test_schedule_validation():
    with pytest.raises(ValueError, match="seed"):
        DelaySchedule("uniform_random", tau=1)
    with pytest.raises(ValueError, match="block"):
        DelaySchedule("cyclic", tau=1)
    with pytest.raises(ValueError, match="kind"):
        DelaySchedule("burst", tau=1)
    with pytest.raises(ValueError, match="tau"):
        DelaySchedule("none", tau=-1)
    with pytest.raises(ValueError, match="ages"):
        next_refresh_set(DelaySchedule("adversarial_max", tau=2), 0, 3)


@pytest.mark.parametrize("kind", ["adversarial_max", "uniform_random", "none", "cyclic"])
@pytest.mark.parametrize("n_ages, n", [(5, 2), (2, 5)])
def test_ages_must_hold_one_entry_per_component(kind, n_ages, n):
    sched = DelaySchedule(kind, tau=2, block=5, seed=1)
    with pytest.raises(ValueError, match="ages"):
        next_refresh_set(sched, 3, n, np.zeros(n_ages, dtype=int))


@pytest.mark.parametrize("kind", ["none", "cyclic", "uniform_random", "adversarial_max"])
def test_refresh_set_needs_a_component(kind):
    sched = DelaySchedule(kind, tau=2, block=1, seed=1)
    with pytest.raises(ValueError, match="component count"):
        next_refresh_set(sched, 0, 0, np.zeros(0, dtype=int))


@pytest.mark.parametrize("field, kind, value", [
    ("tau", "none", 1.5), ("tau", "none", True), ("tau", "none", None),
    ("block", "cyclic", 2.5), ("block", "cyclic", True),
    ("seed", "uniform_random", 1.5), ("seed", "uniform_random", False),
])
def test_schedule_rejects_non_integer_counts(field, kind, value):
    spec = {"tau": 1, "block": 2, "seed": 3, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        DelaySchedule(kind, **spec)


def test_schedule_accepts_numpy_integers():
    sched = DelaySchedule("cyclic", tau=np.int64(1), block=np.int32(2), seed=np.uint8(3))
    assert next_refresh_set(sched, 1, 4).tolist() == [2, 3]


def test_schedule_keeps_its_counts_as_python_ints():
    # They were kept as given, so a summary of the schedule could not be written as JSON.
    sched = DelaySchedule("uniform_random", tau=np.int64(1), block=np.int32(2), seed=np.uint8(3))
    assert [type(v) for v in (sched.tau, sched.block, sched.seed)] == [int, int, int]
    assert sched == DelaySchedule("uniform_random", tau=1, block=2, seed=3)


@pytest.mark.parametrize("make, name", [
    (lambda: StepWindow(True), "tau"),
    (lambda: GradientTable(small_problem(), np.zeros(4), tau=2.7), "tau"),
    (lambda: next_refresh_set(DelaySchedule("none"), 1.5, 3), "k"),
    (lambda: next_refresh_set(DelaySchedule("cyclic", tau=1, block=2), 1, 2.7), "n_components"),
    (lambda: next_refresh_set(DelaySchedule("none"), 1, True), "n_components"),
    (lambda: min_cyclic_block(5, 1.5), "tau"),
], ids=["window-bool-tau", "table-float-tau", "float-k", "float-count", "bool-count",
        "min-block-float-tau"])
def test_a_count_that_is_not_an_integer_is_refused(make, name):
    # These ran: a table at tau 2.7 as tau 2, a window at tau True as tau 1,
    # and a refresh set at k 1.5 of 2.7 components was [0, 1].
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        make()

# ---------------------------------------------------------------- gradient table


def test_full_refresh_matches_direct_gradient():
    p = small_problem()
    rng = np.random.default_rng(2)
    table = GradientTable(p, np.zeros(4), tau=0)
    for k in range(5):
        x = rng.standard_normal(4)
        agg = table.refresh_and_aggregate(p, x, range(p.n_components))
        assert np.array_equal(agg, grad_f(p, x))  # identical accumulation order
        assert table.max_staleness() == 0


def test_aggregate_matches_brute_force_over_random_schedules():
    # strongly convex components keep the trajectory bounded, so an absolute
    # 1e-10 comparison against the brute-force aggregate is meaningful
    rng = np.random.default_rng(4)
    comps = []
    for _ in range(5):
        m = rng.standard_normal((3, 3))
        A = m @ m.T
        comps.append(quadratic_component(0.8 * A / np.linalg.norm(A, 2),
                                         rng.standard_normal(3)))
    p = Problem(comps, NonsmoothTerm.zero(), 3)
    tau = 4
    sched = DelaySchedule("uniform_random", tau=tau, seed=11)
    table = GradientTable(p, np.zeros(3), tau=tau)
    x = np.zeros(3)
    log = [x.copy()]
    for k in range(500):
        rs = next_refresh_set(sched, k, p.n_components, table.ages)
        agg = table.refresh_and_aggregate(p, x, rs)
        # brute force: re-evaluate each component at the iterate its entry is from
        brute = np.zeros(3)
        for i, comp in enumerate(p.components):
            brute += comp.grad(log[k - int(table.ages[i])])
        assert np.linalg.norm(agg - brute) <= 1e-10
        # the aggregate is the sum of the entries
        assert np.array_equal(agg, np.sum(table.entries, axis=0))
        x = x - 0.05 * agg
        table.push_step(x - log[-1])
        log.append(x.copy())


def test_delta_matches_naive_window_sum():
    p = small_problem(n=2, d=3, seed=5)
    tau = 3
    rng = np.random.default_rng(6)
    table = GradientTable(p, np.zeros(3), tau=tau)
    steps = []
    for k in range(3 * tau):
        # naive definition with zero padding before the first iterate
        expected = sum(float(np.dot(s, s)) for s in steps[max(0, k - tau):k])
        assert table.delta() == pytest.approx(expected, abs=1e-10)
        step = rng.standard_normal(3) * 0.1
        table.push_step(step)
        steps.append(step)


def test_table_rejects_delay_bound_violation():
    p = small_problem(n=2, d=2, seed=7)
    table = GradientTable(p, np.zeros(2), tau=1)
    x = np.zeros(2)
    table.refresh_and_aggregate(p, x, set())   # first cycle, ages stay 0
    table.refresh_and_aggregate(p, x, set())   # ages reach tau = 1
    with pytest.raises(RuntimeError, match="delay bound"):
        table.refresh_and_aggregate(p, x, set())


def test_stale_aggregate_two_step_recursion():
    # single component, refresh only on even iterations
    comp = quadratic_component(np.array([[1.0]]), np.zeros(1))
    p = Problem([comp], NonsmoothTerm.zero(), 1)
    table = GradientTable(p, np.array([1.0]), tau=1)
    x0 = np.array([1.0])
    x1 = piag_step(p, table, x0, 0.1, {0})          # fresh gradient at x0
    assert x1[0] == pytest.approx(0.9, abs=0)
    x2 = piag_step(p, table, x1, 0.1, set())        # stale gradient from x0
    assert x2[0] == pytest.approx(0.8, abs=0)
    assert table.max_staleness() == 1


def test_refresh_set_forms_give_bitwise_the_same_table():
    # next_refresh_set returns an int array; a set, a list or a range of the
    # same indices must leave the same entries, ages and aggregates.
    p = small_problem(n=5, d=3, seed=12)
    rng = np.random.default_rng(13)
    points = [rng.standard_normal(3) for _ in range(6)]
    windows = [range(1, 4), range(3, 5), range(0), range(2, 3), range(0, 2), range(0, 5)]
    forms = [set, lambda w: list(reversed(w)), lambda w: w, lambda w: np.array(w),
             lambda w: np.array(w, dtype=np.int32)]
    results = []
    for form in forms:
        table = GradientTable(p, np.zeros(3), tau=3)
        aggregates = [table.refresh_and_aggregate(p, x, form(w)) for x, w in zip(points, windows)]
        results.append((np.array(aggregates).tobytes(), table.entries.tobytes(),
                        table.ages.tolist()))
    assert results[0][2] == [0, 0, 0, 0, 0]
    assert all(r == results[0] for r in results[1:])


@pytest.mark.parametrize("refresh_set", [np.array([True, False, True]), [True, False],
                                         [0.5, 1.9], np.array([0.0, 2.0]),
                                         np.array([[0, 1]]), np.array(1)])
def test_refresh_set_of_a_mask_floats_or_more_dimensions_is_rejected(refresh_set):
    # A mask used to refresh components 0 and 1, and floats were truncated.
    p = small_problem(n=3, d=2, seed=4)
    table = GradientTable(p, np.zeros(2), tau=2)
    with pytest.raises(ValueError, match="refresh set"):
        table.refresh_and_aggregate(p, np.ones(2), refresh_set)


@pytest.mark.parametrize("empty", [[], set(), range(0), (), np.array([]),
                                   np.array(range(0)), np.zeros(0, dtype=np.int32)])
def test_empty_refresh_sets_are_accepted(empty):
    p = small_problem(n=3, d=2, seed=4)
    table = GradientTable(p, np.zeros(2), tau=2)
    table.refresh_and_aggregate(p, np.zeros(2), range(3))
    aggregate = table.refresh_and_aggregate(p, np.ones(2), empty)
    assert np.array_equal(aggregate, grad_f(p, np.zeros(2)))
    assert table.ages.tolist() == [1, 1, 1]


def _counting_problem(shift=0.0):
    """Callable components ``0.5 (i + 1) ||x - shift||^2`` that count their
    gradient calls in ``calls``."""
    calls = []

    def component(i):
        def grad(x):
            calls.append(i)
            return (i + 1.0) * (x - shift)

        return SmoothComponent(lambda x: 0.5 * (i + 1.0) * float(np.dot(x - shift, x - shift)),
                               grad, lipschitz=i + 1.0)

    return Problem([component(i) for i in range(3)], NonsmoothTerm.zero(), 2), calls


def test_first_refresh_at_the_start_point_keeps_the_rows_evaluated_there():
    # Refreshed at bitwise x0, a row comes out as the table's fill wrote it,
    # for callable and quadratic components alike.
    x0 = np.array([0.0, -1.5])
    for p in (_counting_problem()[0], small_problem(n=3, d=2)):
        for refresh_set in (range(3), [1]):
            table = GradientTable(p, x0, tau=2)
            entries = table.entries.copy()
            aggregate = table.refresh_and_aggregate(p, x0.copy(), refresh_set)
            assert table.entries.tobytes() == entries.tobytes()
            assert aggregate.tobytes() == np.sum(entries, axis=0).tobytes()
            assert table.ages.tolist() == [0, 0, 0]


def test_first_refresh_off_the_start_point_evaluates_its_rows():
    # -0.0 equals 0.0 but is another point bit for bit, and a different
    # problem has other rows at the same point.
    x0 = np.array([0.0, 2.0])
    for x, other in ((np.array([-0.0, 2.0]), False), (x0.copy(), True)):
        p, calls = _counting_problem()
        table = GradientTable(p, x0, tau=2)
        q, q_calls = _counting_problem(shift=1.0)
        aggregate = table.refresh_and_aggregate(q if other else p, x, [0, 2])
        assert (q_calls if other else calls[3:]) == [0, 2]
        expected = [(q if other else p).components[i].grad(x) if i != 1
                    else p.components[1].grad(x0) for i in range(3)]
        assert table.entries.tobytes() == np.array(expected).tobytes()
        assert aggregate.tobytes() == np.sum(expected, axis=0).tobytes()


def test_max_staleness_zero_cases():
    p = small_problem(n=3, d=2, seed=10)
    table = GradientTable(p, np.zeros(2), tau=2)
    x = np.zeros(2)
    for k in range(5):
        table.refresh_and_aggregate(p, x, range(3))
        assert table.max_staleness() == 0
