import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piag import (GradientTable, NonsmoothTerm, Problem, QuadraticComponent, SmoothComponent,
                  eval_F, eval_f, grad_f, quadratic_component, smoothness_totals)
from piag import model
from piag.model import (load_problem, nonsmooth_to_dict, problem_from_dict, problem_to_dict,
                        save_problem)
from piag.prox import prox, prox_residual

from helpers import KillsTheWorker, central_diff_grad, quad_value_loops, with_last_matrix_as


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
    for x in (np.zeros(3), np.zeros((4, 3)), np.zeros((1, 1))):
        with pytest.raises(ValueError, match="dimension mismatch: expected 2"):
            eval_f(p, x)
        with pytest.raises(ValueError, match="dimension mismatch: expected 2"):
            eval_F(p, x)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("A, lipschitz, weak", [
    ([[1e308]], 1e308, 0.0),
    ([[-1.5e308, 0.0], [0.0, 1e308]], 1.5e308, 1.5e308),
])
def test_an_exactly_symmetric_matrix_is_kept_as_given(A, lipschitz, weak):
    # 0.5 * (A + A.T) would overflow to inf: a + a exceeds the largest float.
    comp = quadratic_component(A, np.zeros(len(A)))
    assert comp.matrix.tobytes() == np.array(A).tobytes()
    assert (comp.lipschitz, comp.weak_convexity) == (lipschitz, weak)
    # A matrix that is symmetric only within the tolerance is still symmetrized.
    near = quadratic_component([[1.0, 0.5], [0.5 + 2**-50, 1.0]], np.zeros(2))
    assert near.matrix[0, 1] == near.matrix[1, 0] == 0.5 + 2**-51


def test_grad_f_sums_the_components_own_gradients():
    # A hand-built component whose grad disagrees with its matrix: grad_f
    # follows the callables, the gradient table the matrices.
    comps = [QuadraticComponent(lambda x: 0.0, lambda x, k=k: (k + 2.0) * x, 1.0,
                                matrix=np.eye(3), offset=np.zeros(3)) for k in range(2)]
    p = Problem(comps, NonsmoothTerm.zero(), 3)
    x = np.array([1.0, -2.0, 0.5])
    assert grad_f(p, x).tobytes() == (2.0 * x + 3.0 * x).tobytes()
    assert GradientTable(p, x, 0).refresh_and_aggregate(p, x, range(2)).tobytes() == \
        (2.0 * x).tobytes()


def test_nonsmooth_validation():
    with pytest.raises(ValueError):
        NonsmoothTerm.l1(-1.0)
    with pytest.raises(ValueError):
        NonsmoothTerm.box(1.0, -1.0)
    with pytest.raises(ValueError):
        NonsmoothTerm(kind="spline")


@pytest.mark.parametrize("kind, fields, name", [
    ("zero", dict(lam=2.0), "lam"), ("box", dict(lam=0.7, lo=-1.0, hi=1.0), "lam"),
    ("zero", dict(lo=-1.0), "lo"), ("zero", dict(hi=1.0), "hi"),
    ("l1", dict(lam=1.0, lo=0.0, hi=1.0), "lo"), ("l1", dict(lam=1.0, hi=np.ones(2)), "hi"),
])
def test_nonsmooth_term_rejects_a_field_its_kind_does_not_use(kind, fields, name):
    with pytest.raises(ValueError, match=f"kind '{kind}' takes no .*{name}="):
        NonsmoothTerm(kind, **fields)


@pytest.mark.parametrize("make, name", [
    (lambda v: NonsmoothTerm.l1(v), "lam"),
    (lambda v: NonsmoothTerm("l1", lam=v), "lam"),
    (lambda v: NonsmoothTerm.box_plus_l1(-1.0, 1.0, v), "lam"),
    (lambda v: NonsmoothTerm.box(v, 2.0), "lo"),
    (lambda v: NonsmoothTerm("box", lo=v, hi=2.0), "lo"),
    (lambda v: NonsmoothTerm.box_plus_l1(-1.0, v, 0.5), "hi"),
], ids=["l1", "l1-direct", "box_plus_l1-lam", "box-lo", "box-lo-direct", "box_plus_l1-hi"])
@pytest.mark.parametrize("value", [True, np.True_, "1", 1j, {}], ids=repr)
def test_nonsmooth_term_rejects_non_real_numbers(make, name, value):
    with pytest.raises(ValueError, match=f"{name} must be a real number"):
        make(value)


@pytest.mark.parametrize("bound", [[True, 1.0], np.array([True, False]), [1.0, "2"], [[1.0], 2.0]],
                         ids=["list-bool", "array-bool", "list-string", "nested"])
def test_box_bound_vectors_hold_real_numbers(bound):
    with pytest.raises(ValueError, match="hi must be a real number or a vector of them"):
        NonsmoothTerm.box([-1.0, -1.0], bound)


def test_nonsmooth_term_accepts_numpy_reals():
    assert NonsmoothTerm.l1(np.float32(0.5)).lam == 0.5
    term = NonsmoothTerm.box_plus_l1(np.int64(-1), np.array([1, 2]), np.float64(0.25))
    assert (term.lo, term.hi.tolist(), term.lam) == (-1.0, [1.0, 2.0], 0.25)


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


@pytest.mark.parametrize("evaluate", [
    lambda p, x: eval_F(p, x), lambda p, x: p.nonsmooth.value(x),
    lambda p, x: prox(p.nonsmooth, x, 1.0), lambda p, x: prox_residual(p, 1.0, x)],
    ids=["eval_F", "value", "prox", "prox_residual"])
def test_a_stack_of_more_than_two_dimensions_is_refused(evaluate):
    # A point or a (K, d) stack is evaluated; a 3-d array is an error,
    # not one long point.
    p = Problem([quadratic_component(np.eye(4), np.zeros(4))], NonsmoothTerm.l1(1.0), 4)
    with pytest.raises(ValueError, match=r"expected a 1-d vector, got shape \(2, 3, 4\)"):
        evaluate(p, np.ones((2, 3, 4)))
    assert len(evaluate(p, np.ones((3, 4)))) == 3


def test_problem_requires_l_below_L():
    bad = SmoothComponent(lambda x: 0.0, lambda x: x, lipschitz=1.0, weak_convexity=1.0)
    ok = Problem([bad], NonsmoothTerm.zero(), 1)  # l == L is allowed
    assert smoothness_totals(ok) == (1.0, 1.0)


def _callable(lipschitz, weak_convexity=0.0) -> SmoothComponent:
    return SmoothComponent(lambda x: 0.0, lambda x: x, lipschitz, weak_convexity)


@pytest.mark.parametrize("build, message", [
    (lambda: NonsmoothTerm("box", lo=-1.0), "kind 'box' requires lo and hi bounds"),
    (lambda: NonsmoothTerm("box_plus_l1", hi=1.0, lam=0.5),
     "kind 'box_plus_l1' requires lo and hi bounds"),
    (lambda: Problem([], NonsmoothTerm.zero(), 1), "needs at least one smooth component"),
    (lambda: Problem([_callable(1.0)], NonsmoothTerm.zero(), 0), "dimension must be positive"),
    (lambda: Problem([_callable(math.inf)], NonsmoothTerm.zero(), 1),
     "aggregate smoothness constants must be finite"),
    (lambda: Problem([_callable(1e308), _callable(1e308)], NonsmoothTerm.zero(), 1),
     "aggregate smoothness constants must be finite"),  # the sum overflows
    (lambda: Problem([_callable(1.0, 1.0 + 1e-13)], NonsmoothTerm.zero(), 1),
     "aggregate Lipschitz constant must dominate"),  # within a component's tolerance
], ids=["box-without-hi", "box_plus_l1-without-lo", "no-components", "dimension-0",
        "infinite-L", "L-overflows", "l-above-L"])
def test_a_term_or_problem_the_theory_does_not_cover_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


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


@pytest.mark.parametrize("nonsmooth, dimension", [
    (NonsmoothTerm("l1", lam=np.float32(0.1)), 2),
    (NonsmoothTerm("box", lo=np.float32(-1), hi=np.int64(1)), 2),
    (NonsmoothTerm("box_plus_l1", lo=np.array([-1, -2], np.int32), hi=np.float16(1), lam=1), 2),
    (NonsmoothTerm.zero(), np.int64(2)),
], ids=["float32-lam", "numpy-scalar-bounds", "numpy-vector-bound", "int64-dimension"])
def test_a_problem_of_numpy_numbers_is_saved_as_python_numbers(tmp_path, nonsmooth, dimension):
    # Each was kept as given, so save_problem raised "Object of type float32
    # is not JSON serializable".
    p = Problem([quadratic_component(np.eye(2), np.ones(2))], nonsmooth, dimension)
    path = tmp_path / "problem.json"
    save_problem(p, path)
    q = load_problem(path)
    assert json.loads(path.read_text())["dimension"] == q.dimension == 2
    for name in ("lam", "lo", "hi"):
        assert np.array_equal(getattr(q.nonsmooth, name), getattr(p.nonsmooth, name))


def test_a_term_is_written_alike_however_it_is_built():
    # NonsmoothTerm("l1", lam=1) was written "lambda": 1, and NonsmoothTerm.l1(1) 1.0.
    for term in (NonsmoothTerm("l1", lam=1), NonsmoothTerm.l1(1)):
        assert json.dumps(nonsmooth_to_dict(term)) == '{"kind": "l1", "lambda": 1.0}'
    text = json.dumps(nonsmooth_to_dict(NonsmoothTerm("box_plus_l1", lo=-1, hi=[1, 2], lam=1)))
    assert text == '{"kind": "box_plus_l1", "lambda": 1.0, "lo": -1.0, "hi": [1.0, 2.0]}'


@pytest.mark.parametrize("dimension", [2.0, True, "2"])
def test_problem_dimension_must_be_an_integer(dimension):
    with pytest.raises(ValueError, match="^dimension must be an integer, got "):
        Problem([quadratic_component(np.eye(2), np.ones(2))], NonsmoothTerm.zero(), dimension)


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


# ------------------------------------------------- components built in blocks

# The builder checks a stack in blocks that fill 256 KiB, nine matrices of
# 60 x 60, and a problem of one block starts no thread (README, "Building or
# loading a problem"); these tests use sizes on both sides of that line.
# Above 64 x 64, eigvalsh may start BLAS threads, which makes it slow.
_BLOCKED_D = 60


def _one_by_one(A, b, constant):
    """What ``quadratic_component`` computed before components were built in
    blocks: one ``eigvalsh`` per matrix."""
    A = 0.5 * (A + A.T)
    eigenvalues = np.linalg.eigvalsh(A)
    return A, b, constant, max(float(np.max(np.abs(eigenvalues))), 1e-12), \
        max(0.0, float(-eigenvalues[0]))


def _spec_of(entries, d) -> dict:
    """The problem spec of the ``(A, b, constant)`` triples ``entries``."""
    return {"dimension": d, "nonsmooth": {"kind": "zero"},
            "components": [{"A": A.reshape(-1).tolist(), "b": b.tolist(), "c0_term": constant}
                           for A, b, constant in entries]}


def _cpus(count: int):
    """An affinity mask of ``count`` CPUs whatever the host's."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(count)))


def _row_threads() -> int:
    """The ``RowThreads`` workers alive."""
    return sum(thread.name == "piag-rows" for thread in threading.enumerate())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 20), d=st.one_of(st.integers(1, 40), st.just(_BLOCKED_D)),
       seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-6, 1.0, 1e6]),
       cpus=st.integers(1, 5))
def test_blocked_build_is_bitwise_the_one_by_one_build(n, d, seed, scale, cpus):
    # At d = 60, n from 1 to 20 crosses the block edges at 9 and 18
    # components; smaller matrices are one block.
    rng = np.random.default_rng(seed)
    entries = []
    for _ in range(n):
        m = scale * rng.standard_normal((d, d))  # indefinite
        entries.append((m + m.T, rng.standard_normal(d), float(rng.standard_normal())))
    with _cpus(cpus):
        built = problem_from_dict(_spec_of(entries, d)).components
    assert len(built) == n
    for comp, entry in zip(built, entries):
        A, b, constant, lipschitz, weak = _one_by_one(*entry)
        assert _bits(comp.matrix) == _bits(A)
        assert _bits(comp.offset) == _bits(b)
        assert (comp.constant, comp.lipschitz, comp.weak_convexity) == \
            (constant, lipschitz, weak)


def test_more_workers_than_cores_each_fill_their_own_rows():
    # Eight worker threads on nine blocks of one stack, switching every
    # microsecond: a row written or symmetrized by the wrong block would
    # break the bits.
    rng = np.random.default_rng(12)
    d = _BLOCKED_D
    entries = [(m + m.T, rng.standard_normal(d), float(k))
               for k, m in enumerate(rng.standard_normal((81, d, d)))]
    spec = _spec_of(entries, d)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _cpus(8):
            built = problem_from_dict(spec).components
    finally:
        sys.setswitchinterval(interval)
    for comp, entry in zip(built, entries, strict=True):
        A, b, constant, lipschitz, weak = _one_by_one(*entry)
        assert _bits(comp.matrix) == _bits(A) and _bits(comp.offset) == _bits(b)
        assert (comp.constant, comp.lipschitz, comp.weak_convexity) == (constant, lipschitz, weak)


class _LastEntryWaits(list):
    """A spec's ``components`` list whose last entry is read only once
    ``ready`` is set, or after 10 s; ``waits`` records whether it was set."""

    def __init__(self, entries, ready: threading.Event):
        super().__init__(entries)
        self.ready, self.waits = ready, []

    def __iter__(self):
        for k, entry in enumerate(super().__iter__()):
            if k == len(self) - 1:
                self.waits.append(self.ready.wait(timeout=10))
            yield entry


@pytest.mark.parametrize("cpus", [2, 8])
def test_blocks_are_checked_while_the_entries_are_drawn(monkeypatch, cpus):
    # The last of 28 entries waits until a block has its eigenvalues: a
    # builder that read every entry before checking any would lose the
    # overlap of reading and eigvalsh.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    checked, eigvalsh = threading.Event(), np.linalg.eigvalsh

    def checking(*args, **kwargs):
        checked.set()
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", checking)
    rng = np.random.default_rng(6)
    d = _BLOCKED_D
    spec = _spec_of([(m + m.T, rng.standard_normal(d), 0.0)
                     for m in rng.standard_normal((28, d, d))], d)
    spec["components"] = _LastEntryWaits(spec["components"], checked)
    assert problem_from_dict(spec).n_components == 28
    assert spec["components"].waits == [True]


def test_map_returns_results_in_item_order_and_raises_the_lowest_error(monkeypatch):
    # Later items end first; items 3 and 7 fail.  Then an iterable that
    # fails after three items: its error comes once they have ended, and
    # the threads serve the next map as before.
    import time

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    ended = []

    def square(i):
        time.sleep(0.001 * (20 - i))
        ended.append(i)
        if i in (7, 3):
            raise ValueError(f"item {i}")
        return i * i

    def broken():
        yield from (11, 12, 13)
        raise KeyError("the iterable")

    with model.RowThreads() as threads:
        assert threads.map(square, range(11, 21)) == [i * i for i in range(11, 21)]
        with pytest.raises(ValueError, match="item 3"):
            threads.map(square, range(10))
        assert sorted(ended[10:]) == list(range(10))
        ended.clear()
        with pytest.raises(KeyError, match="the iterable"):
            threads.map(square, broken())
        assert sorted(ended) == [11, 12, 13]
        assert threads.map(square, range(11, 21)) == [i * i for i in range(11, 21)]
        assert _row_threads() == 3
    assert _row_threads() == 0


@pytest.mark.parametrize("cpus, items", [(8, []), (8, [5]), (1, [1, 2, 3])],
                         ids=["no-item", "one-item", "one-cpu"])
def test_map_of_one_item_or_on_one_cpu_starts_no_thread(monkeypatch, cpus, items):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    with model.RowThreads() as threads:
        assert threads.shares == cpus
        assert threads.map(lambda i: -i, items) == [-i for i in items]
    assert started == []


@pytest.mark.parametrize("cpus", [2, 4])
def test_map_of_one_item_per_cpu_runs_one_item_on_each_thread(monkeypatch, cpus):
    # Each worker starts 50 ms late, so the calling thread ends its item
    # first: it must leave the queued items to the workers, as a refresh
    # cut into one share per CPU expects.
    import time

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    run = threading.Thread.run

    def late(thread):
        if thread.name == "piag-rows":
            time.sleep(0.05)
        run(thread)

    monkeypatch.setattr(threading.Thread, "run", late)
    with model.RowThreads() as threads:
        names = threads.map(lambda i: threading.current_thread().name, range(cpus))
    assert names == [threading.current_thread().name] + ["piag-rows"] * (cpus - 1)


@pytest.mark.parametrize("cpus", [None, 3], ids=["count-unknown", "three"])
def test_a_platform_without_an_affinity_mask_gives_the_same_bits(tmp_path, monkeypatch, cpus):
    # macOS has no os.sched_getaffinity: the CPU count is os.cpu_count(),
    # or 1 when that is unknown.  Ten matrices of 60 x 60 are two blocks of
    # the builder, which save_problem encodes in worker processes, and a
    # refresh of seven matrices of 200 x 200 is shared out (README).
    from piag import DelaySchedule, SolverConfig, solve
    from piag.problems import make_quadratic_l1

    large = make_quadratic_l1(7, 200, seed=4, lam=0.1)

    def outputs(name: str) -> tuple:
        p = make_quadratic_l1(10, _BLOCKED_D, seed=4, lam=0.1)
        path = tmp_path / name / "problem.json"
        path.parent.mkdir()
        save_problem(p, path)
        _assert_bitwise_equal(p, load_problem(path))
        trace = solve(large, SolverConfig(alpha="auto_lemma2", x0=np.linspace(-1.0, 1.0, 200),
                                          schedule=DelaySchedule("none"), max_iters=40,
                                          keep_iterates=True))
        return p, path.read_bytes(), trace.iterates.tobytes(), trace.objective_values.tobytes()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    before = outputs("mask")
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert model.RowThreads().shares == (cpus or 1)
    after = outputs("no-mask")
    _assert_bitwise_equal(before[0], after[0])
    assert before[1:] == after[1:]


def _spec_with(d, n, bad: dict) -> dict:
    """A problem spec of ``n`` identity components with the entries of ``bad``
    (index -> A list) in their place."""
    identity = np.eye(d).reshape(-1).tolist()
    components = [{"A": bad.get(i, identity), "b": [0.0] * d} for i in range(n)]
    return {"dimension": d, "components": components, "nonsmooth": {"kind": "zero"}}


def _identity_with(d, i, j, value) -> list:
    """The flat ``d x d`` identity with ``value`` at ``[i, j]``."""
    A = np.eye(d)
    A[i, j] = value
    return A.reshape(-1).tolist()


_NAN_A = _identity_with(_BLOCKED_D, 0, 1, math.nan)
_SKEW_A = _identity_with(_BLOCKED_D, 0, 1, 1.0)
_SHORT_A = [1.0] * (_BLOCKED_D ** 2 - 1)


@pytest.mark.parametrize("bad, message", [
    ({4: _NAN_A, 20: _SKEW_A}, "must be finite"),
    ({4: _SKEW_A, 20: _NAN_A}, "must be symmetric"),
    ({1: _NAN_A, 22: _SHORT_A}, "must be finite"),  # a worker's error and the reader's
    ({1: _SHORT_A, 22: _NAN_A}, r"components\[1\]: 'A' must be a flat"),
    ({12: _NAN_A, 13: _SHORT_A}, "must be finite"),  # in the same block
    ({36: _SKEW_A, 35: _NAN_A}, "must be finite"),  # in the last two blocks
], ids=["finite-first", "symmetric-first", "worker-then-reader", "reader-then-worker",
        "same-block", "adjacent-blocks"])
def test_error_of_the_lowest_bad_component_wins(monkeypatch, bad, message):
    # 37 matrices of 60 x 60: five blocks, the last of one matrix, shared
    # out across three CPUs.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    with pytest.raises(ValueError, match=message):
        problem_from_dict(_spec_with(_BLOCKED_D, 37, bad))
    assert _row_threads() == 0


@pytest.fixture(scope="module")
def saved_l1(tmp_path_factory) -> dict:
    """28 x 60 l1 problems, four blocks of the builder, saved once: seed ->
    (problem, bytes of problem.json, bytes of its sidecar)."""
    from piag.problems import make_quadratic_l1

    saved = {}
    for seed in (4, 5):
        p = make_quadratic_l1(28, _BLOCKED_D, seed=seed, lam=0.1)
        path = tmp_path_factory.mktemp("saved") / "problem.json"
        save_problem(p, path)
        saved[seed] = p, path.read_bytes(), Path(str(path) + ".npz").read_bytes()
    return saved


def _write_saved(saved_l1, path, seed: int = 4) -> Problem:
    """Write the saved problem of ``seed`` and its sidecar to ``path``."""
    p, document, sidecar = saved_l1[seed]
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(document)
    Path(str(path) + ".npz").write_bytes(sidecar)
    return p


def test_building_and_loading_leave_no_thread_running(tmp_path, saved_l1):
    from piag.problems import make_quadratic_l1

    before = threading.active_count()
    make_quadratic_l1(28, _BLOCKED_D, seed=4, lam=0.1)  # four blocks
    assert threading.active_count() == before
    path = tmp_path / "problem.json"
    p = _write_saved(saved_l1, path)
    for with_sidecar in (True, False):
        if not with_sidecar:
            (tmp_path / "problem.json.npz").unlink()
        _assert_bitwise_equal(p, load_problem(path))
        assert threading.active_count() == before


# ------------------------------------- the digest taken beside the sidecar build


@pytest.fixture
def two_cpus(monkeypatch):
    """Two CPUs in the affinity mask whatever the host's, so that a sidecar of
    more than one block is digested beside its build."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def digests(monkeypatch) -> list:
    """The SHA-256 digests begun beside a build: those begun while a thread
    started since the fixture was set up is alive."""
    started, taken = [], []
    start, sha256 = threading.Thread.start, hashlib.sha256

    def counted_start(thread):
        started.append(thread)
        start(thread)

    def counted_sha256(*args, **kwargs):
        if any(thread.is_alive() for thread in started):
            taken.append(args)
        return sha256(*args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    monkeypatch.setattr(hashlib, "sha256", counted_sha256)
    return taken


def _asymmetric(sidecar):
    with np.load(sidecar) as z:
        A = z["A"]
    A[5, 0, 1] += 1.0
    _rewrite_sidecar(sidecar, A=A)


@pytest.mark.parametrize("damage", [
    _asymmetric,
    lambda s: _rewrite_sidecar(s, A=np.zeros((28, _BLOCKED_D, _BLOCKED_D - 1))),
], ids=["asymmetric", "wrong-shape"])
def test_an_out_of_date_sidecar_that_fails_its_build_is_dropped(tmp_path, saved_l1, two_cpus,
                                                                 digests, damage):
    # The sidecar of another problem of the same shape, damaged: its build
    # raises, or its arrays do not fit, while its digest is being taken.
    path, other = tmp_path / "problem.json", tmp_path / "other" / "problem.json"
    _write_saved(saved_l1, path)
    _write_saved(saved_l1, other, seed=5)
    damage(tmp_path / "other" / "problem.json.npz")
    os.replace(tmp_path / "other" / "problem.json.npz", tmp_path / "problem.json.npz")
    before = threading.active_count()
    _assert_bitwise_equal(_parse_json(path), load_problem(path))
    assert len(digests) == 1 and threading.active_count() == before


def test_a_current_sidecar_that_fails_its_build_raises_its_error(tmp_path, saved_l1, two_cpus,
                                                                 digests):
    path = tmp_path / "problem.json"
    _write_saved(saved_l1, path)
    _asymmetric(tmp_path / "problem.json.npz")  # the digest still matches the JSON
    before = threading.active_count()
    with pytest.raises(ValueError, match="must be symmetric"):
        load_problem(path)
    assert len(digests) == 1 and threading.active_count() == before


def test_a_digest_that_fails_on_its_thread_falls_back_to_the_json(tmp_path, monkeypatch, capsys,
                                                                  saved_l1, two_cpus, digests):
    path = tmp_path / "problem.json"
    p = _write_saved(saved_l1, path)
    counted = hashlib.sha256  # see the digests fixture

    def unreadable(*args, **kwargs):
        counted(*args, **kwargs)
        raise OSError("the problem file cannot be read")

    parses, parse = [], json.load
    monkeypatch.setattr(hashlib, "sha256", unreadable)
    monkeypatch.setattr(json, "load", lambda fh: parses.append(fh) or parse(fh))
    before = threading.active_count()
    _assert_bitwise_equal(p, load_problem(path))
    assert len(digests) == 1 and len(parses) == 1 and threading.active_count() == before
    assert capsys.readouterr().err == ""


def test_a_one_block_sidecar_starts_no_thread(tmp_path, monkeypatch, two_cpus):
    from piag.problems import make_quadratic_l1

    path = tmp_path / "problem.json"
    p = make_quadratic_l1(5, 20, seed=7, lam=0.1)
    save_problem(p, path)
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    _assert_bitwise_equal(p, load_problem(path))
    assert started == []


def test_a_sidecar_on_one_cpu_is_digested_before_its_build(tmp_path, monkeypatch, saved_l1,
                                                           digests):
    path = tmp_path / "problem.json"
    p = _write_saved(saved_l1, path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _assert_bitwise_equal(p, load_problem(path))
    _asymmetric(tmp_path / "problem.json.npz")
    with pytest.raises(ValueError, match="must be symmetric"):
        load_problem(path)
    assert digests == []


@pytest.mark.parametrize("with_sidecar", [True, False], ids=["sidecar", "json"])
def test_loading_a_small_problem_imports_no_thread_pool(tmp_path, with_sidecar):
    # Five 20 x 20 matrices fill less than one block, so a fresh process that
    # loads them starts no thread for them; twelve 96 x 96 matrices fill
    # three, which RowThreads checks.  Neither imports concurrent.futures and
    # logging.
    from piag.problems import make_quadratic_l1

    for n, d in ((5, 20), (12, 96)):
        path = tmp_path / f"problem{n}.json"
        save_problem(make_quadratic_l1(n, d, seed=7, lam=0.1), path)
        if not with_sidecar:
            (tmp_path / f"problem{n}.json.npz").unlink()
        code = ("import sys; from piag.model import load_problem; load_problem(sys.argv[1]); "
                "print('concurrent.futures' in sys.modules)")
        src = os.path.dirname(os.path.dirname(model.__file__))
        proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n", (n, d)



@pytest.mark.parametrize("blocks", ["one-block", "blocks-of-four"])
@pytest.mark.parametrize("source", ["generated", "json", "sidecar"])
def test_components_are_views_of_one_stack(tmp_path, source, blocks):
    from piag.problems import make_quadratic_box

    # Five matrices of 91 x 91 are two blocks of four (README).
    n, d = (13, 6) if blocks == "one-block" else (5, 91)
    p = make_quadratic_box(n, d, seed=4, negative_curvature=0.5)
    if source != "generated":
        path = tmp_path / "problem.json"
        save_problem(p, path)
        if source == "json":
            (tmp_path / "problem.json.npz").unlink()
        p = load_problem(path)
    A, b, c = p.quadratic_stack
    assert (A.shape, b.shape, c.shape) == ((n, d, d), (n, d), (n,))
    for i, comp in enumerate(p.components):
        assert comp.matrix.ctypes.data == A[i].ctypes.data and comp.matrix.strides == (8 * d, 8)
        assert comp.offset.ctypes.data == b[i].ctypes.data and comp.offset.strides == (8,)
        assert comp.constant == c[i]


def test_a_list_of_components_is_copied_into_one_stack():
    rng = np.random.default_rng(3)
    comps = random_quadratic_problem(rng, 3, 4).components
    p = Problem(list(comps), NonsmoothTerm.zero(), 4)
    A, b, c = p.quadratic_stack
    assert p.components == comps  # the caller's components, kept as given
    for i, comp in enumerate(comps):
        assert _bits(A[i]) == _bits(comp.matrix) and _bits(b[i]) == _bits(comp.offset)
        assert c[i] == comp.constant


def test_loading_a_sidecar_keeps_one_copy_of_its_stack(tmp_path, monkeypatch):
    # The sidecar's arrays become the problem's stack with no second copy
    # (README), so the traced peak of a load stays within a quarter of a copy
    # of the matrices, plus 2 MiB for the read and digest buffers, whose
    # sizes are fixed.  One CPU keeps the bound from depending on the host:
    # each worker holds its own temporaries.
    import tracemalloc

    n, d = 160, 64  # 5.2 MB of matrices, formatted fast: they hold three values
    comps = [QuadraticComponent(value=lambda x: 0.0, grad=np.zeros_like, lipschitz=3.0,
                                matrix=np.eye(d) * (1 + k % 3), offset=np.full(d, 0.5))
             for k in range(n)]
    path = tmp_path / "problem.json"
    save_problem(Problem(comps, NonsmoothTerm.zero(), d), path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    load_problem(path)  # the allocations of first use
    tracemalloc.start()
    try:
        p = load_problem(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * p.quadratic_stack[0].nbytes + (2 << 20)


def test_box_bounds_of_different_lengths_are_rejected():
    with pytest.raises(ValueError, match="3 and 2 entries"):
        NonsmoothTerm.box([-1.0, -1.0, -1.0], [1.0, 1.0])


@pytest.mark.parametrize("matrix, offset", [(np.eye(3), np.zeros(2)), (np.eye(2), np.zeros(3)),
                                            (np.ones((2, 3)), np.zeros(2)),
                                            (np.eye(2), np.zeros((2, 1))), (None, np.zeros(2))])
def test_problem_rejects_a_quadratic_component_of_another_dimension(matrix, offset):
    # such a problem would be written to a problem file that cannot be read back
    comp = QuadraticComponent(value=lambda x: 0.0, grad=np.zeros_like, lipschitz=1.0,
                              matrix=matrix, offset=offset)
    with pytest.raises(ValueError, match="component 0 has a matrix of shape .*problem "
                                         "dimension is 2"):
        Problem([comp], NonsmoothTerm.zero(), 2)


def _sidecar_case(nonsmooth):
    """A problem file whose components have zero and nonzero constants."""
    rng = np.random.default_rng(53)
    base = random_quadratic_problem(rng, 3, 4).components
    comps = [quadratic_component(c.matrix, c.offset, k) for c, k in zip(base, (0.0, -1.25, 0.1))]
    return Problem(comps, nonsmooth, 4)


_SIDECAR_NONSMOOTH = [NonsmoothTerm.zero(), NonsmoothTerm.l1(0.3), NonsmoothTerm.box(-2.0, 2.0),
                      NonsmoothTerm.box_plus_l1(-np.arange(1.0, 5.0), [2.0, np.inf, 3.0, 4.0], 0.25)]


def _parse_json(path) -> Problem:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def _assert_bitwise_equal(p, q):
    assert q.dimension == p.dimension
    for name in ("kind", "lam", "lo", "hi"):
        a, b = getattr(p.nonsmooth, name), getattr(q.nonsmooth, name)
        assert a == b if isinstance(a, str) or a is None else _bits(a) == _bits(b)
    assert len(p.components) == len(q.components)
    for a, b in zip(p.components, q.components):
        for name in ("matrix", "offset", "constant", "lipschitz", "weak_convexity"):
            assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name
    assert [_bits(v) for v in p.quadratic_sum] == [_bits(v) for v in q.quadratic_sum]


@pytest.mark.parametrize("nonsmooth", _SIDECAR_NONSMOOTH, ids=lambda t: t.kind)
def test_sidecar_load_is_bitwise_equal_to_json_parse(tmp_path, monkeypatch, nonsmooth):
    path = tmp_path / "problem.json"
    save_problem(_sidecar_case(nonsmooth), path)
    expected = _parse_json(path)

    def no_parse(fh):
        raise AssertionError("the JSON text was parsed although the sidecar matches")

    monkeypatch.setattr(model.json, "load", no_parse)
    _assert_bitwise_equal(expected, load_problem(path))


def test_save_problem_writes_the_interchange_bytes(tmp_path):
    p = _sidecar_case(_SIDECAR_NONSMOOTH[-1])
    path = tmp_path / "problem.json"
    save_problem(p, path)
    assert path.read_text() == json.dumps(problem_to_dict(p), indent=2, sort_keys=True) + "\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["problem.json", "problem.json.npz"]


def test_save_problem_encodes_a_stack_of_one_block_in_the_calling_process(tmp_path,
                                                                          monkeypatch):
    # save_problem starts worker processes just when the builder checks the
    # stack in more than one block, which on two CPUs starts threads: 81
    # matrices of 20 x 20 fill one block, 82 do not (README).
    import concurrent.futures

    from piag.problems import make_quadratic_l1

    pools, real = [], concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *args: pools.append(args) or real(*args))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread.name) or start(thread))
    for n in (5, 81, 82):
        started.clear()
        pools.clear()
        p = make_quadratic_l1(n, 20, seed=3, lam=0.1)
        built_on_threads = "piag-rows" in started
        path = tmp_path / f"problem{n}.json"
        save_problem(p, path)
        assert bool(pools) == built_on_threads == (n == 82)
        assert path.read_bytes() == (json.dumps(problem_to_dict(p), indent=2, sort_keys=True)
                                     + "\n").encode()
        _assert_bitwise_equal(p, load_problem(path))


# Finite floats, with the edge cases of float repr drawn on purpose: -0.0,
# subnormals and exponents near +-308.
_REPR_EDGES = [-0.0, 5e-324, -2.2250738585072014e-308, 1e-308, -1e308, 1.7976931348623157e308]
_ANY_FINITE = st.one_of(st.sampled_from(_REPR_EDGES), st.floats(allow_nan=False,
                                                                 allow_infinity=False))
# Matrix entries stay within 1e300, so eigvalsh and the summed constants of
# a few components stay finite.
_MATRIX_ENTRY = st.one_of(st.sampled_from(_REPR_EDGES[:4] + [-1e300, 1e300]),
                          st.floats(min_value=-1e300, max_value=1e300))


@pytest.fixture(scope="module")
def save_dir(tmp_path_factory):
    """A directory that property tests save a problem into, one example after another."""
    return tmp_path_factory.mktemp("save")


def _indent2(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 3), d=st.integers(1, 5))
def test_component_text_is_the_indenting_encoders_text(save_dir, data, n, d):
    # Components of any finite numbers, their matrices not even symmetric.
    comps = []
    for _ in range(n):
        A = np.array(data.draw(st.lists(_ANY_FINITE, min_size=d * d, max_size=d * d)))
        b = np.array(data.draw(st.lists(_ANY_FINITE, min_size=d, max_size=d)))
        c0 = data.draw(st.one_of(st.just(0.0), _ANY_FINITE))
        comps.append(QuadraticComponent(value=lambda x: 0.0, grad=np.zeros_like, lipschitz=1.0,
                                        matrix=A.reshape(d, d), offset=b, constant=c0))
    with np.errstate(over="ignore"):  # the summed quadratic of entries near 1e308
        p = Problem(comps, NonsmoothTerm.zero(), d)
    path = save_dir / "problem.json"
    save_problem(p, path)
    assert path.read_bytes() == (_indent2(problem_to_dict(p)) + "\n").encode()


def _bound_strategy(d):
    return st.one_of(st.sampled_from([-math.inf, math.inf]), _ANY_FINITE,
                     st.lists(st.one_of(st.sampled_from([-math.inf, math.inf]), _ANY_FINITE),
                              min_size=d, max_size=d))


@st.composite
def _nonsmooth_terms(draw, d):
    kind = draw(st.sampled_from(["zero", "l1", "box", "box_plus_l1"]))
    lam = draw(st.floats(min_value=0.0, max_value=1e308))
    if kind in ("zero", "l1"):
        return NonsmoothTerm.zero() if kind == "zero" else NonsmoothTerm.l1(lam)
    lo, hi = draw(_bound_strategy(d)), draw(_bound_strategy(d))
    lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    lo, hi = (float(lo), float(hi)) if lo.ndim == 0 else (lo, hi)
    return NonsmoothTerm.box(lo, hi) if kind == "box" else NonsmoothTerm.box_plus_l1(lo, hi, lam)


@st.composite
def _writable_problems(draw):
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    comps = []
    for _ in range(n):
        upper = draw(st.lists(_MATRIX_ENTRY, min_size=d * d, max_size=d * d))
        A = np.triu(np.array(upper).reshape(d, d))
        A = A + np.triu(A, 1).T
        b = draw(st.lists(_ANY_FINITE, min_size=d, max_size=d))
        c0 = draw(st.one_of(st.just(0.0), st.just(-0.0), _ANY_FINITE))
        comps.append(quadratic_component(A, b, c0))
    with np.errstate(over="ignore"):  # the summed b of entries near 1e308 may overflow
        return Problem(comps, draw(_nonsmooth_terms(d)), d)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(p=_writable_problems())
def test_save_problem_writes_the_indenting_encoders_bytes(tmp_path_factory, p):
    path = tmp_path_factory.mktemp("save") / "problem.json"
    save_problem(p, path)
    assert path.read_bytes() == (_indent2(problem_to_dict(p)) + "\n").encode()
    with np.load(str(path) + ".npz") as z:  # the sidecar as README gives it
        assert str(z["sha256"]) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert sorted(f.name for f in path.parent.iterdir()) == ["problem.json", "problem.json.npz"]
    with np.errstate(over="ignore"):  # as in _writable_problems
        _assert_bitwise_equal(_parse_json(path), load_problem(path))


# The writer formats each distinct bit pattern of a list once, so lists that
# repeat a few values are its main case.  The pools hold values equal as
# floats but written differently (0.0 and -0.0; NaNs of either sign and
# another payload), values near the ends of the exponent range, and the
# non-finite values that only a directly built component can hold.
_OTHER_NAN = float(np.array(0x7FF8000000000001, dtype=np.uint64).view(float))
_POOL_VALUES = _REPR_EDGES + [1e308, -1e308, math.nan, -math.nan, _OTHER_NAN, math.inf,
                              -math.inf, 1.0, 0.1]


@st.composite
def _repetitive_problems(draw):
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    comps = []
    for _ in range(n):
        extra = draw(st.lists(st.one_of(st.sampled_from(_POOL_VALUES), _ANY_FINITE),
                              min_size=1, max_size=3))
        pool = st.sampled_from([0.0, -0.0, *extra])
        M = np.array(draw(st.lists(pool, min_size=d * d, max_size=d * d))).reshape(d, d)
        A = np.where(np.triu(np.ones((d, d), dtype=bool)), M, M.T)  # symmetric, bits kept
        b = np.array(draw(st.lists(pool, min_size=d, max_size=d)), dtype=float)
        comps.append(QuadraticComponent(value=lambda x: 0.0, grad=np.zeros_like, lipschitz=1.0,
                                        matrix=A, offset=b, constant=draw(pool)))
    with np.errstate(all="ignore"):  # the summed quadratic of non-finite entries
        return Problem(comps, NonsmoothTerm.l1(0.5), d)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(p=_repetitive_problems())
def test_save_problem_writes_repeated_values_as_the_indenting_encoder(tmp_path_factory, p):
    path = tmp_path_factory.mktemp("save") / "problem.json"
    save_problem(p, path)
    assert path.read_bytes() == (_indent2(problem_to_dict(p)) + "\n").encode()


class _FailsToPickle(np.ndarray):
    def __reduce_ex__(self, protocol):
        raise RuntimeError("this matrix cannot be sent to a worker")


@pytest.mark.parametrize("matrix_class", [_FailsToPickle, KillsTheWorker],
                         ids=["encode-raises", "worker-dies"])
def test_failed_write_leaves_the_existing_files_untouched(tmp_path, matrix_class):
    from piag.problems import make_quadratic_l1

    path = tmp_path / "problem.json"
    save_problem(_sidecar_case(NonsmoothTerm.zero()), path)
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    # Ten matrices of 60 x 60 fill more than one block, so the process pool
    # encodes them and the last one fails on its way to a worker.
    with pytest.raises(RuntimeError):
        save_problem(with_last_matrix_as(make_quadratic_l1(10, 60, seed=5, lam=0.3),
                                         matrix_class), path)
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


def test_failed_in_process_write_leaves_the_existing_files_untouched(tmp_path, monkeypatch):
    path = tmp_path / "problem.json"
    save_problem(_sidecar_case(NonsmoothTerm.zero()), path)
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    # White box: no input that save_problem accepts makes its in-process
    # encoder fail, so the encoder is made to fail on the last component
    # (see test_private_names.py).
    encode = model._component_text

    def fails_on_the_last(A, b, c0):
        if c0 == 0.1:  # the third of _sidecar_case's constants
            raise RuntimeError("this component cannot be encoded")
        return encode(A, b, c0)

    monkeypatch.setattr(model, "_component_text", fails_on_the_last)
    with pytest.raises(RuntimeError):
        save_problem(_sidecar_case(NonsmoothTerm.l1(0.3)), path)
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


def test_edited_problem_file_loads_its_edited_content(tmp_path):
    p = _sidecar_case(NonsmoothTerm.l1(0.3))
    path = tmp_path / "problem.json"
    save_problem(p, path)
    spec = json.loads(path.read_text())
    spec["components"][1]["b"][0] += 1.0
    spec["nonsmooth"]["lambda"] = 0.5
    path.write_text(json.dumps(spec))
    q = load_problem(path)
    assert q.components[1].offset[0] == p.components[1].offset[0] + 1.0
    assert q.nonsmooth.lam == 0.5
    _assert_bitwise_equal(_parse_json(path), q)


def _rewrite_sidecar(path, **members):
    with np.load(path) as z:
        arrays = {**dict(z), **members}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _sidecar_meta(path, dimension):
    """The sidecar's meta text with its dimension replaced."""
    with np.load(path) as z:
        meta = json.loads(str(z["meta"]))
    return np.array(json.dumps({**meta, "dimension": dimension}))


def _write_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


@pytest.mark.parametrize("damage", [
    lambda s: s.unlink(),
    lambda s: s.write_bytes(s.read_bytes()[:-100]),
    lambda s: s.write_bytes(b"not a sidecar " * 20),
    lambda s: s.write_bytes(b""),
    _write_npy,
    lambda s: _rewrite_sidecar(s, A=np.zeros((3, 4, 3))),
    lambda s: _rewrite_sidecar(s, meta=np.array("[]")),
    lambda s: _rewrite_sidecar(s, meta=_sidecar_meta(s, "4")),
    lambda s: _rewrite_sidecar(s, meta=_sidecar_meta(s, 4.0)),
], ids=["missing", "truncated", "garbage", "empty", "plain-npy", "wrong-shape", "bad-meta",
        "text-dimension", "float-dimension"])
def test_unusable_sidecar_falls_back_to_the_json(tmp_path, damage):
    path = tmp_path / "problem.json"
    save_problem(_sidecar_case(NonsmoothTerm.l1(0.3)), path)
    damage(tmp_path / "problem.json.npz")
    _assert_bitwise_equal(_parse_json(path), load_problem(path))


@pytest.mark.parametrize("with_sidecar", [True, False], ids=["sidecar", "no-sidecar"])
def test_load_problem_writes_no_file(tmp_path, with_sidecar):
    path = tmp_path / "problem.json"
    save_problem(_sidecar_case(NonsmoothTerm.l1(0.3)), path)
    if not with_sidecar:
        (tmp_path / "problem.json.npz").unlink()

    def listing():
        return {f.name: (f.stat().st_ino, f.stat().st_size, f.stat().st_mtime_ns)
                for f in tmp_path.iterdir()}

    before = listing()
    load_problem(path)
    assert listing() == before


# ------------------------------------------------------------ summed quadratic


def _counting(comp, counts):
    def value(x):
        counts["value"] += 1
        return comp.value(x)

    def grad(x):
        counts["grad"] += 1
        return comp.grad(x)

    return dataclasses.replace(comp, value=value, grad=grad)


def test_all_quadratic_monitoring_calls_no_component():
    rng = np.random.default_rng(5)
    base = random_quadratic_problem(rng, 4, 3, NonsmoothTerm.l1(0.2))
    counts = {"value": 0, "grad": 0}
    p = Problem([_counting(c, counts) for c in base.components], base.nonsmooth, 3)
    S, sb, const = p.quadratic_sum
    expected_S = np.zeros((3, 3))
    for comp in base.components:
        expected_S = expected_S + comp.matrix
    assert np.array_equal(S, expected_S)  # index-order sum
    x = rng.standard_normal(3)
    eval_F(p, x)
    prox_residual(p, 0.3, x)
    assert counts == {"value": 0, "grad": 0}


@pytest.mark.parametrize("n, d", [(1, 1), (3, 5), (7, 13)])
def test_summed_matrix_starts_on_a_cache_line(n, d):
    p = random_quadratic_problem(np.random.default_rng(n), n, d)
    S = p.quadratic_sum[0]
    assert S.ctypes.data % 64 == 0 and S.flags.c_contiguous and S.shape == (d, d)


def test_problem_with_callable_component_keeps_per_component_sums():
    rng = np.random.default_rng(8)
    quad = random_quadratic_problem(rng, 3, 4).components
    p = Problem([*quad, half_sq_norm_component(4, 0.5)], NonsmoothTerm.l1(0.1), 4)
    assert p.quadratic_sum is None
    for _ in range(5):
        x = rng.standard_normal(4)
        total = 0.0
        for comp in p.components:
            total += comp.value(x)
        assert eval_F(p, x) == total + p.nonsmooth.value(x)
        z = prox(p.nonsmooth, x - 0.3 * grad_f(p, x), 0.3)
        assert prox_residual(p, 0.3, x) == float(np.linalg.norm(z - x))


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_shared_out_row_keeps_the_callers_error_state(monkeypatch, cpus):
    # Eight matrices of 200 x 200 fill more than 2 MiB, so with two CPUs a
    # full refresh of the gradient table is shared out (README): the
    # worker's half overflows at x and the calling thread's does not.
    # np.errstate must reach the worker, and its FloatingPointError the caller.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    p = Problem([quadratic_component(np.eye(200) * scale, np.zeros(200))
                 for scale in (1.0,) * 4 + (1e300,) * 4], NonsmoothTerm.zero(), 200)
    x = np.full(200, 1e10)
    with model.RowThreads() as threads:
        table = GradientTable(p, np.zeros(200), 0, threads)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            table.refresh_and_aggregate(p, x, range(8))
        assert _row_threads() == cpus - 1
        with np.errstate(over="ignore"):
            assert np.all(table.refresh_and_aggregate(p, x, range(8)) == np.inf)
    assert _row_threads() == 0
