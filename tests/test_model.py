import dataclasses
import json
import math
import os
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piag import (NonsmoothTerm, Problem, QuadraticComponent, SmoothComponent,
                  eval_F, eval_f, grad_f, quadratic_component, smoothness_totals)
from piag import model
from piag.model import load_problem, problem_from_dict, problem_to_dict, save_problem
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


# ------------------------------------------------- components built in blocks


@pytest.fixture
def blocks_of_four(monkeypatch):
    """Blocks of ``_EIGEN_BLOCK`` components whatever the matrix size, so
    that small problems exercise the worker threads."""
    monkeypatch.setattr(model, "_STACK_BLOCK_BYTES", 0)


def _one_by_one(A, b, constant):
    """What ``quadratic_component`` computed before components were built in
    blocks: one ``eigvalsh`` per matrix."""
    A = 0.5 * (A + A.T)
    eigenvalues = np.linalg.eigvalsh(A)
    return A, b, constant, max(float(np.max(np.abs(eigenvalues))), 1e-12), \
        max(0.0, float(-eigenvalues[0]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 13), d=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_blocked_build_is_bitwise_the_one_by_one_build(n, d, seed, scale):
    # With blocks of four, n from 1 to 13 crosses the block edges at 4, 8 and
    # 12 components; with the blocks the matrix size gives, all n are one block.
    rng = np.random.default_rng(seed)
    entries = []
    for _ in range(n):
        m = scale * rng.standard_normal((d, d))  # indefinite
        entries.append((m + m.T, rng.standard_normal(d), float(rng.standard_normal())))
    for block_bytes in (0, model._STACK_BLOCK_BYTES):  # blocks of four, then the real ones
        with mock.patch.object(model, "_STACK_BLOCK_BYTES", block_bytes):
            built = model._build_quadratics(n, d, iter(entries))
        assert len(built) == n
        for comp, entry in zip(built, entries):
            A, b, constant, lipschitz, weak = _one_by_one(*entry)
            assert _bits(comp.matrix) == _bits(A)
            assert _bits(comp.offset) == _bits(b)
            assert (comp.constant, comp.lipschitz, comp.weak_convexity) == \
                (constant, lipschitz, weak)


def test_more_workers_than_cores_each_fill_their_own_rows(monkeypatch):
    # Eight worker threads on one stack, switching every microsecond: a row
    # written or symmetrized by the wrong block would break the bits.
    monkeypatch.setattr(model, "_STACK_BLOCK_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    rng = np.random.default_rng(12)
    entries = [(m + m.T, rng.standard_normal(7), float(k))
               for k, m in enumerate(rng.standard_normal((61, 7, 7)))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        built = model._build_quadratics(61, 7, iter(entries))
    finally:
        sys.setswitchinterval(interval)
    for comp, entry in zip(built, entries, strict=True):
        A, b, constant, lipschitz, weak = _one_by_one(*entry)
        assert _bits(comp.matrix) == _bits(A) and _bits(comp.offset) == _bits(b)
        assert (comp.constant, comp.lipschitz, comp.weak_convexity) == (constant, lipschitz, weak)


def _spec_with(d, n, bad: dict) -> dict:
    """A problem spec of ``n`` identity components with the entries of ``bad``
    (index -> A list) in their place."""
    components = [{"A": bad.get(i, np.eye(d).reshape(-1).tolist()), "b": [0.0] * d}
                  for i in range(n)]
    return {"dimension": d, "components": components, "nonsmooth": {"kind": "zero"}}


_NAN_A = [1.0, math.nan, math.nan, 1.0]
_SKEW_A = [1.0, 1.0, 0.0, 1.0]
_SHORT_A = [1.0, 0.0, 1.0]


@pytest.mark.parametrize("bad, message", [
    ({2: _NAN_A, 9: _SKEW_A}, "must be finite"),
    ({2: _SKEW_A, 9: _NAN_A}, "must be symmetric"),
    ({1: _NAN_A, 10: _SHORT_A}, "must be finite"),  # a worker's error and the reader's
    ({1: _SHORT_A, 10: _NAN_A}, r"components\[1\]: 'A' must be a flat"),
    ({5: _NAN_A, 6: _SHORT_A}, "must be finite"),  # in the same block
    ({12: _SKEW_A, 11: _NAN_A}, "must be finite"),  # in the last two blocks
], ids=["finite-first", "symmetric-first", "worker-then-reader", "reader-then-worker",
        "same-block", "adjacent-blocks"])
def test_error_of_the_lowest_bad_component_wins(blocks_of_four, bad, message):
    with pytest.raises(ValueError, match=message):
        problem_from_dict(_spec_with(2, 13, bad))


def test_building_and_loading_leave_no_thread_running(tmp_path, blocks_of_four):
    from piag.problems import make_quadratic_l1

    before = threading.active_count()
    p = make_quadratic_l1(13, 6, seed=4, lam=0.1)  # four blocks
    assert threading.active_count() == before
    path = tmp_path / "problem.json"
    save_problem(p, path)
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
    """The ``_Digest`` threads that loads start."""
    started = []

    class Counted(model._Digest):
        def __init__(self, *args):
            started.append(self)
            super().__init__(*args)

    monkeypatch.setattr(model, "_Digest", Counted)
    return started


def _saved_l1(path, seed: int = 4) -> Problem:
    """A 13 x 6 l1 problem saved at ``path``: four blocks of four components."""
    from piag.problems import make_quadratic_l1

    p = make_quadratic_l1(13, 6, seed=seed, lam=0.1)
    path.parent.mkdir(exist_ok=True)
    save_problem(p, path)
    return p


def _asymmetric(sidecar):
    with np.load(sidecar) as z:
        A = z["A"]
    A[5, 0, 1] += 1.0
    _rewrite_sidecar(sidecar, A=A)


@pytest.mark.parametrize("damage", [
    _asymmetric,
    lambda s: _rewrite_sidecar(s, A=np.zeros((13, 6, 5))),
], ids=["asymmetric", "wrong-shape"])
def test_an_out_of_date_sidecar_that_fails_its_build_is_dropped(tmp_path, blocks_of_four,
                                                                 two_cpus, digests, damage):
    # The sidecar of another problem of the same shape, damaged: its build
    # raises, or its arrays do not fit, while its digest is being taken.
    path, other = tmp_path / "problem.json", tmp_path / "other" / "problem.json"
    _saved_l1(path)
    _saved_l1(other, seed=5)
    damage(tmp_path / "other" / "problem.json.npz")
    os.replace(tmp_path / "other" / "problem.json.npz", tmp_path / "problem.json.npz")
    before = threading.active_count()
    _assert_bitwise_equal(_parse_json(path), load_problem(path))
    assert len(digests) == 1 and threading.active_count() == before


def test_a_current_sidecar_that_fails_its_build_raises_its_error(tmp_path, blocks_of_four,
                                                                 two_cpus, digests):
    path = tmp_path / "problem.json"
    _saved_l1(path)
    _asymmetric(tmp_path / "problem.json.npz")  # the digest still matches the JSON
    before = threading.active_count()
    with pytest.raises(ValueError, match="must be symmetric"):
        load_problem(path)
    assert len(digests) == 1 and threading.active_count() == before


def test_a_digest_that_fails_on_its_thread_falls_back_to_the_json(tmp_path, monkeypatch, capsys,
                                                                  blocks_of_four, two_cpus,
                                                                  digests):
    path = tmp_path / "problem.json"
    p = _saved_l1(path)

    def unreadable(path):
        raise OSError("the problem file cannot be read")

    parses, parse = [], model.json.load
    monkeypatch.setattr(model, "_sha256", unreadable)
    monkeypatch.setattr(model.json, "load", lambda fh: parses.append(fh) or parse(fh))
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


def test_a_sidecar_on_one_cpu_is_digested_before_its_build(tmp_path, monkeypatch,
                                                           blocks_of_four, digests):
    path = tmp_path / "problem.json"
    p = _saved_l1(path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _assert_bitwise_equal(p, load_problem(path))
    _asymmetric(tmp_path / "problem.json.npz")
    with pytest.raises(ValueError, match="must be symmetric"):
        load_problem(path)
    assert digests == []


@pytest.mark.parametrize("with_sidecar", [True, False], ids=["sidecar", "json"])
def test_loading_a_small_problem_imports_no_thread_pool(tmp_path, with_sidecar):
    # Five 20 x 20 matrices fill less than one block, so a fresh process that
    # loads them neither starts threads nor imports concurrent.futures and
    # logging for them.
    from piag.problems import make_quadratic_l1

    path = tmp_path / "problem.json"
    save_problem(make_quadratic_l1(5, 20, seed=7, lam=0.1), path)
    if not with_sidecar:
        (tmp_path / "problem.json.npz").unlink()
    code = ("import sys; from piag.model import load_problem; load_problem(sys.argv[1]); "
            "print('concurrent.futures' in sys.modules)")
    src = os.path.dirname(os.path.dirname(model.__file__))
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("blocks", ["one-block", "blocks-of-four"])
@pytest.mark.parametrize("source", ["generated", "json", "sidecar"])
def test_components_are_views_of_one_stack(tmp_path, monkeypatch, source, blocks):
    from piag.problems import make_quadratic_box

    if blocks == "blocks-of-four":
        monkeypatch.setattr(model, "_STACK_BLOCK_BYTES", 0)
    p = make_quadratic_box(13, 6, seed=4, negative_curvature=0.5)
    if source != "generated":
        path = tmp_path / "problem.json"
        save_problem(p, path)
        if source == "json":
            (tmp_path / "problem.json.npz").unlink()
        p = load_problem(path)
    A, b, c = p.quadratic_stack
    assert (A.shape, b.shape, c.shape) == ((13, 6, 6), (13, 6), (13,))
    for i, comp in enumerate(p.components):
        assert comp.matrix.ctypes.data == A[i].ctypes.data and comp.matrix.strides == (48, 8)
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
    # From the moment the sidecar's arrays are read, building the problem may
    # add the temporaries of one block but no second copy of the matrices.
    # Reading itself is left out: the digest's and numpy's read buffers have
    # fixed sizes near that of this A.  One worker thread, so that the bound
    # does not depend on the host: each worker holds its own temporaries.
    import tracemalloc

    from piag.problems import make_quadratic_l1

    path = tmp_path / "problem.json"
    save_problem(make_quadratic_l1(20, 60, seed=2, lam=0.1), path)
    load_problem(path)  # the allocations of first use
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    read = model._read_sidecar

    def read_then_reset_peak(p):
        out = read(p)
        assert out is not None
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(model, "_read_sidecar", read_then_reset_peak)
    tracemalloc.start()
    try:
        load_problem(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (20 * 60 * 60 * 8)


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
    # 81 matrices of 20 x 20 fill one block of the builder's stack; 82 do not.
    import concurrent.futures

    from piag.problems import make_quadratic_l1

    pools, real = [], concurrent.futures.ProcessPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda *args: pools.append(args) or real(*args))
    assert model._block_rows(20) == 81
    for n, pooled in ((5, False), (81, False), (82, True)):
        p = make_quadratic_l1(n, 20, seed=3, lam=0.1)
        path = tmp_path / f"problem{n}.json"
        save_problem(p, path)
        assert bool(pools) == pooled
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


def _indent2(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), d=st.integers(0, 5), with_c0=st.booleans())
def test_component_text_is_the_indenting_encoders_text(data, d, with_c0):
    A = np.array(data.draw(st.lists(_ANY_FINITE, min_size=d * d, max_size=d * d))).reshape(d, d)
    b = np.array(data.draw(st.lists(_ANY_FINITE, min_size=d, max_size=d)))
    c0 = data.draw(_ANY_FINITE) if with_c0 else 0.0
    entry = {"A": A.reshape(-1).tolist(), "b": b.tolist()}
    if c0 != 0.0:
        entry["c0_term"] = c0
    head, tail = _indent2({"components": [None]}).split("null")
    document = _indent2({"components": [entry]})
    assert model._component_text(A, b, c0) == document[len(head):len(document) - len(tail)]


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
    with np.load(model._sidecar_path(path)) as z:
        assert str(z["sha256"]) == model._sha256(path)
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
], ids=["missing", "truncated", "garbage", "empty", "plain-npy", "wrong-shape", "bad-meta"])
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
    # The last two matrices overflow at x, so with two CPUs the worker's
    # share overflows and the calling thread's does not: np.errstate must
    # reach the worker, and its FloatingPointError the caller.
    monkeypatch.setattr(model, "_SPLIT_BYTES", 0)
    monkeypatch.setattr(model.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    p = Problem([quadratic_component(np.eye(2) * scale, np.zeros(2))
                 for scale in (1.0, 1.0, 1e300, 1e300)], NonsmoothTerm.zero(), 2)
    x = np.full(2, 1e10)
    out = np.zeros((4, 2))
    with model.RowThreads() as threads:
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            model._component_grads(p, x, range(4), out, threads)
        assert len(threads._threads) == cpus - 1
        with np.errstate(over="ignore"):
            model._component_grads(p, x, range(4), out, threads)
    assert out[:2].tolist() == [[1e10, 1e10]] * 2 and np.all(out[2:] == np.inf)
