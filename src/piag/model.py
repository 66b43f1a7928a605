"""Composite objective model: a sum of smooth components plus a proximable term.

The objective has the form ``F(x) = sum_i f_i(x) + h(x)`` where every ``f_i``
is smooth (gradient Lipschitz) and possibly nonconvex, and ``h`` is proper,
closed and convex.  Evaluation is deterministic, so repeated runs are bitwise
reproducible.  The full gradient ``grad_f`` sums the component gradients with
the same reduction as the solver's aggregated gradient.

When every component is quadratic, ``f_i(x) = 0.5 x'A_i x + b_i'x + c_i``,
the problem holds their data once, as the stack ``A`` (N, d, d), ``b`` (N, d)
and ``c`` (N,).  The builder fills and checks it in place, each component's
``matrix`` and ``offset`` are views of its rows, and the problem-file writer
and the sidecar write and read the stack itself.  The summed quadratic
``0.5 x'Sx + sb'x + const`` is added from it once, in index order, and
``eval_f`` and the prox residual evaluate through it: one d x d matvec
instead of N.

``eval_F``, ``eval_f`` and ``NonsmoothTerm.value`` have one body each, which
takes a (K, d) stack of points and returns the K values.  A single point is
evaluated as a one-row stack, so a point's value is bitwise its value as a
row of any stack, such as a whole iterate log.

Component gradients have one body too, ``_component_grads``: ``grad_f`` and
the gradient table write their rows through it, and a large refresh, full,
``cyclic`` or scattered, is shared out across ``RowThreads``.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import math
import numbers
import operator
import os
import queue
import sys
import tempfile
import threading
import zipfile
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

Array = np.ndarray

_NONSMOOTH_KINDS = ("zero", "l1", "box", "box_plus_l1")
_STACK_BLOCK_BYTES = 1 << 18  # eval_F takes a stack of points this many bytes at a time


def as_vector(x, dim: int | None = None) -> Array:
    """Coerce to a 1-d float array, checking the dimension when given."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def as_real(name: str, value) -> float:
    """``value`` as a float: a real number, numpy's included, but not a bool."""
    if not REAL.test(value):
        raise ValueError(f"{name} must be {REAL.text}, got {value!r}")
    return float(value)


def _as_points(x, dim: int) -> Array:
    """Coerce a point (see ``as_vector``) or a (K, dim) stack to a C-contiguous float stack."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 2:
        v = as_vector(v, dim).reshape(1, dim)
    elif v.shape[1] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[1]}")
    return np.ascontiguousarray(v)


@dataclass(frozen=True, eq=False)
class SmoothComponent:
    """One smooth term of the objective sum.

    ``lipschitz`` is a Lipschitz constant of the gradient.  ``weak_convexity``
    is the smallest m >= 0 making ``f + (m/2)||.||^2`` convex; it is 0 for a
    convex term and never exceeds ``lipschitz``.
    """

    value: Callable[[Array], float]
    grad: Callable[[Array], Array]
    lipschitz: float
    weak_convexity: float = 0.0

    def __post_init__(self):
        if not self.lipschitz > 0:
            raise ValueError("lipschitz must be positive")
        if self.weak_convexity < 0 or self.weak_convexity > self.lipschitz * (1 + 1e-12):
            raise ValueError("weak_convexity must lie in [0, lipschitz]")


@dataclass(frozen=True, eq=False)
class QuadraticComponent(SmoothComponent):
    """Quadratic term ``0.5 x'Ax + b'x + const`` with exact constants attached."""

    matrix: Array = None
    offset: Array = None
    constant: float = 0.0


def quadratic_component(A, b, constant: float = 0.0) -> QuadraticComponent:
    """Build a quadratic component from a symmetric matrix and linear term.

    Smoothness constants come from the eigenvalues of ``A``: the gradient
    Lipschitz constant is the spectral norm and the weak-convexity modulus is
    the negative part of the smallest eigenvalue.
    """
    b = as_vector(b)
    return _build_quadratics(1, len(b), [(A, b, constant)])[0]


class _Rows(tuple):
    """Quadratic components whose matrices and offsets are views of the rows
    of ``stack = (A, b, c)``; a ``Problem`` of them keeps the stack."""

    @functools.cached_property
    def quadratic_sum(self) -> tuple[Array, Array, float]:
        return sum_quadratics(*self.stack)


_EIGEN_BLOCK = 4  # fewest rows per stacked eigvalsh in _build_quadratics


def _block_rows(d: int) -> int:
    """Rows of a block of a stack of ``d x d`` float64 matrices: ``_EIGEN_BLOCK``, or as
    many as fill ``_STACK_BLOCK_BYTES`` if that is more."""
    return max(_EIGEN_BLOCK, _STACK_BLOCK_BYTES // max(8 * d * d, 1))


def _build_quadratics(n: int, d: int, entries=None, stack=None, first=()) -> _Rows:
    """The components ``quadratic_component(A, b, constant)`` of the first
    ``n`` triples that ``entries`` yields, or of the rows of the given stack
    ``(A, b, c)``, as rows of one stack of dimension ``d``.

    The calling thread writes each triple into its row as it draws it (the
    stack is allocated once a triple has the right shape) and hands the
    rows in blocks to ``RowThreads.map``: the workers check each block as
    it is drawn, and the calling thread runs the map's first item once
    every triple is drawn.  A block holds ``_block_rows(d)`` rows, so the
    threads serve large matrices only, and a build of one block runs its
    items in order in the calling thread, starting no thread.  The error of
    the lowest row is raised, as a one-by-one build would: a draw's error
    waits until the rows before it are checked.  The callables of ``first``
    are the items before the blocks, so an error of theirs is raised before
    any of the build's.
    """
    stack, failure = list(stack or ()), []

    def drawn():
        try:
            for i, (A, b, constant) in zip(range(n), entries):
                A, b = np.asarray(A, dtype=float), as_vector(b)
                if A.shape != (d, d) or b.shape != (d,):
                    raise ValueError(f"matrix shape {A.shape} does not match vector "
                                     f"dimension {len(b)}")
                if not stack:
                    stack.extend((np.empty((n, d, d)), np.empty((n, d)), np.empty(n)))
                stack[0][i], stack[1][i], stack[2][i] = A, b, float(constant)
                yield i
        except Exception as exc:
            failure.append(exc)

    draws = iter(range(n)) if entries is None else drawn()
    size = _block_rows(d)
    blocks = iter(lambda: list(itertools.islice(draws, size)), [])
    tasks = itertools.chain(first, (functools.partial(_checked_block, stack, rows)
                                    for rows in blocks))
    if n <= size:  # one block: no thread
        checked = [task() for task in tasks]
    else:
        with RowThreads() as threads:
            checked = threads.map(lambda task: task(), tasks)
    if failure:
        raise failure[0]
    rows = _Rows(itertools.chain.from_iterable(checked[len(first):]))
    rows.stack = tuple(stack)
    return rows


def _checked_block(stack, rows: list) -> list[QuadraticComponent]:
    """The components of the consecutive ``rows`` of the stack ``[A, b, c]``,
    checked in order and symmetrized in place through one temporary matrix.
    One stacked ``eigvalsh`` of the slice gives each matrix's values bit for bit."""
    A, b, c = (v[rows[0]:rows[-1] + 1] for v in stack)
    for A_i, b_i, c_i in zip(A, b, c.tolist()):
        if not (np.all(np.isfinite(A_i)) and np.all(np.isfinite(b_i)) and math.isfinite(c_i)):
            raise ValueError("matrix, linear term and constant must be finite")
        M = A_i - A_i.T
        if not np.all(np.abs(M, out=M) <= 1e-12):  # np.allclose(A_i, A_i.T, 0, 1e-12)
            raise ValueError("matrix must be symmetric (tolerance 1e-12)")
        A_i[...] = np.multiply(np.add(A_i, A_i.T, out=M), 0.5, out=M)  # 0.5 * (A_i + A_i.T)
    return [_built_quadratic(A_i, b_i, c_i, values)
            for A_i, b_i, c_i, values in zip(A, b, c.tolist(), np.linalg.eigvalsh(A))]


def _built_quadratic(A, b, constant: float, eigenvalues) -> QuadraticComponent:
    """The component of a checked ``(A, b, constant)`` and the eigenvalues of ``A``."""
    lipschitz = max(float(np.max(np.abs(eigenvalues))), 1e-12)
    weak = max(0.0, float(-eigenvalues[0]))

    def value(x, _A=A, _b=b, _c=constant) -> float:
        return float(0.5 * np.dot(x, _A @ x) + np.dot(_b, x) + _c)

    def grad(x, _A=A, _b=b) -> Array:
        return _A @ x + _b

    return QuadraticComponent(value, grad, lipschitz, weak, matrix=A, offset=b, constant=constant)


def sum_quadratics(A: Array, b: Array, c: Array) -> tuple[Array, Array, float]:
    """Summed quadratic ``(S, sb, const)`` of the stack ``(A, b, c)``, added
    in index order starting from zeros (``np.add.reduce(A, axis=0)`` starts
    from ``A[0]``, which differs on ``-0.0``).

    ``S`` starts on a 64-byte boundary: every objective evaluation and prox
    residual multiplies by it, and a 200 x 200 product runs about 1.5x faster
    on 32-byte alignment than on the 16 bytes that malloc promises.
    """
    S = _aligned_zeros(A.shape[1:], A.dtype)
    sb = np.zeros(b.shape[1:])
    const = 0.0
    for A_i, b_i, c_i in zip(A, b, c.tolist()):
        S += A_i
        sb = sb + b_i
        const += c_i
    return S, sb, const


def _aligned_zeros(shape, dtype) -> Array:
    """A C-contiguous array of zeros whose data starts on a 64-byte boundary."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    buffer = np.zeros(size + 64, dtype=np.uint8)
    start = -buffer.ctypes.data % 64
    return buffer[start:start + size].view(dtype).reshape(shape)


@dataclass(frozen=True, eq=False)
class NonsmoothTerm:
    """Proximable convex term. Kinds: zero, l1, box, box_plus_l1."""

    kind: str
    lam: float = 0.0
    lo: Array | float | None = None
    hi: Array | float | None = None

    def __post_init__(self):
        if self.kind not in _NONSMOOTH_KINDS:
            raise ValueError(f"unknown nonsmooth kind {self.kind!r}")
        if not (math.isfinite(as_real("lam", self.lam)) and self.lam >= 0):
            raise ValueError("l1 weight must be a finite nonnegative number")
        if self.kind in ("zero", "box") and self.lam != 0:
            raise ValueError(f"kind {self.kind!r} takes no l1 weight, got lam={self.lam!r}")
        for name, bound in (("lo", self.lo), ("hi", self.hi)):
            if bound is None:
                continue
            if self.kind in ("zero", "l1"):
                raise ValueError(f"kind {self.kind!r} takes no box bounds, got {name}={bound!r}")
            _bound(name, bound)  # a real number or a vector of them, no bool
        if self.kind in ("box", "box_plus_l1"):
            if self.lo is None or self.hi is None:
                raise ValueError(f"kind {self.kind!r} requires lo and hi bounds")
            if np.any(np.isnan(self.lo)) or np.any(np.isnan(self.hi)):
                raise ValueError("box bounds must not be NaN")
            if np.ndim(self.lo) == np.ndim(self.hi) == 1 and len(self.lo) != len(self.hi):
                raise ValueError(f"box bounds lo and hi have {len(self.lo)} and "
                                 f"{len(self.hi)} entries")
            if np.any(np.asarray(self.lo, float) > np.asarray(self.hi, float)):
                raise ValueError("box bounds must satisfy lo <= hi")

    @classmethod
    def zero(cls) -> "NonsmoothTerm":
        return cls(kind="zero")

    @classmethod
    def l1(cls, lam: float) -> "NonsmoothTerm":
        return cls(kind="l1", lam=as_real("lam", lam))

    @classmethod
    def box(cls, lo, hi) -> "NonsmoothTerm":
        return cls(kind="box", lo=_bound("lo", lo), hi=_bound("hi", hi))

    @classmethod
    def box_plus_l1(cls, lo, hi, lam: float) -> "NonsmoothTerm":
        return cls(kind="box_plus_l1", lo=_bound("lo", lo), hi=_bound("hi", hi),
                   lam=as_real("lam", lam))

    def value(self, x) -> float | Array:
        """Evaluate the term at a point, or at each row of a (K, d) stack of
        points, returning ``inf`` outside its domain.  A point is a one-row
        stack; ``np.add.reduce`` along a C-contiguous row adds in the order
        it uses on that row alone, so each row's value is the same in any stack."""
        X = np.asarray(x, dtype=float)
        out = self._stack_values(X if X.ndim == 2 else as_vector(X)[None])
        return out if X.ndim == 2 else float(out[0])

    def _stack_values(self, X: Array) -> Array:
        """``value`` at each row of the (K, d) stack ``X``."""
        if self.kind in ("zero", "box"):
            out = np.zeros(len(X))
        else:
            out = self.lam * np.add.reduce(np.abs(np.ascontiguousarray(X)), axis=1)
        if self.kind in ("box", "box_plus_l1"):
            out[~np.logical_and.reduce((X >= self.lo) & (X <= self.hi), axis=1)] = math.inf
        return out


def _bound(name: str, v):
    """Normalize the box bound ``name``, a real number or a vector of them and
    no bool, to a float scalar or a float vector."""
    arr = v if isinstance(v, np.ndarray) else np.asarray(v, dtype=object)
    if arr.dtype.kind not in "iufO" or arr.dtype == object and not all(map(REAL.test, arr.flat)):
        raise ValueError(f"{name} must be {REAL.text} or a vector of them, got {_shown(v)}")
    arr = arr.astype(float)
    if arr.ndim == 0:
        return float(arr)
    return as_vector(arr)


@dataclass(frozen=True, eq=False)
class Problem:
    """Composite minimization problem ``min sum_i f_i(x) + h(x)``.

    When every component is a ``QuadraticComponent``, ``quadratic_stack`` is
    their ``(A, b, c)`` (components not built as its rows are copied into a
    new stack once) and ``quadratic_sum`` is
    ``sum_quadratics(*quadratic_stack)``; otherwise both are None.
    """

    components: tuple
    nonsmooth: NonsmoothTerm
    dimension: int
    f_lower_bound_hint: float | None = None
    quadratic_stack: tuple | None = field(default=None, init=False, repr=False)
    quadratic_sum: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.components, _Rows):
            object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) < 1:
            raise ValueError("problem needs at least one smooth component")
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        for bound in (self.nonsmooth.lo, self.nonsmooth.hi):
            if np.ndim(bound) == 1 and len(bound) != self.dimension:
                raise ValueError(f"box bound has {len(bound)} entries, "
                                 f"problem dimension is {self.dimension}")
        d = self.dimension
        for i, comp in enumerate(self.components):
            if isinstance(comp, QuadraticComponent) and (
                    np.shape(comp.matrix) != (d, d) or np.shape(comp.offset) != (d,)):
                raise ValueError(f"component {i} has a matrix of shape {np.shape(comp.matrix)} "
                                 f"and an offset of shape {np.shape(comp.offset)}, problem "
                                 f"dimension is {d}")
        L, l = smoothness_totals(self)
        if not (math.isfinite(L) and math.isfinite(l)):
            raise ValueError("aggregate smoothness constants must be finite")
        if L < l:
            raise ValueError("aggregate Lipschitz constant must dominate the weak-convexity total")
        if isinstance(self.components, _Rows):
            stack, total = self.components.stack, self.components.quadratic_sum
        elif all(isinstance(c, QuadraticComponent) for c in self.components):
            stack = tuple(np.array([getattr(c, name) for c in self.components], dtype=float)
                          for name in ("matrix", "offset", "constant"))
            total = sum_quadratics(*stack)
        else:
            return
        object.__setattr__(self, "quadratic_stack", stack)
        object.__setattr__(self, "quadratic_sum", total)

    @property
    def n_components(self) -> int:
        return len(self.components)


def eval_f(problem: Problem, x) -> float | Array:
    """Smooth part ``sum_i f_i(x)`` at a point, or at each row of a (K, d)
    stack of points.

    With a summed quadratic, ``0.5 x'Sx + sb'x + const`` goes row by row
    through numpy's matmul gufunc: ``S @ x`` is one gemv and each product of
    a row with a column is one dot, so a row's value does not depend on the
    stack.  A single ``X @ S`` product would be faster but rounds
    differently.  Otherwise the components are added in index order.
    """
    out = _smooth_stack_values(problem, _as_points(x, problem.dimension))
    return out if np.ndim(x) == 2 else float(out[0])


def _smooth_stack_values(problem: Problem, X: Array) -> Array:
    """``eval_f`` at each row of the C-contiguous (K, d) stack ``X``."""
    if problem.quadratic_sum is not None:
        return _quadratic_values(problem.quadratic_sum, X)
    out = np.zeros(len(X))
    for comp in problem.components:
        out += [comp.value(row) for row in X]
    return out


def _quadratic_values(quadratic_sum: tuple, X: Array) -> Array:
    """``0.5 x'Sx + sb'x + const`` of the summed quadratic ``(S, sb, const)``
    at each row of the C-contiguous (K, d) stack ``X``, as ``eval_f`` takes it."""
    S, sb, const = quadratic_sum
    columns = X[:, :, None]
    xSx = np.matmul(X[:, None, :], np.matmul(S, columns))[:, 0, 0]
    return 0.5 * xSx + np.matmul(sb, columns)[:, 0] + const


def grad_f(problem: Problem, x, threads: RowThreads | None = None) -> Array:
    """Full gradient ``sum_i grad f_i(x)``: the component gradients stacked as
    rows by the gradient table's row kernel and reduced by
    ``np.sum(..., axis=0)``, as the table reduces its entries.  ``threads``
    may share out the rows (see ``RowThreads``); the value does not depend
    on it."""
    x = as_vector(x, problem.dimension)
    grads = np.empty((problem.n_components, problem.dimension))
    _component_grads(problem, x, range(problem.n_components), grads, threads)
    return np.sum(grads, axis=0)


#: A refresh whose matrices fill at least this many bytes is shared out across
#: ``RowThreads``, whether its indices are consecutive or scattered: measured
#: break-even of two threads against one on a 2-core host, ~1.7 MiB for one
#: run at d = 100 to 200 and 1.5 to 1.8 MiB for scattered rows at d = 200.
_SPLIT_BYTES = 2 << 20

#: Runs of at most this many rows are computed a row at a time by ``np.dot``,
#: which releases the GIL.  ``np.matmul`` keeps the GIL for a lone row or a
#: pair, so two threads sharing such runs through it were no faster than one;
#: from three rows on, a shared stacked matmul was at least as fast.
_DOT_ROWS = 2


def _component_grads(problem: Problem, x: Array, indices, out: Array,
                     threads: RowThreads | None = None) -> None:
    """Write ``grad f_i(x)`` into ``out[i]`` for each component index ``i`` of
    the list or range ``indices``.

    With a quadratic stack ``(A, b, c)`` each run of consecutive ascending
    indices ``lo, ..., hi - 1`` is one ``np.matmul(A[lo:hi], x[:, None])``,
    which runs a gemv per row as ``A_i @ x`` does, written into
    ``out[lo:hi]`` and offset by ``b[lo:hi]``; a run of at most ``_DOT_ROWS``
    rows is one ``np.dot(A[i], x)`` per row, the same gemv.  So each row is
    bitwise ``components[i].grad(x)``.  When the matrices of the indices fill
    at least ``_SPLIT_BYTES``, consecutive or scattered, ``indices`` is cut
    into one contiguous slice per CPU, in order, whose sizes differ by at
    most one, and ``threads.map`` computes them, the first in the calling
    thread; each slice finds its own runs.  Problems with a callable
    component are computed in the calling thread.
    """
    stack = problem.quadratic_stack
    if stack is None:
        for i in indices:
            out[i] = problem.components[i].grad(x)
        return
    size = len(indices)
    if threads is not None and 8 * problem.dimension ** 2 * size >= _SPLIT_BYTES:  # float64
        parts = min(threads.shares, size)
        threads.map(functools.partial(_quadratic_grads, stack, x, out),
                    [indices[size * j // parts:size * (j + 1) // parts] for j in range(parts)])
    else:
        _quadratic_grads(stack, x, out, indices)


def _runs(indices) -> list[list[int]]:
    """The maximal runs of consecutive ascending indices, as ``[lo, hi)`` pairs."""
    runs: list[list[int]] = []
    for i in indices:
        if runs and runs[-1][1] == i:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    return runs


def _quadratic_grads(stack: tuple, x: Array, out: Array, indices) -> None:
    """``out[lo:hi] = A[lo:hi] @ x + b[lo:hi]`` for each run ``[lo, hi)`` of
    ``_runs(indices)``.  Worker threads run this: it calls only numpy."""
    A, b, _ = stack
    for lo, hi in _runs(indices):
        if hi - lo <= _DOT_ROWS:
            for i in range(lo, hi):
                np.dot(A[i], x, out=out[i])
                out[i] += b[i]
        else:
            rows = out[lo:hi]
            np.matmul(A[lo:hi], x[:, None], out=rows[:, :, None])
            rows += b[lo:hi]


def _cpu_count() -> int:
    """The CPUs the process may run on: those of its affinity mask, or every
    CPU where the platform has no ``os.sched_getaffinity`` (macOS)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class RowThreads:
    """The process's one thread pool: the calling thread and a worker per
    further CPU it may run on (``_cpu_count``), so none with one CPU.
    ``map`` is its one way to hand out work: the row kernel's index slices,
    the component build's blocks and the sidecar digest.

    The workers start when a call first shares out its work, and ``close``,
    or the end of a ``with`` block, joins them; ``solve``, ``reference_fbs``
    and a build each open one for their length, so no thread outlives them.
    Each item runs in a copy of the caller's context, so numpy's error
    state (``np.errstate``) is the caller's, and an exception raised in one
    is raised in the calling thread once every one has ended.
    """

    def __init__(self):
        self.shares = _cpu_count()
        self._threads: list = []

    def __enter__(self) -> "RowThreads":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def map(self, fn: Callable, items) -> list:
        """``[fn(item) for item in items]``, in item order.  The calling
        thread keeps the first item, and each other one goes to the workers'
        queue as the iterable yields it, so they start on it while the
        calling thread draws the next.  Once the iterable is spent, the
        calling thread runs the first item, then the queued items that no
        worker has started, leaving one for each worker: so one item per
        CPU runs one item on each thread.  Once every item has ended, the
        error of the lowest item that failed is raised.  Fewer than two
        items, or one CPU, start no thread: the items run in order in the
        calling thread."""
        items = iter(items)
        head = list(itertools.islice(items, 2))
        if len(head) < 2 or self.shares < 2:
            return [fn(item) for item in itertools.chain(head, items)]
        if not self._threads:
            self._start()
        outcomes = [None]
        try:
            for item in itertools.chain(head[1:], items):
                task = functools.partial(_outcome, fn, outcomes, len(outcomes))
                outcomes.append(None)
                self._tasks.put((contextvars.copy_context(), task, item))
        finally:
            queued = len(outcomes) - 1
            _outcome(fn, outcomes, 0, head[0])
            try:
                while self._tasks.qsize() > len(self._threads):
                    context, task, item = self._tasks.get_nowait()
                    context.run(task, item)
                    queued -= 1
            except queue.Empty:  # the workers took the rest meanwhile
                pass
            for _ in range(queued):
                self._done.get()
        for _, error in outcomes:
            if error is not None:
                raise error
        return [result for result, _ in outcomes]

    def _start(self) -> None:
        self._tasks, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        self._threads = [threading.Thread(target=_serve, args=(self._tasks, self._done),
                                          name="piag-rows", daemon=True)
                         for _ in range(self.shares - 1)]
        for thread in self._threads:
            thread.start()

    def close(self) -> None:
        """Stop and join the worker threads; a later call starts new ones."""
        for _ in self._threads:
            self._tasks.put(None)
        for thread in self._threads:
            thread.join()
        self._threads = []


def _serve(tasks, done) -> None:
    """A ``RowThreads`` worker: run ``(context, fn, item)`` tasks until
    ``None``, and put None on ``done`` as each one ends.  ``fn`` is an
    ``_outcome``, which keeps its own error."""
    while (task := tasks.get()) is not None:
        context, fn, item = task
        try:
            context.run(fn, item)
        finally:
            done.put(None)


def _outcome(fn: Callable, outcomes: list, i: int, item) -> None:
    """A ``RowThreads.map`` item: set ``outcomes[i]`` to ``(fn(item), None)``,
    or to ``(None, error)`` when it raises."""
    try:
        outcomes[i] = fn(item), None
    except BaseException as exc:  # raised by map in the calling thread
        outcomes[i] = None, exc


def eval_F(problem: Problem, x) -> float | Array:
    """Composite objective at a point, or at each row of a (K, d) stack of
    points.  Exactly ``eval_f(problem, x) + nonsmooth.value(x)`` in that
    expression order; ``inf`` outside the domain of the nonsmooth term.

    A point is a one-row stack, and each row's value is the same in any
    stack.  The stack is evaluated in blocks of rows so that its temporaries
    stay within about ``_STACK_BLOCK_BYTES``.
    """
    X = _as_points(x, problem.dimension)
    rows = max(1, _STACK_BLOCK_BYTES // (X.itemsize * problem.dimension))
    if len(X) <= rows:  # a point, or a stack of one block
        out = _smooth_stack_values(problem, X) + problem.nonsmooth._stack_values(X)
    else:
        out = np.concatenate([eval_F(problem, X[i:i + rows]) for i in range(0, len(X), rows)])
    return out if np.ndim(x) == 2 else float(out[0])


def smoothness_totals(problem: Problem) -> tuple[float, float]:
    """Aggregate constants ``(L, l)`` summed over components in index order."""
    L = 0.0
    l = 0.0
    for comp in problem.components:
        L += comp.lipschitz
        l += comp.weak_convexity
    return L, l


# ---------------------------------------------------------------------------
# Problem file schema (JSON).  Only quadratic components are serializable:
#   {"dimension": d,
#    "components": [{"A": [d*d floats, row-major], "b": [d floats],
#                    "c0_term": optional float}],
#    "nonsmooth": {"kind": "zero"}
#                 | {"kind": "l1", "lambda": w}
#                 | {"kind": "box", "lo": x, "hi": x}
#                 | {"kind": "box_plus_l1", "lo": x, "hi": x, "lambda": w}}
# check_fields rejects unknown fields at every level, and values of the wrong kind.
#
# save_problem also writes a binary sidecar <path>.npz (e.g. problem.json.npz)
# holding "sha256" (hex digest of the JSON file's bytes), "meta" (JSON text of
# dimension and nonsmooth), "A" (N, d, d), "b" (N, d) and "c0" (N,).
# load_problem takes the numbers from it only when the digest matches the
# JSON file and falls back to the JSON text otherwise; the JSON stays the
# schema, and the sidecar is a cache that is safe to delete.
# ---------------------------------------------------------------------------


class Kind(NamedTuple):
    """A JSON kind: its name in error messages and the test a value of it passes."""

    text: str
    test: Callable[[object], bool]


def _is_number(value) -> bool:
    """An int or float, not a bool, that a float can hold: JSON reads ``1e400``
    as inf, but a 400-digit integer as an int that no float holds."""
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= sys.float_info.max)


def _is_numbers(value) -> bool:
    """A list of numbers; a list of floats, as a problem file holds, is
    checked without a Python-level loop."""
    if not isinstance(value, list):
        return False
    types = set(map(type, value))
    return types <= {float} or types <= {int, float} and all(map(_is_number, value))


NUMBER = Kind("a number", _is_number)
INTEGER = Kind("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool))
REAL = Kind("a real number", lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool))
SWITCH = Kind("true or false", lambda v: isinstance(v, bool))
TEXT = Kind("a string", lambda v: isinstance(v, str))
NUMBERS = Kind("a list of numbers", _is_numbers)
OBJECT = Kind("a JSON object", lambda v: isinstance(v, dict))
LIST = Kind("a list", lambda v: isinstance(v, list))


def check_fields(obj, kinds: dict[str, Kind], required, where: str = "") -> None:
    """Check that ``obj`` is a JSON object with every field of ``required``,
    no field that ``kinds`` does not list, and each of the kind ``kinds``
    gives it.  Nothing is converted: ``true`` and ``"0.5"`` are not numbers,
    ``1.0`` is not an integer.  Ranges are the constructors' to check.
    ``where`` is the object's path, "" at the top of a file."""
    at = f"{where}: " if where else ""
    if not isinstance(obj, dict):
        raise ValueError(f"{at}must be a JSON object, got {_shown(obj)}")
    missing = sorted(set(required) - obj.keys())
    if missing:
        raise ValueError(f"{at}missing field(s) {missing}")
    for name, value in obj.items():
        kind = kinds.get(name)
        if kind is not None and not kind.test(value):
            path = f"{where}.{name}" if where else name
            raise ValueError(f"{path}: must be {kind.text}, got {_shown(value)}")
    unknown = sorted(obj.keys() - kinds.keys())
    if unknown:
        raise ValueError(f"{at}unknown field(s) {unknown}")


def _shown(value) -> str:
    """``value`` as JSON text, cut short: a problem file's lists are long."""
    text = json.dumps(value, default=repr)
    return text if len(text) <= 60 else text[:57] + "..."


def nonsmooth_to_dict(term: NonsmoothTerm) -> dict:
    out: dict = {"kind": term.kind}
    if term.kind in ("l1", "box_plus_l1"):
        out["lambda"] = term.lam
    if term.kind in ("box", "box_plus_l1"):
        out["lo"] = term.lo if np.ndim(term.lo) == 0 else list(np.asarray(term.lo, float))
        out["hi"] = term.hi if np.ndim(term.hi) == 0 else list(np.asarray(term.hi, float))
    return out


_NONSMOOTH_KIND = Kind(f"one of {_NONSMOOTH_KINDS}", lambda v: v in _NONSMOOTH_KINDS)
_BOUND = Kind("a number or a list of numbers", lambda v: _is_number(v) or _is_numbers(v))


def nonsmooth_from_dict(obj: dict) -> NonsmoothTerm:
    kind = obj.get("kind")
    fields = {"kind": _NONSMOOTH_KIND}
    if kind in ("l1", "box_plus_l1"):
        fields["lambda"] = NUMBER
    if kind in ("box", "box_plus_l1"):
        fields.update(lo=_BOUND, hi=_BOUND)
    check_fields(obj, fields, fields.keys() - {"lambda"}, "nonsmooth")  # lambda defaults to 0
    return NonsmoothTerm(kind, lam=float(obj.get("lambda", 0.0)),
                         lo=_bound("lo", obj["lo"]) if "lo" in obj else None,
                         hi=_bound("hi", obj["hi"]) if "hi" in obj else None)


def problem_to_dict(problem: Problem) -> dict:
    A, b, c = _written_stack(problem)
    return {
        "dimension": problem.dimension,
        "components": [_component_entry(A_i.reshape(-1).tolist(), b_i.tolist(), c_i)
                       for A_i, b_i, c_i in zip(A, b, c.tolist())],
        "nonsmooth": nonsmooth_to_dict(problem.nonsmooth),
    }


def _written_stack(problem: Problem) -> tuple:
    if problem.quadratic_stack is None:
        raise ValueError("a component is not quadratic, so the problem cannot be serialized")
    return problem.quadratic_stack


def _component_entry(A, b, c0: float) -> dict:
    """One entry of the problem file's ``components`` list, holding ``A`` and
    ``b`` as given."""
    entry = {"A": A, "b": b}
    if c0 != 0.0:
        entry["c0_term"] = c0
    return entry


_PROBLEM_FIELDS = {"dimension": INTEGER, "components": LIST, "nonsmooth": OBJECT}
_COMPONENT_FIELDS = {"A": NUMBERS, "b": NUMBERS, "c0_term": NUMBER}


def problem_from_dict(obj: dict) -> Problem:
    """Check and build the problem of a problem spec."""
    check_fields(obj, _PROBLEM_FIELDS, _PROBLEM_FIELDS)
    d = obj["dimension"]
    if d < 1:  # the components are read against it before Problem checks it
        raise ValueError("dimension must be a positive integer")
    entries = _spec_entries(obj["components"], d)
    return Problem(_build_quadratics(len(obj["components"]), d, entries),
                   nonsmooth_from_dict(obj["nonsmooth"]), d)


def _spec_entries(components: list, d: int):
    """The ``(A, b, constant)`` of each entry of a spec's ``components`` list."""
    for i, entry in enumerate(components):
        check_fields(entry, _COMPONENT_FIELDS, ("A", "b"), f"components[{i}]")
        if len(entry["A"]) != d * d:
            raise ValueError(
                f"components[{i}]: 'A' must be a flat row-major list of {d * d} numbers"
            )
        yield np.reshape(entry["A"], (d, d)), entry["b"], entry.get("c0_term", 0.0)


# problem.json is ``json.dumps(problem_to_dict(p), indent=2, sort_keys=True)``
# plus a newline.  That call always takes the pure-Python encoder, so the
# writer below produces the same bytes another way: the indenting encoder
# lays out the small skeleton, with the one-line string _SLOT standing in
# for each component and each nonempty float list, and the float lists are
# laid out one number per line.  Formatting the numbers is most of the work,
# and a symmetric d x d matrix holds at most d(d+1)/2 distinct ones, so each
# distinct bit pattern of a list is formatted once, by the C encoder (which
# also gives NaN and Infinity their JSON spelling), and the list is gathered
# from those texts.  Bit patterns, not values: 0.0 and -0.0 are written
# differently.
_SLOT = "\0"
_FLOAT_SEPARATOR = ",\n" + 8 * " "  # between the items of a component's lists, depth 4


def _indented(obj, depth: int = 0) -> list[str]:
    """``json.dumps(obj, indent=2, sort_keys=True)`` nested ``depth`` levels
    deep, split where each _SLOT string stood."""
    text = json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + 2 * depth * " ")
    return text.split(json.dumps(_SLOT))


def _list_items(values: Array) -> str:
    """The items of the nonempty array ``values``, flattened, as the C encoder
    writes them, joined by the separator of a component's lists."""
    flat = values.reshape(-1)
    bits, inverse = np.unique(flat.view(f"u{flat.itemsize}"), return_inverse=True)
    texts = json.dumps(bits.view(flat.dtype).tolist(), separators=("\n", ": "))[1:-1]
    return _FLOAT_SEPARATOR.join(np.array(texts.split("\n"), dtype=object)[inverse].tolist())


def _component_text(A, b, c0: float) -> str:
    """One component as it appears in ``problem.json``, from its opening
    brace to its closing brace."""
    lists = [v for v in (A, b) if v.size]
    slots = [_SLOT if v.size else [] for v in (A, b)]
    pieces = _indented(_component_entry(*slots, c0), depth=2)
    out = [pieces[0]]
    for values, piece in zip(lists, pieces[1:]):  # "A" then "b", as their slots
        out += ["[\n" + 8 * " ", _list_items(values), "\n" + 6 * " " + "]", piece]
    return "".join(out)


@contextlib.contextmanager
def _replacing(path):
    """A binary file that takes the place of ``path`` when the block
    succeeds.  It is written beside ``path`` and renamed into place, so on
    failure ``path`` is untouched and the temporary file is removed."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp makes it owner-only; use open()'s mode
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def save_problem(problem: Problem, path) -> None:
    """Write ``problem`` to the JSON file ``path`` and its sidecar ``<path>.npz``.

    The components are encoded in parallel, one worker process per available
    CPU, and written in order; a stack of one block (see ``_block_rows``) is
    encoded in the calling process, as it is checked there when built.  The
    sidecar holds the SHA-256 of the JSON bytes, taken as they are written,
    and the same numbers in binary form, so ``load_problem`` can skip the
    text parse.  Each file is written to a
    temporary file and renamed into place.
    """
    # Imported here because solve, verify and rate never write a problem:
    # hashlib maps OpenSSL (see _sha256).
    import hashlib

    A, b, c = _written_stack(problem)
    nonsmooth = nonsmooth_to_dict(problem.nonsmooth)
    head, tail = _indented({"components": [_SLOT], "dimension": problem.dimension,
                            "nonsmooth": nonsmooth})
    digest = hashlib.sha256()
    with _replacing(path) as fh:
        def emit(text: str) -> None:
            data = text.encode()
            fh.write(data)
            digest.update(data)

        emit(head)
        pool = None
        if len(c) > _block_rows(problem.dimension):
            # Imported here: the pool pulls in multiprocessing (~2 MB resident, ~20 ms).
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(min(_cpu_count(), len(c)))
        try:
            texts = (pool.map if pool else map)(_component_text, A, b, c.tolist())
            for i, text in enumerate(texts):
                emit(",\n    " + text if i else text)
        finally:
            if pool:
                pool.shutdown(cancel_futures=True)
        emit(tail + "\n")
    meta = json.dumps({"dimension": problem.dimension, "nonsmooth": nonsmooth})
    with _replacing(_sidecar_path(path)) as fh:
        # A -0.0 constant is written as no c0_term, so it reads back as 0.0.
        np.savez(fh, sha256=np.array(digest.hexdigest()), meta=np.array(meta),
                 c0=np.where(c != 0.0, c, 0.0), A=A, b=b)


def load_problem(path) -> Problem:
    """Read a problem file.

    When the sidecar ``<path>.npz``'s digest matches the JSON bytes, its
    arrays are checked as the JSON's would be and become the problem's
    stack; otherwise ``problem_from_dict`` reads the JSON text.  Text that
    is not JSON raises ``json.JSONDecodeError``, a ValueError.

    The digest and the check that the arrays fit together are the build's
    first item (see ``_build_quadratics``): for a stack of more than one
    block the calling thread takes them once it has queued the blocks,
    while the workers check the blocks and give them their eigenvalues;
    on one CPU, or for one block, they come before the blocks.  That build
    counts only once the item passes: otherwise it is dropped, with any
    error it raised, before the JSON text is parsed.  A sidecar whose
    dimension is not an integer is not used.
    """
    try:
        # A plain .npy raises TypeError (no context manager), an empty file EOFError.
        # np.load is given the open file: on a damaged zip it would leave its own open.
        with open(_sidecar_path(path), "rb") as fh, np.load(fh, allow_pickle=False) as z:
            expected, meta = str(z["sha256"]), json.loads(str(z["meta"]))
            stack = z["A"], z["b"], z["c0"]
        n, d, nonsmooth = len(stack[2]), operator.index(meta["dimension"]), meta["nonsmooth"]
        usable = functools.partial(_check_sidecar, path, expected, stack, d)
    except _UNUSABLE_SIDECAR:
        pass
    else:
        try:
            return Problem(_build_quadratics(n, d, stack=stack, first=(usable,)),
                           nonsmooth_from_dict(nonsmooth), d)
        except _Unusable:
            pass
    with open(path) as fh:
        return problem_from_dict(json.load(fh))


_UNUSABLE_SIDECAR = (OSError, ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile)


class _Unusable(Exception):
    """A sidecar is written for other JSON bytes, or its arrays do not fit together."""


def _check_sidecar(path, expected: str, stack: tuple, d) -> None:
    """Raise ``_Unusable`` unless the SHA-256 of the bytes of ``path`` is
    ``expected`` and the sidecar's ``stack`` holds float arrays of shapes
    (n, d, d), (n, d) and (n,).  A digest that cannot be taken matches
    nothing: the JSON parse meets its error again."""
    n = len(stack[2])
    with contextlib.suppress(Exception):
        if _sha256(path) == expected and [v.shape for v in stack] == [
                (n, d, d), (n, d), (n,)] and all(v.dtype == float for v in stack):
            return
    raise _Unusable


def _sidecar_path(path) -> str:
    return os.fspath(path) + ".npz"


def _sha256(path) -> str:
    """Hex SHA-256 of a file's bytes, read into one 1 MiB buffer.  Beside a
    build on a busy host, fewer and larger reads win: each one hands the GIL
    over and back twice."""
    # Imported here: it maps OpenSSL (~3.6 MB resident), which a process that
    # never digests a problem file should not pay.
    import hashlib

    digest, buffer = hashlib.sha256(), bytearray(1 << 20)
    with open(path, "rb", buffering=0) as fh, memoryview(buffer) as view:
        while size := fh.readinto(buffer):
            digest.update(view[:size])
    return digest.hexdigest()
