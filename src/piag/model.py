"""Composite objective model: a sum of smooth components plus a proximable term.

The objective has the form ``F(x) = sum_i f_i(x) + h(x)`` where every ``f_i``
is smooth (gradient Lipschitz) and possibly nonconvex, and ``h`` is proper,
closed and convex.  Evaluation is deterministic, so repeated runs are bitwise
reproducible.  The full gradient ``grad_f`` sums the component gradients with
the same reduction as the solver's aggregated gradient.  When every component
is quadratic, the problem also keeps the summed quadratic
``0.5 x'Sx + sb'x + const`` (formed once, in index order), and ``eval_f`` and
the prox residual evaluate through it: one d x d matvec instead of N.  Their
values may therefore differ from a per-component sum in the last bits, and so
may the ``F`` and ``prox_residual`` columns of ``trace.csv`` and
``final_objective`` in ``summary.json`` from versions before the summed
quadratic; the iterates (``iterates.csv``), which only use component
gradients, do not.

``eval_F``, ``eval_f`` and ``NonsmoothTerm.value`` have one body each, which
takes a (K, d) stack of points and returns the K values.  A single point is
evaluated as a one-row stack, so a point's value is bitwise its value as a
row of any stack, such as a whole iterate log.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, field
from typing import Callable

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
    """Quadratic term ``0.5 x'Ax + b'x + const`` with exact constants attached.

    The matrix is kept so the component can be written back to a problem file.
    """

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
    d = b.shape[0]
    A = np.asarray(A, dtype=float)
    if A.shape != (d, d):
        raise ValueError(f"matrix shape {A.shape} does not match vector dimension {d}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b)) and math.isfinite(constant)):
        raise ValueError("matrix, linear term and constant must be finite")
    if not np.allclose(A, A.T, rtol=0.0, atol=1e-12):
        raise ValueError("matrix must be symmetric (tolerance 1e-12)")
    A = 0.5 * (A + A.T)
    eigenvalues = np.linalg.eigvalsh(A)
    lipschitz = max(float(np.max(np.abs(eigenvalues))), 1e-12)
    weak = max(0.0, float(-eigenvalues[0]))

    def value(x, _A=A, _b=b, _c=float(constant)) -> float:
        return float(0.5 * np.dot(x, _A @ x) + np.dot(_b, x) + _c)

    def grad(x, _A=A, _b=b) -> Array:
        return _A @ x + _b

    return QuadraticComponent(
        value=value,
        grad=grad,
        lipschitz=lipschitz,
        weak_convexity=weak,
        matrix=A,
        offset=b,
        constant=float(constant),
    )


def sum_quadratics(components) -> tuple[Array, Array, float]:
    """Summed quadratic ``(S, sb, const)`` of quadratic components, added in
    index order."""
    S = np.zeros_like(components[0].matrix)
    sb = np.zeros_like(components[0].offset)
    const = 0.0
    for comp in components:
        S = S + comp.matrix
        sb = sb + comp.offset
        const += comp.constant
    return S, sb, const


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
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("l1 weight must be a finite nonnegative number")
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
        return cls(kind="l1", lam=float(lam))

    @classmethod
    def box(cls, lo, hi) -> "NonsmoothTerm":
        return cls(kind="box", lo=_bound(lo), hi=_bound(hi))

    @classmethod
    def box_plus_l1(cls, lo, hi, lam: float) -> "NonsmoothTerm":
        return cls(kind="box_plus_l1", lo=_bound(lo), hi=_bound(hi), lam=float(lam))

    def value(self, x) -> float | Array:
        """Evaluate the term at a point, or at each row of a (K, d) stack of
        points, returning ``inf`` outside its domain.  A point is a one-row
        stack; ``np.add.reduce`` along a C-contiguous row adds in the order
        it uses on that row alone, so each row's value is the same in any stack."""
        X = np.asarray(x, dtype=float)
        out = self._stack_values(X if X.ndim == 2 else X.reshape(1, -1))
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


def _bound(v):
    """Normalize a box bound to a float scalar or a float vector."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        return float(arr)
    return as_vector(arr)


@dataclass(frozen=True, eq=False)
class Problem:
    """Composite minimization problem ``min sum_i f_i(x) + h(x)``.

    ``quadratic_sum`` is ``sum_quadratics(components)`` when every component
    is a ``QuadraticComponent``, else None.
    """

    components: tuple
    nonsmooth: NonsmoothTerm
    dimension: int
    f_lower_bound_hint: float | None = None
    quadratic_sum: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
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
        if all(isinstance(c, QuadraticComponent) for c in self.components):
            object.__setattr__(self, "quadratic_sum", sum_quadratics(self.components))

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
        S, sb, const = problem.quadratic_sum
        columns = X[:, :, None]
        xSx = np.matmul(X[:, None, :], np.matmul(S, columns))[:, 0, 0]
        return 0.5 * xSx + np.matmul(sb, columns)[:, 0] + const
    out = np.zeros(len(X))
    for comp in problem.components:
        out += [comp.value(row) for row in X]
    return out


def grad_f(problem: Problem, x) -> Array:
    """Full gradient ``sum_i grad f_i(x)``: the component gradients stacked as
    rows and reduced by ``np.sum(..., axis=0)``, as the gradient table does."""
    x = as_vector(x, problem.dimension)
    grads = np.empty((problem.n_components, problem.dimension))
    for i, comp in enumerate(problem.components):
        grads[i] = comp.grad(x)
    return np.sum(grads, axis=0)


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
# Unknown fields are rejected at every level.
#
# save_problem also writes a binary sidecar <path>.npz (e.g. problem.json.npz)
# holding "sha256" (hex digest of the JSON file's bytes), "meta" (JSON text of
# dimension and nonsmooth), "A" (N, d, d), "b" (N, d) and "c0" (N,).
# load_problem takes the numbers from it only when the digest matches the
# JSON file and falls back to the JSON text otherwise; the JSON stays the
# schema, and the sidecar is a cache that is safe to delete.
# ---------------------------------------------------------------------------


def _check_fields(obj, required: set[str], optional: set[str], where: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    missing = sorted(required - set(obj))
    if missing:
        raise ValueError(f"{where} is missing the field(s) {missing}")
    unknown = sorted(set(obj) - required - optional)
    if unknown:
        raise ValueError(f"unknown field(s) {unknown} in {where}")


def nonsmooth_to_dict(term: NonsmoothTerm) -> dict:
    out: dict = {"kind": term.kind}
    if term.kind in ("l1", "box_plus_l1"):
        out["lambda"] = term.lam
    if term.kind in ("box", "box_plus_l1"):
        out["lo"] = term.lo if np.ndim(term.lo) == 0 else list(np.asarray(term.lo, float))
        out["hi"] = term.hi if np.ndim(term.hi) == 0 else list(np.asarray(term.hi, float))
    return out


def nonsmooth_from_dict(obj: dict) -> NonsmoothTerm:
    if not isinstance(obj, dict) or obj.get("kind") not in _NONSMOOTH_KINDS:
        raise ValueError(f"nonsmooth spec must be an object with 'kind' one of {_NONSMOOTH_KINDS}")
    kind = obj["kind"]
    bounds = {"lo", "hi"} if kind in ("box", "box_plus_l1") else set()
    _check_fields(obj, {"kind"} | bounds, {"lambda"} if kind in ("l1", "box_plus_l1") else set(),
                  "nonsmooth")
    return NonsmoothTerm(kind, lam=float(obj.get("lambda", 0.0)),
                         lo=_bound(obj["lo"]) if bounds else None,
                         hi=_bound(obj["hi"]) if bounds else None)


def problem_to_dict(problem: Problem) -> dict:
    return {
        "dimension": problem.dimension,
        "components": [_component_entry(c.matrix.reshape(-1).tolist(), c.offset.tolist(),
                                        c.constant)
                       for c in _quadratic_components(problem)],
        "nonsmooth": nonsmooth_to_dict(problem.nonsmooth),
    }


def _quadratic_components(problem: Problem) -> tuple:
    for i, comp in enumerate(problem.components):
        if not isinstance(comp, QuadraticComponent):
            raise ValueError(f"component {i} is not quadratic and cannot be serialized")
    return problem.components


def _component_entry(A, b, c0: float) -> dict:
    """One entry of the problem file's ``components`` list, holding ``A`` and
    ``b`` as given."""
    entry = {"A": A, "b": b}
    if c0 != 0.0:
        entry["c0_term"] = c0
    return entry


def problem_from_dict(obj: dict) -> Problem:
    _check_fields(obj, {"dimension", "components", "nonsmooth"}, set(), "problem spec")
    d = obj["dimension"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError("dimension must be a positive integer")
    if not isinstance(obj["components"], list):
        raise ValueError("components must be a list")
    comps = []
    for i, entry in enumerate(obj["components"]):
        _check_fields(entry, {"A", "b"}, {"c0_term"}, f"components[{i}]")
        flat = np.asarray(entry["A"], dtype=float)
        if flat.shape != (d * d,):
            raise ValueError(
                f"components[{i}]: 'A' must be a flat row-major list of {d * d} numbers"
            )
        A = flat.reshape(d, d)
        b = as_vector(entry["b"], d)
        comps.append(quadratic_component(A, b, float(entry.get("c0_term", 0.0))))
    return Problem(
        components=tuple(comps),
        nonsmooth=nonsmooth_from_dict(obj["nonsmooth"]),
        dimension=d,
    )


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
    CPU, and written in order.  The sidecar holds the SHA-256 of the JSON
    bytes, taken as they are written, and the same numbers in binary form,
    so ``load_problem`` can skip the text parse.  Each file is written to a
    temporary file and renamed into place.
    """
    # Imported here because solve, verify and rate never write a problem:
    # hashlib maps OpenSSL (see _sha256), and the pool pulls in
    # multiprocessing (~2 MB resident, ~20 ms).
    import hashlib
    from concurrent.futures import ProcessPoolExecutor

    comps = _quadratic_components(problem)
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
        pool = ProcessPoolExecutor(min(len(os.sched_getaffinity(0)), len(comps)))
        try:
            texts = pool.map(_component_text, [c.matrix for c in comps],
                             [c.offset for c in comps], [c.constant for c in comps])
            for i, text in enumerate(texts):
                emit(",\n    " + text if i else text)
        finally:
            pool.shutdown(cancel_futures=True)
        emit(tail + "\n")
    meta = json.dumps({"dimension": problem.dimension, "nonsmooth": nonsmooth})
    # A -0.0 constant is written as no c0_term, so it reads back as 0.0.
    c0 = np.array([c.constant if c.constant != 0.0 else 0.0 for c in comps])
    with _replacing(_sidecar_path(path)) as fh:
        np.savez(fh, sha256=np.array(digest.hexdigest()), meta=np.array(meta), c0=c0,
                 A=np.array([c.matrix for c in comps], dtype=float),
                 b=np.array([c.offset for c in comps], dtype=float))


def load_problem(path) -> Problem:
    """Read a problem file.

    The numbers come from the sidecar ``<path>.npz`` when its digest matches
    the JSON bytes, else from the JSON text; either way ``problem_from_dict``
    checks and builds the problem.  Text that is not JSON raises
    ``json.JSONDecodeError``, a ValueError.
    """
    obj = _read_sidecar(path)
    if obj is None:
        with open(path) as fh:
            obj = json.load(fh)
    return problem_from_dict(obj)


def _sidecar_path(path) -> str:
    return os.fspath(path) + ".npz"


def _sha256(path) -> str:
    """Hex SHA-256 of a file's bytes, read in 1 MiB chunks."""
    # Imported here: it maps OpenSSL (~3.6 MB resident), which a process that
    # never digests a problem file should not pay.
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_sidecar(path) -> dict | None:
    """The problem spec stored in ``<path>.npz``, with the component arrays in
    place of the JSON lists, or None when the sidecar is missing, unreadable,
    inconsistent or written for other JSON bytes."""
    try:
        # A plain .npy raises TypeError (no context manager), an empty file EOFError.
        # np.load is given the open file: on a damaged zip it would leave its own open.
        with open(_sidecar_path(path), "rb") as fh, np.load(fh, allow_pickle=False) as z:
            if str(z["sha256"]) != _sha256(path):
                return None
            obj = json.loads(str(z["meta"]))
            A, b, c0 = z["A"], z["b"], z["c0"]
        n, d = len(c0), obj["dimension"]
        if A.shape != (n, d, d) or b.shape != (n, d) or c0.shape != (n,):
            return None
    except (OSError, ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile):
        return None
    obj["components"] = [{"A": A[i].reshape(-1), "b": b[i], "c0_term": float(c0[i])}
                         for i in range(n)]
    return obj
