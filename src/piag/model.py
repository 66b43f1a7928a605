"""Composite objective model: a sum of smooth components plus a proximable term.

The objective has the form ``F(x) = sum_i f_i(x) + h(x)`` where every ``f_i``
is smooth (gradient Lipschitz) and possibly nonconvex, and ``h`` is proper,
closed and convex.  All evaluation helpers accumulate component terms in index
order so that repeated runs are bitwise reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

_NONSMOOTH_KINDS = ("zero", "l1", "box", "box_plus_l1")


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


@dataclass(frozen=True, eq=False)
class DCSplit:
    """Difference-of-convex form ``f = f1 - f2`` of a smooth component."""

    f1: SmoothComponent
    f2: SmoothComponent
    shift: float


def dc_decompose(component: SmoothComponent, shift: float) -> DCSplit:
    """Split ``f`` into convex parts ``f1 = f + (shift/2)||.||^2`` and
    ``f2 = (shift/2)||.||^2``.

    Requires ``shift`` above the component's gradient Lipschitz constant so
    that both parts are convex.
    """
    c = float(shift)
    if c <= component.lipschitz:
        raise ValueError(
            f"shift {c} must exceed the component Lipschitz constant "
            f"{component.lipschitz} to make both parts convex"
        )

    def f1_value(x, _f=component.value, _c=c) -> float:
        return float(_f(x) + 0.5 * _c * np.dot(x, x))

    def f1_grad(x, _g=component.grad, _c=c) -> Array:
        return _g(x) + _c * x

    def f2_value(x, _c=c) -> float:
        return float(0.5 * _c * np.dot(x, x))

    def f2_grad(x, _c=c) -> Array:
        return _c * x

    f1 = SmoothComponent(f1_value, f1_grad, lipschitz=component.lipschitz + c)
    f2 = SmoothComponent(f2_value, f2_grad, lipschitz=c)
    return DCSplit(f1=f1, f2=f2, shift=c)


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

    def value(self, x) -> float:
        """Evaluate the term, returning ``inf`` outside its domain."""
        x = np.asarray(x, dtype=float)
        if self.kind == "zero":
            return 0.0
        if self.kind == "l1":
            return float(self.lam * np.sum(np.abs(x)))
        inside = bool(np.all(x >= self.lo) and np.all(x <= self.hi))
        if not inside:
            return math.inf
        if self.kind == "box":
            return 0.0
        return float(self.lam * np.sum(np.abs(x)))


def _bound(v):
    """Normalize a box bound to a float scalar or a float vector."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        return float(arr)
    return as_vector(arr)


@dataclass(frozen=True, eq=False)
class Problem:
    """Composite minimization problem ``min sum_i f_i(x) + h(x)``."""

    components: tuple
    nonsmooth: NonsmoothTerm
    dimension: int
    f_lower_bound_hint: float | None = None

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
        L, l = smoothness_totals(self)
        if not (math.isfinite(L) and math.isfinite(l)):
            raise ValueError("aggregate smoothness constants must be finite")
        if L < l:
            raise ValueError("aggregate Lipschitz constant must dominate the weak-convexity total")

    @property
    def n_components(self) -> int:
        return len(self.components)


def eval_f(problem: Problem, x) -> float:
    """Smooth part ``sum_i f_i(x)``, accumulated in component index order."""
    x = as_vector(x, problem.dimension)
    total = 0.0
    for comp in problem.components:
        total += comp.value(x)
    return total


def grad_f(problem: Problem, x) -> Array:
    """Full gradient ``sum_i grad f_i(x)``, accumulated in index order."""
    x = as_vector(x, problem.dimension)
    g = np.zeros(problem.dimension)
    for comp in problem.components:
        g += comp.grad(x)
    return g


def eval_F(problem: Problem, x) -> float:
    """Composite objective. Exactly ``eval_f(problem, x) + nonsmooth.value(x)``
    in that expression order; ``inf`` outside the domain of the nonsmooth term.
    """
    x = as_vector(x, problem.dimension)
    return eval_f(problem, x) + problem.nonsmooth.value(x)


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
    comps = []
    for i, comp in enumerate(problem.components):
        if not isinstance(comp, QuadraticComponent):
            raise ValueError(f"component {i} is not quadratic and cannot be serialized")
        entry = {
            "A": [float(v) for v in comp.matrix.reshape(-1)],
            "b": [float(v) for v in comp.offset],
        }
        if comp.constant != 0.0:
            entry["c0_term"] = comp.constant
        comps.append(entry)
    return {
        "dimension": problem.dimension,
        "components": comps,
        "nonsmooth": nonsmooth_to_dict(problem.nonsmooth),
    }


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


def save_problem(problem: Problem, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_problem(path) -> Problem:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    return problem_from_dict(obj)
