"""Independent checks of piag's outputs.

Nothing here calls piag or compares against stored output.  Every check
recomputes what it needs from the problem data (component matrices, read
from the objects or parsed from ``problem.json`` with plain ``json``) using
numpy alone: the summed quadratic, ``eigvalsh``-based smoothness constants,
the objective, the prox-gradient mapping, the l1 minimizer, the Lemma-2
descent slack, the summability prefix bound and the log-linear rate fit.
A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Relative slack of the inequality checks; the program uses the same.
INEQ_TOL = 1e-9


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Quadratic:
    """``F(x) = 0.5 x'Sx + sb'x + c + h(x)`` rebuilt from the component data.

    ``L`` and ``l`` are the sums over components of the spectral norm and of
    the negative part of the smallest eigenvalue, as the paper defines them.
    """

    S: np.ndarray
    sb: np.ndarray
    c: float
    L: float
    l: float
    kind: str
    lam: float = 0.0
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    @classmethod
    def from_components(cls, matrices, offsets, constants, nonsmooth: dict):
        S = np.zeros_like(np.asarray(matrices[0], float))
        sb = np.zeros(S.shape[0])
        L = l = 0.0
        for A, b in zip(matrices, offsets):
            A = np.asarray(A, float)
            eig = np.linalg.eigvalsh(0.5 * (A + A.T))
            L += max(float(np.max(np.abs(eig))), 1e-12)
            l += max(0.0, float(-eig[0]))
            S += A
            sb += np.asarray(b, float)
        d = len(sb)
        kind = nonsmooth["kind"]
        lo = hi = None
        if kind in ("box", "box_plus_l1"):
            lo = np.broadcast_to(np.asarray(nonsmooth["lo"], float), (d,))
            hi = np.broadcast_to(np.asarray(nonsmooth["hi"], float), (d,))
        return cls(S=S, sb=sb, c=float(sum(constants)), L=L, l=l, kind=kind,
                   lam=float(nonsmooth.get("lambda", 0.0)), lo=lo, hi=hi)

    @classmethod
    def from_problem(cls, problem):
        """From a ``piag`` problem object: only its stored data is read."""
        ns = problem.nonsmooth
        return cls.from_components(
            [c.matrix for c in problem.components], [c.offset for c in problem.components],
            [c.constant for c in problem.components],
            {"kind": ns.kind, "lambda": ns.lam, "lo": ns.lo, "hi": ns.hi})

    @classmethod
    def from_problem_json(cls, obj: dict):
        d = int(obj["dimension"])
        comps = obj["components"]
        return cls.from_components(
            [np.asarray(c["A"], float).reshape(d, d) for c in comps],
            [c["b"] for c in comps], [c.get("c0_term", 0.0) for c in comps],
            obj["nonsmooth"])

    def h(self, X) -> np.ndarray:
        X = np.atleast_2d(X)
        out = self.lam * np.abs(X).sum(axis=1) if self.kind in ("l1", "box_plus_l1") \
            else np.zeros(len(X))
        if self.lo is not None:
            outside = np.any((X < self.lo) | (X > self.hi), axis=1)
            out = np.where(outside, np.inf, out)
        return out

    def F(self, X) -> np.ndarray:
        """Objective of every row of ``X``."""
        X = np.atleast_2d(np.asarray(X, float))
        quad = 0.5 * np.einsum("ij,ij->i", X @ self.S, X) + X @ self.sb + self.c
        return quad + self.h(X)

    def grad(self, x) -> np.ndarray:
        return self.S @ x + self.sb

    def prox(self, y, t: float) -> np.ndarray:
        z = y
        if self.kind in ("l1", "box_plus_l1"):
            z = np.sign(y) * np.maximum(np.abs(y) - t * self.lam, 0.0)
        if self.lo is not None:
            z = np.clip(z, self.lo, self.hi)
        return z

    def residual(self, x, t: float) -> float:
        """``||prox_{t h}(x - t grad f(x)) - x||``, zero iff x is stationary."""
        return float(np.linalg.norm(self.prox(x - t * self.grad(x), t) - x))

    def threshold(self, tau: int) -> float:
        """Lemma-2 stepsize threshold ``1 / (Lbar + tau (lbar + Lbar))``."""
        Lbar, lbar = self.L * (tau + 1) / 2.0, self.l * (tau + 1) / 2.0
        return 1.0 / (Lbar + tau * (lbar + Lbar))


def l1_minimizer(q: Quadratic) -> tuple[np.ndarray, float]:
    """Minimizer and minimum of a strongly convex quadratic plus l1.

    Proximal gradient with step ``1/lambda_max(S)`` until the step stalls,
    then an exact solve on the support; the polished point is kept only if
    it satisfies the optimality conditions.
    """
    eig = np.linalg.eigvalsh(q.S)
    if eig[0] <= 0:
        raise CheckFailed("l1 problem is not strongly convex")
    t = 1.0 / eig[-1]
    x = np.zeros(len(q.sb))
    for _ in range(200000):
        x_new = q.prox(x - t * q.grad(x), t)
        done = np.linalg.norm(x_new - x) <= 1e-15 * (1.0 + np.linalg.norm(x_new))
        x = x_new
        if done:
            break
    sup = np.nonzero(np.abs(x) > 0)[0]
    if len(sup):
        signs = np.sign(x[sup])
        cand = np.zeros_like(x)
        cand[sup] = np.linalg.solve(q.S[np.ix_(sup, sup)], -(q.sb[sup] + q.lam * signs))
        g = q.grad(cand)
        off = np.ones(len(x), bool)
        off[sup] = False
        if np.all(np.sign(cand[sup]) == signs) and np.all(np.abs(g[off]) <= q.lam * (1 + 1e-12)):
            x = cand
    if q.residual(x, t) > 1e-10 * (1.0 + np.linalg.norm(x)):
        raise CheckFailed("reference l1 minimizer did not converge")
    return x, float(q.F(x)[0])


def check_l1_final(q: Quadratic, x, alpha: float, tol: float, f_star: float) -> None:
    """Final iterate of an l1 run: the KKT residual (prox-gradient mapping at
    the run's stepsize) is within the stopping tolerance, and the objective
    gap to the minimizer is within the bound that residual implies for a
    strongly convex sum."""
    x = np.asarray(x, float)
    r = q.residual(x, alpha)
    require(r <= tol * (1 + 1e-6) + 1e-13,
            f"KKT residual {r:.3g} of the final iterate exceeds the tolerance {tol:.3g}")
    mu, L_f = np.linalg.eigvalsh(q.S)[[0, -1]]
    g = q.grad(x)
    bound = (((L_f + 1.0 / alpha) * r) ** 2 / (2 * mu)
             + (np.linalg.norm(g) + q.lam * math.sqrt(len(x))) * r + 0.5 * L_f * r * r)
    gap = float(q.F(x)[0]) - f_star
    slack = 1e-12 * (1.0 + abs(f_star))
    require(-slack <= gap <= bound + slack,
            f"objective gap {gap:.3g} to the minimizer is outside [0, {bound:.3g}]")


def check_box_final(q: Quadratic, x, x0, alpha: float, tol: float) -> None:
    """Final iterate of a box run: inside the box, projected-gradient residual
    within the tolerance, and no worse than the start."""
    x = np.asarray(x, float)
    require(bool(np.all(x >= q.lo) and np.all(x <= q.hi)), "final iterate leaves the box")
    r = q.residual(x, alpha)
    require(r <= tol * (1 + 1e-6) + 1e-13,
            f"projected-gradient residual {r:.3g} exceeds the tolerance {tol:.3g}")
    f_end, f_start = q.F(np.vstack([x, x0]))
    require(f_end <= f_start + INEQ_TOL * (1 + abs(f_start)),
            f"F(x_K)={f_end:.12g} is above F(x_0)={f_start:.12g}")


def check_stepsize(q: Quadratic, alpha: float, tau: int) -> None:
    thr = q.threshold(tau)
    require(0 < alpha < thr, f"stepsize {alpha:.6g} is not below the threshold {thr:.6g}")


def lemma2_violations(q: Quadratic, iterates, alpha: float, tau: int,
                      f_lower: float | None = None) -> tuple[int, int, np.ndarray]:
    """Own count of descent and summability violations along an iterate log.

    Descent:  F_{k+1} <= F_k + (Lbar - 1/alpha) s_k + (lbar + Lbar) D_k
    Summability: sum_{j<=K} s_j <= (F_0 - F_{K+1}) / (1/alpha - tau(lbar+Lbar) - Lbar)
    with ``s_k = ||x_{k+1}-x_k||^2`` and ``D_k`` the sum of the previous
    ``tau`` values of ``s`` (a cumulative-sum difference).  Returns the two
    counts and the objective values.
    """
    X = np.asarray(iterates, float)
    f = q.F(X)
    require(bool(np.all(np.isfinite(f))), "an iterate lies outside the domain of h")
    if f_lower is not None:
        require(float(np.min(f)) >= f_lower - 1e-6 * (1 + abs(f_lower)),
                "objective drops below the declared lower bound")
    steps = np.diff(X, axis=0)
    s = np.einsum("ij,ij->i", steps, steps)
    cum = np.concatenate([[0.0], np.cumsum(s)])
    k = np.arange(len(s))
    window = cum[k] - cum[np.maximum(k - tau, 0)]
    Lbar, lbar = q.L * (tau + 1) / 2.0, q.l * (tau + 1) / 2.0
    slack = f[:-1] + (Lbar - 1.0 / alpha) * s + (lbar + Lbar) * window - f[1:]
    descent = int(np.sum(slack < -INEQ_TOL * (1.0 + np.abs(f[:-1]))))
    denom = 1.0 / alpha - tau * (lbar + Lbar) - Lbar
    require(denom > 0, "stepsize leaves no room in the summability bound")
    lhs = cum[1:]
    rhs = (f[0] - f[1:]) / denom
    summ = int(np.sum(rhs - lhs < -INEQ_TOL * (1.0 + np.abs(lhs) + np.abs(rhs))))
    return descent, summ, f


def check_replay(q: Quadratic, iterates, alpha: float, tau: int, program_values,
                 program_violations: tuple[int, int], f_lower=None) -> None:
    """The program's replayed objective and its descent/summability
    violation counts agree with the own recomputation, and both are 0."""
    check_stepsize(q, alpha, tau)
    descent, summ, f = lemma2_violations(q, iterates, alpha, tau, f_lower)
    if program_values is not None:
        pv = np.asarray(program_values, float)
        require(pv.shape == f.shape, "replayed objective has the wrong length")
        err = float(np.max(np.abs(pv - f) / (1.0 + np.abs(f))))
        require(err <= 1e-9, f"replayed objective differs from F by {err:.3g}")
    require((descent, summ) == (0, 0),
            f"own recomputation finds {descent} descent and {summ} summability violations")
    require(tuple(program_violations) == (descent, summ),
            f"program reports {program_violations} violations, own count is {(descent, summ)}")


def check_staleness(staleness, tau: int) -> None:
    worst = max(staleness)
    require(worst <= tau, f"a trace record has staleness {worst} > tau={tau}")


def check_bitwise(a: np.ndarray, b: np.ndarray, what: str) -> None:
    a, b = np.asarray(a), np.asarray(b)
    require(a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes(),
            f"{what} differ bitwise")


def loglinear_rate(ks, values, limit: float) -> tuple[float, float]:
    """Least-squares rate ``exp(slope)`` of ``log(values - limit)`` on ``k``,
    and the fit's R^2."""
    ks = np.asarray(ks, float)
    y = np.log(np.asarray(values, float) - limit)
    slope, icpt = np.polyfit(ks, y, 1)
    ss_res = float(np.sum((y - (slope * ks + icpt)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return math.exp(slope), (1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot)


def check_rate(own: float, program: float) -> None:
    require(0.0 < program < 1.0, f"fitted rate {program!r} is not in (0, 1)")
    require(abs(own - program) <= 1e-8 * program,
            f"fitted rate {program!r} disagrees with the own fit {own!r}")
