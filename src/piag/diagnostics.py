"""Numerical verification of the solver's convergence guarantees.

Two kinds of checks live here.  Trace checks replay recorded iterates and
test the per-iteration descent inequality and the summability bound on
squared step norms.  Standalone oracles exercise the scalar recursions that
drive the R-linear rate certificate, plus a log-linear rate estimator for
observed sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import INTEGER, Problem, as_real, eval_F
from .solver import TheoryConstants, Trace

Array = np.ndarray


@dataclass
class InequalityReport:
    """Outcome of checking one inequality along a trace.

    ``worst_margin`` is the smallest observed slack (negative means the
    inequality was broken by that amount); ``violations`` counts slacks below
    minus the scale-adjusted tolerance.
    """

    name: str
    checked: int
    violations: int
    worst_margin: float
    tolerance: float
    first_violation_k: int | None = None


class ShortSeriesError(ValueError):
    """Too few points remain for a rate fit."""


class AboveThresholdError(ValueError):
    """The stepsize is not below the descent threshold, so the summability
    bound is undefined."""


@dataclass
class RateFit:
    """Least-squares estimate of a geometric decay rate.

    The fit regresses ``log(values_k - limit)`` on ``k`` after dropping the
    first ``transient_skip`` entries; ``rate`` is ``exp(slope)``.
    """

    rate: float
    log_linear_r2: float
    transient_skip: int
    limit: float


def squared_step_norms(iterates: Array) -> Array:
    """``||x_{k+1} - x_k||^2`` for consecutive rows of an iterate log."""
    x = np.asarray(iterates, dtype=float)
    diffs = x[1:] - x[:-1]
    return np.einsum("ij,ij->i", diffs, diffs)


def delay_window_sums(sq_norms: Array, tau: int) -> Array:
    """Window sums ``sum_{j=k-tau}^{k-1} ||x_{j+1}-x_j||^2`` for each k.

    Steps before the start are zero (the run is padded with copies of the
    first iterate), so truncated windows need no special handling.  The
    terms are added oldest first, one shifted slice at a time; a difference
    of prefix sums would leave rounding noise, possibly negative, once the
    steps have decayed.
    """
    sq = np.asarray(sq_norms, dtype=float)
    tau = min(tau, len(sq))  # a longer window adds only more of the zero pre-history
    padded = np.concatenate([np.zeros(tau), sq])
    out = np.zeros(len(sq))
    for j in range(tau):
        out += padded[j:j + len(sq)]
    return out


def _require_full_log(trace: Trace) -> tuple[Array, Array]:
    if trace.iterates is None or trace.objective_values is None:
        raise ValueError("trace lacks the full iterate log (run with keep_iterates=True)")
    if len(trace.iterates) != len(trace.objective_values):
        raise ValueError("iterate log and objective log have different lengths")
    if len(trace.iterates) < 1:
        raise ValueError("trace is empty")
    return np.asarray(trace.iterates, float), np.asarray(trace.objective_values, float)


def trace_from_iterates(problem: Problem, iterates: Array, alpha: float) -> Trace:
    """Rebuild a checkable trace from a stored iterate log.  The objective
    values are one stacked ``eval_F`` call, bitwise equal to evaluating the
    rows one by one."""
    x = np.atleast_2d(np.asarray(iterates, dtype=float))
    values = eval_F(problem, x)
    return Trace(
        records=[],
        final_x=x[-1],
        termination="loaded",
        iterations=len(x) - 1,
        alpha=float(alpha),
        iterates=x,
        objective_values=values,
    )


def _report(name: str, slack: Array, scale: Array, tol: float) -> InequalityReport:
    """Count the slacks that are not finite or fall below ``-tol * scale``
    as violations; NaN slacks do not enter the worst margin."""
    bad = np.nonzero(~(np.isfinite(slack) & (slack >= -tol * scale)))[0]
    return InequalityReport(
        name=name,
        checked=len(slack),
        violations=len(bad),
        worst_margin=float(np.fmin.reduce(slack, initial=math.inf)) if len(slack) else 0.0,
        tolerance=tol,
        first_violation_k=int(bad[0]) if len(bad) else None,
    )


def check_sufficient_descent(trace: Trace, constants: TheoryConstants,
                             alpha: float, tol: float = 1e-9) -> InequalityReport:
    """Verify, for every recorded step, that

        F(x_{k+1}) <= F(x_k) + (Lbar - 1/alpha) ||x_{k+1}-x_k||^2
                      + (lbar + Lbar) Delta_k

    with slack tolerance ``tol * (1 + |F(x_k)|)``.
    """
    x, f = _require_full_log(trace)
    sq = squared_step_norms(x)
    deltas = delay_window_sums(sq, constants.tau)
    coeff = constants.L_bar - 1.0 / alpha
    mix = constants.l_bar + constants.L_bar
    slack = f[:-1] + coeff * sq + mix * deltas - f[1:]
    return _report("sufficient_descent", slack, 1.0 + np.abs(f[:-1]), tol)


def check_summability(trace: Trace, alpha: float, constants: TheoryConstants,
                      f_lower: float, tol: float = 1e-9) -> InequalityReport:
    """Verify the prefix bound on accumulated squared steps:

        sum_{k=0}^{K} ||x_{k+1}-x_k||^2
            <= (F(x_0) - F(x_{K+1})) / (1/alpha - tau (lbar+Lbar) - Lbar)

    for every prefix ``K``.  Requires the stepsize below the descent
    threshold so the denominator is positive.
    """
    x, f = _require_full_log(trace)
    denom = 1.0 / alpha - constants.tau * (constants.l_bar + constants.L_bar) - constants.L_bar
    if denom <= 0:
        raise AboveThresholdError("stepsize is not below the descent threshold; "
                                  "prefix bound undefined")
    if np.min(f) < f_lower - 1e-6 * (1.0 + abs(f_lower)):
        raise ValueError("observed objective drops below the declared lower bound")
    lhs = np.cumsum(squared_step_norms(x))
    rhs = (f[0] - f[1:]) / denom
    return _report("summability", rhs - lhs, 1.0 + np.abs(lhs) + np.abs(rhs), tol)


def check_perturbed_contraction(a: float, b: float, c: float, window: int,
                                values, perturbations,
                                slack: float = 1e-12) -> tuple[bool, bool]:
    """Oracle for the contraction-with-memory recursion

        V_{k+1} <= a V_k - b w_k + c sum_{j=k-window}^{k} w_j .

    Returns ``(condition_holds, bound_holds)`` where the condition is the
    perturbation budget ``(c/(1-a)) (1-a^{window+1}) / a^window <= b`` and
    the bound is ``V_k <= a^k V_0`` up to ``slack``.  When the condition
    holds the bound must too for any admissible pair of sequences; both
    flags are computed so callers can assert that implication.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("contraction factor a must lie in (0, 1)")
    if b < 0 or c < 0:
        raise ValueError("coefficients b and c must be nonnegative")
    if window < 1:
        raise ValueError("window must be a positive integer")
    v = np.asarray(values, dtype=float)
    w = np.asarray(perturbations, dtype=float)
    if np.any(v < 0) or np.any(w < 0):
        raise ValueError("sequences must be nonnegative")
    condition = (c / (1.0 - a)) * (1.0 - a ** (window + 1)) / a**window <= b
    envelope = v[0] * a ** np.arange(len(v))
    bound = bool(np.all(v <= envelope + slack))
    return condition, bound


def characteristic_root(c: float, tau: int) -> float:
    """Root in ``[c, 1)`` of ``x^tau - (c/tau)(x^{tau-1} + ... + x + 1)``.

    This polynomial governs the decay of a sequence dominated by the running
    average of its last ``tau`` values; the root exists because the
    polynomial is nonpositive at ``c`` and equals ``1 - c > 0`` at 1.
    Bisection to absolute width 1e-12.
    """
    if not 0.0 < c < 1.0:
        raise ValueError("coefficient c must lie in (0, 1)")
    if tau < 1:
        raise ValueError("tau must be a positive integer")

    def poly(x: float) -> float:
        geom = 0.0
        for _ in range(tau):
            geom = geom * x + 1.0
        return x**tau - (c / tau) * geom

    lo, hi = c, 1.0
    if poly(lo) > 0:
        raise ValueError("no sign change: polynomial positive at the lower endpoint")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if poly(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_delayed_recursion_rate(b0: float, q: float, c: float, tau: int,
                                 seq, rate_slack: float = 1e-3) -> bool:
    """Oracle for R-linear decay of a positive sequence satisfying

        a_k <= b0 q^k + (c/tau)(a_{k-1} + ... + a_{k-tau})   for k >= tau.

    The hypothesis is re-verified (raising on the first failing index), then
    the empirical tail rate, estimated by a log-linear fit on the second half
    of the sequence, is compared against ``max(p, q) + rate_slack`` where
    ``p`` is the characteristic root.
    """
    if not b0 > 0:
        raise ValueError("b0 must be positive")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    if tau < 1:
        raise ValueError("tau must be a positive integer")
    a = np.asarray(seq, dtype=float)
    if np.any(a <= 0):
        raise ValueError("sequence entries must be positive")
    bound = b0 * q ** np.arange(len(a)) + (c / tau) * delay_window_sums(a, tau)
    bad = np.nonzero(a[tau:] > bound[tau:] * (1 + 1e-9) + 1e-15)[0]
    if len(bad):
        raise ValueError(f"recursion hypothesis violated at k={tau + bad[0]}")
    p = characteristic_root(c, tau)
    skip = max(tau, len(a) // 2)
    fit = fit_rlinear_rate(a, limit=0.0, skip=skip)
    return fit.rate <= max(p, q) + rate_slack


def fit_rlinear_rate(values, limit: float | None, skip: int = 0, ks=None) -> RateFit:
    """Estimate a geometric decay rate from ``values_k -> limit``.

    Least-squares slope of ``log(values_k - limit)`` against ``k`` over
    ``k >= skip``; the reported rate is ``exp(slope)``.  ``ks`` gives the
    iteration index of each value (default ``0, 1, 2, ...``); a ``ks`` of
    another length raises ``ValueError``.  ``limit`` None
    means the smallest value less a pad of ``1e-14 (1 + |min|)``, and drops
    values within 100 pads of it as rounding noise.  Residuals must be
    strictly positive and at least 10 points must remain after the skip.
    """
    v = np.asarray(values, dtype=float)
    if not INTEGER.test(skip):
        raise ValueError(f"transient skip must be {INTEGER.text}, got {skip!r}")
    if skip < 0:
        raise ValueError("transient skip must be nonnegative")
    if limit is not None and not math.isfinite(as_real("limit", limit)):
        raise ValueError(f"limit must be finite, got {limit!r}")
    ks = np.arange(len(v), dtype=float) if ks is None else np.asarray(ks, dtype=float)
    if len(ks) != len(v):
        raise ValueError(f"ks holds {len(ks)} iteration indices for {len(v)} values")
    keep = ks >= skip
    if limit is None:
        f_min = float(np.min(v))
        pad = 1e-14 * (1.0 + abs(f_min))
        limit = f_min - pad
        keep &= v - limit > 100.0 * pad
    ks, resid = ks[keep], v[keep] - limit
    if len(resid) < 10:
        raise ShortSeriesError("need at least 10 points after the transient skip, "
                               f"got {len(resid)}")
    if np.any(resid <= 0):
        raise ValueError("nonpositive residuals: the limit estimate is too high")
    y = np.log(resid)
    y_mean = y.mean()
    dk = ks - ks.mean()
    dy = y - y_mean
    slope = float(np.dot(dk, dy)) / float(np.dot(dk, dk))
    fitted = y_mean + slope * dk
    ss_tot = float(np.sum(dy**2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum((y - fitted) ** 2)) / ss_tot
    return RateFit(math.exp(slope), r2, skip, float(limit))


def check_step_recursion_coefficient(constants: TheoryConstants, alpha: float) -> bool:
    """True iff ``c2 / (1/alpha - c1) < 1/tau``.

    This is the feedback coefficient of the squared-step recursion; below
    ``1/tau`` the delayed-recursion oracle applies and the iterates converge
    R-linearly.  Intended for stepsizes at or below the certified cap.
    """
    if constants.tau < 1:
        raise ValueError("coefficient check needs a positive delay parameter")
    if not alpha > 0:
        raise ValueError("stepsize must be positive")
    inv = 1.0 / alpha
    if inv <= constants.c1:
        raise ValueError("1/alpha must exceed the leading descent constant")
    return constants.c2 / (inv - constants.c1) < 1.0 / constants.tau
