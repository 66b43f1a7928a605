"""Incremental aggregated proximal gradient loop and its certified stepsizes.

One iteration aggregates possibly stale component gradients, takes a gradient
step with that aggregate, and applies the proximal operator of the nonsmooth
term:

    g_k = sum_i (cached gradient of f_i, staleness <= tau)
    y_k = x_k - alpha * g_k
    x_{k+1} = prox_{alpha * h}(y_k)

With zero delay this is exactly forward-backward splitting.  ``solve`` and
``reference_fbs`` share one driver, which owns the stepsize, termination,
divergence handling, trace records and the iterate log, and reads F and
the prox residual of an iterate as one measurement.  They differ only in the
step: ``solve`` aggregates through a ``GradientTable``, while
``reference_fbs`` forms the full gradient directly, with no cache, ages or
refresh sets, so it stays an independent implementation of the delay
bookkeeping for equivalence testing.  It also shares neither the table's
row kernel nor its threads: ``grad_f`` sums the components' own gradients
in the calling thread, so the zero-delay comparison checks the kernel too.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .delay import DelaySchedule, GradientTable, StepWindow, next_refresh_set
from .fields import as_count, as_real, run_limits
from .model import Problem, RowThreads, as_vector, eval_F, grad_f, smoothness_totals
from .prox import prox, prox_residual

Array = np.ndarray

#: Objective growth beyond which a run is declared divergent.
DIVERGENCE_MARGIN = 1e12

TRACE_HEADER = "k,F,step_norm,prox_residual,max_staleness,delta_k"


class DivergenceError(RuntimeError):
    """Raised when the iteration produces non-finite quantities."""


def stepsize_threshold(L: float, l: float, tau: int) -> float:
    """Largest stepsize (exclusive) with guaranteed descent and summable
    squared steps under delay bound ``tau``: ``1 / (Lbar + tau (lbar + Lbar))``
    with ``Lbar = L(tau+1)/2`` and ``lbar = l(tau+1)/2``, strictly decreasing
    in both ``tau`` and ``L``."""
    return _descent(L, l, tau)[3]


def _descent(L, l, tau) -> tuple:
    """``(tau, Lbar, lbar, threshold)`` of checked ``L``, ``l`` and ``tau``."""
    if not L > 0:
        raise ValueError("aggregate Lipschitz constant L must be positive")
    if l < 0 or l > L * (1 + 1e-12):
        raise ValueError("weak-convexity total l must lie in [0, L]")
    if (tau := as_count("tau", tau)) < 0:
        raise ValueError("delay parameter tau must be nonnegative")
    L_bar, l_bar = L * (tau + 1) / 2, l * (tau + 1) / 2
    return tau, L_bar, l_bar, 1 / (L_bar + tau * (l_bar + L_bar))


def _summability_denominator(alpha, tau, L_bar, l_bar, threshold):
    """``1/alpha - tau (lbar + Lbar) - Lbar``, or None unless ``alpha`` is below
    the descent threshold: ``alpha < threshold`` and a positive denominator."""
    denom = 1 / alpha - tau * (l_bar + L_bar) - L_bar
    return denom if alpha < threshold and denom > 0 else None


@dataclass(frozen=True)
class TheoryConstants:
    """Constants of the convergence-rate certificate.

    ``c1`` through ``c8`` form the derived chain ending in the certified
    stepsize cap ``c8``; ``step_threshold`` is the weaker descent threshold.
    ``c0`` is the user-supplied error-bound constant (distance to the
    stationary set over prox residual).
    """

    L: float
    l: float
    tau: int
    c0: float
    L_bar: float
    l_bar: float
    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c7: float
    c8: float
    step_threshold: float

    def contraction(self, alpha: float) -> float:
        """Certified geometric factor ``1 / (1 + (L * alpha / c0)^2)``, 0 when
        the square exceeds the largest float."""
        if not alpha > 0:
            raise ValueError("stepsize must be positive")
        r = self.L * alpha / self.c0
        return 1 / (1 + r * r)  # r ** 2 raises OverflowError


def rate_constants(L: float, l: float, tau: int, c0: float) -> TheoryConstants:
    """Evaluate the rate-certificate constants chain; ``Fraction`` inputs give exact values.

    The cap ``c8 = min(step_threshold, 1/(2 c5 + 2 c7), 1/L)`` never exceeds
    ``1/L`` or the descent threshold.
    """
    c0, (tau, L_bar, l_bar, threshold) = _checked_c0(c0), _descent(L, l, tau)
    c0sq = c0 * c0
    c2 = (l + L) * (tau + 1) / 2
    c3 = (c0sq * (2 * l * (tau + 1) + L) + L * tau) / (2 * L * L)
    c4 = ((l + L) * (1 + tau) + 2 * tau * (l + L + l * tau) * c0sq) / (2 * L * L)
    c5 = l + L + l * tau + L * tau / 2 + L * tau / (2 * c0sq)
    c6 = ((tau + 1) * (l + L) / c0sq + 2 * l * tau**2 + 3 * l * tau + l + 3 * L * tau + L) / 2
    try:
        c7 = c6 * (1 + tau * (1 + 1 / c0sq) ** tau)
    except OverflowError:  # the power exceeds the largest float; c8 is then 0
        c7 = math.inf
    c8 = min(threshold, 1 / (2 * c5 + 2 * c7), 1 / L)
    return TheoryConstants(
        L=L, l=l, tau=tau, c0=c0, L_bar=L_bar, l_bar=l_bar,
        c1=L_bar, c2=c2, c3=c3, c4=c4, c5=c5, c6=c6, c7=c7, c8=c8,
        step_threshold=threshold,
    )


def _checked_c0(c0) -> float:
    """The error-bound constant ``c0`` as a float, so numpy's precision does
    not carry over, or as the ``Fraction`` it is.  It must be positive and
    finite, and ``c0 * c0``, which the rate constants divide by, a normal
    float: ``c0`` from about 1.5e-154 to 1.3e154."""
    c0 = c0 if isinstance(c0, Fraction) else as_real("c0", c0)
    if not 0 < c0 < math.inf:
        raise ValueError("error-bound constant c0 must be positive and finite")
    if not sys.float_info.min <= c0 * c0 <= sys.float_info.max:
        raise ValueError(f"error-bound constant c0 must lie between about 1.5e-154 and "
                         f"1.3e154, so that c0*c0 is a normal float, got {c0!r}")
    return c0


@dataclass
class SolverConfig:
    """Run parameters for :func:`solve`.

    ``alpha`` may be a float or one of the strings ``"auto_lemma2"``
    (0.9 times the descent threshold) and ``"auto_c8"`` (the certified cap,
    requires ``c0``).  With ``enforce_theory`` the stepsize is tightened to
    the certified cap when it exceeds it.  Counts are kept as ints, real numbers as floats.
    """

    alpha: float | str
    schedule: DelaySchedule
    x0: Array
    max_iters: int = 10000
    prox_residual_tol: float = 1e-8
    trace_every: int = 10
    check_every: int = 10
    enforce_theory: bool = False
    c0: float | None = None
    keep_iterates: bool = False

    def __post_init__(self):
        if not isinstance(self.alpha, str):
            self.alpha = as_real("alpha", self.alpha)
        self.max_iters, self.prox_residual_tol, self.trace_every, self.check_every = run_limits(
            self.max_iters, self.prox_residual_tol, self.trace_every, self.check_every)
        if self.c0 is not None:
            self.c0 = _checked_c0(self.c0)


@dataclass
class TraceRecord:
    """One trace checkpoint: state at iteration ``k`` and the step taken."""

    k: int
    objective: float
    step_norm: float
    prox_residual: float
    max_staleness: int
    delta: float


@dataclass
class Trace:
    """Solver output consumed by the diagnostics and the CLI."""

    records: list[TraceRecord]
    final_x: Array
    termination: str  # converged | max_iters | diverged
    iterations: int
    alpha: float
    warnings: list[str] = field(default_factory=list)
    iterates: Array | None = None          # (iterations + 1, d) when kept
    objective_values: Array | None = None  # aligned with iterates when kept

    @property
    def final_residual(self) -> float:
        return self.records[-1].prox_residual if self.records else math.nan

    @property
    def final_objective(self) -> float:
        return self.records[-1].objective if self.records else math.nan


def resolve_stepsize(config: SolverConfig, L: float, l: float,
                     tau: int) -> tuple[float, list[str]]:
    """Turn the configured stepsize spec into a float, collecting warnings."""
    warnings: list[str] = []
    tau, _, _, threshold = descent = _descent(L, l, tau)
    cap = None if config.c0 is None else rate_constants(L, l, tau, config.c0).c8
    spec = config.alpha
    if isinstance(spec, str):
        if spec == "auto_lemma2":
            alpha = 0.9 * threshold
        elif spec == "auto_c8":
            if cap is None:
                raise ValueError("alpha 'auto_c8' requires the error-bound constant c0")
            alpha = cap
        else:
            raise ValueError(f"unknown stepsize spec {spec!r}")
    else:
        alpha = spec
        if not (alpha > 0 and math.isfinite(alpha)):
            raise ValueError("stepsize must be positive and finite")
    if config.enforce_theory:
        if cap is None:
            raise ValueError("enforce_theory requires the error-bound constant c0")
        if alpha > cap:
            warnings.append(f"stepsize {alpha:.6g} tightened to certified cap {cap:.6g}")
            alpha = cap
    if alpha == 0.0:  # only the certified cap rounds to zero
        raise ValueError(f"tau: the certified stepsize cap c8 rounds to 0 at tau {tau} "
                         f"and c0 {config.c0}")
    if _summability_denominator(alpha, *descent) is None:
        warnings.append(f"stepsize {alpha:.6g} is not below the descent threshold "
                        f"{threshold:.6g}; descent and summability guarantees do not apply")
    return alpha, warnings


def piag_step(problem: Problem, table: GradientTable, x_k, alpha: float,
              refresh_set) -> Array:
    """One iteration: refresh gradients, aggregate, gradient step, prox."""
    if not alpha > 0:
        raise ValueError("stepsize must be positive")
    x_k = as_vector(x_k, problem.dimension)
    g = table.refresh_and_aggregate(problem, x_k, refresh_set)
    if not np.isfinite(g).all():
        raise DivergenceError("aggregated gradient is not finite")
    g *= -alpha  # y = x_k - alpha * g, bit for bit, in the aggregate's memory
    g += x_k
    return prox(problem.nonsmooth, g, alpha)


def _iterate(problem: Problem, config: SolverConfig, start: Callable[[Array], tuple]) -> Trace:
    """Drive ``x_{k+1} = advance(k, x_k, alpha)`` to termination, where
    ``window, advance = start(x0)`` once the start point is checked.

    Owns the stepsize, the start-point check, termination, divergence, the
    trace records and the iterate log; ``window`` supplies the staleness and
    the delay-window sum of each record and receives every step.  Checks,
    records and the divergence baseline (the k = 0 check's F) read F and the
    prox residual of an iterate from one ``measure()``; the objective values
    of a kept iterate log are one stacked ``eval_F`` call after the loop.
    """
    tau = config.schedule.tau
    L, l = smoothness_totals(problem)
    alpha, warnings = resolve_stepsize(config, L, l, tau)
    x = as_vector(config.x0, problem.dimension).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    if not problem.nonsmooth.value(x) < math.inf:
        raise ValueError("x0 lies outside the domain of the nonsmooth term")
    window, advance = start(x)

    records: list[TraceRecord] = []
    keep = config.keep_iterates
    iterates = [x] if keep else None
    termination = "max_iters"
    measured = None  # (F, residual) at x, or None until measure() is called

    def measure() -> tuple[float, float]:
        nonlocal measured
        if measured is None:
            measured = eval_F(problem, x), prox_residual(problem, alpha, x)
        return measured

    def record(k: int, step_norm: float) -> None:
        f_k, residual = measure()
        records.append(TraceRecord(k, f_k, step_norm, residual,
                                   window.max_staleness(), window.delta()))

    for k in range(config.max_iters):
        if k % config.check_every == 0:
            f_k, residual = measure()
            if k == 0:
                f0 = f_k
            if not math.isfinite(f_k) or f_k > f0 + DIVERGENCE_MARGIN:
                termination = "diverged"
            elif residual <= config.prox_residual_tol:
                termination = "converged"
            if termination != "max_iters":
                break
        try:
            x_next = advance(k, x, alpha)
            if not np.isfinite(x_next).all():
                raise DivergenceError("iterate is not finite")
        except DivergenceError:  # the terminal record keeps F at x, residual inf
            termination, measured = "diverged", (measure()[0], math.inf)
            break
        step = x_next - x
        if k <= tau or k % config.trace_every == 0:
            record(k, float(np.linalg.norm(step)))
        window.push_step(step)
        x, measured = x_next, None
        if keep:
            iterates.append(x)
    else:
        k = config.max_iters
    record(k, 0.0)  # the terminal record, at the last iterate

    iterates = np.asarray(iterates) if keep else None
    return Trace(
        records=records,
        final_x=x,
        termination=termination,
        iterations=k,
        alpha=alpha,
        warnings=warnings,
        iterates=iterates,
        objective_values=eval_F(problem, iterates) if keep else None,
    )


def solve(problem: Problem, config: SolverConfig) -> Trace:
    """Run the delayed-gradient proximal loop until the prox residual falls
    below tolerance, the iteration budget is exhausted, or divergence.

    The trace keeps every ``trace_every``-th record plus the first ``tau + 1``
    and the terminal one.  The stationarity check uses a fresh full gradient
    and runs every ``check_every`` iterations.  The gradient table shares
    large refreshes, consecutive or scattered, out across ``RowThreads``
    opened for the run and joined when it ends.
    """
    n = problem.n_components
    schedule = config.schedule
    schedule.validate_for(n)
    with RowThreads() as threads:
        def start(x0: Array):
            table = GradientTable(problem, x0, schedule.tau, threads)
            return table, lambda k, x, alpha: piag_step(
                problem, table, x, alpha, next_refresh_set(schedule, k, n, table.ages))

        return _iterate(problem, config, start)


def reference_fbs(problem: Problem, config: SolverConfig) -> Trace:
    """Forward-backward splitting with the full gradient evaluated directly.

    Shares :func:`solve`'s driver, so records, termination and the iterate
    log follow the same rules, but forms its step independently: ``grad_f``
    and ``prox``, with no gradient table, no row kernel and no thread.  At
    zero delay the two trajectories can therefore be compared bitwise.
    """

    def advance(k: int, x: Array, alpha: float) -> Array:
        g = grad_f(problem, x)
        if not np.all(np.isfinite(g)):
            raise DivergenceError("full gradient is not finite")
        return prox(problem.nonsmooth, x - alpha * g, alpha)

    return _iterate(problem, config, lambda x0: (StepWindow(config.schedule.tau), advance))


# ---------------------------------------------------------------------------
# Trace files.  CSV, one row per checkpoint, floats printed with 17
# significant digits so values round-trip exactly.
# ---------------------------------------------------------------------------


_EXACT = ".17g"  # the spec of format_exact, which write_iterates_csv applies row by row


def format_exact(v: float) -> str:
    """``v`` with 17 significant digits, which any float round-trips through."""
    return format(v, _EXACT)


def write_trace_csv(trace: Trace, path) -> None:
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for r in trace.records:
            fh.write(
                f"{r.k},{format_exact(r.objective)},{format_exact(r.step_norm)},"
                f"{format_exact(r.prox_residual)},{r.max_staleness},{format_exact(r.delta)}\n"
            )


def _read_rows(path, header_error, parse_row) -> tuple[int, list]:
    """The header's column count and the rows of a CSV log, each parsed by
    ``parse_row(i, fields)``.  ``header_error(header)`` is falsy for a good
    header, else the reason; a row of the wrong width, or one ``parse_row``
    rejects, raises ``ValueError("<path>: line <n>: <reason>")``."""
    with open(path) as fh:
        header = fh.readline()
        if reason := header_error(header):
            raise ValueError(f"{path}: {reason}")
        width = header.count(",") + 1
        rows = []
        for i, line in enumerate(fh):
            fields = line.strip().split(",")
            try:
                if len(fields) != width:
                    raise ValueError(f"{len(fields)} columns, the header has {width}")
                rows.append(parse_row(i, fields))
            except ValueError as exc:
                raise ValueError(f"{path}: line {i + 2}: {exc}") from None
    return width, rows


def read_trace_csv(path) -> list[TraceRecord]:
    return _read_rows(
        path, lambda h: h.strip() != TRACE_HEADER and f"unexpected trace header {h.strip()!r}",
        lambda i, f: TraceRecord(int(f[0]), float(f[1]), float(f[2]), float(f[3]), int(f[4]),
                                 float(f[5])))[1]


def write_iterates_csv(iterates: Array, path) -> None:
    iterates = np.atleast_2d(np.asarray(iterates, dtype=float))
    d = iterates.shape[1]
    row_text = "%d," + ",".join(["%" + _EXACT] * d) + "\n"  # format_exact on each float
    with open(path, "w") as fh:
        fh.write("k," + ",".join(f"x_{j}" for j in range(d)) + "\n")
        for k, row in enumerate(iterates.tolist()):
            fh.write(row_text % (k, *row))


def read_iterates_csv(path) -> Array:
    """The iterate log as a ``(rows, d)`` array; a header-only log gives 0
    rows.  Row ``i`` must be iterate ``k = i``, as ``write_iterates_csv``
    numbers them, so a log with a row missing or moved is rejected."""
    def parse_row(i, fields):
        if int(fields[0]) != i:
            raise ValueError(f"k is {fields[0]}, expected {i}")
        return [float(v) for v in fields[1:]]

    width, rows = _read_rows(
        path, lambda h: not h.startswith("k,") and "unexpected iterate-log header", parse_row)
    return np.asarray(rows, dtype=float).reshape(len(rows), width - 1)
