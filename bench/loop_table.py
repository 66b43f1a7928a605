"""Per-iteration cost of the solver loop: the ROADMAP's baseline table and
its full grid, kept as reference figures rather than workloads.

    python3 bench/run.py --loop-table [--runs 10] [--grid]

Table: ``cyclic`` schedule, tau=4, ``auto_lemma2`` stepsize, exactly 2000
iterations (tolerance 0), at N x d = 5 x 20 and 50 x 100, in three
configurations: the default cadence (check and trace record every 10
iterations), monitoring off (no check or record after the first tau+1
iterations), and ``keep_iterates``.

Grid (``--grid``): N x d in {5x20, 50x100, 100x200}, schedules ``none``
(tau=0) and ``cyclic``, ``uniform_random``, ``adversarial_max`` at tau in
{4, 16}, default cadence and monitoring off, 500 iterations each.

Both print the median and quartiles of microseconds per iteration over
``runs`` repeats, interleaving the configurations of one problem so that a
slow stretch of the machine hits all of them, and component-gradient
evaluations per iteration counted by one traced solve.  The problems are
l1 problems (lambda 1) from generator seed 1.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import common
import spans
import workloads

MONITORING_OFF = {"check_every": 10**9, "trace_every": 10**9}
TABLE = {"default cadence": {}, "monitoring off": MONITORING_OFF,
         "keep_iterates": {"keep_iterates": True}}
GRID_SCHEDULES = [("none", 0)] + [(k, t) for k in ("cyclic", "uniform_random", "adversarial_max")
                                  for t in (4, 16)]


def _config(problem, kind: str, tau: int, iters: int, extra: dict):
    config = workloads.solver_config(problem, kind, tau, np.zeros(problem.dimension), 1, False)
    config.max_iters = iters
    config.prox_residual_tol = 0.0
    for key, value in extra.items():
        setattr(config, key, value)
    return config


def _grads_per_iter(problem, config) -> float:
    tracer = spans.Tracer()
    tracer.install()
    try:
        workloads.mod("solver").solve(problem, config)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(spans.tally(tracer.take()))
    return metrics["model.component_grad_evals"] / config.max_iters


def _measure(problem, cells: dict, runs: int) -> dict:
    """``{label: (us per iteration samples, gradients per iteration)}``."""
    solver = workloads.mod("solver")
    samples = {label: [] for label in cells}
    for _ in range(runs):
        for label, config in cells.items():
            t0 = time.perf_counter()
            trace = solver.solve(problem, config)
            samples[label].append(1e6 * (time.perf_counter() - t0) / config.max_iters)
            if trace.iterations != config.max_iters:
                raise common.BenchError(f"{label}: ran {trace.iterations} iterations")
    return {label: (samples[label], _grads_per_iter(problem, cells[label])) for label in cells}


def _row(prefix: str, us, grads: float) -> str:
    q1, q2, q3 = statistics.quantiles(us, n=4) if len(us) > 1 else (us[0],) * 3
    return f"| {prefix} | {q2:8.1f} | {q1:8.1f} | {q3:8.1f} | {grads:6.2f} |"


def main(runs: int, grid: bool) -> int:
    problems = workloads.mod("problems")
    print(f"{runs} repeats; us/iter median, first and third quartile; "
          "component gradients per iteration")
    sizes = ((5, 20), (50, 100), (100, 200)) if grid else ((5, 20), (50, 100))
    for N, d in sizes:
        problem = problems.make_quadratic_l1(N, d, 1, lam=workloads.L1_WEIGHT)
        if grid:
            cells = {f"{kind} tau={tau} {cadence}": _config(problem, kind, tau, 500, extra)
                     for kind, tau in GRID_SCHEDULES
                     for cadence, extra in (("default", {}), ("off", MONITORING_OFF))}
        else:
            cells = {name: _config(problem, "cyclic", 4, 2000, extra)
                     for name, extra in TABLE.items()}
        for label, (us, grads) in _measure(problem, cells, runs).items():
            print(_row(f"{N} x {d} | {label}", us, grads), flush=True)
    return 0
