"""Outside-in tracing of piag, layer by layer.

The program has no tracing of its own, so the traced run wraps the public
functions that one piag module calls in another (``piag.solver.eval_F``,
``GradientTable.refresh_and_aggregate``, ``piag.cli.load_problem`` and so
on).  A wrapper is installed by rebinding the name in the *calling* module's
namespace, which is where Python looks it up at call time; the loop itself
is never re-implemented.  Each call becomes a span ``[name, start, end,
parent, info]`` held in memory and written out when the run ends.

A layer's self time is a span's duration minus the durations of the wrapped
calls nested inside it.  ``tally`` reduces a span list to additive sums and
``layer_metrics`` turns summed tallies into the per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import time
from collections import defaultdict

perf = time.perf_counter

# Span names whose time counts as monitoring when the solver loop calls them.
_MONITOR = ("model.eval_F", "prox.residual", "delay.window_sum")


def _size_of_arg(index):
    return lambda args, kwargs, out: os.path.getsize(args[index])


def _refresh_size(args, kwargs, out):
    refresh = args[3] if len(args) > 3 else kwargs["refresh_set"]
    return len(refresh)


def _components(index):
    return lambda args, kwargs, out: args[index].n_components


def _loop_info(args, kwargs, out):
    return [out.iterations, len(out.records)]


def targets():
    """``(span name, [(owner, attribute)], info)`` for every wrapped call.

    ``info(args, kwargs, result)`` returns a number kept with the span (the
    size of a refresh set, the bytes of a file).
    """
    # ``piag.prox`` names the function once the package is imported, so the
    # modules are looked up by their full names.
    cli, delay, diagnostics, model, problems, prox, solver = (
        importlib.import_module(f"piag.{m}")
        for m in ("cli", "delay", "diagnostics", "model", "problems", "prox", "solver"))
    table = delay.GradientTable
    return [
        # cli -> model: the problem file
        ("model.load_problem", [(cli, "load_problem")], _size_of_arg(0)),
        ("model.problem_from_dict", [(model, "problem_from_dict")], None),
        ("model.save_problem", [(cli, "save_problem")], None),
        # solver/diagnostics/prox -> model: objective and full gradient
        ("model.eval_F", [(solver, "eval_F"), (diagnostics, "eval_F")], None),
        ("model.grad_f", [(solver, "grad_f"), (prox, "grad_f")], _components(0)),
        # solver -> prox, and prox_residual -> prox
        ("prox.prox", [(solver, "prox"), (prox, "prox")], None),
        ("prox.residual", [(solver, "prox_residual")], None),
        # solver -> delay
        ("delay.schedule", [(solver, "next_refresh_set")], None),
        ("delay.refresh", [(table, "refresh_and_aggregate")], _refresh_size),
        ("delay.table_init", [(table, "__init__")], _components(1)),
        ("delay.window_sum", [(table, "delta")], None),
        ("delay.push_step", [(table, "push_step")], None),
        # bench and cli -> solver
        ("solver.loop", [(solver, "solve"), (solver, "reference_fbs"),
                         (cli, "solve"), (cli, "reference_fbs")], _loop_info),
        ("solver.step", [(solver, "piag_step")], None),
        ("solver.trace_write", [(cli, "write_trace_csv")], None),
        ("solver.iterates_write", [(cli, "write_iterates_csv")], _size_of_arg(1)),
        ("solver.iterates_read", [(cli, "read_iterates_csv")], _size_of_arg(0)),
        ("solver.trace_read", [(cli, "read_trace_csv")], None),
        # bench and cli -> diagnostics (the CLI's rate fit is its own copy)
        ("diagnostics.replay", [(diagnostics, "trace_from_iterates")], None),
        ("diagnostics.descent", [(diagnostics, "check_sufficient_descent")], None),
        ("diagnostics.summability", [(diagnostics, "check_summability")], None),
        ("diagnostics.window_sums", [(diagnostics, "delay_window_sums")], None),
        ("diagnostics.rate_fit", [(diagnostics, "fit_rlinear_rate"),
                                  (cli, "_fit_rate_from_records")], None),
        # bench and cli -> problems
        ("problems.generate", [(problems, "make_quadratic_l1"),
                               (problems, "make_quadratic_box")], None),
        ("problems.reference", [(problems, "reference_solution")], None),
        ("problems.error_bound_fit", [(problems, "fit_error_bound_constant")], None),
        # entry point of a traced CLI process
        ("cli.main", [(cli, "main")], None),
    ]


class Tracer:
    """Installs the wrappers, records spans, and removes the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for name, owners, info in targets():
            for owner, attr in owners:
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, info))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def take(self) -> list[list]:
        """Return the spans recorded so far and start a new list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def tally(spans) -> dict:
    """Additive sums over one span list: calls, self and inclusive seconds,
    and info totals per span name, plus monitoring time and loop counts."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    t: dict = defaultdict(float)
    for i, (name, start, end, parent, info) in enumerate(spans):
        dur = end - start
        t[f"{name}:calls"] += 1
        t[f"{name}:self"] += dur - child[i]
        t[f"{name}:incl"] += dur
        if name == "solver.loop":
            t["loop:iterations"] += info[0]
            t["loop:records"] += info[1]
        elif info is not None:
            t[f"{name}:info"] += info
        if parent >= 0 and spans[parent][0] == "solver.loop" and name in _MONITOR:
            t["loop:monitor"] += dur
    t["spans"] += len(spans)
    return t


def add_tallies(*tallies) -> dict:
    out: dict = defaultdict(float)
    for t in tallies:
        for k, v in t.items():
            out[k] += v
    return out


def _ratio(num, den):
    return lambda t: t.get(num, 0.0) / t[den] if t.get(den) else 0.0


#: Per-layer metric -> (unit, function of a summed tally).
LAYER_METRICS = {
    "cli.import_s": ("s", lambda t: t.get("cli.import", 0.0)),
    "cli.self_s": ("s", lambda t: t.get("cli.main:self", 0.0)),
    "model.json_parse_s": ("s", lambda t: t.get("model.load_problem:self", 0.0)),
    "model.build_s": ("s", lambda t: t.get("model.problem_from_dict:incl", 0.0)),
    "model.save_s": ("s", lambda t: t.get("model.save_problem:incl", 0.0)),
    "model.problem_bytes": ("B", lambda t: t.get("model.load_problem:info", 0.0)),
    "model.eval_F_calls": ("count", lambda t: t.get("model.eval_F:calls", 0.0)),
    "model.eval_F_s": ("s", lambda t: t.get("model.eval_F:self", 0.0)),
    "model.grad_f_calls": ("count", lambda t: t.get("model.grad_f:calls", 0.0)),
    "model.grad_f_s": ("s", lambda t: t.get("model.grad_f:self", 0.0)),
    "model.component_grad_evals": ("count", lambda t: (
        t.get("delay.refresh:info", 0.0) + t.get("delay.table_init:info", 0.0)
        + t.get("model.grad_f:info", 0.0))),
    "delay.refresh_calls": ("count", lambda t: t.get("delay.refresh:calls", 0.0)),
    "delay.refresh_s": ("s", lambda t: (t.get("delay.refresh:self", 0.0)
                                        + t.get("delay.table_init:self", 0.0))),
    "delay.refreshed_per_iter": ("count", _ratio("delay.refresh:info", "delay.refresh:calls")),
    "delay.schedule_s": ("s", lambda t: t.get("delay.schedule:self", 0.0)),
    "delay.window_s": ("s", lambda t: (t.get("delay.window_sum:self", 0.0)
                                       + t.get("delay.push_step:self", 0.0))),
    "prox.calls": ("count", lambda t: t.get("prox.prox:calls", 0.0)),
    "prox.s": ("s", lambda t: t.get("prox.prox:self", 0.0)),
    "prox.residual_calls": ("count", lambda t: t.get("prox.residual:calls", 0.0)),
    "prox.residual_s": ("s", lambda t: t.get("prox.residual:self", 0.0)),
    "solver.iterations": ("count", lambda t: t.get("loop:iterations", 0.0)),
    "solver.records": ("count", lambda t: t.get("loop:records", 0.0)),
    "solver.step_s": ("s", lambda t: t.get("solver.step:self", 0.0)),
    "solver.loop_self_s": ("s", lambda t: t.get("solver.loop:self", 0.0)),
    "solver.monitor_s": ("s", lambda t: t.get("loop:monitor", 0.0)),
    "solver.trace_write_s": ("s", lambda t: t.get("solver.trace_write:incl", 0.0)),
    "solver.iterates_write_s": ("s", lambda t: t.get("solver.iterates_write:incl", 0.0)),
    "solver.iterates_read_s": ("s", lambda t: t.get("solver.iterates_read:incl", 0.0)),
    "solver.iterates_bytes": ("B", lambda t: t.get("solver.iterates_write:info", 0.0)),
    "diagnostics.replay_s": ("s", lambda t: t.get("diagnostics.replay:incl", 0.0)),
    "diagnostics.descent_s": ("s", lambda t: t.get("diagnostics.descent:self", 0.0)),
    "diagnostics.summability_s": ("s", lambda t: t.get("diagnostics.summability:self", 0.0)),
    "diagnostics.window_sums_s": ("s", lambda t: t.get("diagnostics.window_sums:self", 0.0)),
    "diagnostics.rate_fit_s": ("s", lambda t: t.get("diagnostics.rate_fit:self", 0.0)),
    "problems.generate_s": ("s", lambda t: t.get("problems.generate:incl", 0.0)),
    "problems.reference_s": ("s", lambda t: t.get("problems.reference:incl", 0.0)),
    "problems.error_bound_fit_s": ("s", lambda t: t.get("problems.error_bound_fit:incl", 0.0)),
    "tracing.spans": ("count", lambda t: t.get("spans", 0.0)),
}


def layer_metrics(t) -> dict:
    return {name: fn(t) for name, (unit, fn) in LAYER_METRICS.items()}


def write_spans(path, groups: dict) -> None:
    """Write ``{group: {label: spans}}`` as gzipped JSON."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "info"],
                   "groups": groups}, fh)
