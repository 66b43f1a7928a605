"""Command-line entry point: generate problems, run solves, verify the
descent inequalities on a recorded run, fit convergence rates, and sweep the
delay parameter.

Exit codes: 0 success/converged, 1 input error, 2 iteration budget
exhausted, 3 divergence, 4 inequality violations found by ``verify``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, problems
from .delay import MAX_TAU, SCHEDULE_FIELDS, SCHEDULE_KINDS, DelaySchedule, min_cyclic_block
from .model import (INTEGER, NUMBER, NUMBERS, OBJECT, SWITCH, TEXT, Kind, Problem, check_fields,
                    load_problem, save_problem, smoothness_totals)
from .solver import (SolverConfig, Trace, format_exact, rate_constants,
                     read_iterates_csv, read_trace_csv, reference_fbs, solve,
                     stepsize_threshold, write_iterates_csv, write_trace_csv)

_EXIT_BY_TERMINATION = {"converged": 0, "max_iters": 2, "diverged": 3}

# The run config's fields, besides those of its schedule.  Its flags are typed
# by argparse, except that --alpha and --x0 take text, so the file is checked
# before they are merged.
_CONFIG_FIELDS = {
    "alpha": Kind('a number, "auto_lemma2" or "auto_c8"',
                  lambda v: NUMBER.test(v) or v in ("auto_lemma2", "auto_c8")),
    "tau": INTEGER, "schedule": OBJECT, "max_iters": INTEGER, "tol": NUMBER,
    "x0": Kind("a list of numbers or a string", lambda v: NUMBERS.test(v) or TEXT.test(v)),
    "seed": INTEGER, "c0": NUMBER, "trace_every": INTEGER, "enforce_theory": SWITCH,
}


class CliError(Exception):
    """Input error carrying a machine-parseable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # The exit-code contract reserves 2 for non-convergence, so usage errors
    # must not use argparse's default exit status.
    def error(self, message):
        self.exit(1, f"piag: error: bad-usage: {message}\n")


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextlib.contextmanager
def _reading(path, code: str, field: str | None = None):
    """Report a file or setting read inside that does not decode, parse or
    check as a ``code`` error: a JSON syntax error as ``<path>: line <n>:
    <msg>``, bytes that are not UTF-8 as ``<path>: <exc>``, and any other
    TypeError or ValueError with its own message, after the ``field`` it
    concerns when one is given."""
    try:
        yield
    except json.JSONDecodeError as exc:
        raise CliError(code, f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(code, f"{path}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CliError(code, f"{field}: {exc}" if field else str(exc)) from exc


def _load_problem(path) -> Problem:
    if not os.path.isfile(path):
        raise CliError("missing-file", f"problem file not found: {path}")
    with _reading(path, "bad-problem"):
        return load_problem(path)


def _read_json(path, code: str):
    """The JSON in ``path``; text that does not decode or parse is a ``code`` error."""
    with open(path) as fh, _reading(path, code):
        return json.load(fh)


def _parse_x0(spec, dimension: int) -> np.ndarray:
    if spec == "zeros":
        return np.zeros(dimension)
    values = [float(v) for v in (spec.split(",") if isinstance(spec, str) else spec)]
    if len(values) != dimension:
        raise CliError("bad-config",
                       f"x0 has {len(values)} entries, problem dimension is {dimension}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"entries must be finite, got {values}")
    return np.asarray(values)


# Flags that write over a field of the run config's ``schedule`` object.
_SCHEDULE_FLAGS = {"schedule_kind": "kind", "tau": "tau", "block": "block", "seed": "seed"}


def _settings(args) -> dict:
    """The run-config file with every given flag written over its top-level
    keys and over the fields of its ``schedule`` object."""
    path, settings = getattr(args, "config", None), {}
    if path is not None:
        if not os.path.isfile(path):
            raise CliError("missing-file", f"config file not found: {path}")
        settings = _read_json(path, "bad-config")
    with _reading(path, "bad-config"):
        check_fields(settings, _CONFIG_FIELDS, ())
        schedule = settings.setdefault("schedule", {})
        check_fields(schedule, SCHEDULE_FIELDS, (), "schedule")
    given = {flag: value for flag, value in vars(args).items() if value is not None}
    settings.update((k, v) for k, v in given.items() if k in _CONFIG_FIELDS)
    schedule.update((_SCHEDULE_FLAGS[k], v) for k, v in given.items() if k in _SCHEDULE_FLAGS)
    return settings


def _build_config(problem: Problem, settings: dict, keep_iterates: bool) -> SolverConfig:
    """Turn merged run settings into a SolverConfig.

    The schedule defaults to ``none`` at tau = 0 and otherwise to ``cyclic``
    with block ceil(N / (tau + 1)); its tau and seed fall back to the
    top-level ones.  Out-of-range settings are ``bad-config``, and an
    ``--alpha`` or ``--x0`` text that does not convert names its field.
    """
    spec = {"tau": settings.get("tau", 0), **settings["schedule"]}
    tau = spec["tau"]
    if tau < 0:
        raise CliError("bad-config", "tau: must be nonnegative")
    if tau > MAX_TAU:
        raise CliError("bad-config", f"tau: must be at most {MAX_TAU}, the longest step window")
    if spec.setdefault("kind", "none" if tau == 0 else "cyclic") == "cyclic":
        spec.setdefault("block", min_cyclic_block(problem.n_components, tau))
    with _reading(None, "bad-config", "schedule"):
        schedule = DelaySchedule(spec["kind"], tau, spec.get("block"),
                                 spec.get("seed", settings.get("seed")))
        schedule.validate_for(problem.n_components)
    alpha = settings.get("alpha", "auto_lemma2")
    with _reading(None, "bad-config", "alpha"):
        alpha = alpha if alpha in ("auto_lemma2", "auto_c8") else float(alpha)
    with _reading(None, "bad-config", "x0"):
        x0 = _parse_x0(settings.get("x0", "zeros"), problem.dimension)
    with _reading(None, "bad-config"):
        return SolverConfig(
            alpha=alpha,
            schedule=schedule,
            x0=x0,
            max_iters=settings.get("max_iters", 10000),
            prox_residual_tol=settings.get("tol", 1e-8),
            trace_every=settings.get("trace_every", 10),
            enforce_theory=settings.get("enforce_theory", False),
            c0=settings.get("c0"),
            keep_iterates=keep_iterates,
        )


def _read_summary(path) -> tuple[float, int]:
    """The stepsize ``alpha`` and delay bound ``schedule.tau`` of a finished
    run: a number and an integer, not converted from another JSON type."""
    summary = _read_json(path, "bad-summary")
    try:
        alpha, tau = summary["alpha"], summary["schedule"]["tau"]
        if not (NUMBER.test(alpha) and INTEGER.test(tau)):
            raise TypeError
    except (KeyError, TypeError) as exc:
        raise CliError("bad-summary", f"{path}: needs numeric 'alpha' and 'schedule.tau'") from exc
    alpha = float(alpha)
    if not (alpha > 0 and math.isfinite(alpha) and 0 <= tau <= MAX_TAU):
        raise CliError("bad-summary", f"{path}: needs alpha > 0 and schedule.tau in [0, {MAX_TAU}]")
    return alpha, tau


def _summary_dict(problem: Problem, config: SolverConfig, trace: Trace,
                  problem_path: str) -> dict:
    L, l = smoothness_totals(problem)
    tau = config.schedule.tau
    constants = {"L": L, "l": l, "tau": tau,
                 "step_threshold": stepsize_threshold(L, l, tau)}
    if config.c0 is not None:
        tc = rate_constants(L, l, tau, config.c0)
        constants.update({"c0": tc.c0, "c1": tc.c1, "c2": tc.c2, "c3": tc.c3,
                          "c4": tc.c4, "c5": tc.c5, "c6": tc.c6, "c7": tc.c7,
                          "c8": tc.c8, "contraction": tc.contraction(trace.alpha)})
    return {
        "problem_file": str(problem_path),
        "termination": trace.termination,
        "iterations": trace.iterations,
        "alpha": trace.alpha,
        "final_objective": trace.final_objective,
        "final_residual": trace.final_residual,
        "schedule": {k: v for k, v in vars(config.schedule).items() if v is not None},
        "constants": constants,
        "warnings": trace.warnings,
    }


def _value_separation(ref) -> float | None:
    """Smallest distance between stationary points with distinct objective
    values (points sharing a value do not constrain the separation)."""
    best = None
    pts = ref.points
    vals = ref.objective_values
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if abs(vals[i] - vals[j]) > 1e-9 * (1.0 + abs(vals[i])):
                gap = float(np.linalg.norm(np.asarray(pts[i]) - np.asarray(pts[j])))
                best = gap if best is None else min(best, gap)
    return best


def cmd_generate(args) -> int:
    out_dir = args.out
    seed = args.seed if args.seed is not None else 0
    curvature, weight = args.negative_curvature, args.l1_weight  # None unless given
    if args.family == "box":
        if weight is not None:
            raise CliError("bad-usage", "--l1-weight is for --family l1 only, not box")
        curvature = 0.0 if curvature is None else curvature
        problem = problems.make_quadratic_box(args.components, args.dimension, seed,
                                              negative_curvature=curvature)
    else:
        if curvature is not None:
            raise CliError("bad-usage", "--negative-curvature is for --family box only, not l1")
        weight = 1.0 if weight is None else weight
        problem = problems.make_quadratic_l1(args.components, args.dimension, seed, lam=weight)
    os.makedirs(out_dir, exist_ok=True)  # only once the generator has taken its arguments
    problem_path = os.path.join(out_dir, "problem.json")
    save_problem(problem, problem_path)
    L, l = smoothness_totals(problem)
    meta = {
        "family": args.family,
        "seed": seed,
        "components": args.components,
        "dimension": args.dimension,
        "negative_curvature": curvature,
        "l1_weight": weight,
        "L": L,
        "l": l,
        "component_lipschitz": [c.lipschitz for c in problem.components],
        "component_weak_convexity": [c.weak_convexity for c in problem.components],
        "f_lower_bound_hint": problem.f_lower_bound_hint,
        "assumptions": {
            "objective_bounded_below": True,
            "error_bound_family": "quadratic_polyhedral",
        },
    }
    try:
        ref = problems.reference_solution(problem)
        meta["reference"] = {
            "method": ref.method,
            "points": [[float(v) for v in p] for p in ref.points],
            "objective_values": [float(v) for v in ref.objective_values],
        }
        meta["fitted_c0"] = problems.fit_error_bound_constant(problem, ref, seed=seed)
        meta["stationary_value_separation"] = _value_separation(ref)
    except problems.ReferenceUnavailableError:
        meta["reference"] = None
    _write_json(meta, os.path.join(out_dir, "problem_meta.json"))
    _info(args, f"wrote {problem_path} (family {args.family}, N={args.components}, "
                f"d={args.dimension})")
    return 0


def _run_into(out_dir, runner, problem: Problem, config: SolverConfig, problem_path) -> Trace:
    """Run one solve and write ``trace.csv``, ``summary.json`` and, when
    kept, ``iterates.csv`` to ``out_dir``, made only once the run is done."""
    try:
        trace = runner(problem, config)
    except ValueError as exc:  # a start point or stepsize the run rejects
        raise CliError("bad-config", str(exc)) from exc
    os.makedirs(out_dir, exist_ok=True)
    write_trace_csv(trace, os.path.join(out_dir, "trace.csv"))
    _write_json(_summary_dict(problem, config, trace, problem_path),
                os.path.join(out_dir, "summary.json"))
    if config.keep_iterates:
        write_iterates_csv(trace.iterates, os.path.join(out_dir, "iterates.csv"))
    return trace


def cmd_solve(args) -> int:
    problem = _load_problem(args.problem)
    runner = reference_fbs if args.reference_fbs else solve
    config = _build_config(problem, _settings(args), args.log_iterates)
    trace = _run_into(args.out, runner, problem, config, args.problem)
    _info(args, f"{trace.termination} after {trace.iterations} iterations "
                f"(F={trace.final_objective:.9g}, residual={trace.final_residual:.3g})")
    return _EXIT_BY_TERMINATION[trace.termination]


def _report_line(report: diagnostics.InequalityReport) -> str:
    return (f"{report.name}: checked={report.checked} violations={report.violations} "
            f"worst_margin={report.worst_margin:.6g}")


def cmd_verify(args) -> int:
    problem = _load_problem(args.problem)
    run_dir = args.run
    summary_path = os.path.join(run_dir, "summary.json")
    iterates_path = os.path.join(run_dir, "iterates.csv")
    if not os.path.isfile(summary_path):
        raise CliError("missing-file", f"no summary.json in {run_dir}")
    if not os.path.isfile(iterates_path):
        raise CliError("missing-iterates",
                       f"no iterates.csv in {run_dir}; re-run solve with --log-iterates")
    alpha, tau = _read_summary(summary_path)
    with _reading(iterates_path, "bad-iterates"):
        iterates = read_iterates_csv(iterates_path)
    if len(iterates) == 0:
        raise CliError("empty-trace", f"{iterates_path}: iterate log is empty")
    if iterates.shape[1] != problem.dimension:
        raise CliError("bad-iterates", f"{iterates_path}: rows hold {iterates.shape[1]} "
                                       f"coordinates, the problem dimension is "
                                       f"{problem.dimension}")
    non_finite = np.flatnonzero(~np.all(np.isfinite(iterates), axis=1))
    if len(non_finite):  # solve never logs one, so the log is corrupt
        raise CliError("bad-iterates", f"{iterates_path}: line {non_finite[0] + 2}: "
                                       "the iterate is not finite")
    L, l = smoothness_totals(problem)
    # c0 enters neither the descent nor the summability bound.
    constants = rate_constants(L, l, tau, c0=1.0)
    trace = diagnostics.trace_from_iterates(problem, iterates, alpha)
    f_lower = float(np.min(trace.objective_values)) - 1.0
    reports = [diagnostics.check_sufficient_descent(trace, constants, alpha)]
    result = {"alpha": alpha, "tau": tau}
    try:
        reports.append(diagnostics.check_summability(trace, alpha, constants, f_lower))
    except diagnostics.AboveThresholdError:
        result["summability"] = (f"not applicable: stepsize {alpha:.6g} is not below the "
                                 f"descent threshold {constants.step_threshold:.6g}")
    total = sum(r.violations for r in reports)
    result.update(reports=[vars(r) for r in reports], violations_total=total)
    _write_json(result, os.path.join(run_dir, "verify.json"))
    for r in reports:
        _info(args, _report_line(r))
    if "summability" in result:
        _info(args, f"summability: {result['summability']}")
    if total > 0:
        first = min(r.first_violation_k for r in reports if r.first_violation_k is not None)
        print(f"piag: verify: inequality violated at k={first}", file=sys.stderr)
        return 4
    return 0


def _transient_skip(tau: int) -> int:
    """Iterations the rate fit skips by default: five delay windows."""
    return 5 * (tau + 1)


def _fit_rate_from_records(records, skip_iters: int, limit: float | None):
    """Log-linear rate fit on trace checkpoints ``(k, F)``.

    With no explicit limit, ``diagnostics.fit_rlinear_rate`` chooses one and
    drops the records it counts as rounding noise.  An explicit limit keeps
    every record, so one at or below it is an error.
    """
    fit = diagnostics.fit_rlinear_rate([r.objective for r in records], limit, skip_iters,
                                       ks=[r.k for r in records])
    return fit.rate, fit.log_linear_r2, fit.limit


def cmd_rate(args) -> int:
    run_dir = args.run
    trace_path = os.path.join(run_dir, "trace.csv")
    summary_path = os.path.join(run_dir, "summary.json")
    for path in (trace_path, summary_path):
        if not os.path.isfile(path):
            raise CliError("missing-file", f"not found: {path}")
    with _reading(trace_path, "bad-trace"):
        records = read_trace_csv(trace_path)
    if not records:
        raise CliError("empty-trace", f"{trace_path}: trace has no records")
    bad = next((i for i, r in enumerate(records) if not math.isfinite(r.objective)), None)
    if bad is not None:  # the fit takes logs of F; a diverged run's trace ends in -inf
        raise CliError("bad-trace", f"{trace_path}: line {bad + 2}: "
                                    f"F is {records[bad].objective}, not a finite number")
    _, tau = _read_summary(summary_path)
    if args.limit_value is not None and not math.isfinite(args.limit_value):
        raise CliError("bad-config", f"--limit-value: must be finite, got {args.limit_value}")
    skip = args.skip if args.skip is not None else _transient_skip(tau)
    try:
        rate, r2, limit = _fit_rate_from_records(records, skip, args.limit_value)
    except diagnostics.ShortSeriesError as exc:
        raise CliError("short-trace", f"{trace_path}: {exc} (skip {skip}); record more "
                       "often with trace_every in the run config, or pass a smaller --skip"
                       ) from exc
    except ValueError as exc:
        raise CliError("bad-config", str(exc)) from exc
    _write_json({"rate": rate, "log_linear_r2": r2, "limit": limit,
                 "transient_skip": skip}, os.path.join(run_dir, "rate.json"))
    _info(args, f"rate={rate:.6g} r2={r2:.4f} (limit={limit:.9g}, skip={skip})")
    return 0


def cmd_compare_delays(args) -> int:
    problem = _load_problem(args.problem)
    try:
        tau_list = [int(t) for t in args.tau_list.split(",")]
    except ValueError as exc:
        raise CliError("bad-usage", f"cannot parse tau list {args.tau_list!r}") from exc
    if any(t < 0 for t in tau_list):
        raise CliError("bad-usage", "tau values must be nonnegative")
    repeated = [t for t in tau_list if tau_list.count(t) > 1]
    if repeated:  # a second run would overwrite the first one's tau_<tau> directory
        raise CliError("bad-usage", f"tau {repeated[0]} is repeated in the tau list "
                                    f"{args.tau_list!r}")
    base = _settings(args)
    base.setdefault("max_iters", 100000)
    base["trace_every"] = 1  # dense records so the rate fit has enough points
    base["schedule"].setdefault("seed", 0)
    configs = [_build_config(problem, {**base, "schedule": {**base["schedule"], "tau": tau,
                                       "kind": args.schedule_kind if tau else "none"}}, False)
               for tau in tau_list]  # every tau's, before the first run
    rows = []
    for tau, config in zip(tau_list, configs):
        trace = _run_into(os.path.join(args.out, f"tau_{tau}"), solve, problem, config,
                          args.problem)
        iters = trace.iterations if trace.termination == "converged" else -1
        try:
            rate, _, _ = _fit_rate_from_records(trace.records, _transient_skip(tau), None)
        except ValueError:
            rate = math.nan
        rows.append((tau, trace.alpha, iters, rate))
    table_path = os.path.join(args.out, "compare_delays.csv")
    with open(table_path, "w") as fh:
        fh.write("tau,alpha,iters_to_tol,fitted_rate\n")
        for tau, alpha, iters, rate in rows:
            fh.write(f"{tau},{format_exact(alpha)},{iters},{format_exact(rate)}\n")
    _info(args, "tau alpha iters_to_tol fitted_rate")
    for tau, alpha, iters, rate in rows:
        _info(args, f"{tau} {alpha:.6g} {iters} {rate:.6g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress progress output")
    # verify and rate write into their --run directory and draw nothing.
    out_seed = argparse.ArgumentParser(add_help=False)
    out_seed.add_argument("--out", default=".", help="output directory")
    out_seed.add_argument("--seed", type=int, default=None, help="seed override")

    parser = _Parser(prog="piag",
                     description="Incremental aggregated proximal gradient solver "
                                 "and convergence diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", parents=[out_seed, quiet],
                           help="write a random test problem and its metadata")
    p_gen.add_argument("--family", choices=("box", "l1"), required=True)
    p_gen.add_argument("--components", type=int, required=True)
    p_gen.add_argument("--dimension", type=int, required=True)
    p_gen.add_argument("--negative-curvature", type=float, default=None,
                       help="box only (default 0)")
    p_gen.add_argument("--l1-weight", type=float, default=None, help="l1 only (default 1)")
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", parents=[out_seed, quiet], help="run the solver")
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--config", default=None, help="run-config JSON file")
    p_solve.add_argument("--alpha", default=None,
                         help="stepsize, or auto_lemma2 / auto_c8")
    p_solve.add_argument("--tau", type=int, default=None)
    p_solve.add_argument("--schedule-kind", default=None, choices=SCHEDULE_KINDS)
    p_solve.add_argument("--block", type=int, default=None)
    p_solve.add_argument("--max-iters", type=int, default=None)
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--x0", default=None, help="'zeros' or comma-separated values")
    p_solve.add_argument("--c0", type=float, default=None)
    p_solve.add_argument("--log-iterates", action="store_true",
                         help="also write the full iterate log")
    p_solve.add_argument("--reference-fbs", action="store_true",
                         help="run the direct forward-backward reference loop")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", parents=[quiet],
                              help="check the descent inequalities on a recorded run")
    p_verify.add_argument("--problem", required=True)
    p_verify.add_argument("--run", required=True, help="directory of a completed solve")
    p_verify.set_defaults(func=cmd_verify)

    p_rate = sub.add_parser("rate", parents=[quiet],
                            help="fit a geometric rate to the recorded objective")
    p_rate.add_argument("--run", required=True)
    p_rate.add_argument("--skip", type=int, default=None)
    p_rate.add_argument("--limit-value", type=float, default=None)
    p_rate.set_defaults(func=cmd_rate)

    p_cmp = sub.add_parser("compare-delays", parents=[out_seed, quiet],
                           help="sweep the delay parameter on one problem")
    p_cmp.add_argument("--problem", required=True)
    p_cmp.add_argument("--tau-list", required=True)
    p_cmp.add_argument("--schedule-kind", default="adversarial_max",
                       choices=SCHEDULE_KINDS[1:])  # tau = 0 always runs "none"
    p_cmp.add_argument("--max-iters", type=int, default=None)
    p_cmp.add_argument("--tol", type=float, default=None)
    p_cmp.add_argument("--x0", default=None)
    p_cmp.set_defaults(func=cmd_compare_delays)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "out"):  # generate, solve and compare-delays, before any work
            out = Path(args.out)
            if any(p.exists() and not p.is_dir() for p in (out, *out.parents)):
                raise CliError("bad-usage", f"--out {args.out} is not a directory")
        # Non-finite outcomes are reported by exit code and message, so
        # numpy's floating-point warnings would only add noise to stderr.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except CliError as exc:
        print(f"piag: error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"piag: error: bad-input: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"piag: error: runtime: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
