"""The three workloads: what each builds, and what one round runs and checks.

A workload builds its inputs from the seed (``build``, the part timed as
set-up), prepares the benchmark's own references (``prepare``, untimed),
and then runs whole rounds of the same operations (``run_round``).  Every
operation's wall time is booked as ``solve``, ``verify`` or ``other``; the
outputs of every operation are checked by :mod:`checks`.

Library workloads call piag through module attributes (``solver.solve``,
``diagnostics.trace_from_iterates``) so that a traced run sees the calls.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import statistics
import sys
import time

import numpy as np

import checks
import common
import spans
from checks import CheckFailed, Quadratic

perf = time.perf_counter

#: Stopping tolerance on the prox residual for every solve.
TOL = 1e-8
L1_WEIGHT = 1.0
#: Problem-generator seeds of ``small-nonconvex``.  At N=5 the iterations to
#: tolerance vary twofold between generator seeds (24k-48k), which would
#: swamp every timing, so the problems are pinned and the seed draws the
#: start points and the random schedule instead.
SMALL_BOX_SEED = 1
SMALL_L1_SEED = 1
#: Number of fresh-process set-ups whose median is ``setup_s``.
SETUPS = 3


def mod(name):
    return importlib.import_module(f"piag.{name}")


class Round:
    """Timings, operation counts and check failures of one round."""

    def __init__(self):
        self.seconds = {"solve": 0.0, "verify": 0.0, "other": 0.0}
        self.iterations = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tally: dict = {}   # span sums, when traced
        self.spans: dict = {}   # label -> span list, when traced

    @property
    def total_s(self) -> float:
        return sum(self.seconds.values())

    def op(self, kind: str, label: str, fn, *args):
        """Run and time one library operation; ``None`` if it raised."""
        self.attempted += 1
        t0 = perf()
        try:
            return fn(*args)
        except Exception as exc:  # an operation of the program failed
            self.failed += 1
            print(f"bench: operation {label} failed: {exc!r}", file=sys.stderr)
            return None
        finally:
            self.seconds[kind] += perf() - t0

    def check(self, label: str, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailed as exc:
            self.failures.append(f"{label}: {exc}")


def solver_config(problem, kind: str, tau: int, x0, seed: int, keep: bool):
    delay, solver = mod("delay"), mod("solver")
    block = math.ceil(problem.n_components / (tau + 1)) if kind == "cyclic" else None
    schedule = delay.DelaySchedule(kind=kind, tau=tau, block=block, seed=seed)
    return solver.SolverConfig(alpha="auto_lemma2", schedule=schedule, x0=np.asarray(x0),
                               max_iters=200000, prox_residual_tol=TOL,
                               keep_iterates=keep)


def replay_and_check(problem, trace, tau: int):
    """The program's own replay of a kept iterate log: objective replay,
    Lemma-2 descent, summability prefix bound, and log-linear rate fit."""
    diagnostics, model, solver = mod("diagnostics"), mod("model"), mod("solver")
    replay = diagnostics.trace_from_iterates(problem, trace.iterates, trace.alpha)
    L, l = model.smoothness_totals(problem)
    constants = solver.rate_constants(L, l, tau, 1.0)
    descent = diagnostics.check_sufficient_descent(replay, constants, trace.alpha)
    summ = diagnostics.check_summability(replay, trace.alpha, constants,
                                         problem.f_lower_bound_hint)
    values = replay.objective_values
    f_min = float(np.min(values))
    limit = f_min - 1e-14 * (1.0 + abs(f_min))
    fit = diagnostics.fit_rlinear_rate(values, limit, skip=5 * (tau + 1))
    return replay, (descent.violations, summ.violations), fit, limit


def check_replay_outputs(q: Quadratic, problem, trace, tau: int, out) -> None:
    replay, violations, fit, limit = out
    checks.check_replay(q, trace.iterates, trace.alpha, tau, replay.objective_values,
                        violations, problem.f_lower_bound_hint)
    skip = fit.transient_skip
    values = replay.objective_values[skip:]
    own, _ = checks.loglinear_rate(np.arange(skip, skip + len(values)), values, limit)
    checks.check_rate(own, fit.rate)


def check_trace(trace, tau: int) -> None:
    checks.require(trace.termination == "converged",
                   f"run ended with {trace.termination!r}, not converged")
    checks.check_staleness([r.max_staleness for r in trace.records], tau)
    if trace.iterates is not None:
        checks.check_bitwise(trace.iterates[-1], trace.final_x, "last kept iterate and final_x")


def traced_call(tracer, rnd: Round, label: str, fn, *args):
    """``fn(*args)``, with the wrappers installed when ``tracer`` is given;
    the spans go to ``rnd``."""
    if tracer is None:
        return fn(*args)
    tracer.install()
    try:
        return fn(*args)
    finally:
        tracer.uninstall()
        group = tracer.take()
        rnd.tally = spans.add_tallies(rnd.tally, spans.tally(group))
        rnd.spans[label] = group


class Workload:
    """A library workload: ``build`` the inputs from the seed (the set-up),
    ``prepare`` the own references, run ``operations`` in rounds."""

    name = ""
    #: Whether the benchmark process itself belongs to the workload's peak RSS.
    rss_includes_self = True

    def start(self, seed: int, work: str, tracer=None) -> tuple[dict, Round]:
        """Build the inputs in this process; the returned round holds the
        set-up's spans when traced."""
        setup = Round()
        state = traced_call(tracer, setup, "setup", self.build, seed)
        self.prepare(state)
        return state, setup

    def run_round(self, state: dict, tracer=None) -> Round:
        rnd = Round()
        traced_call(tracer, rnd, "round", self.operations, state, rnd)
        return rnd

    def setup_seconds(self, seed: int, work: str) -> list[float]:
        """Wall time of ``SETUPS`` fresh processes that import the program
        and build this workload's problems."""
        argv = [sys.executable, os.path.join(common.BENCH_DIR, "run.py"), "--workload",
                self.name, "--seed", str(seed), "--setup-only"]
        out = []
        for _ in range(SETUPS):
            proc, seconds = common.run_child(argv, common.ROOT)
            if proc.returncode != 0:
                raise common.BenchError(f"set-up of {self.name} failed:\n{proc.stderr}")
            out.append(seconds)
        return out


class SmallNonconvex(Workload):
    """Tiny problems, long high-delay traces: per-iteration overhead."""

    name = "small-nonconvex"

    def build(self, seed: int) -> dict:
        problems = mod("problems")
        box = problems.make_quadratic_box(5, 20, SMALL_BOX_SEED, negative_curvature=0.5)
        l1 = problems.make_quadratic_l1(5, 20, SMALL_L1_SEED, lam=L1_WEIGHT)
        rng = np.random.default_rng(seed)
        x0_box, x0_l1 = rng.uniform(-1, 1, (2, 20))
        return {"runs": [
            ("box/cyclic/tau4", box, solver_config(box, "cyclic", 4, x0_box, seed, True)),
            ("l1/uniform_random/tau16", l1,
             solver_config(l1, "uniform_random", 16, x0_l1, seed, True)),
            ("l1/adversarial_max/tau16", l1,
             solver_config(l1, "adversarial_max", 16, x0_l1, seed, True)),
        ]}

    def prepare(self, state: dict) -> None:
        own = {}
        for _, problem, _ in state["runs"]:
            if id(problem) not in own:
                q = Quadratic.from_problem(problem)
                f_star = checks.l1_minimizer(q)[1] if q.kind == "l1" else None
                own[id(problem)] = (q, f_star)
        state["own"] = own

    def operations(self, state: dict, rnd: Round) -> None:
        solver = mod("solver")
        for label, problem, config in state["runs"]:
            tau = config.schedule.tau
            q, f_star = state["own"][id(problem)]
            trace = rnd.op("solve", label, solver.solve, problem, config)
            if trace is None:
                continue
            rnd.iterations += trace.iterations
            rnd.check(label, check_trace, trace, tau)
            if q.kind == "l1":
                rnd.check(label, checks.check_l1_final, q, trace.final_x, trace.alpha, TOL, f_star)
            else:
                rnd.check(label, checks.check_box_final, q, trace.final_x, config.x0,
                          trace.alpha, TOL)
            out = rnd.op("verify", label + " replay", replay_and_check, problem, trace, tau)
            if out is not None:
                rnd.check(label + " replay", check_replay_outputs, q, problem, trace, tau, out)


class LargeL1(Workload):
    """N=100, d=200 l1 problem: matvec-bound refresh and monitoring."""

    name = "large-l1"

    def build(self, seed: int) -> dict:
        problems = mod("problems")
        problem = problems.make_quadratic_l1(100, 200, seed, lam=L1_WEIGHT)
        # What ``piag generate`` computes besides the problem itself.
        ref = problems.reference_solution(problem)
        problems.fit_error_bound_constant(problem, ref, seed=seed)
        zeros = np.zeros(problem.dimension)
        return {
            "problem": problem,
            "zero_delay": solver_config(problem, "none", 0, zeros, seed, True),
            "random": solver_config(problem, "uniform_random", 4, zeros, seed, False),
            "cyclic": solver_config(problem, "cyclic", 4, zeros, seed, True),
        }

    def prepare(self, state: dict) -> None:
        q = Quadratic.from_problem(state["problem"])
        state["own"] = (q, checks.l1_minimizer(q)[1])

    def operations(self, state: dict, rnd: Round) -> None:
        solver = mod("solver")
        problem = state["problem"]
        q, f_star = state["own"]
        fbs_pair = []
        for label, runner in (("solve/tau0", solver.solve),
                              ("reference_fbs/tau0", solver.reference_fbs)):
            trace = rnd.op("solve", label, runner, problem, state["zero_delay"])
            if trace is not None:
                rnd.iterations += trace.iterations
                rnd.check(label, check_trace, trace, 0)
                rnd.check(label, checks.check_l1_final, q, trace.final_x, trace.alpha, TOL, f_star)
                fbs_pair.append(trace)
        if len(fbs_pair) == 2:
            rnd.check("tau0 pair", check_zero_delay_pair, *fbs_pair)
        for label in ("random", "cyclic"):
            config = state[label]
            trace = rnd.op("solve", label, solver.solve, problem, config)
            if trace is None:
                continue
            rnd.iterations += trace.iterations
            rnd.check(label, check_trace, trace, 4)
            rnd.check(label, checks.check_l1_final, q, trace.final_x, trace.alpha, TOL, f_star)
            if config.keep_iterates:
                out = rnd.op("verify", "cyclic replay", replay_and_check, problem, trace, 4)
                if out is not None:
                    rnd.check("cyclic replay", check_replay_outputs, q, problem, trace, 4, out)


def check_zero_delay_pair(a, b) -> None:
    """At zero delay ``solve`` and ``reference_fbs`` agree bit for bit."""
    checks.check_bitwise(a.iterates, b.iterates, "tau=0 iterates of solve and reference_fbs")
    checks.check_bitwise(a.objective_values, b.objective_values, "tau=0 objective logs")
    rec = [[(r.k, r.objective, r.step_norm, r.prox_residual, r.max_staleness, r.delta)
            for r in t.records] for t in (a, b)]
    checks.check_bitwise(np.array(rec[0], float), np.array(rec[1], float), "tau=0 trace records")
    checks.require((a.termination, a.iterations) == (b.termination, b.iterations),
                   "tau=0 runs end differently")


# ---------------------------------------------------------------------------
# cli-pipeline
# ---------------------------------------------------------------------------

#: A 3-dimensional problem for the input-contract probes; fixed, not seeded.
TINY_PROBLEM = {
    "dimension": 3,
    "components": [
        {"A": [2.0, 0.5, 0.0, 0.5, 1.0, 0.0, 0.0, 0.0, 1.5], "b": [1.0, -1.0, 0.5]},
        {"A": [1.0, 0.0, 0.2, 0.0, 2.0, 0.0, 0.2, 0.0, 1.0], "b": [-0.5, 0.25, 1.0]},
    ],
    "nonsmooth": {"kind": "l1", "lambda": 0.1},
}


def _probe_files(work: str) -> None:
    probes = os.path.join(work, "probes")
    os.makedirs(os.path.join(probes, "run_no_schedule"), exist_ok=True)
    with open(os.path.join(probes, "tiny.json"), "w") as fh:
        json.dump(TINY_PROBLEM, fh)
    bad = json.loads(json.dumps(TINY_PROBLEM))
    bad["components"][0]["b"][0] = math.inf
    with open(os.path.join(probes, "inf_b.json"), "w") as fh:
        json.dump(bad, fh)  # written as the JSON extension ``Infinity``
    extra = json.loads(json.dumps(TINY_PROBLEM))
    extra["components"][1]["weight"] = 2.0
    with open(os.path.join(probes, "unknown_field.json"), "w") as fh:
        json.dump(extra, fh)
    common.write_json({"alpha": 0.1, "iterations": 1},
                      os.path.join(probes, "run_no_schedule", "summary.json"))
    with open(os.path.join(probes, "run_no_schedule", "iterates.csv"), "w") as fh:
        fh.write("k,x_0,x_1,x_2\n0,0,0,0\n1,0.1,0,0\n")


#: Malformed inputs: each should exit 1 with ``piag: error:`` and no
#: traceback.  The first four do not today (see the README).
PROBES = [
    ("inf-in-b", ["solve", "--problem", "probes/inf_b.json", "--out", "probes/o1", "--quiet"]),
    ("negative-max-iters", ["solve", "--problem", "probes/tiny.json", "--max-iters", "-5",
                            "--out", "probes/o2", "--quiet"]),
    ("nan-tol", ["solve", "--problem", "probes/tiny.json", "--tol", "nan",
                 "--out", "probes/o3", "--quiet"]),
    ("summary-without-schedule", ["verify", "--problem", "probes/tiny.json",
                                  "--run", "probes/run_no_schedule", "--quiet"]),
    ("missing-problem", ["solve", "--problem", "probes/absent.json", "--out", "probes/o5",
                         "--quiet"]),
    ("unknown-field", ["solve", "--problem", "probes/unknown_field.json", "--out", "probes/o6",
                       "--quiet"]),
]


def probe_passes(proc) -> bool:
    return (proc.returncode == 1 and proc.stderr.startswith("piag: error:")
            and "Traceback" not in proc.stderr)


def read_csv(path) -> np.ndarray:
    return np.atleast_2d(np.loadtxt(path, delimiter=",", skiprows=1))


class CliPipeline(Workload):
    """``piag`` subprocesses at N=100, d=200: the user's end-to-end path."""

    name = "cli-pipeline"
    rss_includes_self = False  # the benchmark's own JSON parse is not the program's

    def generate_args(self, seed: int) -> list:
        return ["generate", "--family", "l1", "--components", 100, "--dimension", 200,
                "--seed", seed, "--l1-weight", L1_WEIGHT, "--out", "gen", "--quiet"]

    def setup_seconds(self, seed: int, work: str) -> list[float]:
        out = []
        for _ in range(SETUPS):
            proc, seconds = common.run_child(common.cli_argv(self.generate_args(seed)), work)
            if proc.returncode != 0:
                raise common.BenchError(f"piag generate failed:\n{proc.stderr}")
            out.append(seconds)
        return out

    def start(self, seed: int, work: str, tracer=None) -> tuple[dict, Round]:
        """Parse the generated problem for the own references.  When traced,
        ``setup_seconds`` has not run, so ``piag generate`` runs here."""
        state = {"work": work}
        setup = Round()
        if tracer is not None:
            proc = self.run_cli(setup, state, "other", self.generate_args(seed), tracer)
            if proc.returncode != 0:
                raise common.BenchError(f"piag generate failed:\n{proc.stderr}")
        self.prepare(state)
        return state, setup

    def prepare(self, state: dict) -> None:
        with open(os.path.join(state["work"], "gen", "problem.json")) as fh:
            # Flush the 121 MB the set-up wrote, so that its write-back does
            # not overlap the timed rounds.
            os.fsync(fh.fileno())
            q = Quadratic.from_problem_json(json.load(fh))
        state["own"] = (q, checks.l1_minimizer(q)[1])
        _probe_files(state["work"])

    def run_cli(self, rnd: Round, state: dict, kind: str, args, tracer=None):
        """One ``piag`` process, run through ``cli_child.py`` when traced
        (``tracer`` only says whether; the child installs its own)."""
        rnd.attempted += 1
        args = [str(a) for a in args]
        if tracer is None:
            argv = common.cli_argv(args)
        else:
            span_file = os.path.join(state["work"], "spans.json")
            argv = [sys.executable, os.path.join(common.BENCH_DIR, "cli_child.py"),
                    span_file, "--", *args]
        proc, seconds = common.run_child(argv, state["work"])
        rnd.seconds[kind] += seconds
        if tracer is not None:
            with open(span_file) as fh:
                child = json.load(fh)
            tally = spans.tally(child["spans"])
            tally["cli.import"] = child["import_s"]
            rnd.tally = spans.add_tallies(rnd.tally, tally)
            rnd.spans[f"{rnd.attempted:02d} {args[0]}"] = child["spans"]
        return proc

    def run_round(self, state: dict, tracer=None) -> Round:
        rnd = Round()
        work = state["work"]
        q, f_star = state["own"]
        base = ["solve", "--problem", "gen/problem.json", "--tau", 4, "--quiet"]
        steps = [("solve", "solve", base + ["--out", "run_plain"]),
                 ("solve", "solve --log-iterates", base + ["--log-iterates", "--out", "run_log"]),
                 ("verify", "verify", ["verify", "--problem", "gen/problem.json",
                                       "--run", "run_log", "--quiet"]),
                 ("verify", "rate", ["rate", "--run", "run_log", "--quiet"])]
        for kind, label, args in steps:
            proc = self.run_cli(rnd, state, kind, args, tracer)
            if proc.returncode != 0:
                rnd.failed += 1
                print(f"bench: piag {label} exited {proc.returncode}: {proc.stderr[-500:]}",
                      file=sys.stderr)
        if rnd.failed == 0:
            for name in ("run_plain", "run_log"):
                with open(os.path.join(work, name, "summary.json")) as fh:
                    rnd.iterations += int(json.load(fh)["iterations"])
            rnd.check("cli outputs", check_cli_outputs, work, q, f_star)
        for label, args in PROBES:
            proc = self.run_cli(rnd, state, "other", args, tracer)
            if not probe_passes(proc):
                rnd.failed += 1
        return rnd


def check_cli_outputs(work: str, q: Quadratic, f_star: float) -> None:
    def load(*parts):
        with open(os.path.join(work, *parts)) as fh:
            return json.load(fh)

    summary = load("run_log", "summary.json")
    tau = int(summary["schedule"]["tau"])
    alpha = float(summary["alpha"])
    checks.check_stepsize(q, alpha, tau)
    for name in ("trace.csv", "summary.json"):
        with open(os.path.join(work, "run_plain", name), "rb") as a, \
                open(os.path.join(work, "run_log", name), "rb") as b:
            checks.require(a.read() == b.read(), f"{name} changes with --log-iterates")
    checks.require(summary["termination"] == "converged", "solve did not converge")
    X = read_csv(os.path.join(work, "run_log", "iterates.csv"))[:, 1:]
    checks.require(len(X) == summary["iterations"] + 1, "iterates.csv has the wrong length")
    checks.check_l1_final(q, X[-1], alpha, TOL, f_star)
    f_end = float(q.F(X[-1])[0])
    checks.require(abs(summary["final_objective"] - f_end) <= 1e-9 * (1 + abs(f_end)),
                   "summary final_objective is not F of the last iterate")
    trace = read_csv(os.path.join(work, "run_log", "trace.csv"))
    checks.check_staleness(trace[:, 4], tau)
    verify = load("run_log", "verify.json")
    counts = tuple(r["violations"] for r in verify["reports"])
    checks.require(verify["violations_total"] == sum(counts), "verify.json total is inconsistent")
    checks.check_replay(q, X, alpha, tau, None, counts)
    rate = load("run_log", "rate.json")
    ks, fs = trace[:, 0], trace[:, 1]
    f_min = float(np.min(fs))
    pad = 1e-14 * (1.0 + abs(f_min))
    keep = (ks >= rate["transient_skip"]) & (fs - (f_min - pad) > 100.0 * pad)
    own, _ = checks.loglinear_rate(ks[keep], fs[keep], f_min - pad)
    checks.check_rate(own, rate["rate"])


WORKLOADS = {w.name: w for w in (SmallNonconvex(), LargeL1(), CliPipeline())}


def summarize(rounds: list[Round]) -> dict:
    med = statistics.median
    return {
        "solve_s": med(r.seconds["solve"] for r in rounds),
        "iters_per_s": med(r.iterations / r.seconds["solve"] for r in rounds),
        "verify_s": med(r.seconds["verify"] for r in rounds),
        "total_s": med(r.total_s for r in rounds),
    }
