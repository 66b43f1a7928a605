"""Self-test: every output check passes on real output and fails on each
kind of corrupted output.

    python3 bench/run.py --self-test

Library outputs come from short solves of small problems; CLI outputs from
``piag generate/solve/verify/rate`` on an N=5, d=20 l1 problem.  Each case
corrupts one output (a perturbed final iterate, a stepsize above the
threshold, an edited trace or iterate log, a wrong reported count) and
expects the matching check to raise :class:`checks.CheckFailed` with a
message naming what it found.  Exits 0
when every clean case passes and every corrupted case is caught.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess

import numpy as np

import checks
import common
import workloads
from checks import CheckFailed, Quadratic


def library_cases():
    solver = workloads.mod("solver")
    small = workloads.SmallNonconvex()
    state = small.build(seed=1)
    small.prepare(state)
    (_, box, box_cfg), (_, l1, l1_cfg), _ = state["runs"]
    q_box, _ = state["own"][id(box)]
    q_l1, f_star = state["own"][id(l1)]
    tr_l1 = solver.solve(l1, l1_cfg)
    tr_box = solver.solve(box, box_cfg)
    replay_out = workloads.replay_and_check(l1, tr_l1, 16)
    zero = workloads.solver_config(l1, "none", 0, np.zeros(20), 1, True)
    pair = [solver.solve(l1, zero), solver.reference_fbs(l1, zero)]

    def final_l1(x=tr_l1.final_x, fs=f_star):
        checks.check_l1_final(q_l1, x, tr_l1.alpha, workloads.TOL, fs)

    def final_box(x=tr_box.final_x):
        checks.check_box_final(q_box, x, box_cfg.x0, tr_box.alpha, workloads.TOL)

    def replay(iterates=tr_l1.iterates, alpha=tr_l1.alpha, violations=replay_out[1]):
        checks.check_replay(q_l1, iterates, alpha, 16, None, violations, l1.f_lower_bound_hint)

    def replay_values(values):
        out = (copy.copy(replay_out[0]), *replay_out[1:])
        out[0].objective_values = values
        workloads.check_replay_outputs(q_l1, l1, tr_l1, 16, out)

    def staleness(records=tr_l1.records):
        checks.check_staleness([r.max_staleness for r in records], 16)

    nudged_x = tr_l1.final_x + 1e-4
    outside = tr_box.final_x.copy()
    outside[0] = q_box.hi[0] * 1.01
    middle = len(tr_l1.iterates) // 2
    bent = tr_l1.iterates.copy()
    bent[middle] += 1e-3
    fake_values = replay_out[0].objective_values.copy()
    fake_values[middle] -= 1e-3
    stale = copy.deepcopy(tr_l1.records)
    stale[len(stale) // 2].max_staleness = 17
    ulp = copy.deepcopy(pair[1])
    ulp.iterates[-1, 0] = np.nextafter(ulp.iterates[-1, 0], np.inf)
    return [
        ("l1 final iterate", final_l1, None),
        ("l1 final iterate perturbed by 1e-4", lambda: final_l1(x=nudged_x), "KKT"),
        ("l1 minimum off by 1e-3", lambda: final_l1(fs=f_star + 1e-3), "gap"),
        ("box final iterate", final_box, None),
        ("box final iterate moved out of the box", lambda: final_box(outside), "box"),
        ("box final iterate moved 1e-4 toward the centre",
         lambda: final_box(tr_box.final_x * (1 - 1e-4)), "residual"),
        ("replay of the iterate log", replay, None),
        ("replay with a stepsize 1.5x above the threshold",
         lambda: replay(alpha=1.5 * q_l1.threshold(16)), "threshold"),
        ("replay of an iterate log with one edited row", lambda: replay(iterates=bent),
         "violations"),
        ("program reports one descent violation", lambda: replay(violations=(1, 0)),
         "violations"),
        ("program's replayed objective edited", lambda: replay_values(fake_values), "differs"),
        ("staleness of the trace records", staleness, None),
        ("trace record edited to staleness tau+1", lambda: staleness(stale), "staleness"),
        ("tau=0 solve vs reference_fbs", lambda: workloads.check_zero_delay_pair(*pair), None),
        ("tau=0 reference iterate moved by one ulp",
         lambda: workloads.check_zero_delay_pair(pair[0], ulp), "bitwise"),
    ]


def _edit_csv(path, row: int, col: int, fn) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if row < 0:
        row += len(lines)
    parts = lines[row].split(",")
    parts[col] = fn(parts[col])
    lines[row] = ",".join(parts)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _edit_json(path, fn) -> None:
    with open(path) as fh:
        obj = json.load(fh)
    fn(obj)
    common.write_json(obj, path)


def cli_cases(root: str):
    def piag(*args):
        proc, _ = common.run_child(common.cli_argv(args), root)
        if proc.returncode != 0:
            raise common.BenchError(f"piag {args[0]} exited {proc.returncode}: {proc.stderr}")

    piag("generate", "--family", "l1", "--components", 5, "--dimension", 20, "--seed", 3,
         "--out", "gen", "--quiet")
    base = ["solve", "--problem", "gen/problem.json", "--tau", 4, "--quiet"]
    piag(*base, "--out", "run_plain")
    piag(*base, "--log-iterates", "--out", "run_log")
    piag("verify", "--problem", "gen/problem.json", "--run", "run_log", "--quiet")
    piag("rate", "--run", "run_log", "--quiet")
    with open(os.path.join(root, "gen", "problem.json")) as fh:
        q = Quadratic.from_problem_json(json.load(fh))
    f_star = checks.l1_minimizer(q)[1]
    log = "run_log"

    def corrupted(edit):
        def case():
            work = os.path.join(root, "copy")
            shutil.rmtree(work, ignore_errors=True)
            shutil.copytree(root, work, ignore=shutil.ignore_patterns("copy"))
            if edit is not None:
                edit(work)
            workloads.check_cli_outputs(work, q, f_star)
        return case

    def both_traces(work, row, col, fn):
        # Edit both runs alike, so that the check that they are identical
        # does not fire before the check under test.
        for run in ("run_plain", "run_log"):
            _edit_csv(os.path.join(work, run, "trace.csv"), row, col, fn)

    def bump(v, by=1e-3):
        return repr(float(v) + by)

    return [
        ("cli outputs", corrupted(None), None),
        ("iterates.csv last row perturbed", corrupted(
            lambda w: _edit_csv(os.path.join(w, log, "iterates.csv"), -1, 1, bump)), "KKT"),
        ("summary.json stepsize above the threshold", corrupted(
            lambda w: _edit_json(os.path.join(w, log, "summary.json"),
                                 lambda s: s.update(alpha=1.5 * q.threshold(4)))), "threshold"),
        ("trace.csv objective edited", corrupted(
            lambda w: both_traces(w, 40, 1, lambda v: bump(v, 1e-6))), "rate"),
        ("trace.csv staleness edited to tau+1", corrupted(
            lambda w: both_traces(w, 3, 4, lambda v: "5")), "staleness"),
        ("verify.json reports a violation", corrupted(
            lambda w: _edit_json(os.path.join(w, log, "verify.json"),
                                 lambda v: (v["reports"][0].update(violations=1),
                                            v.update(violations_total=1)))), "violations"),
        ("rate.json rate edited", corrupted(
            lambda w: _edit_json(os.path.join(w, log, "rate.json"),
                                 lambda r: r.update(rate=r["rate"] * (1 + 1e-6)))), "rate"),
        ("probe with a traceback counts as failed", lambda: checks.require(
            workloads.probe_passes(subprocess.CompletedProcess(
                [], 1, "", "piag: error: x\nTraceback (most recent call last):\n")),
            "probe"), "probe"),
    ]


def main() -> int:
    root = os.path.join(common.WORK, f"selftest-pid{os.getpid()}")
    os.makedirs(root, exist_ok=True)
    try:
        cases = library_cases() + cli_cases(root)
        bad = 0
        for label, case, expect in cases:
            try:
                case()
                outcome, ok = "passes", expect is None
            except CheckFailed as exc:
                outcome, ok = f"caught: {exc}", expect is not None and expect in str(exc)
            bad += not ok
            print(f"{'ok ' if ok else 'BAD'} {label}: {outcome}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(f"self-test: {len(cases) - bad}/{len(cases)} as expected")
    return 0 if bad == 0 else 1
