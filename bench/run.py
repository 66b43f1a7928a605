"""Benchmark of piag: end-to-end and per-layer metrics of its workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test
    python3 bench/run.py --steadiness [--runs 10] [--workload NAME ...]
    python3 bench/run.py --loop-table [--runs 10] [--grid]

A run sets up its workload (``setup_s`` is the median of three fresh
set-ups), then runs whole rounds of the workload's operations until
``--seconds`` have passed, checks every output, and prints as its last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (medians over rounds);
with ``--trace 1`` they are the per-layer ones from a traced run, plus the
tracing overhead against an untraced round of the same seed.  See
``bench/README.md``; ``BENCHMARK.json`` lists the workloads that carry bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

PROCESS_START = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

common.pin_threads()  # before numpy is imported

import spans  # noqa: E402
import workloads  # noqa: E402

#: Stop starting rounds when the next one might end later than this.
RUN_DEADLINE_S = 150.0

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "iters_per_s": "iter/s",
                    "verify_s": "s", "total_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check fails on corrupted output")
    parser.add_argument("--steadiness", action="store_true",
                        help="two sets of runs per workload, spread against the bounds")
    parser.add_argument("--loop-table", action="store_true",
                        help="per-iteration cost of the solver loop (ROADMAP table)")
    parser.add_argument("--grid", action="store_true",
                        help="with --loop-table: the full N x d x schedule x cadence grid")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set for --steadiness, repeats for --loop-table")
    return parser.parse_args(argv)


def run_rounds(one_round, seconds: float) -> list:
    """Whole rounds until ``seconds`` have passed (at least one), stopping
    early if another round might run past the deadline."""
    rounds = []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rounds.append(one_round())
        now = time.perf_counter()
        if now - t0 >= seconds or now - PROCESS_START + (now - r0) > RUN_DEADLINE_S:
            return rounds


def untraced(wl, seed: int, seconds: float, work: str) -> tuple[list, dict]:
    setups = wl.setup_seconds(seed, work)
    state, _ = wl.start(seed, work)
    rounds = run_rounds(lambda: wl.run_round(state), seconds)
    metrics = {"setup_s": statistics.median(setups),
               **workloads.summarize(rounds),
               "peak_rss_mb": common.peak_rss_mb(wl.rss_includes_self)}
    return rounds, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def traced(wl, seed: int, seconds: float, work: str) -> tuple[list, dict]:
    """Per-layer metrics: one traced set-up plus the median traced round,
    and the overhead against an untraced round run first."""
    tracer = spans.Tracer()
    state, setup = wl.start(seed, work, tracer)
    baseline = wl.run_round(state)
    rounds = run_rounds(lambda: wl.run_round(state, tracer), seconds)
    keys = set().union(*(r.tally for r in rounds))
    median_round = {k: statistics.median(r.tally.get(k, 0.0) for r in rounds) for k in keys}
    counts = [{k: v for k, v in r.tally.items() if k.endswith(":calls")} for r in rounds]
    if any(c != counts[0] for c in counts):
        print("bench: warning: call counts differ between traced rounds", file=sys.stderr)
    values = spans.layer_metrics(spans.add_tallies(setup.tally, median_round))
    traced_total = statistics.median(r.total_s for r in rounds)
    values["tracing.overhead_pct"] = 100.0 * (traced_total / baseline.total_s - 1.0)
    units = {k: u for k, (u, _) in spans.LAYER_METRICS.items()}
    units["tracing.overhead_pct"] = "%"
    groups = {"setup": setup.spans, **{f"round{i}": r.spans for i, r in enumerate(rounds, 1)}}
    spans.write_spans(os.path.join(common.WORK, "spans", f"{wl.name}-seed{seed}.json.gz"),
                      groups)
    return [baseline, *rounds], {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    wl = workloads.WORKLOADS[name]
    work = os.path.join(common.WORK, f"{name}-seed{seed}-pid{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        rounds, metrics = (traced if trace else untraced)(wl, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [f for r in rounds for f in r.failures]
    for f in failures:
        print(f"bench: CHECK FAILED: {f}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"# {name} seed={seed} trace={trace} rounds={len(rounds)} "
          f"attempted={attempted} failed={failed} correct={not failures}")
    print("#   round total_s: " + " ".join(f"{r.total_s:.3f}" for r in rounds))
    for key, m in metrics.items():
        print(f"#   {key:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    common.import_program()
    if args.self_test:
        import selftest
        return selftest.main()
    if args.loop_table:
        import loop_table
        return loop_table.main(args.runs, args.grid)
    if args.steadiness:
        import steadiness
        names = args.workload or [w["name"] for w in common.load_benchmark_spec()["workloads"]]
        return steadiness.main(names, args.runs)
    if not args.workload or len(args.workload) != 1 or args.workload[0] not in workloads.WORKLOADS:
        print(f"bench: error: give one --workload of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    name = args.workload[0]
    if args.setup_only:
        workloads.WORKLOADS[name].build(args.seed)
        return 0
    return run_one(name, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
