"""Steadiness evidence: two independent sets of runs of the same code.

    python3 bench/run.py --steadiness [--runs 10] [--workload NAME ...]

Set A runs each workload with seeds 1..runs, set B with seeds runs+1..2*runs,
each run a fresh ``run.py`` process with the ``run_seconds`` of
``BENCHMARK.json``.  For every end-to-end metric and workload it reports the
spread of each set (inter-quartile distance over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), the change of
the median from A to B in the metric's worse direction, and both against
the metric's bound; and it checks that the share of failed operations is
identical in every run.  The table is printed and written to
``.bench_work/steadiness.json``.
"""

from __future__ import annotations

import json
import os
import sys

import common


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, os.path.join(common.BENCH_DIR, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc, wall = common.run_child(argv, common.ROOT)
    if proc.returncode != 0:
        raise common.BenchError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main(names, runs: int) -> int:
    spec = common.load_benchmark_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = {"A": range(1, runs + 1), "B": range(runs + 1, 2 * runs + 1)}
    results = {}
    for label, seeds in sets.items():
        for name in names:
            for seed in seeds:
                r = one_run(name, seed, seconds)
                results.setdefault(name, {}).setdefault(label, []).append(r)
                print(f"set {label} {name} seed {seed}: wall {r['wall_s']:.1f}s "
                      f"correct={r['correct']} failed={r['failed']}/{r['attempted']}",
                      flush=True)
    table = []
    ok = True
    print(f"\n{'workload':16s} {'metric':12s} {'bound':>6s} {'spreadA':>8s} {'spreadB':>8s} "
          f"{'medA':>10s} {'medB':>10s} {'worse':>7s}")
    for name, by_set in results.items():
        shares = {r["failed"] / r["attempted"] for rs in by_set.values() for r in rs}
        correct = all(r["correct"] for rs in by_set.values() for r in rs)
        ok &= len(shares) == 1 and correct
        for metric, m in bounds.items():
            vals = {k: [r["metrics"][metric]["value"] for r in rs] for k, rs in by_set.items()}
            spread = {k: common.quartile_spread(v) for k, v in vals.items()}
            med = {k: common.median(v) for k, v in vals.items()}
            change = (med["B"] - med["A"]) / med["A"]
            worse = change if m["better"] == "lower" else -change
            row_ok = worse <= m["bound"] and (
                metric == "setup_s" or max(spread.values()) <= m["bound"])
            ok &= row_ok
            table.append({"workload": name, "metric": metric, "bound": m["bound"],
                          "spread": spread, "median": med, "worse": worse,
                          "values": vals, "ok": row_ok})
            print(f"{name:16s} {metric:12s} {m['bound']:6.3f} {spread['A']:8.3f} "
                  f"{spread['B']:8.3f} {med['A']:10.4g} {med['B']:10.4g} {worse:7.3f}"
                  f"{'' if row_ok else '  <-- outside bound'}")
        print(f"{name:16s} failed share {sorted(shares)} correct={correct}")
    common.write_json({"runs_per_set": runs, "run_seconds": seconds, "rows": table,
                       "wall_s": {n: [r["wall_s"] for rs in b.values() for r in rs]
                                  for n, b in results.items()}},
                      os.path.join(common.WORK, "steadiness.json"))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1
