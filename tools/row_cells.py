"""Time the gradient row kernel with the thread pool and without it.

    python3 tools/row_cells.py [--src SRC] [--rounds 9] [--calls 20] [--seed 2]

Prints a Markdown table of microseconds per ``model._component_grads`` call
on ``make_quadratic_l1(100, d, seed)`` for d = 100, 150 and 200, and four
refresh sets: all 100 rows, a window of 20 consecutive rows, and 36 and 12
scattered rows (sorted draws without replacement, fixed per seed).  *Pool*
hands the call a ``RowThreads``, as ``solve`` does; *serial* hands it none,
so every row is computed in the calling thread.

Each round times ``--calls`` calls of every cell, pool and serial back to
back in an order that alternates between rounds, so a slow spell of the
host falls on both sides.  A cell reports the median over the rounds, the
interquartile range of each side, the ratio of the medians and the rounds
in which the pool was faster.  The process runs numpy with one BLAS thread,
as the benchmark does, and imports ``piag`` from SRC (by default this
checkout's ``src``), so the same command times another commit's kernel.
It times, so it is not part of the tests.
"""

import argparse
import os
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIMENSIONS = (100, 150, 200)
COMPONENTS = 100


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(REPO, "src"))
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--calls", type=int, default=20)
    parser.add_argument("--seed", type=int, default=2)
    args = parser.parse_args(argv)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"  # read when numpy loads its BLAS
    sys.path.insert(0, os.path.abspath(args.src))
    import numpy as np

    from piag import model
    from piag.problems import make_quadratic_l1

    rng = np.random.default_rng(args.seed)
    sets = {"all 100 rows": range(COMPONENTS), "window of 20": range(40, 60),
            "36 scattered": sorted(rng.choice(COMPONENTS, 36, replace=False).tolist()),
            "12 scattered": sorted(rng.choice(COMPONENTS, 12, replace=False).tolist())}
    print("| d | set | pool µs | serial µs | pool / serial | pool IQR | serial IQR | pool wins |")
    print("|---|---|---|---|---|---|---|---|")
    for d in DIMENSIONS:
        problem = make_quadratic_l1(COMPONENTS, d, args.seed, lam=1.0)
        x = rng.standard_normal(d)
        out = np.empty((COMPONENTS, d))
        times = {(name, side): [] for name in sets for side in ("pool", "serial")}
        with model.RowThreads() as threads:
            for r in range(args.rounds):
                for name, indices in sets.items():
                    sides = (("pool", threads), ("serial", None))
                    for side, pool in sides if r % 2 == 0 else sides[::-1]:
                        start = time.perf_counter()
                        for _ in range(args.calls):
                            model._component_grads(problem, x, indices, out, pool)
                        times[name, side].append(
                            1e6 * (time.perf_counter() - start) / args.calls)
        for name in sets:
            pool, serial = (np.array(times[name, side]) for side in ("pool", "serial"))
            (p1, p, p3), (s1, s, s3) = (np.percentile(v, [25, 50, 75]) for v in (pool, serial))
            wins = int(np.sum(pool < serial))
            print(f"| {d} | {name} | {p:.0f} | {s:.0f} | {p / s:.2f} | {p3 - p1:.0f} "
                  f"| {s3 - s1:.0f} | {wins} of {args.rounds} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
