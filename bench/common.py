"""Plumbing shared by the benchmark scripts: where the program lives, how
child processes are started, and small statistics helpers.

The benchmark measures the package as it is checked out next to this
directory (``src/piag``); it never imports an installed copy.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: One BLAS thread per process: each workload then runs in a single thread,
#: well within the two cores of the reference machine, and timings do not
#: depend on how many cores a noisy neighbour leaves free.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: The command a user would type for ``piag`` when the package is not
#: installed: the console entry point run from the source tree.
CLI_ENTRY = "from piag.cli import console_entry; console_entry()"

#: A child process that runs longer than this is a hung program.
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a fault of the program)."""


def pin_threads() -> None:
    """Apply the thread limits; call before numpy is first imported."""
    os.environ.update(THREAD_ENV)


def import_program():
    """Import ``piag`` from ``src/`` of this checkout, or exit with an error."""
    if not os.path.isfile(os.path.join(SRC, "piag", "__init__.py")):
        raise SystemExit(f"bench: error: no program sources at {SRC}/piag")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import piag
    if not os.path.abspath(piag.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: error: imported piag from {piag.__file__}, not from {SRC}")
    return piag


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC
    return env


def run_child(argv, cwd) -> tuple[subprocess.CompletedProcess, float]:
    """Run a child process to completion; return it and its wall time."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    return proc, time.perf_counter() - t0


def cli_argv(args) -> list[str]:
    return [sys.executable, "-c", CLI_ENTRY, *[str(a) for a in args]]


def peak_rss_mb(include_self: bool) -> float:
    """Largest resident set of any child this process waited for, and of
    this process itself when ``include_self`` (Linux reports KiB)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if include_self else 0
    return max(own, kids) / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def quartile_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def write_json(obj, path) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)
