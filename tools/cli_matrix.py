"""Run a fixed matrix of ``piag`` commands and fingerprint everything they output.

    python3 tools/cli_matrix.py OUT [--src SRC]

Runs about 75 commands, one after another, as ``python -m piag.cli`` child
processes with ``OPENBLAS_NUM_THREADS=1``, importing ``piag`` from SRC (by
default this checkout's ``src``).  The commands run in ``OUT/work`` with
relative paths, so no output depends on where OUT is:

- ``generate`` for l1 at 6x12 and box at 4x3, seeds 1 and 2;
- ``solve`` on the two seed-1 problems under each schedule at tau 0 and 3,
  plus ``--reference-fbs``, ``--alpha 100`` and ``--alpha auto_c8 --c0 2``,
  each with ``--log-iterates``;
- ``verify``, ``rate`` and ``compare-delays --tau-list 0,2,5``;
- on the l1 seed-1 problem: ``rate --limit-value`` below the run's smallest F,
  ``solve --alpha 1e300``, which stops when a step overflows, and ``solve
  --max-iters 0``, which records x0 and runs no iteration;
- ``generate`` for box at 2x3 with ``--negative-curvature 1``, whose
  reference set holds seven stationary points, so the KKT dedupe, the
  value separation and the c0 fit over several points are byte-checked;
- ``generate`` and ``solve`` at 12x96, where a problem spans three blocks of
  the component builder, which checks them on the thread pool (the calling
  thread and a worker per further CPU), so that a run under ``taskset -c 0``
  checks that no output depends on the pool's worker count;
- ``generate`` at 24x160, whose refreshes fill more than the size at which
  the gradient rows are shared out across threads, and on it ``solve --tau
  0``, ``solve --reference-fbs --tau 0``, a ``cyclic`` run at ``--tau 1
  --block 20``, whose windows wrap, and a ``uniform_random`` run at ``--tau
  1``, whose scattered refresh sets of about 16 rows fill more than that
  size too; under ``taskset -c 0`` the rows stay in the calling thread, so
  the diff checks the shared rows against the serial ones;
- ``solve --log-iterates``, ``verify`` and ``rate`` on two hand-made 3-d
  problems, one with a ``zero`` term and one with a ``box_plus_l1`` term
  that has an infinite bound, since the generators make only ``l1`` and
  ``box``;
- ``solve --config`` on the l1 seed-1 problem: a run config whose
  ``schedule.tau`` and ``schedule.seed`` win over its top-level ``tau`` and
  ``seed``, and which sets ``max_iters``, ``tol`` and ``trace_every``; the same
  config under ``--tau`` and ``--seed`` flags, which win over both; and a
  config of ``alpha 0.5``, ``c0 2`` and ``enforce_theory``;
- six malformed inputs, one of them a run config with ``schedule.block 1.5``;
- three commands that are refused once the problem is read, which must
  leave no ``--out`` directory: ``compare-delays`` with an ``--x0`` of the
  wrong length, ``solve`` from an ``--x0`` outside the box, and
  ``compare-delays`` whose second tau exceeds the longest step window;
- three flags that belong to another family or schedule, which must be
  refused and leave no ``--out`` directory: ``generate --family l1
  --negative-curvature 0.5``, ``generate --family box --l1-weight 2`` and
  ``solve --tau 0 --block 3``, since ``--block`` is for ``cyclic`` only;
- ``solve --log-iterates`` on a hand-made 1x1 problem with ``A = [1e308]``,
  an exactly symmetric matrix that is kept as written, since its
  symmetrized copy ``0.5 * (A + A.T)`` would overflow;
- two more refusals that must leave no ``--out`` directory:
  ``compare-delays --tau-list 0,0``, whose second run would overwrite the
  first, and ``solve --problem`` on a directory, which is ``missing-file``;
- four commands whose ``--out`` cannot be a directory, refused as
  ``bad-usage`` before the problem is loaded or drawn, which must write
  nothing: ``solve``, ``compare-delays`` and ``generate`` with ``--out
  afile``, a plain file, and ``solve --out afile/sub``.

``OUT/manifest.txt`` gets one line per command: the command, its exit code,
and the SHA-256 of its stdout, of its stderr and of every file it wrote,
named by its path under ``OUT/work``, and ``<path>/=empty`` for each
directory it made or changed and left empty.  Two runs produce the same
CLI output exactly when their manifests are identical, so ``diff`` them.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SOLVE_ITERS = ["--max-iters", "3000"]
BAD_PROBLEM = "bad_problem.json"  # written before the first command
A_FILE = "afile"  # an empty plain file, also written before the first command
# Also written before the first command: a problem for each prox kind the
# generators do not make.  The zero problem's sum is positive definite.
HAND_PROBLEMS = {
    "zero": {"dimension": 3, "nonsmooth": {"kind": "zero"}, "components": [
        {"A": [2.0, 0.5, 0.0, 0.5, 1.0, 0.0, 0.0, 0.0, 1.5], "b": [1.0, -1.0, 0.5]},
        {"A": [1.0, 0.0, 0.2, 0.0, -0.5, 0.0, 0.2, 0.0, 1.0], "b": [0.0, 0.5, -1.0],
         "c0_term": 0.25}]},
    "box_plus_l1": {"dimension": 3, "nonsmooth": {
        "kind": "box_plus_l1", "lo": [-float("inf"), -1.0, -2.0], "hi": [1.0, 2.0, 0.5],
        "lambda": 0.3}, "components": [
        {"A": [1.0, -0.3, 0.0, -0.3, 0.8, 0.1, 0.0, 0.1, -0.4], "b": [2.0, -0.5, 1.0]},
        {"A": [0.5, 0.0, 0.0, 0.0, 1.2, 0.0, 0.0, 0.0, 0.6], "b": [-1.0, 0.0, 3.0]}]},
}

# Run configs, also written before the first command.
CONFIGS = {
    "config_schedule": {"tau": 1, "seed": 2, "max_iters": 400, "tol": 1e-6, "trace_every": 7,
                        "schedule": {"kind": "uniform_random", "tau": 3, "seed": 5}},
    "config_theory": {"tau": 3, "alpha": 0.5, "c0": 2, "enforce_theory": True},
    "config_bad_block": {"tau": 2, "schedule": {"kind": "cyclic", "block": 1.5}},
}

# Also written before the first command: a matrix entry whose double overflows.
HUGE_PROBLEM = {"dimension": 1, "components": [{"A": [1e308], "b": [0.0]}],
                "nonsmooth": {"kind": "l1", "lambda": 0.1}}


def commands() -> list[list[str]]:
    """The matrix, as ``piag`` argument lists."""
    cmds = []
    for family, n, d, extra in (("l1", 6, 12, []),
                                ("box", 4, 3, ["--negative-curvature", "0.5"])):
        for seed in (1, 2):
            cmds.append(["generate", "--family", family, "--components", str(n),
                         "--dimension", str(d), "--seed", str(seed), *extra,
                         "--out", f"{family}{seed}"])
    for family in ("l1", "box"):
        problem = f"{family}1/problem.json"
        runs = [(f"{kind}-tau{tau}", ["--tau", str(tau), "--schedule-kind", kind])
                for kind in ("none", "cyclic", "uniform_random", "adversarial_max")
                for tau in (0, 3)]
        runs += [("fbs-tau0", ["--tau", "0", "--reference-fbs"]),
                 ("alpha100", ["--tau", "3", "--alpha", "100"]),
                 ("auto_c8", ["--tau", "3", "--alpha", "auto_c8", "--c0", "2"])]
        for name, flags in runs:
            cmds.append(["solve", "--problem", problem, *flags, *SOLVE_ITERS, "--seed", "5",
                         "--log-iterates", "--out", f"{family}1/{name}"])
        for name in ("cyclic-tau3", "adversarial_max-tau3", "alpha100"):
            cmds.append(["verify", "--problem", problem, "--run", f"{family}1/{name}"])
        cmds.append(["rate", "--run", f"{family}1/uniform_random-tau3"])
        cmds.append(["compare-delays", "--problem", problem, "--tau-list", "0,2,5",
                     *SOLVE_ITERS, "--out", f"{family}1/compare"])
    cmds += [
        ["rate", "--run", "l11/uniform_random-tau3", "--limit-value=-4.31"],
        ["solve", "--problem", "l11/problem.json", "--alpha", "1e300", "--max-iters", "30",
         "--out", "l11/alpha1e300"],
        ["solve", "--problem", "l11/problem.json", "--max-iters", "0", "--out",
         "l11/max-iters0"],
        ["solve", "--problem", "l11/problem.json", "--config", "config_schedule.json",
         "--log-iterates", "--out", "l11/config"],
        ["solve", "--problem", "l11/problem.json", "--config", "config_schedule.json",
         "--tau", "2", "--seed", "9", "--log-iterates", "--out", "l11/config-flags"],
        ["solve", "--problem", "l11/problem.json", "--config", "config_theory.json",
         *SOLVE_ITERS, "--out", "l11/config-theory"],
        ["generate", "--family", "box", "--components", "2", "--dimension", "3",
         "--seed", "1", "--negative-curvature", "1", "--out", "box-stationary"],
        ["generate", "--family", "l1", "--components", "12", "--dimension", "96",
         "--seed", "3", "--out", "pool"],
        ["solve", "--problem", "pool/problem.json", "--tau", "3", *SOLVE_ITERS,
         "--log-iterates", "--out", "pool/run"],
        ["generate", "--family", "l1", "--components", "24", "--dimension", "160",
         "--seed", "4", "--out", "rows"],
    ]
    for name, flags in (("tau0", ["--tau", "0"]), ("fbs-tau0", ["--tau", "0", "--reference-fbs"]),
                        ("cyclic-tau1", ["--tau", "1", "--schedule-kind", "cyclic",
                                         "--block", "20"]),
                        ("uniform_random-tau1", ["--tau", "1", "--schedule-kind",
                                                 "uniform_random", "--seed", "5"])):
        cmds.append(["solve", "--problem", "rows/problem.json", *flags, *SOLVE_ITERS,
                     "--log-iterates", "--out", f"rows/{name}"])
    for name in HAND_PROBLEMS:
        cmds += [["solve", "--problem", f"{name}.json", "--tau", "2", *SOLVE_ITERS,
                  "--log-iterates", "--out", name],
                 ["verify", "--problem", f"{name}.json", "--run", name],
                 ["rate", "--run", name, "--skip", "3"]]
    cmds += [
        ["solve", "--problem", "missing/problem.json", "--out", "bad1"],
        ["solve", "--problem", BAD_PROBLEM, "--out", "bad2"],
        ["solve", "--problem", "l11/problem.json", "--tau", "1", "--block", "1",
         "--out", "bad3"],
        ["generate", "--family", "box", "--components", "2", "--dimension", "2",
         "--negative-curvature", "-1", "--out", "bad4"],
        ["verify", "--problem", "l11/problem.json", "--run", "missing-run"],
        ["solve", "--problem", "l11/problem.json", "--config", "config_bad_block.json",
         "--out", "bad5"],
        ["compare-delays", "--problem", "l11/problem.json", "--tau-list", "0,2", "--x0", "1,2",
         "--out", "bad6"],
        ["solve", "--problem", "box1/problem.json", "--x0", "1e9,1e9,1e9", "--out", "bad7"],
        ["compare-delays", "--problem", "l11/problem.json", "--tau-list",
         "0,99999999999999999999", "--out", "bad8"],
        ["generate", "--family", "l1", "--components", "2", "--dimension", "3",
         "--negative-curvature", "0.5", "--out", "bad9"],
        ["generate", "--family", "box", "--components", "2", "--dimension", "3",
         "--l1-weight", "2", "--out", "bad10"],
        ["solve", "--problem", "l11/problem.json", "--tau", "0", "--block", "3",
         "--out", "bad11"],
        ["solve", "--problem", "huge.json", "--log-iterates", "--out", "huge"],
        ["compare-delays", "--problem", "l11/problem.json", "--tau-list", "0,0",
         "--out", "bad12"],
        ["solve", "--problem", "l11", "--out", "bad13"],
        ["solve", "--problem", "l11/problem.json", "--out", A_FILE],
        ["solve", "--problem", "l11/problem.json", "--out", f"{A_FILE}/sub"],
        ["compare-delays", "--problem", "l11/problem.json", "--tau-list", "0,2",
         "--out", A_FILE],
        ["generate", "--family", "l1", "--components", "2", "--dimension", "3",
         "--out", A_FILE],
    ]
    return cmds


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _snapshot(root: str) -> dict[str, tuple[int, int]]:
    """``relative path -> (mtime_ns, size)`` of every file under ``root``,
    and of every empty directory, whose path ends in ``/``."""
    found = {}
    for folder, folders, files in os.walk(root):
        if not folders and not files:
            found[os.path.relpath(folder, root) + "/"] = (os.stat(folder).st_mtime_ns, 0)
        for name in files:
            path = os.path.join(folder, name)
            st = os.stat(path)
            found[os.path.relpath(path, root)] = (st.st_mtime_ns, st.st_size)
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="a new or empty output directory")
    parser.add_argument("--src", default=os.path.join(REPO, "src"),
                        help="directory that holds the piag package to run")
    args = parser.parse_args()
    if os.path.isdir(args.out) and os.listdir(args.out):
        parser.error(f"{args.out} is not empty")
    work = os.path.join(args.out, "work")
    os.makedirs(work)
    with open(os.path.join(work, BAD_PROBLEM), "w") as fh:
        fh.write('{"dimension": 2, "components": [\n')
    open(os.path.join(work, A_FILE), "w").close()
    for name, document in {**HAND_PROBLEMS, **CONFIGS, "huge": HUGE_PROBLEM}.items():
        with open(os.path.join(work, f"{name}.json"), "w") as fh:
            json.dump(document, fh)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(args.src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    lines = []
    for argv in commands():
        before = _snapshot(work)
        proc = subprocess.run([sys.executable, "-m", "piag.cli", *argv], cwd=work, env=env,
                              capture_output=True)
        fields = [f"piag {' '.join(argv)}", f"exit={proc.returncode}",
                  f"stdout={_digest(proc.stdout)}", f"stderr={_digest(proc.stderr)}"]
        for path, stamp in sorted(_snapshot(work).items()):
            if before.get(path) == stamp:
                continue
            if path.endswith("/"):
                fields.append(f"{path}=empty")
            else:
                with open(os.path.join(work, path), "rb") as fh:
                    fields.append(f"{path}={_digest(fh.read())}")
        lines.append(" ".join(fields))
        print(f"exit {proc.returncode}: piag {' '.join(argv)}", flush=True)
    with open(os.path.join(args.out, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(lines)} commands; manifest in {os.path.join(args.out, 'manifest.txt')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
