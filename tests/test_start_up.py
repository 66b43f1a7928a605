"""What a ``piag`` process loads before it does any work.

``import piag`` and ``import piag.cli`` load no numpy, and a command that is
refused on a flag or a small run file is refused before numpy is loaded.
Each case runs in a fresh interpreter, since numpy stays in ``sys.modules``
once any test has imported it.
"""

import json
import types

import pytest

import piag

from helpers import run_python

# Runs piag's CLI on the given arguments, then prints its exit code and
# whether numpy was loaded, as the last line of stdout.
MAIN = ("import sys\nfrom piag.cli import main\ncode = main(sys.argv[1:])\n"
        "print(code, 'numpy' in sys.modules)")


def test_importing_the_package_and_the_cli_loads_no_numpy():
    proc = run_python(["-c", "import sys\nimport piag\nimport piag.cli\nprint(sorted(m for m in "
                             "sys.modules if m == 'numpy' or m.startswith('piag')))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['piag', 'piag.cli', 'piag.fields']\n"


def test_the_first_public_name_read_loads_its_module():
    proc = run_python(["-c", "import sys\nimport piag\nconfig = piag.SolverConfig\n"
                             "print('numpy' in sys.modules, 'piag.solver' in sys.modules)"])
    assert proc.stdout == "True True\n", proc.stderr


def test_prox_stays_the_function_once_its_module_is_imported():
    # Importing a submodule binds it on its package, over a public name of
    # the same name: piag.prox would be the module piag.prox.
    proc = run_python(["-c", "import piag.solver\nimport piag\nprint(callable(piag.prox))"])
    assert proc.stdout == "True\n", proc.stderr
    import piag.solver
    assert isinstance(piag.prox, types.FunctionType)
    assert piag.prox is piag.solver.prox


def test_the_public_names_are_kept():
    assert len(set(piag.__all__)) == 48
    assert set(piag.__all__) <= set(dir(piag))
    for name in piag.__all__:
        assert getattr(piag, name).__module__.startswith("piag.")
    with pytest.raises(AttributeError, match="has no attribute 'absent'"):
        piag.absent


@pytest.fixture()
def probes(tmp_path):
    problem = {"dimension": 2, "components": [{"A": [2.0, 0.0, 0.0, 1.0], "b": [1.0, -1.0]}],
               "nonsmooth": {"kind": "l1", "lambda": 0.1}}
    (tmp_path / "tiny.json").write_text(json.dumps(problem))
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "summary.json").write_text(json.dumps({"alpha": 0.1}))
    (tmp_path / "run" / "iterates.csv").write_text("k,x_0,x_1\n0,0,0\n")
    (tmp_path / "run" / "trace.csv").write_text("")
    (tmp_path / "good").mkdir()
    (tmp_path / "good" / "summary.json").write_text(json.dumps({"alpha": 0.1,
                                                                "schedule": {"tau": 0}}))
    (tmp_path / "good" / "trace.csv").write_text("")
    return tmp_path


@pytest.mark.parametrize("args, error", [
    (["solve", "--problem", "tiny.json", "--max-iters", "-5", "--out", "o"],
     "bad-config: max_iters must be nonnegative"),
    (["solve", "--problem", "tiny.json", "--tol", "nan", "--out", "o"],
     "bad-config: prox_residual_tol must be a nonnegative number"),
    (["verify", "--problem", "tiny.json", "--run", "run"],
     "bad-summary: run/summary.json: needs numeric 'alpha' and 'schedule.tau'"),
    (["solve", "--problem", "absent.json", "--out", "o"],
     "missing-file: problem file not found: absent.json"),
    (["generate", "--family", "l1", "--components", "2", "--dimension", "2",
      "--negative-curvature", "1", "--out", "o"],
     "bad-usage: --negative-curvature is for --family box only, not l1"),
    (["generate", "--family", "box", "--components", "2", "--dimension", "2",
      "--l1-weight", "1", "--out", "o"],
     "bad-usage: --l1-weight is for --family l1 only, not box"),
    (["rate", "--run", "run"],
     "bad-summary: run/summary.json: needs numeric 'alpha' and 'schedule.tau'"),
    (["rate", "--run", "good", "--limit-value", "nan"],
     "bad-config: --limit-value: must be finite, got nan"),
    (["rate", "--run", "good", "--skip", "-3"], "bad-config: transient skip must be nonnegative"),
], ids=["negative-max-iters", "nan-tol", "summary-without-schedule", "missing-problem",
        "curvature-for-l1", "weight-for-box", "rate-summary-without-schedule",
        "rate-nan-limit", "rate-negative-skip"])
def test_a_refusal_on_flags_or_a_run_file_loads_no_numpy(probes, args, error):
    proc = run_python(["-c", MAIN, *args, "--quiet"], probes)
    assert proc.stderr == f"piag: error: {error}\n"
    assert proc.stdout == "1 False\n"
    assert not (probes / "o").exists()


def test_help_loads_no_numpy():
    proc = run_python(["-c", MAIN, "--help"])
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage: piag")
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_a_command_that_runs_loads_numpy(probes):
    # The marker of the cases above tells a loaded numpy from one not loaded.
    proc = run_python(["-c", MAIN, "solve", "--problem", "tiny.json", "--out", "o", "--quiet"],
                      probes)
    assert (proc.stdout, proc.stderr) == ("0 True\n", "")
    assert (probes / "o" / "summary.json").exists()
