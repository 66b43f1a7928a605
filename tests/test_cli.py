import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from piag import cli, load_problem, smoothness_totals, stepsize_threshold

from helpers import KillsTheWorker, with_last_matrix_as


def run(args):
    return cli.main(args)


@pytest.fixture()
def l1_setup(tmp_path):
    gen = tmp_path / "gen"
    assert run(["generate", "--family", "l1", "--components", "3", "--dimension", "4",
                "--seed", "11", "--out", str(gen), "--quiet"]) == 0
    return str(gen / "problem.json"), tmp_path


def test_generate_writes_problem_and_metadata(tmp_path):
    out = tmp_path / "g"
    assert run(["generate", "--family", "box", "--components", "2", "--dimension", "2",
                "--seed", "5", "--negative-curvature", "0.5", "--out", str(out),
                "--quiet"]) == 0
    problem = json.loads((out / "problem.json").read_text())
    assert set(problem) == {"dimension", "components", "nonsmooth"}
    meta = json.loads((out / "problem_meta.json").read_text())
    assert meta["reference"] is not None
    assert meta["reference"]["method"] == "kkt_enumeration"
    assert meta["fitted_c0"] > 0
    assert meta["L"] >= meta["l"]


def test_generate_box_above_enumerable_dimension_has_no_reference(tmp_path):
    out = tmp_path / "g"
    assert run(["generate", "--family", "box", "--components", "2", "--dimension", "4",
                "--out", str(out), "--quiet"]) == 0
    meta = json.loads((out / "problem_meta.json").read_text())
    assert meta["reference"] is None and "fitted_c0" not in meta


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_generate_rejects_a_non_finite_curvature(tmp_path, capsys, value):
    assert run(["generate", "--family", "box", "--components", "2", "--dimension", "2",
                "--negative-curvature", value, "--out", str(tmp_path / "g"), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "piag: error: bad-input: negative_curvature must be a finite nonnegative number\n")
    assert not (tmp_path / "g" / "problem.json").exists()


def test_generate_with_a_negative_seed_names_the_seed(tmp_path, capsys):
    assert run(["generate", "--family", "l1", "--components", "2", "--dimension", "2",
                "--seed", "-1", "--out", str(tmp_path / "g"), "--quiet"]) == 1
    assert capsys.readouterr().err == "piag: error: bad-input: seed must be nonnegative\n"
    assert not (tmp_path / "g" / "problem.json").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be nonnegative"),
    ("--components", "0", "component count must be in [1, 100]"),
    ("--dimension", "201", "dimension must be in [1, 200]"),
])
def test_a_refused_generate_leaves_no_out_directory(tmp_path, capsys, flag, value, message):
    args = {"--components": "2", "--dimension": "2", "--seed": "1", flag: value}
    assert run(["generate", "--family", "l1", *[v for kv in args.items() for v in kv],
                "--out", str(tmp_path / "g"), "--quiet"]) == 1
    assert capsys.readouterr().err == f"piag: error: bad-input: {message}\n"
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("family, flag, owner", [
    ("l1", "--negative-curvature", "box"), ("box", "--l1-weight", "l1")])
def test_generate_refuses_the_other_familys_parameter(tmp_path, capsys, family, flag, owner):
    # The value was dropped without a word, and problem_meta.json recorded null for it.
    assert run(["generate", "--family", family, "--components", "3", "--dimension", "3",
                "--seed", "1", flag, "5", "--out", str(tmp_path / "g"), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"piag: error: bad-usage: {flag} is for --family {owner} only, not {family}\n")
    assert not (tmp_path / "g").exists()


def _snapshot(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.mark.parametrize("command, out", [
    (["generate", "--family", "l1", "--components", "2", "--dimension", "3"], "afile"),
    (["solve", "--problem", "PROBLEM"], "afile"),
    (["solve", "--problem", "PROBLEM"], "afile/sub"),
    (["compare-delays", "--problem", "PROBLEM", "--tau-list", "0,2"], "afile"),
], ids=["generate", "solve", "solve-under-a-file", "compare-delays"])
def test_an_out_that_cannot_be_a_directory_is_refused_before_any_work(
        l1_setup, capsys, monkeypatch, command, out):
    # The run used to be paid for first, and then failed with a raw OS error.
    problem, tmp = l1_setup
    (tmp / "afile").write_text("")
    before = _snapshot(tmp)

    def no_work(*args, **kwargs):
        raise AssertionError("work done for an --out that cannot be written")

    for name in ("load_problem", "solve"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(cli.problems, "make_quadratic_l1", no_work)
    argv = [problem if a == "PROBLEM" else a for a in command]
    assert run([*argv, "--out", str(tmp / out), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"piag: error: bad-usage: --out {tmp / out} is not a directory\n")
    assert _snapshot(tmp) == before


@pytest.mark.parametrize("command, error", [
    (["solve", "--problem", "{tmp}/absent.json", "--max-iters", "-5"],
     "bad-config: max_iters must be nonnegative"),
    (["solve", "--problem", "{tmp}/absent.json", "--tol", "nan", "--tau", "-1"],
     "bad-config: tau: must be nonnegative"),
    (["compare-delays", "--problem", "{tmp}/absent.json", "--tau-list", "0,x"],
     "bad-usage: cannot parse tau list '0,x'"),
    (["verify", "--problem", "{tmp}/absent.json", "--run", "{tmp}"],
     "missing-file: no summary.json in {tmp}"),
    (["solve", "--problem", "{tmp}/empty.json", "--x0", "1,2"],
     "bad-problem: missing field(s) ['components', 'dimension', 'nonsmooth']"),
    (["rate", "--run", "{tmp}/run"],
     "bad-summary: {tmp}/run/summary.json: needs numeric 'alpha' and 'schedule.tau'"),
], ids=["limits-before-the-problem-path", "tau-before-the-limits",
        "tau-list-before-the-problem-path", "run-before-the-problem-path",
        "problem-before-x0", "summary-before-the-trace"])
def test_of_two_faults_the_one_checked_first_is_reported(tmp_path, capsys, command, error):
    # A command checks its flags and small run files, then the problem's
    # path, then loads the problem, then checks the settings that need it;
    # rate reads its trace last.
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "summary.json").write_text("{}")
    (tmp_path / "run" / "trace.csv").write_text("k,F,step_norm,prox_residual,max_staleness,"
                                                "delta_k\n")  # an empty trace
    argv = [a.format(tmp=tmp_path) for a in command]
    if argv[0] not in ("verify", "rate"):
        argv += ["--out", str(tmp_path / "o")]
    assert run([*argv, "--quiet"]) == 1
    assert capsys.readouterr().err == f"piag: error: {error.format(tmp=tmp_path)}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("family, recorded", [("box", (0.0, None)), ("l1", (None, 1.0))])
def test_generate_records_the_default_of_its_familys_parameter(tmp_path, family, recorded):
    out = tmp_path / "g"
    assert run(["generate", "--family", family, "--components", "2", "--dimension", "2",
                "--out", str(out), "--quiet"]) == 0
    meta = json.loads((out / "problem_meta.json").read_text())
    assert (meta["negative_curvature"], meta["l1_weight"]) == recorded


def test_generate_l1_with_few_large_components(tmp_path, capsys):
    # Seed 15 draws no strongly convex sum in 100 attempts at 2 x 40.
    out = tmp_path / "g"
    assert run(["generate", "--family", "l1", "--components", "2", "--dimension", "40",
                "--seed", "15", "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "problem.json").read_text())["dimension"] == 40


def test_solve_with_a_block_beyond_int64_converges(l1_setup):
    # The cyclic window's start (k * block) % N is formed in Python ints.
    problem, tmp = l1_setup
    out = tmp / "run"
    assert run(["solve", "--problem", problem, "--tau", "3", "--block",
                "99999999999999999999999", "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "converged"
    assert summary["schedule"] == {"kind": "cyclic", "tau": 3, "block": 99999999999999999999999}


def test_solve_converges_and_writes_outputs(l1_setup):
    problem, tmp = l1_setup
    out = tmp / "run"
    rc = run(["solve", "--problem", problem, "--tau", "2", "--max-iters", "5000",
              "--log-iterates", "--out", str(out), "--quiet"])
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "converged"
    assert summary["final_residual"] <= 1e-8
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "k,F,step_norm,prox_residual,max_staleness,delta_k"
    assert os.path.exists(out / "iterates.csv")


def test_solve_outputs_are_deterministic(l1_setup):
    problem, tmp = l1_setup
    args = ["solve", "--problem", problem, "--tau", "3", "--schedule-kind",
            "uniform_random", "--seed", "7", "--max-iters", "2000", "--quiet"]
    run(args + ["--out", str(tmp / "a")])
    run(args + ["--out", str(tmp / "b")])
    for name in ("trace.csv", "summary.json"):
        assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes()


def test_zero_delay_trace_matches_reference_loop(l1_setup):
    problem, tmp = l1_setup
    base = ["solve", "--problem", problem, "--tau", "0", "--max-iters", "1000",
            "--quiet"]
    run(base + ["--out", str(tmp / "piag_run")])
    run(base + ["--reference-fbs", "--out", str(tmp / "fbs_run")])
    assert (tmp / "piag_run" / "trace.csv").read_bytes() == \
        (tmp / "fbs_run" / "trace.csv").read_bytes()


def test_solve_oversized_stepsize_never_crashes(tmp_path):
    gen = tmp_path / "g"
    run(["generate", "--family", "box", "--components", "2", "--dimension", "3",
         "--seed", "3", "--negative-curvature", "0.8", "--out", str(gen), "--quiet"])
    meta = json.loads((gen / "problem_meta.json").read_text())
    alpha = 10.0 / meta["L"]
    rc = run(["solve", "--problem", str(gen / "problem.json"), "--alpha", str(alpha),
              "--max-iters", "5000", "--out", str(tmp_path / "r"), "--quiet"])
    assert rc in (0, 2, 3)


def test_solve_exit_code_on_budget_exhaustion(l1_setup):
    problem, tmp = l1_setup
    rc = run(["solve", "--problem", problem, "--tau", "1", "--max-iters", "3",
              "--tol", "1e-14", "--out", str(tmp / "short"), "--quiet"])
    assert rc == 2


def test_verify_clean_run(l1_setup, capsys):
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--tau", "2", "--max-iters", "3000",
         "--log-iterates", "--out", str(out), "--quiet"])
    rc = run(["verify", "--problem", problem, "--run", str(out)])
    assert rc == 0
    reports = json.loads((out / "verify.json").read_text())["reports"]
    assert {r["name"] for r in reports} == {"sufficient_descent", "summability"}
    assert all(r["violations"] == 0 for r in reports)
    assert "violations=0" in capsys.readouterr().out


def test_verify_flags_corrupted_iterates(l1_setup, capsys):
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--tau", "2", "--max-iters", "3000",
         "--log-iterates", "--out", str(out), "--quiet"])
    lines = (out / "iterates.csv").read_text().splitlines()
    mid = len(lines) // 2
    parts = lines[mid].split(",")
    parts[1] = str(float(parts[1]) + 40.0)
    lines[mid] = ",".join(parts)
    (out / "iterates.csv").write_text("\n".join(lines) + "\n")
    rc = run(["verify", "--problem", problem, "--run", str(out), "--quiet"])
    assert rc == 4
    assert "k=" in capsys.readouterr().err


def test_verify_requires_iterate_log(l1_setup, capsys):
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--tau", "1", "--max-iters", "500",
         "--out", str(out), "--quiet"])
    rc = run(["verify", "--problem", problem, "--run", str(out), "--quiet"])
    assert rc == 1
    assert "missing-iterates" in capsys.readouterr().err


def test_a_solve_without_log_iterates_removes_an_older_iterate_log(l1_setup, capsys):
    # verify checked the first run's iterates against the second run's alpha
    # and tau, and passed them.
    problem, tmp = l1_setup
    out = tmp / "r"
    assert run(["solve", "--problem", problem, "--tau", "2", "--log-iterates",
                "--out", str(out), "--quiet"]) == 0
    assert run(["solve", "--problem", problem, "--tau", "0", "--alpha", "0.5",
                "--out", str(out), "--quiet"]) != 1
    assert not (out / "iterates.csv").exists()
    assert run(["verify", "--problem", problem, "--run", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == (f"piag: error: missing-iterates: no iterates.csv in {out}; "
                                       "re-run solve with --log-iterates\n")


def test_verify_rejects_empty_iterate_log(l1_setup, capsys):
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--tau", "1", "--max-iters", "500",
         "--log-iterates", "--out", str(out), "--quiet"])
    (out / "iterates.csv").write_text("k,x_0,x_1,x_2,x_3\n")
    rc = run(["verify", "--problem", problem, "--run", str(out), "--quiet"])
    assert rc == 1
    assert "empty" in capsys.readouterr().err


def test_rate_command(l1_setup):
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--tau", "2", "--max-iters", "3000",
         "--config", _write_config(tmp, {"trace_every": 1}), "--out", str(out),
         "--quiet"])
    rc = run(["rate", "--run", str(out), "--quiet"])
    assert rc == 0
    fit = json.loads((out / "rate.json").read_text())
    assert 0.0 < fit["rate"] < 1.0
    assert fit["log_linear_r2"] > 0.9
    assert fit["transient_skip"] == 15  # five delay windows of tau + 1 = 3 iterations


def _write_config(tmp, extra):
    cfg = dict(extra)
    path = tmp / f"config_{abs(hash(json.dumps(cfg, sort_keys=True)))}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_compare_delays_and_zero_delay_consistency(l1_setup):
    problem, tmp = l1_setup
    cmp_dir = tmp / "cmp"
    rc = run(["compare-delays", "--problem", problem, "--tau-list", "0,2,5",
              "--max-iters", "20000", "--out", str(cmp_dir), "--quiet"])
    assert rc == 0
    table = (cmp_dir / "compare_delays.csv").read_text().splitlines()
    assert table[0] == "tau,alpha,iters_to_tol,fitted_rate"
    rows = [line.split(",") for line in table[1:]]
    assert [r[0] for r in rows] == ["0", "2", "5"]
    assert all(int(r[2]) > 0 for r in rows)        # all converged
    assert all(float(r[3]) < 1.0 for r in rows)    # rate column populated

    cfg = _write_config(tmp, {"trace_every": 1, "alpha": "auto_lemma2",
                              "max_iters": 20000, "tol": 1e-8})
    run(["solve", "--problem", problem, "--tau", "0", "--config", cfg,
         "--out", str(tmp / "solo"), "--quiet"])
    assert (tmp / "solo" / "trace.csv").read_bytes() == \
        (cmp_dir / "tau_0" / "trace.csv").read_bytes()


def test_config_file_validation(l1_setup, capsys):
    problem, tmp = l1_setup
    bad = tmp / "bad.json"
    bad.write_text('{"alpha": 0.1, "step": 5}')
    rc = run(["solve", "--problem", problem, "--config", str(bad),
              "--out", str(tmp / "x"), "--quiet"])
    assert rc == 1
    assert "bad-config" in capsys.readouterr().err

    bad.write_text('{"alpha": 0.1,\n  "tau": }')
    rc = run(["solve", "--problem", problem, "--config", str(bad),
              "--out", str(tmp / "x"), "--quiet"])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_bad_x0_dimension(l1_setup, capsys):
    problem, tmp = l1_setup
    rc = run(["solve", "--problem", problem, "--x0", "1.0,2.0",
              "--out", str(tmp / "x"), "--quiet"])
    assert rc == 1
    assert "x0" in capsys.readouterr().err


def test_missing_problem_file(tmp_path, capsys):
    rc = run(["solve", "--problem", str(tmp_path / "nope.json"),
              "--out", str(tmp_path), "--quiet"])
    assert rc == 1
    assert "missing-file" in capsys.readouterr().err


def test_compare_delays_removes_the_runs_of_an_earlier_sweep(l1_setup):
    # A second sweep into one --out left tau_2/ beside a table listing tau = 0 only.
    problem, tmp = l1_setup
    out = tmp / "cmp"
    sweep = ["compare-delays", "--problem", problem, "--max-iters", "30", "--out", str(out),
             "--quiet", "--tau-list"]
    assert run([*sweep, "0,2,3"]) == 0
    assert run(["rate", "--run", str(out / "tau_2"), "--quiet"]) == 0
    (out / "tau_3" / "notes.txt").write_text("not piag's")
    for name in ("tau_02", "tau_x", "runs"):  # no tau_<t> that a sweep writes
        (out / name).mkdir()
        (out / name / "trace.csv").write_text("")
    (out / "tau_4").write_text("")
    assert run([*sweep, "0"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "compare_delays.csv", "runs", "tau_0", "tau_02", "tau_3", "tau_4", "tau_x"]
    assert [p.name for p in (out / "tau_3").iterdir()] == ["notes.txt"]
    assert all((out / name / "trace.csv").exists() for name in ("tau_02", "tau_x", "runs"))
    assert (out / "compare_delays.csv").read_text().splitlines()[1].startswith("0,")


def test_compare_delays_refuses_a_repeated_tau(l1_setup, capsys):
    # The second tau_0 run would overwrite the first, and the table would
    # hold two rows for it.
    problem, tmp = l1_setup
    rc = run(["compare-delays", "--problem", problem, "--tau-list", "2,0,00", "--out",
              str(tmp / "cmp"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "piag: error: bad-usage: tau 0 is repeated in the tau list '2,0,00'\n")
    assert not (tmp / "cmp").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_a_matrix_entry_near_the_largest_float(tmp_path):
    # An exactly symmetric matrix is kept as written: its symmetrized copy
    # 0.5 * (A + A.T) would overflow to inf, and L with it.
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"dimension": 1, "components": [{"A": [1e308], "b": [0.0]}],
                                "nonsmooth": {"kind": "l1", "lambda": 0.1}}))
    out = tmp_path / "r"
    assert run(["solve", "--problem", str(path), "--log-iterates", "--out", str(out),
                "--quiet"]) == 0
    summary = _summary(out)
    assert summary["constants"]["L"] == 1e308 and summary["termination"] == "converged"


def test_usage_error_exits_one(capsys):
    rc = run(["solve"])  # missing --problem
    assert rc == 1
    assert "bad-usage" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "--problem", "p.json", "--run", "r"],
                                     ["rate", "--run", "r"]], ids=["verify", "rate"])
@pytest.mark.parametrize("flag", [["--out", "elsewhere"], ["--seed", "3"]], ids=["out", "seed"])
def test_verify_and_rate_reject_out_and_seed(tmp_path, capsys, command, flag):
    # Both read and write only the run directory and draw no random numbers.
    rc = run([*command, *flag, "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("piag: error: bad-usage:")


def _one_d_box_problem(tmp_path, nonsmooth):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({
        "dimension": 1,
        "components": [{"A": [-1.0], "b": [0.0]}],
        "nonsmooth": nonsmooth,
    }))
    return str(path)


def test_solve_one_d_box_instance(tmp_path):
    problem = _one_d_box_problem(tmp_path, {"kind": "box", "lo": -1.0, "hi": 1.0})
    rc = run(["solve", "--problem", problem, "--x0", "0.3",
              "--max-iters", "20000", "--out", str(tmp_path / "r"), "--quiet"])
    assert rc == 0
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary["termination"] == "converged"
    assert summary["final_objective"] == pytest.approx(-0.5, abs=1e-9)


# In-process, pytest captures numpy's warnings instead of letting them reach
# stderr, so the CLI's silence is checked by making them errors.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_divergence_exit_code(tmp_path, capsys):
    # concave objective with no constraint: an oversized stepsize blows up
    problem = _one_d_box_problem(tmp_path, {"kind": "zero"})
    out = tmp_path / "r"
    rc = run(["solve", "--problem", problem, "--x0", "1.0", "--alpha", "5.0",
              "--max-iters", "100000", "--log-iterates", "--out", str(out), "--quiet"])
    assert rc == 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["termination"] == "diverged"
    assert (out / "trace.csv").read_text().endswith("\n200,-inf,0,inf,0,0\n")
    # The last two replayed F are -inf, so the last two slacks are not finite.
    assert run(["verify", "--problem", problem, "--run", str(out), "--quiet"]) == 4
    assert run(["rate", "--run", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "piag: verify: inequality violated at k=198\n"
        f"piag: error: bad-trace: {out / 'trace.csv'}: line 22: F is -inf, not a finite number\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("runner", [[], ["--reference-fbs"]], ids=["solve", "reference-fbs"])
def test_non_finite_step_is_divergence(tmp_path, runner):
    # The first step already overflows, so the loop stops inside the step.
    problem = _one_d_box_problem(tmp_path, {"kind": "zero"})
    out = tmp_path / "r"
    rc = run(["solve", "--problem", problem, "--x0", "1.0", "--alpha", "1e200", *runner,
              "--out", str(out), "--quiet"])
    assert rc == 3
    assert _summary(out)["iterations"] == 1
    assert (out / "trace.csv").read_text().splitlines()[-1] == "1,-inf,0,inf,0,0"


def test_non_finite_problem_data_is_bad_problem(tmp_path, capsys):
    # json writes and reads the non-finite floats as Infinity and NaN
    for name, A, b in (("inf_b", [1.0], [math.inf]), ("nan_A", [math.nan], [0.0])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"dimension": 1, "components": [{"A": A, "b": b}],
                                    "nonsmooth": {"kind": "zero"}}))
        rc = run(["solve", "--problem", str(path), "--out", str(tmp_path / name), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("piag: error: bad-problem:") and "finite" in err


@pytest.mark.parametrize("flags", [["--max-iters", "-5"], ["--tol", "nan"], ["--tau", "-1"],
                                   ["--alpha", "auto_c8"]])
def test_out_of_range_solver_settings_are_bad_config(l1_setup, capsys, flags):
    problem, tmp = l1_setup
    rc = run(["solve", "--problem", problem, *flags, "--out", str(tmp / "x"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("piag: error: bad-config:")


def test_large_tau_gives_an_overflowed_c7_and_a_zero_cap(l1_setup):
    # (1 + 1/c0^2)^tau exceeds the largest float at tau 200 and c0 0.01
    problem, tmp = l1_setup
    out = tmp / "run"
    rc = run(["solve", "--problem", problem, "--tau", "200", "--c0", "0.01", "--max-iters", "30",
              "--out", str(out), "--quiet"])
    assert rc == 2
    constants = _summary(out)["constants"]
    assert constants["c7"] == math.inf and constants["c8"] == 0.0


@pytest.mark.parametrize("settings", [["--alpha", "auto_c8"], ["--config", "enforce"]],
                         ids=["auto_c8", "enforce_theory"])
def test_a_certified_cap_of_zero_is_bad_config_naming_tau(l1_setup, capsys, settings):
    problem, tmp = l1_setup
    if settings[0] == "--config":
        settings = ["--config", _write_config(tmp, {"alpha": 0.01, "enforce_theory": True})]
    out = tmp / "run"
    rc = run(["solve", "--problem", problem, "--tau", "200", "--c0", "0.01", *settings,
              "--out", str(out), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == ("piag: error: bad-config: tau: the certified stepsize cap "
                                       "c8 rounds to 0 at tau 200 and c0 0.01\n")
    assert not out.exists() or not any(out.iterdir())


def test_tau_longer_than_any_step_window_is_bad_config(l1_setup, capsys):
    problem, tmp = l1_setup
    config = tmp / "config.json"
    config.write_text('{"tau": ' + "9" * 400 + ', "schedule": {"kind": "cyclic", "block": 1}}')
    out = tmp / "run"
    rc = run(["solve", "--problem", problem, "--config", str(config), "--out", str(out),
              "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (f"piag: error: bad-config: tau: must be at most "
                                       f"{sys.maxsize}, the longest step window\n")
    assert not out.exists()


def test_verify_takes_the_longest_step_window(l1_setup, capsys):
    # The replayed window sums must not allocate or loop over tau entries.
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--tau", str(sys.maxsize), "--max-iters", "20",
         "--log-iterates", "--out", str(out), "--quiet"])
    assert run(["verify", "--problem", problem, "--run", str(out), "--quiet"]) == 0
    summary = _summary(out)
    summary["schedule"]["tau"] += 1
    (out / "summary.json").write_text(json.dumps(summary))
    assert run(["verify", "--problem", problem, "--run", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("piag: error: bad-summary:")


def test_x0_outside_the_box_is_bad_config(tmp_path, capsys):
    problem = _one_d_box_problem(tmp_path, _BOX_1D)
    rc = run(["solve", "--problem", problem, "--x0", "2.0", "--out", str(tmp_path / "r"),
              "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "piag: error: bad-config: x0 lies outside the domain of the nonsmooth term\n")
    assert not (tmp_path / "r").exists()


def test_summary_without_schedule_is_bad_summary(l1_setup, capsys):
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--tau", "2", "--max-iters", "3000",
         "--log-iterates", "--config", _write_config(tmp, {"trace_every": 1}),
         "--out", str(out), "--quiet"])
    summary = json.loads((out / "summary.json").read_text())
    del summary["schedule"]
    (out / "summary.json").write_text(json.dumps(summary))
    for args in (["verify", "--problem", problem], ["rate"]):
        rc = run([*args, "--run", str(out), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("piag: error: bad-summary:")


@pytest.mark.parametrize("tau", ["1e309", "-1e309", "NaN"])
def test_summary_with_non_finite_tau_is_bad_summary(l1_setup, capsys, tau):
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--tau", "2", "--max-iters", "30", "--log-iterates",
         "--out", str(out), "--quiet"])
    path = out / "summary.json"
    path.write_text(re.sub(r'"tau": 2\b', f'"tau": {tau}', path.read_text()))
    for args in (["verify", "--problem", problem], ["rate"]):
        assert run([*args, "--run", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"piag: error: bad-summary: {path}: needs numeric 'alpha' and 'schedule.tau'\n")


@pytest.mark.parametrize("field, value", [("alpha", True), ("tau", 2.7), ("tau", True),
                                          ("alpha", "0.01")])
def test_summary_value_of_the_wrong_type_is_bad_summary(l1_setup, capsys, field, value):
    # Each was read as a converted value: true as 1.0 or 1, 2.7 as 2, "0.01" as 0.01.
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--tau", "2", "--max-iters", "30", "--log-iterates",
         "--out", str(out), "--quiet"])
    path = out / "summary.json"
    summary = json.loads(path.read_text())
    (summary["schedule"] if field == "tau" else summary)[field] = value
    path.write_text(json.dumps(summary))
    for args in (["verify", "--problem", problem], ["rate"]):
        assert run([*args, "--run", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == (
            f"piag: error: bad-summary: {path}: needs numeric 'alpha' and 'schedule.tau'\n")


def test_unparsable_summary_is_bad_summary(l1_setup, capsys):
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--max-iters", "30", "--log-iterates",
         "--out", str(out), "--quiet"])
    (out / "summary.json").write_text("{not json")
    for args in (["verify", "--problem", problem], ["rate"]):
        rc = run([*args, "--run", str(out), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"piag: error: bad-summary: {out / 'summary.json'}: line 1: "
            "Expecting property name enclosed in double quotes\n")


def _summary(run_dir):
    return json.loads((run_dir / "summary.json").read_text())


def test_schedule_flags_override_config_schedule(tmp_path):
    gen = tmp_path / "gen"
    run(["generate", "--family", "l1", "--components", "6", "--dimension", "4",
         "--seed", "3", "--out", str(gen), "--quiet"])
    cfg = _write_config(tmp_path, {"schedule": {"kind": "cyclic", "block": 3}, "tau": 2})
    out = tmp_path / "run"
    run(["solve", "--problem", str(gen / "problem.json"), "--config", cfg,
         "--schedule-kind", "cyclic", "--block", "6", "--max-iters", "50",
         "--out", str(out), "--quiet"])
    assert _summary(out)["schedule"] == {"kind": "cyclic", "tau": 2, "block": 6}


@pytest.mark.parametrize("config, flags, kind", [
    (None, ["--tau", "0", "--block", "3"], "none"),
    ({"schedule": {"kind": "cyclic", "block": 3}, "tau": 2},
     ["--schedule-kind", "adversarial_max", "--block", "6"], "adversarial_max"),
], ids=["none", "adversarial_max-over-config"])
def test_a_block_for_a_schedule_other_than_cyclic_is_refused(l1_setup, capsys, config, flags,
                                                             kind):
    # The run went ahead and wrote into summary.json a block it never read.
    problem, tmp = l1_setup
    given = ["--config", _write_config(tmp, config)] if config else []
    out = tmp / "run"
    assert run(["solve", "--problem", problem, *given, *flags, "--out", str(out),
                "--quiet"]) == 1
    assert capsys.readouterr().err == (
        f"piag: error: bad-config: schedule: block is for the cyclic schedule only, not {kind}\n")
    assert not out.exists()


def test_seed_flag_overrides_config_schedule_seed(l1_setup):
    problem, tmp = l1_setup
    cfg = _write_config(tmp, {"schedule": {"kind": "uniform_random", "tau": 2, "seed": 3}})
    out = tmp / "run"
    run(["solve", "--problem", problem, "--config", cfg, "--seed", "9",
         "--max-iters", "50", "--out", str(out), "--quiet"])
    assert _summary(out)["schedule"]["seed"] == 9


def test_config_cyclic_schedule_without_block_gets_default_block(l1_setup):
    problem, tmp = l1_setup
    cfg = _write_config(tmp, {"schedule": {"kind": "cyclic"}, "tau": 2})
    out = tmp / "run"
    rc = run(["solve", "--problem", problem, "--config", cfg, "--max-iters", "50",
              "--out", str(out), "--quiet"])
    assert rc in (0, 2)
    assert _summary(out)["schedule"] == {"kind": "cyclic", "tau": 2, "block": 1}


def test_config_schedule_takes_tau_and_seed_from_the_top_level(l1_setup):
    problem, tmp = l1_setup
    cfg = _write_config(tmp, {"schedule": {"kind": "uniform_random"}, "tau": 2, "seed": 7})
    out = tmp / "run"
    run(["solve", "--problem", problem, "--config", cfg, "--max-iters", "50",
         "--out", str(out), "--quiet"])
    assert _summary(out)["schedule"] == {"kind": "uniform_random", "tau": 2, "seed": 7}


def test_config_schedule_with_an_unknown_field_is_bad_config(l1_setup, capsys):
    problem, tmp = l1_setup
    cfg = _write_config(tmp, {"schedule": {"kind": "none", "tau": 0, "rate": 1}})
    rc = run(["solve", "--problem", problem, "--config", cfg, "--out", str(tmp / "x"),
              "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == "piag: error: bad-config: schedule: unknown field(s) ['rate']\n"


def test_compare_delays_out_of_range_setting_is_bad_config(l1_setup, capsys):
    problem, tmp = l1_setup
    rc = run(["compare-delays", "--problem", problem, "--tau-list", "0,2", "--tol", "nan",
              "--out", str(tmp / "cmp"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("piag: error: bad-config:")
    assert not (tmp / "cmp").exists()


@pytest.mark.parametrize("flags, message", [
    (["--tau-list", "0,2", "--x0", "1,2"], "x0 has 2 entries, problem dimension is 4"),
    (["--tau-list", "0," + "9" * 20],
     f"tau: must be at most {sys.maxsize}, the longest step window"),
], ids=["x0-of-another-dimension", "second-tau-too-long"])
def test_a_refused_compare_delays_runs_no_tau(l1_setup, capsys, flags, message):
    # Every tau's settings are checked before the first run: the second
    # case wrote tau_0's trace and summary, and both left the --out directory.
    problem, tmp = l1_setup
    rc = run(["compare-delays", "--problem", problem, *flags, "--out", str(tmp / "cmp"),
              "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == f"piag: error: bad-config: {message}\n"
    assert not (tmp / "cmp").exists()


@pytest.mark.parametrize("command, code", [
    (["solve", "--problem", "{problem}", "--config", "{tmp}/missing.json", "--out", "{out}"],
     "missing-file"),
    (["verify", "--problem", "{problem}", "--run", "{tmp}/empty"], "missing-file"),
    (["rate", "--run", "{tmp}/empty"], "missing-file"),
    (["rate", "--run", "{tmp}/run", "--skip", "-1"], "bad-config"),
    (["compare-delays", "--problem", "{problem}", "--tau-list", "0,x", "--out", "{out}"],
     "bad-usage"),
    (["compare-delays", "--problem", "{problem}", "--tau-list", "0,-1", "--out", "{out}"],
     "bad-usage"),
    (["solve", "--problem", "{tmp}/dimension0.json", "--out", "{out}"], "bad-problem"),
    (["solve", "--problem", "{tmp}/empty", "--out", "{out}"], "missing-file"),
    (["solve", "--problem", "{problem}", "--config", "{tmp}/empty", "--out", "{out}"],
     "missing-file"),
    (["verify", "--problem", "{problem}", "--run", "{tmp}/hollow"], "missing-file"),
    (["verify", "--problem", "{problem}", "--run", "{tmp}/run"], "missing-iterates"),
    (["rate", "--run", "{tmp}/hollow"], "missing-file"),
], ids=["missing-config", "verify-without-summary", "rate-without-trace", "negative-skip",
        "tau-not-an-integer", "negative-tau", "dimension-0", "problem-is-a-directory",
        "config-is-a-directory", "summary-is-a-directory", "iterates-is-a-directory",
        "trace-is-a-directory"])
def test_an_error_exit_prints_one_line_and_writes_nothing(l1_setup, capsys, command, code):
    problem, tmp = l1_setup
    assert run(["solve", "--problem", problem, "--max-iters", "50", "--out", str(tmp / "run"),
                "--quiet"]) in (0, 2)
    # A directory where a file is read is missing, not an OS error.
    for folder in ("empty", "hollow/summary.json", "hollow/trace.csv", "run/iterates.csv"):
        (tmp / folder).mkdir(parents=True)
    (tmp / "dimension0.json").write_text(json.dumps(
        {"dimension": 0, "components": [_GOOD_COMPONENT], "nonsmooth": {"kind": "zero"}}))
    files = sorted(tmp.rglob("*"))
    capsys.readouterr()
    rc = run([arg.format(problem=problem, tmp=tmp, out=tmp / "out") for arg in command]
             + ["--quiet"])
    assert rc == 1
    assert re.fullmatch(f"piag: error: {code}: [^\n]+\n", capsys.readouterr().err)
    assert sorted(tmp.rglob("*")) == files


_BOX_1D = {"kind": "box", "lo": -1.0, "hi": 1.0}
_GOOD_COMPONENT = {"A": [1.0], "b": [0.0]}


@pytest.mark.parametrize("spec", [
    {"dimension": 1, "components": [_GOOD_COMPONENT], "nonsmooth": {"kind": "box", "hi": 1.0}},
    {"dimension": 1, "components": [{"b": [0.0]}], "nonsmooth": _BOX_1D},
    {"dimension": 1, "components": [{"A": [1.0]}], "nonsmooth": _BOX_1D},
    {"dimension": 1, "components": 3, "nonsmooth": _BOX_1D},
    {"dimension": 1, "components": [3], "nonsmooth": _BOX_1D},
    {"dimension": 2.5, "components": [{"A": [1.0, 0.0, 0.0, 1.0], "b": [0.0, 0.0]}],
     "nonsmooth": {"kind": "zero"}},
    {"dimension": 1, "components": [_GOOD_COMPONENT],
     "nonsmooth": {"kind": "box", "lo": [-1.0, -1.0], "hi": 1.0}},
    {"dimension": 1, "components": [_GOOD_COMPONENT],
     "nonsmooth": {"kind": "l1", "lambda": math.nan}},
    {"dimension": 1, "components": [_GOOD_COMPONENT],
     "nonsmooth": {"kind": "box", "lo": math.nan, "hi": 1.0}},
    {"dimension": 3, "components": [{"A": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0], "b": [0, 0, 0]}],
     "nonsmooth": {"kind": "box", "lo": [-1.0, -1.0, -1.0], "hi": [1.0, 1.0]}},
], ids=["box-without-lo", "component-without-A", "component-without-b",
        "components-not-a-list", "component-not-an-object", "fractional-dimension",
        "lo-of-wrong-length", "nan-lambda", "nan-lo", "lo-hi-of-different-lengths"])
def test_malformed_problem_file_is_bad_problem(tmp_path, capsys, spec):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(spec))
    rc = run(["solve", "--problem", str(path), "--out", str(tmp_path / "r"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("piag: error: bad-problem:") and "Traceback" not in err


_HUGE = 10**400  # a JSON integer that no float holds


@pytest.mark.parametrize("path, value, field", [
    (("nonsmooth", "lambda"), True, "nonsmooth.lambda"),
    (("nonsmooth", "lambda"), "0.5", "nonsmooth.lambda"),
    (("nonsmooth", "lo"), "-1", "nonsmooth.lo"),
    (("components", 0, "A"), ["1.0"], "components[0].A"),
    (("components", 0, "b"), [False], "components[0].b"),
    (("components", 0, "c0_term"), "2", "components[0].c0_term"),
    (("components", 0, "A"), [_HUGE], "components[0].A"),
    (("nonsmooth", "lambda"), _HUGE, "nonsmooth.lambda"),
], ids=["lambda-true", "lambda-string", "lo-string", "A-string-entry", "b-false-entry",
        "c0-term-string", "A-huge-integer", "lambda-huge-integer"])
def test_problem_value_of_the_wrong_json_kind_is_bad_problem(tmp_path, capsys, path, value,
                                                             field):
    # Each was converted and solved: true as 1.0, "0.5" as 0.5; a huge integer
    # escaped as an OverflowError traceback.
    spec = {"dimension": 1, "components": [{"A": [1.0], "b": [0.0]}],
            "nonsmooth": {"kind": "box_plus_l1", "lo": -1.0, "hi": 1.0, "lambda": 0.5}}
    target = spec
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    problem = tmp_path / "p.json"
    problem.write_text(json.dumps(spec))
    rc = run(["solve", "--problem", str(problem), "--out", str(tmp_path / "r"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"piag: error: bad-problem: {field}: must be ")


@pytest.mark.parametrize("field", ["tol", "c0", "alpha", "x0"])
def test_config_integer_too_large_for_a_float_is_bad_config(l1_setup, capsys, field):
    problem, tmp = l1_setup
    config = _write_config(tmp, {field: [_HUGE, 0, 0, 0] if field == "x0" else _HUGE})
    rc = run(["solve", "--problem", problem, "--config", config, "--out", str(tmp / "x"),
              "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"piag: error: bad-config: {field}: must be ")


@pytest.mark.parametrize("flags", [["--c0", "0"], ["--c0", "-1"], ["--c0", "nan"]])
def test_c0_out_of_range_stops_the_run_before_it_writes(l1_setup, capsys, flags):
    # The run used to go to the end, write trace.csv, and fail as bad-input
    # when summary.json needed the rate constants.
    problem, tmp = l1_setup
    out = tmp / "run"
    rc = run(["solve", "--problem", problem, *flags, "--out", str(out), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "piag: error: bad-config: error-bound constant c0 must be positive and finite\n")
    assert not out.exists()


@pytest.mark.parametrize("alpha", [[], ["--alpha", "auto_c8"]], ids=["lemma2", "c8"])
@pytest.mark.parametrize("c0", ["1e-155", "1e-170", "5e-324", "1e155"])
def test_c0_whose_square_is_not_a_normal_float_stops_the_run_before_it_writes(
        l1_setup, capsys, alpha, c0):
    # 1e-155 overflowed (L alpha / c0) ** 2 after trace.csv was written, and
    # 1e-170 divided by c0 * c0, which underflows to 0.
    problem, tmp = l1_setup
    out = tmp / "run"
    rc = run(["solve", "--problem", problem, *alpha, "--c0", c0, "--out", str(out), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "piag: error: bad-config: error-bound constant c0 must lie between about 1.5e-154 and "
        f"1.3e154, so that c0*c0 is a normal float, got {float(c0)!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("source", [["--alpha", "inf"], {"alpha": math.inf}],
                         ids=["flag", "config"])
def test_infinite_stepsize_is_bad_config(l1_setup, capsys, source):
    # It was accepted, and the run diverged with exit 3.
    problem, tmp = l1_setup
    if isinstance(source, dict):
        source = ["--config", _write_config(tmp, source)]
    rc = run(["solve", "--problem", problem, *source, "--out", str(tmp / "r"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "piag: error: bad-config: stepsize must be positive and finite\n")


@pytest.mark.parametrize("schedule", [[], ["--tau", "2", "--schedule-kind", "uniform_random"]],
                         ids=["default", "uniform-random"])
def test_negative_seed_is_bad_config_naming_the_seed(l1_setup, capsys, schedule):
    # uniform_random reported numpy's "expected non-negative integer", which
    # names no field; the default schedule took the seed silently.
    problem, tmp = l1_setup
    rc = run(["solve", "--problem", problem, "--seed", "-3", *schedule, "--out", str(tmp / "r"),
              "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == "piag: error: bad-config: schedule: seed must be nonnegative\n"


@pytest.mark.parametrize("damage", [lambda text: text[: len(text) // 2],
                                    lambda text: text.replace('"nonsmooth"', '"smooth"')],
                         ids=["truncated", "renamed-field"])
def test_malformed_problem_file_with_stale_sidecar_is_bad_problem(l1_setup, capsys, damage):
    problem, tmp = l1_setup
    assert os.path.exists(problem + ".npz")
    with open(problem) as fh:
        text = fh.read()
    with open(problem, "w") as fh:
        fh.write(damage(text))
    rc = run(["solve", "--problem", problem, "--out", str(tmp / "r"), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("piag: error: bad-problem:") and "Traceback" not in err


def test_solve_outputs_do_not_depend_on_the_sidecar(l1_setup):
    problem, tmp = l1_setup
    args = ["solve", "--problem", problem, "--tau", "2", "--max-iters", "300",
            "--log-iterates", "--quiet"]
    run(args + ["--out", str(tmp / "a")])
    os.remove(problem + ".npz")
    run(args + ["--out", str(tmp / "b")])
    for name in ("trace.csv", "summary.json", "iterates.csv"):
        assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes()


def _non_numeric_first_coordinate(row):
    k, _, *rest = row.split(",")
    return ",".join([k, "abc", *rest])


@pytest.mark.parametrize("corrupt", [lambda row: row + ",0.5", _non_numeric_first_coordinate],
                         ids=["extra-column", "non-numeric-column"])
def test_malformed_iterate_row_is_bad_iterates(l1_setup, capsys, corrupt):
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--tau", "1", "--max-iters", "20",
         "--log-iterates", "--out", str(out), "--quiet"])
    lines = (out / "iterates.csv").read_text().splitlines()
    lines[3] = corrupt(lines[3])
    (out / "iterates.csv").write_text("\n".join(lines) + "\n")
    rc = run(["verify", "--problem", problem, "--run", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("piag: error: bad-iterates:") and "line 4" in err


@pytest.mark.parametrize("damage, k", [(lambda lines: lines[:4] + lines[5:], "4"),
                                      (lambda lines: lines[:4] + ["7" + lines[4][1:]] + lines[5:],
                                       "7")], ids=["deleted-row", "renumbered-row"])
def test_iterate_row_out_of_order_is_bad_iterates(l1_setup, capsys, damage, k):
    # Without the k check a deleted row makes two iterates look like one
    # step, and the descent report names a row index instead of a logged k.
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--tau", "2", "--max-iters", "20",
         "--log-iterates", "--out", str(out), "--quiet"])
    path = out / "iterates.csv"
    path.write_text("".join(line + "\n" for line in damage(path.read_text().splitlines())))
    rc = run(["verify", "--problem", problem, "--run", str(out), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"piag: error: bad-iterates: {path}: line 5: k is {k}, expected 3\n")
    assert not (out / "verify.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_iterate_is_bad_iterates(l1_setup, capsys, value):
    # A log that solve wrote holds only finite iterates; one that does not is
    # corrupt, and the descent checks would count nothing on it.
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--tau", "2", "--max-iters", "20",
         "--log-iterates", "--out", str(out), "--quiet"])
    path = out / "iterates.csv"
    lines = path.read_text().splitlines()
    for i, text in [(3, value), (6, "inf")]:
        k, _, *rest = lines[i].split(",")
        lines[i] = ",".join([k, text, *rest])
    path.write_text("\n".join(lines) + "\n")
    rc = run(["verify", "--problem", problem, "--run", str(out), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"piag: error: bad-iterates: {path}: line 4: the iterate is not finite\n")
    assert not (out / "verify.json").exists()


def test_rate_on_short_trace_is_short_trace(l1_setup, capsys):
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--tau", "0", "--max-iters", "30",
         "--out", str(out), "--quiet"])
    rc = run(["rate", "--run", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("piag: error: short-trace:")
    assert re.search(r"got \d+ ", err) and "trace_every" in err and "--skip" in err


@pytest.mark.parametrize("damage, code", [
    (lambda lines: ["k,F"] + lines[1:], "bad-trace"),
    (lambda lines: [], "bad-trace"),
    (lambda lines: lines[:3] + [lines[3] + ",0.5"] + lines[4:], "bad-trace"),
    (lambda lines: lines[:3] + [re.sub(",[^,]*", ",abc", lines[3], count=1)] + lines[4:],
     "bad-trace"),
    (lambda lines: lines[:1], "empty-trace"),
    (lambda lines: lines[:3] + [re.sub(",[^,]*", ",nan", lines[3], count=1)] + lines[4:],
     "bad-trace"),
], ids=["wrong-header", "empty-file", "extra-column", "non-numeric", "header-only", "nan"])
def test_rate_on_malformed_trace_names_the_file(l1_setup, capsys, damage, code):
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--tau", "1", "--max-iters", "200", "--out", str(out),
         "--quiet"])
    trace = out / "trace.csv"
    lines = damage(trace.read_text().splitlines())
    trace.write_text("".join(line + "\n" for line in lines))
    assert run(["rate", "--run", str(out), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"piag: error: {code}: {trace}: ")
    assert "Traceback" not in err


_TOO_HIGH = "nonpositive residuals: the limit estimate is too high"


@pytest.mark.parametrize("limit_of, message", [
    (lambda fs: repr(float(np.quantile(fs, 0.25))), _TOO_HIGH),
    (lambda fs: repr(max(fs) + 1.0), _TOO_HIGH),
    (lambda fs: "nan", "--limit-value: must be finite, got nan"),
    (lambda fs: "-inf", "--limit-value: must be finite, got -inf"),
], ids=["inside-the-records", "above-every-F", "nan", "minus-inf"])
def test_rate_limit_at_or_above_a_record_is_bad_config(l1_setup, capsys, limit_of, message):
    # An explicit limit is taken as given: a record at or below it is not
    # dropped, so the fit rejects the limit instead of fitting the rest.  A
    # NaN limit would pass the fit's residual check and give rate=nan.
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--tau", "2", "--config",
         _write_config(tmp, {"trace_every": 1}), "--out", str(out), "--quiet"])
    fs = [float(line.split(",")[1]) for line in (out / "trace.csv").read_text().splitlines()[1:]]
    assert run(["rate", "--run", str(out), f"--limit-value={limit_of(fs)}", "--quiet"]) == 1
    assert capsys.readouterr().err == f"piag: error: bad-config: {message}\n"
    assert run(["rate", "--run", str(out), f"--limit-value={min(fs) - 1.0!r}", "--quiet"]) == 0


def test_verify_above_descent_threshold_reports_descent_only(l1_setup, capsys):
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--alpha", "100", "--max-iters", "20",
         "--log-iterates", "--out", str(out), "--quiet"])
    rc = run(["verify", "--problem", problem, "--run", str(out), "--quiet"])
    assert capsys.readouterr().err.count("piag: error:") == 0
    result = json.loads((out / "verify.json").read_text())
    assert [r["name"] for r in result["reports"]] == ["sufficient_descent"]
    assert result["summability"].startswith("not applicable: stepsize 100 ")
    assert rc == (4 if result["violations_total"] else 0)


def test_solve_and_verify_agree_at_the_descent_threshold(tmp_path, capsys):
    # At alpha equal to the threshold, solve warned while verify divided by a
    # summability denominator of 1.8e-15 and checked the bound.
    gen, out = tmp_path / "g", tmp_path / "run"
    assert run(["generate", "--family", "l1", "--components", "6", "--dimension", "12",
                "--seed", "1", "--out", str(gen), "--quiet"]) == 0
    alpha = stepsize_threshold(*smoothness_totals(load_problem(gen / "problem.json")), 2)
    assert run(["solve", "--problem", str(gen / "problem.json"), "--tau", "2", "--alpha",
                repr(alpha), "--log-iterates", "--max-iters", "300", "--out", str(out),
                "--quiet"]) == 0
    warning = json.loads((out / "summary.json").read_text())["warnings"]
    assert warning == [f"stepsize {alpha:.6g} is not below the descent threshold {alpha:.6g}; "
                       "descent and summability guarantees do not apply"]
    assert run(["verify", "--problem", str(gen / "problem.json"), "--run", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"summability: not applicable: stepsize {alpha:.6g} is not below the descent "
        f"threshold {alpha:.6g}")


@pytest.mark.parametrize("config, field", [({"tol": None}, "tol"), ({"alpha": "fast"}, "alpha"),
                                           ({"x0": 5}, "x0")], ids=["tol", "alpha", "x0"])
def test_unconvertible_config_value_names_its_field(l1_setup, capsys, config, field):
    problem, tmp = l1_setup
    rc = run(["solve", "--problem", problem, "--config", _write_config(tmp, config),
              "--out", str(tmp / "x"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"piag: error: bad-config: {field}: ")


@pytest.mark.parametrize("nonsmooth", [{"kind": "zero"}, {"kind": "l1", "lambda": 0.5}, _BOX_1D],
                         ids=["zero", "l1", "box"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_x0_is_bad_config(tmp_path, capsys, nonsmooth, value):
    problem = _one_d_box_problem(tmp_path, nonsmooth)
    for source in (["--x0", value], ["--config", _write_config(tmp_path, {"x0": [float(value)]})]):
        rc = run(["solve", "--problem", problem, *source, "--out", str(tmp_path / "r"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("piag: error: bad-config: x0: ")


@pytest.mark.parametrize("config, field", [
    ({"schedule": {"kind": "cyclic", "block": 1.5}, "tau": 2}, "schedule.block"),
    ({"schedule": {"kind": "cyclic", "tau": "2"}}, "schedule.tau"),
    ({"schedule": {"kind": "uniform_random", "seed": 1.5}, "tau": 2}, "schedule.seed"),
    ({"tau": 1.0}, "tau"),
    ({"tau": True}, "tau"),
    ({"max_iters": "50"}, "max_iters"),
    ({"max_iters": None}, "max_iters"),
    ({"trace_every": 2.5}, "trace_every"),
    ({"seed": False, "tau": 2, "schedule": {"kind": "uniform_random"}}, "seed"),
    ({"enforce_theory": "false", "c0": 1.0}, "enforce_theory"),
    ({"enforce_theory": 0}, "enforce_theory"),
], ids=["block-float", "schedule-tau-string", "schedule-seed-float", "tau-float", "tau-bool",
        "max-iters-string", "max-iters-null", "trace-every-float", "seed-bool",
        "enforce-theory-string", "enforce-theory-int"])
def test_config_value_of_wrong_json_type_is_bad_config(l1_setup, capsys, config, field):
    problem, tmp = l1_setup
    config = {"max_iters": 50, **config}
    rc = run(["solve", "--problem", problem, "--config", _write_config(tmp, config),
              "--out", str(tmp / "x"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"piag: error: bad-config: {field}: must be ")


@pytest.mark.parametrize("config, field", [
    ({"tol": True}, "tol"),
    ({"tol": "1e-8"}, "tol"),
    ({"c0": "0.5"}, "c0"),
    ({"c0": False}, "c0"),
    ({"alpha": "0.01"}, "alpha"),
    ({"alpha": True}, "alpha"),
    ({"alpha": None}, "alpha"),
    ({"x0": [True, 0, 0, 0]}, "x0"),
    ({"x0": [1, "2", 3, 4]}, "x0"),
    ({"x0": {"0": 1}}, "x0"),
], ids=["tol-bool", "tol-string", "c0-string", "c0-bool", "alpha-string", "alpha-bool",
        "alpha-null", "x0-bool-entry", "x0-string-entry", "x0-object"])
def test_float_config_value_of_wrong_json_type_is_bad_config(l1_setup, capsys, config, field):
    problem, tmp = l1_setup
    # The flags for the same fields must not hide the file's value.
    rc = run(["solve", "--problem", problem, "--config", _write_config(tmp, config),
              "--alpha", "0.01", "--tol", "1e-6", "--x0", "0,0,0,0", "--c0", "1",
              "--out", str(tmp / "x"), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"piag: error: bad-config: {field}: must be ")


def test_float_settings_from_flags_and_numbers_from_a_config_are_accepted(l1_setup):
    problem, tmp = l1_setup
    run(["solve", "--problem", problem, "--alpha", "0.01", "--tol", "1e-6", "--x0", "1,2,0,0",
         "--c0", "0.5", "--max-iters", "20", "--out", str(tmp / "flags"), "--quiet"])
    config = _write_config(tmp, {"alpha": 0.01, "tol": 1e-6, "x0": [1, 2.0, 0, 0], "c0": 0.5,
                                 "max_iters": 20})
    run(["solve", "--problem", problem, "--config", config, "--out", str(tmp / "file"),
         "--quiet"])
    for name in ("trace.csv", "summary.json"):
        assert (tmp / "flags" / name).read_bytes() == (tmp / "file" / name).read_bytes()
    assert _summary(tmp / "flags")["alpha"] == 0.01
    assert _summary(tmp / "flags")["constants"]["c0"] == 0.5


def test_generate_whose_worker_dies_leaves_the_old_problem_file(tmp_path, capsys, monkeypatch):
    # Ten matrices of 60 x 60 fill more than one block, so an encoder process writes them.
    args = ["generate", "--family", "l1", "--components", "10", "--dimension", "60",
            "--out", str(tmp_path), "--quiet"]
    assert run(args) == 0
    before = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    make = cli.problems.make_quadratic_l1
    monkeypatch.setattr(cli.problems, "make_quadratic_l1",
                        lambda *a, **k: with_last_matrix_as(make(*a, **k), KillsTheWorker))
    assert run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("piag: error: ") and "Traceback" not in err
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == before


def test_invalid_utf8_file_is_reported_with_its_path(l1_setup, capsys):
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--max-iters", "30", "--log-iterates",
         "--out", str(out), "--quiet"])
    summary, config, bad_problem = out / "summary.json", tmp / "c.json", tmp / "p.json"
    for path in (summary, config, bad_problem):
        path.write_bytes(b"\xff{")
    for args, code, path in ((["verify", "--problem", problem, "--run", str(out)], "bad-summary",
                              summary),
                             (["rate", "--run", str(out)], "bad-summary", summary),
                             (["solve", "--problem", problem, "--config", str(config),
                               "--out", str(tmp / "x")], "bad-config", config),
                             (["solve", "--problem", str(bad_problem), "--out", str(tmp / "x")],
                              "bad-problem", bad_problem)):
        assert run([*args, "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(f"piag: error: {code}: {path}: ")


def test_invalid_utf8_iterate_log_is_reported_with_its_path(l1_setup, capsys):
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--max-iters", "30", "--log-iterates",
         "--out", str(out), "--quiet"])
    iterates = out / "iterates.csv"
    iterates.write_bytes(b"\xffk,x_0\n")
    assert run(["verify", "--problem", problem, "--run", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith(f"piag: error: bad-iterates: {iterates}: ")


@pytest.mark.parametrize("dimension", [3, 5])
def test_iterate_log_of_another_dimension_is_bad_iterates(l1_setup, capsys, dimension):
    problem, tmp = l1_setup
    out = tmp / "run"
    run(["solve", "--problem", problem, "--max-iters", "30", "--log-iterates",
         "--out", str(out), "--quiet"])
    other = tmp / "other"
    run(["generate", "--family", "l1", "--components", "3", "--dimension", str(dimension),
         "--out", str(other), "--quiet"])
    rc = run(["verify", "--problem", str(other / "problem.json"), "--run", str(out), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"piag: error: bad-iterates: {out / 'iterates.csv'}: rows hold 4 coordinates, "
        f"the problem dimension is {dimension}\n")
    assert not (out / "verify.json").exists()


def test_module_entry_point_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    out = tmp_path / "gen"
    proc = subprocess.run([sys.executable, "-m", "piag.cli", "generate", "--family", "l1",
                           "--components", "2", "--dimension", "3", "--out", str(out),
                           "--quiet"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (out / "problem.json").exists()
