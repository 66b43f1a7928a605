"""Damage one file of a finished run directory and run every command that
reads it: the CLI must keep its exit-code contract, report an input error
under the damaged file's own code, never pass a log it should reject, and
reject a JSON value whose kind its reader's field table does not allow.
Give every float flag a number at the edge of the float range: the CLI
must keep the same contract."""

import contextlib
import io
import json
import math
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piag import cli, fields, model

_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_TOKENS = [b"nan", b"NaN", b"1e309", b"-1e309"]
_WRONG_TYPES = [None, True, "x", [], {}]

# The commands that read each file, and the codes an error in it may carry.
# A changed but well-formed schedule.tau moves rate's transient skip, so
# rate may then find too few records.
_READERS = {
    "config.json": (["solve"], {"bad-config"}),
    "problem.json": (["solve", "verify"], {"bad-problem"}),
    "summary.json": (["verify", "rate"], {"bad-summary", "short-trace"}),
    "iterates.csv": (["verify"], {"bad-iterates", "empty-trace"}),
    "trace.csv": (["rate"], {"bad-trace", "empty-trace", "short-trace"}),
}

# The kind each reader requires of the fields it lists, by path; "*" stands
# for any list index.  The problem is an l1 problem, and verify and rate
# read two fields of summary.json.
_KINDS = {
    "config.json": {**{(k,): kind for k, kind in cli._CONFIG_FIELDS.items()},
                    **{("schedule", k): kind for k, kind in fields.SCHEDULE_FIELDS.items()}},
    "problem.json": {**{(k,): kind for k, kind in model._PROBLEM_FIELDS.items()},
                     **{("components", "*", k): kind
                        for k, kind in model._COMPONENT_FIELDS.items()},
                     ("nonsmooth", "kind"): model._NONSMOOTH_KIND,
                     ("nonsmooth", "lambda"): fields.NUMBER},
    "summary.json": {("alpha",): fields.NUMBER, ("schedule", "tau"): fields.INTEGER},
}
# A run config that sets every field; every solve below reads it.
_CONFIG = {"alpha": "auto_lemma2", "tau": 2, "schedule": {"kind": "cyclic", "block": 2, "seed": 1},
           "max_iters": 20, "tol": 1e-8, "x0": [0.0, 0.0, 0.0], "seed": 1, "c0": 1.0,
           "trace_every": 5, "enforce_theory": False}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    run = tmp_path_factory.mktemp("run")
    (run / "config.json").write_text(json.dumps(_CONFIG))
    assert cli.main(["generate", "--family", "l1", "--components", "4", "--dimension", "3",
                     "--seed", "1", "--out", str(run), "--quiet"]) == 0
    # Stopped by the budget: 18 records, 14 of them past rate's transient skip.
    assert cli.main(["solve", "--problem", str(run / "problem.json"), "--tau", "2",
                     "--max-iters", "150", "--log-iterates", "--out", str(run), "--quiet"]) == 2
    return run


def _paths(obj, prefix=()):
    """Every key and list index under a JSON value, as a path of keys."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _at(obj, path):
    for step in path:
        obj = obj[step]
    return obj


def _damage(data: bytes, name: str, draw) -> tuple[bytes, bool]:
    """The damaged bytes, and whether they hold a value of a kind that the
    reader's table does not allow for its field."""
    kinds = ["truncate", "substitute", "token", "delete"]
    if name.endswith(".json"):
        kinds.append("retype")
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))], False
    if kind == "substitute":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:], False
    if kind == "token":
        number = draw(st.sampled_from(list(_NUMBER.finditer(data))))
        return data[:number.start()] + draw(st.sampled_from(_TOKENS)) + data[number.end():], False
    if name.endswith(".csv"):  # delete a line, the header included
        lines = data.splitlines(keepends=True)
        del lines[draw(st.integers(0, len(lines) - 1))]
        return b"".join(lines), False
    obj = json.loads(data)
    path = draw(st.sampled_from(list(_paths(obj))))
    target = _at(obj, path[:-1])
    if kind == "delete":
        del target[path[-1]]
        return json.dumps(obj).encode(), False
    target[path[-1]] = draw(st.sampled_from(_WRONG_TYPES))
    # The field that the reader's table lists nearest the retyped value: a
    # list of numbers holds a retyped entry.
    table = _KINDS.get(name, {})
    for end in range(len(path), 0, -1):
        kind = table.get(tuple("*" if isinstance(step, int) else step for step in path[:end]))
        if kind is not None:
            return json.dumps(obj).encode(), not kind.test(_at(obj, path[:end]))
    return json.dumps(obj).encode(), False


def _command(command: str, run: Path) -> list[str]:
    problem = str(run / "problem.json")
    return {"solve": ["solve", "--problem", problem, "--config", str(run / "config.json"),
                      "--max-iters", "20", "--out", str(run / "again")],
            "verify": ["verify", "--problem", problem, "--run", str(run)],
            "rate": ["rate", "--run", str(run)]}[command] + ["--quiet"]


def _rows(path: Path) -> list[list[str]]:
    # Lines as a text file iterates them: str.splitlines also breaks at \v and \f.
    with path.open() as fh:
        return [line.strip().split(",") for line in fh][1:]


def _accepted_log_is_clean(path: Path) -> bool:
    rows = _rows(path)
    return (all(int(row[0]) == k for k, row in enumerate(rows))
            and all(math.isfinite(float(v)) for row in rows for v in row[1:]))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_READERS)), data=st.data())
def test_damaged_run_file_is_reported_under_its_own_code(run_dir, name, data):
    commands, codes = _READERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(shutil.copytree(run_dir, Path(tmp) / "run"))
        path = run / name
        damaged, wrong_kind = _damage(path.read_bytes(), name, data.draw)
        path.write_bytes(damaged)
        for command in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(_command(command, run))
            err = err.getvalue()
            assert rc in range(5), err
            assert rc == 1 or not wrong_kind, (command, err)
            if rc == 1:
                code = re.match(r"piag: error: ([a-z-]+): ", err)
                assert code and code.group(1) in codes, (command, err)
            if rc == 0 and command == "verify" and name == "iterates.csv":
                assert _accepted_log_is_clean(path)
            if rc == 0 and command == "rate" and name == "trace.csv":
                assert all(math.isfinite(float(row[1])) for row in _rows(path))


# Float texts at the edges of the float range: the smallest subnormal, a
# subnormal, numbers whose square underflows or overflows, the largest
# powers of ten, and both zeros.
_EXTREMES = ["5e-324", "1e-320", "1e-170", "1e-155", "1e154", "1e308", "-0.0", "0"]
_SOLVE = ["solve", "--problem", "{run}/problem.json", "--max-iters", "20", "--out", "{out}"]
_COMPARE = ["compare-delays", "--problem", "{run}/problem.json", "--tau-list", "0,1",
            "--max-iters", "20", "--out", "{out}"]
_GENERATE = ["generate", "--components", "4", "--dimension", "3", "--seed", "1", "--out", "{out}"]
# Each float flag of the CLI, with {text} as its value: each entry of the
# 3-d --x0, and --c0 both alone and with --alpha auto_c8.
_FLOAT_FLAGS = {
    "solve-alpha": _SOLVE + ["--alpha={text}"],
    "solve-tol": _SOLVE + ["--tol={text}"],
    "solve-c0": _SOLVE + ["--c0={text}"],
    "solve-c0-auto_c8": _SOLVE + ["--alpha", "auto_c8", "--c0={text}"],
    **{f"solve-x0[{i}]": _SOLVE + ["--x0=" + ",".join(["0"] * i + ["{text}"] + ["0"] * (2 - i))]
       for i in range(3)},
    "compare-tol": _COMPARE + ["--tol={text}"],
    "compare-x0[0]": _COMPARE + ["--x0={text},0,0"],
    "rate-limit-value": ["rate", "--run", "{run}", "--limit-value={text}"],
    "generate-l1-weight": _GENERATE + ["--family", "l1", "--l1-weight={text}"],
    "generate-negative-curvature": _GENERATE + ["--family", "box",
                                                "--negative-curvature={text}"],
}


@pytest.mark.parametrize("flag", sorted(_FLOAT_FLAGS))
@pytest.mark.parametrize("text", _EXTREMES)
def test_an_extreme_float_in_any_flag_keeps_the_exit_code_contract(run_dir, tmp_path, text,
                                                                   flag):
    command = [arg.format(run=run_dir, out=tmp_path / "out", text=text)
               for arg in _FLOAT_FLAGS[flag]] + ["--quiet"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(command)  # an exception that would print a traceback raises here
    err = err.getvalue()
    assert rc in range(5), (command, err)
    assert rc != 1 or err.startswith("piag: error: "), (command, err)
    assert "Traceback" not in err, (command, err)
