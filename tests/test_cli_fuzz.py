"""Damage one file of a finished run directory and run every command that
reads it: the CLI must keep its exit-code contract, report an input error
under the damaged file's own code, and never pass a log it should reject."""

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

from piag import cli

_NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
_TOKENS = [b"nan", b"NaN", b"1e309", b"-1e309"]
_WRONG_TYPES = [None, True, "x", [], {}]

# The commands that read each file, and the codes an error in it may carry.
# A changed but well-formed schedule.tau moves rate's transient skip, so
# rate may then find too few records.
_READERS = {
    "problem.json": (["solve", "verify"], {"bad-problem"}),
    "summary.json": (["verify", "rate"], {"bad-summary", "short-trace"}),
    "iterates.csv": (["verify"], {"bad-iterates", "empty-trace"}),
    "trace.csv": (["rate"], {"bad-trace", "empty-trace", "short-trace"}),
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    run = tmp_path_factory.mktemp("run")
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


def _damage(data: bytes, name: str, draw) -> bytes:
    kinds = ["truncate", "substitute", "token", "delete"]
    if name.endswith(".json"):
        kinds.append("retype")
    kind = draw(st.sampled_from(kinds))
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    if kind == "substitute":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    if kind == "token":
        number = draw(st.sampled_from(list(_NUMBER.finditer(data))))
        return data[:number.start()] + draw(st.sampled_from(_TOKENS)) + data[number.end():]
    if name.endswith(".csv"):  # delete a line, the header included
        lines = data.splitlines(keepends=True)
        del lines[draw(st.integers(0, len(lines) - 1))]
        return b"".join(lines)
    obj = json.loads(data)
    *parents, key = draw(st.sampled_from(list(_paths(obj))))
    target = obj
    for step in parents:
        target = target[step]
    if kind == "delete":
        del target[key]
    else:
        target[key] = draw(st.sampled_from(_WRONG_TYPES))
    return json.dumps(obj).encode()


def _command(command: str, run: Path) -> list[str]:
    problem = str(run / "problem.json")
    return {"solve": ["solve", "--problem", problem, "--max-iters", "20",
                      "--out", str(run / "again")],
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_READERS)), data=st.data())
def test_damaged_run_file_is_reported_under_its_own_code(run_dir, name, data):
    commands, codes = _READERS[name]
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(shutil.copytree(run_dir, Path(tmp) / "run"))
        path = run / name
        path.write_bytes(_damage(path.read_bytes(), name, data.draw))
        for command in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main(_command(command, run))
            err = err.getvalue()
            assert rc in range(5), err
            if rc == 1:
                code = re.match(r"piag: error: ([a-z-]+): ", err)
                assert code and code.group(1) in codes, (command, err)
            if rc == 0 and command == "verify" and name == "iterates.csv":
                assert _accepted_log_is_clean(path)
            if rc == 0 and command == "rate" and name == "trace.csv":
                assert all(math.isfinite(float(row[1])) for row in _rows(path))
