"""README's library quick start and CLI example run as written, each in a
fresh interpreter in a temporary directory, so the documented commands
cannot drift from the program."""

import re
import shlex
from pathlib import Path

from helpers import run_python

README = Path(__file__).parent.parent / "README.md"


def first_block(section: str, lang: str = "") -> str:
    """The first fenced block of ``lang`` under the heading ``## section``."""
    text = README.read_text()
    start = text.index(f"\n## {section}\n")
    return re.search(rf"\n```{lang}\n(.*?)\n```\n", text[start:], re.S).group(1)


def test_the_library_quick_start_runs(tmp_path):
    proc = run_python(["-c", first_block("Library quick start", "python")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("converged ")


def test_the_cli_example_runs(tmp_path):
    commands = first_block("CLI").splitlines()
    assert len(commands) == 5 and all(c.startswith("piag ") for c in commands)
    for command in commands:  # `piag` is `python -m piag.cli`, as README says
        proc = run_python(["-m", "piag.cli", *shlex.split(command)[1:]], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, ""), command
    assert (tmp_path / "work" / "run" / "verify.json").exists()
    assert (tmp_path / "work" / "cmp" / "compare_delays.csv").read_text().count("\n") == 5
