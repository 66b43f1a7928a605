"""Tests pin the public contracts of ``piag``, not the private names of its
modules, so that a change inside a module rewrites no test.

This guard walks every test file and finds each private name of a ``piag``
module that a test uses: ``model._name``, ``piag.model._name`` or
``model.RowThreads._name``, a ``from piag.model import _name``, and a name
given as a string to ``monkeypatch.setattr``, ``mock.patch.object`` or
``getattr`` on a module or one of its public names.
Each such use must be on ``ALLOWED`` with the reason no public contract
shows what it guards, and the test that uses it says so at its site.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent

# (file, name): why the test needs the private name.
ALLOWED = {
    ("test_cli_fuzz.py", "_CONFIG_FIELDS"):
        "data: the run config's field table, read to fuzz each field with a value of "
        "another JSON kind",
    ("test_cli_fuzz.py", "_PROBLEM_FIELDS"): "data: the problem file's top-level field table",
    ("test_cli_fuzz.py", "_COMPONENT_FIELDS"): "data: the field table of a problem component",
    ("test_cli_fuzz.py", "_NONSMOOTH_KIND"): "data: the kind that nonsmooth.kind must have",
    ("test_model.py", "_component_text"):
        "no input that save_problem accepts makes its in-process encoder fail, so the test "
        "makes it fail to show that a failed write leaves the existing files untouched",
}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


class _Scan(ast.NodeVisitor):
    """The private names of ``piag`` modules that one module's source uses."""

    def __init__(self):
        self.modules: set[str] = set()  # local names bound to piag or a piag module
        self.found: list[tuple[int, str]] = []

    def visit_Import(self, node):
        for alias in node.names:
            if alias.name == "piag" or alias.name.startswith("piag."):
                self.modules.add(alias.asname or alias.name.split(".")[0])

    def visit_ImportFrom(self, node):
        module = node.module or ""
        if module == "piag" or module.startswith("piag."):
            for alias in node.names:
                if _is_private(alias.name):
                    self.found.append((node.lineno, alias.name))
                elif module == "piag":  # from piag import model: a module, or a public name
                    self.modules.add(alias.asname or alias.name)

    def _is_module(self, node) -> bool:
        """``node`` is a local name of piag or a piag module, or an attribute of one."""
        if isinstance(node, ast.Name):
            return node.id in self.modules
        return isinstance(node, ast.Attribute) and not _is_private(node.attr) \
            and self._is_module(node.value)

    def visit_Attribute(self, node):
        if _is_private(node.attr) and self._is_module(node.value):
            self.found.append((node.lineno, node.attr))
        self.generic_visit(node)

    def visit_Call(self, node):
        # monkeypatch.setattr(model, "_x", ...), mock.patch.object(model, "_x", ...),
        # getattr(model, "_x") and the like
        if len(node.args) >= 2 and self._is_module(node.args[0]):
            name = node.args[1]
            if isinstance(name, ast.Constant) and isinstance(name.value, str) \
                    and _is_private(name.value):
                self.found.append((node.lineno, name.value))
        self.generic_visit(node)


def private_references(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each private name of a piag module that ``source`` uses."""
    scan = _Scan()
    tree = ast.parse(source)
    for node in ast.walk(tree):  # bind every import before any use is judged
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            scan.visit(node)
    scan.found.clear()
    scan.visit(tree)
    return sorted(scan.found)


def _references() -> dict[tuple[str, str], list[int]]:
    out: dict[tuple[str, str], list[int]] = {}
    for path in sorted(TESTS.glob("*.py")):
        for line, name in private_references(path.read_text()):
            out.setdefault((path.name, name), []).append(line)
    return out


def test_every_private_name_a_test_uses_is_allowed_with_a_reason():
    unlisted = {f"{file}:{lines} {name}" for (file, name), lines in _references().items()
                if (file, name) not in ALLOWED}
    assert not unlisted, ("restate these tests on a public contract, or add each name to "
                          f"ALLOWED with its reason: {sorted(unlisted)}")


def test_every_allowed_name_is_still_used():
    assert set(ALLOWED) <= set(_references()), sorted(set(ALLOWED) - set(_references()))
    assert all(reason.strip() for reason in ALLOWED.values())


@pytest.mark.parametrize("source, names", [
    ("from piag import model\nmodel._x", ["_x"]),
    ("import piag.model\npiag.model._x", ["_x"]),
    ("import piag.model as m\nm._x", ["_x"]),
    ("from piag.model import _x, y", ["_x"]),
    ("from piag import model\nmonkeypatch.setattr(model, '_x', 0)", ["_x"]),
    ("import piag\nmock.patch.object(piag.model.RowThreads, '_y', 0)", ["_y"]),
    ("from piag import model\nmodel.RowThreads._start", ["_start"]),
    ("model._x\nfrom piag import model", ["_x"]),  # imported below its use
    ("from piag import model\nmodel.RowThreads.map\nmodel.__file__", []),
    ("import numpy as np\nnp._x\nsetattr(np, '_x', 0)", []),
])
def test_the_scan_finds_each_form_of_use(source, names):
    assert [name for _, name in private_references(source)] == names
