"""Source checks on ``src/confcal``: what a deletion leaves behind.

Every name a module imports, and every ``_private`` name it defines at module
level, must be read somewhere in that same module. A public name may be read
only by other modules or by the tests, so it is not checked. Every error class
but the base one must be built somewhere in the package, or no run can raise
it. Every class name README.md gives must be defined in the package.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "confcal"
SOURCES = sorted(PACKAGE.glob("*.py"))


def _bound_names(statement: ast.stmt) -> list[str]:
    """The names an import binds, or the ``_private`` names a module-level
    definition or assignment binds."""
    if isinstance(statement, ast.ImportFrom) and statement.module == "__future__":
        return []
    if isinstance(statement, (ast.Import, ast.ImportFrom)):
        return [(alias.asname or alias.name).split(".")[0] for alias in statement.names]
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)]
    else:
        return []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unused_names(source: str) -> list[str]:
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    bound = [name for statement in tree.body for name in _bound_names(statement)]
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_every_import_and_private_name_is_read(path):
    assert unused_names(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import_and_private_name():
    source = "import os, json as j\nfrom x import a, b\n_LIMIT = 3\ndef _helper():\n    return a\nPUBLIC = j\n"
    assert unused_names(source) == ["os", "b", "_LIMIT", "_helper"]


def test_every_error_class_is_built():
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    classes = [node.name for node in errors.body if isinstance(node, ast.ClassDef) and node.name != "ConfcalError"]
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
    }
    assert [name for name in classes if name not in called] == []


def test_every_class_the_readme_names_is_defined():
    """A backticked CamelCase name, or an ``error:<Type>`` flag, in README.md
    names a class of the package: a deleted class leaves no stale name there."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = {a or b for a, b in re.findall(r"`([A-Z][A-Za-z]+)`|error:([A-Z][A-Za-z]+)", readme)}
    defined = {
        node.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    }
    assert sorted(named - defined) == []
