"""Every name a library module imports is used in that module, no library
module uses `assert`, and the package exports exactly what its
`__init__.py` imports."""

from __future__ import annotations

import ast
import pathlib

import pytest

import csaclass

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "csaclass"
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_unused_imports_are_found():
    source = "import os\nfrom math import gcd, prod\nprint(prod([os.sep]))\n"
    assert unused_imports(source) == ["line 2: gcd"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def assert_lines(source: str) -> list[int]:
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_asserts_are_found():
    source = "def f(x):\n    assert x\n    return x\n"
    assert assert_lines(source) == [2]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_assert_in_src(path):
    # `python -O` strips assert statements, so invariants are typed errors.
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_exports_are_the_imported_names():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert sorted(csaclass.__all__) == sorted(imported)
    missing = [name for name in csaclass.__all__
               if not hasattr(csaclass, name)]
    assert missing == []
