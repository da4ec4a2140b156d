"""Every name a module of the package imports is used in that module.

The project depends on no linter, so this is its check for dead imports.
``__init__.py`` is exempt: its imports are the package's re-exports.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "craig"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by an import in source and never read, in line order."""
    tree = ast.parse(source)
    imported: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .formulas import Atom, is_sentence as closed, to_nnf\n"
              "def f(x):\n"
              "    return to_nnf(Atom(x))\n")
    assert unused_imports(source) == [(2, "os"), (3, "closed")]
