"""Every name a module of the package imports is used in that module, and
every module-private top-level function or class is used by some module.

The project depends on no linter, so this is its check for dead imports and
dead private helpers.  ``__init__.py`` is exempt from the import check: its
imports are the package's re-exports.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "craig"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def unreferenced_private(sources: dict) -> list:
    """(module, name) of each top-level function or class whose name starts
    with ``_`` and that no top-level statement of any source other than its
    own definition reads, as a name, an attribute or an imported name."""
    defined, statements = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_"):
                defined.append((module, node.name, node))
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    names.update(alias.name for alias in sub.names)
            statements.append((node, names))
    return [(module, name) for module, name, node in defined
            if not any(name in names for other, names in statements if other is not node)]


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unreferenced_private(sources) == []


def test_the_check_finds_unreferenced_private_definitions():
    sources = {
        "a.py": ("def _used(): return 1\n"
                 "def _recursive(n): return _recursive(n - 1)\n"
                 "class _Dead: pass\n"
                 "def public(): return _used()\n"),
        "b.py": ("from .a import _imported\n"
                 "import a\n"
                 "def g(): return a._by_attribute()\n"),
        "c.py": ("def _imported(): pass\n"
                 "def _by_attribute(): pass\n"),
    }
    assert unreferenced_private(sources) == [("a.py", "_recursive"), ("a.py", "_Dead")]
