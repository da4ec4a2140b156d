"""No module of the package changes or drives the garbage collector.

A library should leave its host program's collector settings alone, as it
leaves the recursion limit: a long proof is kept cheap for the collector by
making no reference cycles, not by switching the collector off.  So nothing
under ``src/`` calls ``gc.disable``, ``gc.freeze``, ``gc.set_threshold`` or
``gc.collect``, whether through ``gc.<name>``, a ``from gc import`` or an
alias of the module.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "craig"
SOURCES = sorted(PACKAGE.glob("*.py"))
FORBIDDEN = {"disable", "freeze", "set_threshold", "collect"}


def gc_calls(source: str) -> list:
    """(line, name) of each use of a forbidden gc function in source."""
    tree = ast.parse(source)
    modules = {"gc"}  # names bound to the gc module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name == "gc")
        elif isinstance(node, ast.ImportFrom) and node.module == "gc":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in FORBIDDEN or alias.name == "*"]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN \
                and isinstance(node.value, ast.Name) and node.value.id in modules:
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_touches_the_collector(path):
    assert gc_calls(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_collector_calls():
    source = ("import gc\n"
              "import gc as collector\n"
              "from gc import freeze\n"
              "def f():\n"
              "    gc.disable()\n"
              "    collector.set_threshold(0)\n"
              "    gc.collect\n"
              "    gc.get_count()\n"
              "    other.collect()\n")
    assert gc_calls(source) == [(3, "freeze"), (5, "disable"), (6, "set_threshold"),
                                (7, "collect")]
