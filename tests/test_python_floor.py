"""Every Python file of the project parses under the grammar of Python 3.10,
the ``requires-python`` floor in pyproject.toml.

The tests may run on a newer interpreter only; ``ast.parse`` with
``feature_version=(3, 10)`` still rejects syntax that 3.10 lacks, such as
``except*`` (3.11).
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FLOOR = (3, 10)
SOURCES = sorted(p for top in ("src", "tests", "bench") for p in (ROOT / top).rglob("*.py"))


def test_pyproject_states_the_floor():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert f'requires-python = ">={FLOOR[0]}.{FLOOR[1]}"' in text


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_under_the_floor_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)


def test_the_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=FLOOR)
