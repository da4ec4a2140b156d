"""Checks of the benchmark's own inputs and of its determinism.

    PYTHONPATH=src python3 -m pytest bench -q

The determinism tests run every workload, untraced and traced, under two
``PYTHONHASHSEED`` values in fresh interpreters; they take a few minutes,
most of it in pelletier-prove.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from craig.formulas import Not
from craig.models import find_model
from craig.parser import parse_problem
from run import DETERMINISTIC
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
PELLETIER = sorted((BENCH / "pelletier").glob("p*.fol"))


def test_pelletier_has_problems_1_to_46():
    assert [p.stem for p in PELLETIER] == [f"p{i:02d}" for i in range(1, 47)]


@pytest.mark.parametrize("path", PELLETIER, ids=lambda p: p.stem)
def test_pelletier_transcription_has_no_countermodel_up_to_size_2(path):
    problem = parse_problem(path.read_text(encoding="utf-8"))
    assert len(problem.right) == 1
    assert find_model(problem.left + [Not(problem.right[0])], 2) is None


def _run(workload: str, trace: int, hash_seed: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed))
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return result["metrics"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_counts_identical_under_two_hash_seeds(workload):
    for trace, names in ((0, ("decided_share", "interpolant_size")), (1, DETERMINISTIC)):
        first, second = (_run(workload, trace, seed) for seed in ("0", "1"))
        assert {n: first[n]["value"] for n in names} == \
            {n: second[n]["value"] for n in names}
