"""Differential check of negative verdicts: every structure an exit-1 command
prints is re-checked with evaluate, the finite-model oracle, and never with
the prover that produced it."""

from __future__ import annotations

import pathlib

import pytest

from craig.cli import main
from craig.definability import rename_relations
from craig.formulas import conj
from craig.models import evaluate, structure_from_json
from craig.parser import parse_problem

ROOT = pathlib.Path(__file__).parent.parent
DATA = ROOT / "tests" / "data"
BENCH = ROOT / "bench" / "cli"

# Σ ⊨ Q(a) -> P(a) fails: a model of Σ with Q(a) and not P(a)
INVALID_UNDER_THEORY = "[theory]\nforall x. P(x) -> Q(x)\n[left]\nQ(a)\n[right]\nP(a)\n"
# Σ has no model of size 1, so only the prover can refute definability
BEYOND_PADOA_BOUND = "[theory]\nexists x y. Q(x) & !Q(y)\nforall x. P(x) -> P(x)\n"
ANTITONE = "[left]\n!R(a)\n"


def holds(A, sentences) -> bool:
    return all(evaluate(A, s) for s in sentences)


def implication_fails(problem, witnesses):
    """One model of [theory] and [left] in which [right] fails."""
    (A,) = witnesses
    assert holds(A, problem.theory + problem.left)
    assert not evaluate(A, conj(problem.right))


def joint_model(problem, witnesses):
    """One model of every [left] and [right] sentence."""
    (A,) = witnesses
    assert holds(A, problem.left + problem.right)


def padoa_pair(relation, tau):
    def check(problem, witnesses):
        A, B = witnesses
        assert holds(A, problem.theory) and holds(B, problem.theory)
        assert A.domain_size == B.domain_size
        assert all(A.relations[t] == B.relations[t] for t in tau)
        assert A.relations[relation] != B.relations[relation]
    return check


def not_monotone(problem, witnesses):
    """phi holds, R grows to R', and phi with R' for R fails."""
    (A,) = witnesses
    phi = conj(problem.left)
    assert evaluate(A, phi)
    assert A.relations["R"] <= A.relations["R'"]
    assert not evaluate(A, rename_relations(phi, {"R": "R'"}))


CASES = {
    "interpolate": ([], "interpolate", BENCH / "not-valid.fol", [],
                    implication_fails),
    "robinson": ([], "robinson", BENCH / "robinson-consistent.fol", [], joint_model),
    "beth.padoa": ([], "beth", DATA / "tallest.fol",
                   ["--define", "Taller-than", "--tau", "Tallest"],
                   padoa_pair("Taller-than", ["Tallest"])),
    "beth.beyond-bound": (["--max-model-size", "1"], "beth", BEYOND_PADOA_BOUND,
                          ["--define", "P", "--tau", "Q"], padoa_pair("P", ["Q"])),
    "theory-interpolate": ([], "theory-interpolate", INVALID_UNDER_THEORY, [],
                           implication_fails),
    "monotone-rewrite": ([], "monotone-rewrite", ANTITONE, ["--relation", "R"],
                         not_monotone),
    "prove": ([], "prove", DATA / "sat.fol", [], joint_model),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_printed_witnesses_pass_the_oracle(case, tmp_path, capsys):
    options, command, problem, extra, check = CASES[case]
    if not isinstance(problem, pathlib.Path):
        path = tmp_path / "problem.fol"
        path.write_text(problem)
        problem = path
    code = main([*options, command, str(problem), *extra])
    captured = capsys.readouterr()
    assert code == 1, captured.err
    witnesses = [structure_from_json(line) for line in captured.out.splitlines()]
    check(parse_problem(problem.read_text()), witnesses)
