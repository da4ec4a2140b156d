"""Metamorphic relations of the prover.

- Renaming every relation consistently renames the proof: the outcome has
  the same type and the same rule-application count (``budget_spent`` for
  Unknown, the branch length for Satisfiable), and a closed tableau's root
  interpolant is the renamed one.  The renaming reverses the sorted order
  of the names, so nothing may depend on how relation names compare.
- Reversing the input list may change the search, and so turn a verdict
  into Unknown, but never Closed into Satisfiable or back.

The inputs are ``corpus(42, 200)`` and Pelletier 1-46, at budget 1,500.
"""

from __future__ import annotations

import pathlib

from craig.corpus import corpus
from craig.definability import rename_relations
from craig.formulas import signature_of
from craig.interpolation import propagate
from craig.tableau import Closed, LabeledSentence, Satisfiable, Unknown, prove

from test_tableau_trail import problem_inputs, refutation

PELLETIER = pathlib.Path(__file__).parent.parent / "bench" / "pelletier"
BUDGET = 1_500


def input_sets() -> list:
    sets = [(f"corpus{inst.index}", refutation([inst.phi], inst.psi))
            for inst in corpus(42, 200)]
    sets += [(path.stem, problem_inputs(path.read_text(encoding="utf-8")))
             for path in sorted(PELLETIER.glob("p*.fol"))]
    return sets


def size(outcome) -> int:
    if isinstance(outcome, Closed):
        return outcome.tableau.rule_applications
    if isinstance(outcome, Unknown):
        return outcome.budget_spent
    return len(outcome.branch.sentences)


def test_renaming_relations_renames_the_proof():
    for name, inputs in input_sets():
        rels = sorted(signature_of(*(ls.formula for ls in inputs)).relations)
        mapping = {r: f"R{len(rels) - i:03d}" for i, r in enumerate(rels)}
        renamed = [LabeledSentence(rename_relations(ls.formula, mapping), ls.label)
                   for ls in inputs]
        want, got = prove(inputs, BUDGET), prove(renamed, BUDGET)
        assert type(got) is type(want), name
        assert size(got) == size(want), name
        if isinstance(want, Closed):
            theta = propagate(want.tableau).root_interpolant()
            assert propagate(got.tableau).root_interpolant() == \
                rename_relations(theta, mapping), name


def test_reversing_the_inputs_keeps_the_verdict():
    for name, inputs in input_sets():
        kinds = {type(prove(inputs, BUDGET)), type(prove(inputs[::-1], BUDGET))}
        assert kinds != {Closed, Satisfiable}, name
