"""Undo-trail invariant of the prover's one mutable branch state.

At every split the test takes a snapshot of the branch state, which is the
state at the split's trail mark.  When the search comes back to one of that
split's choice points, the state after ``undo_to(mark)`` must equal the
snapshot.  Whenever a sentence is added, the trail must be None exactly when
no choice point is open, and the sentence's constants must already be among
the branch's (distinct) constants.  The golden (``test_tableau_golden.py``) checks what
the search finds; this test checks that backtracking restores every part of
the state the search reads.
"""

from __future__ import annotations

import pathlib

import pytest

from craig.corpus import corpus
from craig.formulas import Not, signature_of, to_nnf
from craig.parser import parse, parse_problem
from craig.tableau import LabeledSentence, Satisfiable, _BranchState, prove

from test_tableau_golden import chain_problem

PELLETIER = pathlib.Path(__file__).parent.parent / "bench" / "pelletier"


def snapshot(branch: _BranchState) -> tuple:
    def items(queue):
        return [(it.ls, it.state) for it in queue]

    return (
        list(branch.formulas.items()),
        list(branch.constants),
        branch.evidence,
        [(it.ls, it.kind, it.next_const) for it in branch.alpha],
        [list(q) for q in branch.exists_queues],
        items(branch.beta_closing),
        items(branch.beta_open),
        {key: items(waiting) for key, waiting in branch.promote.items()},
    )


@pytest.fixture
def checked(monkeypatch):
    """Instrument _BranchState; yields the counts of splits and resumptions."""
    counts = {"splits": 0, "resumed": 0}
    snapshots: dict = {}  # trail mark -> state at that mark
    split, undo_to, add = _BranchState.split, _BranchState.undo_to, _BranchState.add

    def checked_split(self, children):
        mark = 0 if self.trail is None else len(self.trail)
        snapshots[mark] = snapshot(self)
        counts["splits"] += 1
        split(self, children)

    def checked_undo_to(self, mark):
        undo_to(self, mark)
        assert snapshot(self) == snapshots[mark]
        counts["resumed"] += 1

    def checked_add(self, ls, origin=1):
        assert (self.trail is None) == (not self.choices)
        # add registers no constant: the rule that made ls already did
        assert signature_of(ls.formula).constants <= set(self.constants)
        assert len(set(self.constants)) == len(self.constants)
        return add(self, ls, origin)

    monkeypatch.setattr(_BranchState, "split", checked_split)
    monkeypatch.setattr(_BranchState, "undo_to", checked_undo_to)
    monkeypatch.setattr(_BranchState, "add", checked_add)
    return counts


def refutation(premises, goal) -> list:
    return [LabeledSentence(to_nnf(p), "L") for p in premises] + \
        [LabeledSentence(to_nnf(Not(goal)), "R")]


def problem_inputs(text: str) -> list:
    pf = parse_problem(text)
    return refutation(pf.left, pf.right[0])


def test_trail_restores_state_on_pelletier(checked):
    # P1-46, not P46 alone: within this budget P46 never backtracks over a
    # child that introduced a disjunction
    for path in sorted(PELLETIER.glob("p*.fol")):
        prove(problem_inputs(path.read_text(encoding="utf-8")), 1_500)
    assert checked["resumed"] >= 1_000


def test_trail_restores_state_on_chain50(checked):
    prove(problem_inputs(chain_problem(50)), 1_500)
    assert checked["splits"] == checked["resumed"] == 49


def test_trail_restores_state_on_corpus(checked):
    for inst in corpus(42, 200):
        prove(refutation([inst.phi], inst.psi), 1_000)
    assert checked["resumed"] >= 40


def test_trail_restores_state_after_bottom(checked):
    # the first child of each split is ⊥, closed by bottom evidence
    outcome = prove([LabeledSentence(to_nnf(parse("(false | P(a)) & (false | Q(a))")), "L")],
                    100)
    assert isinstance(outcome, Satisfiable)
    assert checked["resumed"] == 2
