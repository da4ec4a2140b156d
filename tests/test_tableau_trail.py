"""Invariants of the prover's one mutable branch state.

At every split the test takes a snapshot of the branch state, which is the
state at the split's trail mark.  When the search comes back to one of that
split's choice points, the state after ``undo_to(mark)`` must equal the
snapshot.  Whenever a sentence is added, the trail must be None exactly when
no choice point is open, and the sentence's constants must already be among
the branch's (distinct) constants.  The golden (``test_tableau_golden.py``) checks what
the search finds; this test checks that backtracking restores every part of
the state the search reads.  The state must also make no reference cycle: no
trail entry names the branch state, and a dropped proof leaves nothing for
the cyclic collector.

Two parts of the state are also checked against plain references kept here:
``next_alpha``, which takes its item from the ready queue, against a scan of
alpha past the dormant ∀ items; and ``add``, which dispatches once on the
exact type of a sentence, against equality with ⊥ and the literal helpers.
"""

from __future__ import annotations

import gc
import pathlib
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from craig.corpus import corpus
from craig.formulas import (
    BOTTOM, TOP, And, Atom, Const, Not, Or, Top, signature_of, to_nnf,
)
from craig.parser import parse, parse_problem
from craig.tableau import (
    _CLOSING, _OPEN, Closed, LabeledSentence, Satisfiable, Unknown, _BetaItem,
    _BranchState, prove,
)

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
        [(it.ls, it.kind, it.next_const) for it in branch.ready],
        [list(q) for q in branch.exists_queues],
        items(branch.beta_closing),
        items(branch.beta_open),
        {key: items(waiting) for key, waiting in branch.promote.items()},
    )


def fireable(branch: _BranchState) -> list:
    """Alpha's items that can fire on a branch with constants, in order."""
    n = len(branch.constants)
    return [it for it in branch.alpha if it.kind == "and" or it.next_const < n]


def reference_next_alpha(branch: _BranchState, alpha: deque):
    """next_alpha as a scan from the front of alpha past the dormant ∀ items,
    on a copy of alpha with no trail: the item it pops, or None."""
    n = len(branch.constants)
    for k, item in enumerate(alpha):
        if item.kind == "and" or item.next_const < n or (
                not n and not any(branch.exists_queues)):
            alpha.rotate(-k)
            return alpha.popleft()
    return None


def assert_ready(branch: _BranchState):
    # _AlphaItem compares by identity, so == on the lists does too
    assert list(branch.ready) == (fireable(branch) if branch.constants else [])


@pytest.fixture
def checked(monkeypatch):
    """Instrument _BranchState; yields the counts of splits and resumptions,
    of next_alpha calls on a branch with constants, and of the calls that
    rotated dormant items to the back."""
    counts = {"splits": 0, "resumed": 0, "ready": 0, "rotated": 0}
    snapshots: dict = {}  # trail mark -> state at that mark
    split, undo_to, add = _BranchState.split, _BranchState.undo_to, _BranchState.add
    next_alpha = _BranchState.next_alpha

    def checked_split(self, children):
        mark = 0 if self.trail is None else len(self.trail)
        snapshots[mark] = snapshot(self)
        counts["splits"] += 1
        split(self, children)

    def checked_undo_to(self, mark):
        # no trail entry names the branch state, so the trail makes no cycle
        assert all(entry is not self for entry in self.trail)
        undo_to(self, mark)
        assert snapshot(self) == snapshots[mark]
        counts["resumed"] += 1

    def checked_add(self, ls, origin=1):
        assert (self.trail is None) == (not self.choices)
        # add registers no constant: the rule that made ls already did
        assert signature_of(ls.formula).constants <= set(self.constants)
        assert len(set(self.constants)) == len(self.constants)
        return add(self, ls, origin)

    def checked_next_alpha(self):
        assert_ready(self)
        front = self.alpha[0] if self.alpha else None
        alpha = deque(self.alpha)
        expected = reference_next_alpha(self, alpha)
        item = next_alpha(self)
        assert item is expected
        assert list(self.alpha) == list(alpha)  # the same order, item for item
        assert_ready(self)
        if self.constants:
            counts["ready"] += 1
            counts["rotated"] += item is not None and item is not front
        return item

    monkeypatch.setattr(_BranchState, "split", checked_split)
    monkeypatch.setattr(_BranchState, "undo_to", checked_undo_to)
    monkeypatch.setattr(_BranchState, "add", checked_add)
    monkeypatch.setattr(_BranchState, "next_alpha", checked_next_alpha)
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
    # next_alpha took thousands of items from the ready queue, and often one
    # that dormant ∀ items stood before
    assert checked["ready"] >= 10_000 and checked["rotated"] >= 1_000


def test_trail_restores_state_on_chain50(checked):
    prove(problem_inputs(chain_problem(50)), 1_500)
    assert checked["splits"] == checked["resumed"] == 49


@pytest.mark.parametrize("n", [10, 200])
def test_next_alpha_matches_the_scan_on_chains(checked, n):
    prove(problem_inputs(chain_problem(n)), 1_500)
    assert checked["splits"] == checked["resumed"] == n - 1
    assert checked["ready"] >= n


def test_trail_restores_state_on_corpus(checked):
    for inst in corpus(42, 200):
        prove(refutation([inst.phi], inst.psi), 1_000)
    assert checked["resumed"] >= 40
    assert checked["rotated"] >= 10


def test_trail_restores_state_after_bottom(checked):
    # the first child of each split is ⊥, closed by bottom evidence
    outcome = prove([LabeledSentence(to_nnf(parse("(false | P(a)) & (false | Q(a))")), "L")],
                    100)
    assert isinstance(outcome, Satisfiable)
    assert checked["resumed"] == 2


@pytest.mark.parametrize("problem, budget, kind",
                         [("p46", 10_000, Unknown), ("p43", 1_500, Closed)])
def test_a_dropped_proof_leaves_nothing_for_the_collector(problem, budget, kind):
    # the proof state makes no reference cycle (no parent links, no trail
    # entry naming the branch state), so dropping the outcome frees the
    # whole proof by reference counting.  At 10,000 applications P46 ends
    # Unknown; it left 340,043 objects to the collector when it did not.
    # P43 closes after 408 branches.
    inputs = problem_inputs((PELLETIER / f"{problem}.fol").read_text(encoding="utf-8"))
    gc.collect()
    outcome = prove(inputs, budget)
    assert isinstance(outcome, kind)
    del outcome
    assert gc.collect() < 100


# ------------------------------------------------------------------ add

def is_literal(f) -> bool:
    return isinstance(f, Atom) or (isinstance(f, Not) and isinstance(f.sub, Atom))


def complement_literal(f):
    """Clash partner of a literal (or of ⊤ and ⊥); None for other shapes."""
    if isinstance(f, Atom):
        return Not(f)
    if isinstance(f, Not):
        return f.sub
    return None


def reference_add(branch: _BranchState, ls: LabeledSentence):
    """_BranchState.add for literals and disjunctions, with ⊥ found by
    equality and clash partners by the literal helpers; logs no trail."""
    f = ls.formula
    if f in branch.formulas:
        return
    branch.formulas[f] = ls
    if branch.evidence is None:
        if f == BOTTOM:
            branch.evidence = ("bottom", ls)
        elif is_literal(f):
            partner = branch.formulas.get(complement_literal(f))
            if partner is not None:
                pair = (ls, partner) if isinstance(f, Atom) else (partner, ls)
                branch.evidence = ("clash", *pair)
    for item in branch.promote.pop(f, ()):
        if item.state == _OPEN:
            item.state = _CLOSING
            branch.beta_closing.append(item)
    if isinstance(f, Or):
        item = _BetaItem(ls)
        for g in f.items:
            if g == BOTTOM:
                item.state = _CLOSING
                continue
            comp = complement_literal(g)
            if comp is not None:
                if comp in branch.formulas:
                    item.state = _CLOSING
                else:
                    branch.promote.setdefault(comp, []).append(item)
        (branch.beta_closing if item.state == _CLOSING else branch.beta_open).append(item)


def observed(branch: _BranchState) -> tuple:
    def items(queue):
        return [(it.ls, it.state) for it in queue]

    return (list(branch.formulas.items()), branch.evidence,
            items(branch.beta_closing), items(branch.beta_open),
            [(key, items(waiting)) for key, waiting in branch.promote.items()])


ATOMS = [Atom(r, (Const(c),)) for r in ("P", "Q") for c in ("a", "b")]
# ⊤ and ⊥ built apart from TOP and BOTTOM: equal to them, but not the same objects
LITERALS = st.sampled_from(ATOMS + [Not(a) for a in ATOMS]
                           + [TOP, BOTTOM, Top(), Not(Top())])
DISJUNCTS = st.one_of(LITERALS, st.lists(LITERALS, min_size=2, max_size=2).map(And))
SENTENCES = st.lists(
    st.tuples(st.one_of(LITERALS, st.lists(DISJUNCTS, min_size=2, max_size=3).map(Or)),
              st.sampled_from("LR")),
    max_size=12)


@settings(max_examples=400, derandomize=True)
@given(SENTENCES)
def test_add_matches_the_literal_helpers(sentences):
    inputs = [LabeledSentence(f, label) for f, label in sentences]
    branch, reference = _BranchState(), _BranchState()
    branch.trail = []  # as under an open choice point: every change is logged
    empty = observed(branch)
    for ls in inputs:
        branch.add(ls)
        reference_add(reference, ls)
        assert observed(branch) == observed(reference)
    branch.undo_to(0)
    assert observed(branch) == empty
