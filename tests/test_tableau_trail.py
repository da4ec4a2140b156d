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

The β queues hold the disjunctions themselves, so one may wait more than
once, also after it was split; no root-to-leaf path of a closed tableau may
split one disjunction twice.  What a long proof keeps alive per application
has a ceiling.
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
    Closed, Disj, LabeledSentence, Satisfiable, Unknown, _BranchState, _Prover, prove,
)

from test_tableau_golden import chain_problem

PELLETIER = pathlib.Path(__file__).parent.parent / "bench" / "pelletier"


def snapshot(branch: _BranchState) -> tuple:
    return (
        list(branch.formulas.items()),
        list(branch.constants),
        branch.evidence,
        [(it.ls, it.kind, it.next_const) for it in branch.alpha],
        [(it.ls, it.kind, it.next_const) for it in branch.ready],
        [list(q) for q in branch.exists_queues],
        list(branch.beta_closing),
        list(branch.beta_open),
        {key: list(waiting) for key, waiting in branch.promote.items()},
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
    # every disjunction waiting for f joins the closing queue, again if it
    # waits there already
    branch.beta_closing.extend(branch.promote.pop(f, ()))
    if isinstance(f, Or):
        closing = False
        for g in f.items:
            if g == BOTTOM:
                closing = True
                continue
            comp = complement_literal(g)
            if comp is not None:
                if comp in branch.formulas:
                    closing = True
                else:
                    branch.promote.setdefault(comp, []).append(ls)
        (branch.beta_closing if closing else branch.beta_open).append(ls)


def observed(branch: _BranchState) -> tuple:
    return (list(branch.formulas.items()), branch.evidence,
            list(branch.beta_closing), list(branch.beta_open),
            [(key, list(waiting)) for key, waiting in branch.promote.items()])


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


# ------------------------------------------------------------------ β queues

def test_a_disjunction_waits_once_per_clash_partner():
    # the β queues hold the sentences themselves: each arriving clash partner
    # pushes the disjunction onto the closing queue again
    inputs = [LabeledSentence(parse(text), "L")
              for text in ("P(a) | Q(a) | R(a)", "!P(a)", "!Q(a)", "!R(a)")]
    branch = _BranchState()
    for ls in inputs:
        branch.add(ls)
    # it entered the open queue, with no partner on the branch yet
    assert list(branch.beta_open) == [inputs[0]]
    assert list(branch.beta_closing) == [inputs[0]] * 3
    assert not branch.promote and branch.evidence is None
    outcome = prove(inputs, 100)
    # one split, whose three children all close
    assert isinstance(outcome, Closed)
    assert outcome.tableau.rule_applications == 4
    assert outcome.tableau.branch_count() == 3


def split_twice_on_a_path(tableau) -> int:
    """Assert that no root-to-leaf path splits one disjunction twice; returns
    the number of split children seen."""
    children = 0
    stack = [(tableau.root, frozenset())]
    while stack:
        node, split = stack.pop()
        if type(node.rule) is Disj:
            children += 1
            assert node.rule.premise not in split, node.rule.premise
            split = split | {node.rule.premise}
        stack.extend((child, split) for child in node.children)
    return children


def test_no_path_splits_a_disjunction_twice():
    # a split disjunction may still wait in a queue; it is skipped there, as
    # each child branch holds one of its disjuncts
    closed = children = 0
    problems = [problem_inputs(path.read_text(encoding="utf-8"))
                for path in sorted(PELLETIER.glob("p*.fol"))]
    outcomes = [prove(inputs, 1_500) for inputs in problems]
    outcomes += [prove(refutation([inst.phi], inst.psi), 1_500) for inst in corpus(42, 200)]
    for outcome in outcomes:
        if isinstance(outcome, Closed):
            closed += 1
            children += split_twice_on_a_path(outcome.tableau)
    assert closed >= 230 and children >= 1_500


def test_p46_keeps_at_most_19_tracked_objects_per_application(monkeypatch):
    # what a long proof keeps alive grows with its applications: nodes,
    # sentences, agenda entries and trail.  Counted with the collector on, as
    # the proof runs: P46 at 10,000 applications, when the budget ends.
    inputs = problem_inputs((PELLETIER / "p46.fol").read_text(encoding="utf-8"))
    work, alive = _Prover.work, []

    def counted_work(self, branch):
        outcome = work(self, branch)
        if isinstance(outcome, Unknown):
            gc.collect()
            alive.append(len(gc.get_objects()))
        return outcome

    monkeypatch.setattr(_Prover, "work", counted_work)
    gc.collect()
    before = len(gc.get_objects())
    outcome = prove(inputs, 10_000)
    assert isinstance(outcome, Unknown) and outcome.budget_spent == 10_000
    assert (alive[0] - before) / 10_000 <= 19.0
