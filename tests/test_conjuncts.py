"""Differential test of the oracle's conjunct split.

``models._conjuncts`` flattens the ∧ items of a sentence's NNF.  Before, it
pushed ∧, ¬∨ and ¬¬ through the outer connectives by hand; that version is
kept below verbatim as the reference.  The top-level ∧s of an NNF come from
exactly those three shapes, so each new conjunct must be the NNF of the old
one, in the same order: then ``satisfying_structures`` schedules the same
conjuncts at the same symbols and enumerates the same models.
"""

from __future__ import annotations

from hypothesis import given, settings

from craig.corpus import corpus
from craig.formulas import And, Not, Or, to_nnf
from craig.models import _conjuncts
from test_formulas import formulas, wide_formulas
from test_oracle_golden import sentence_sets


def reference_conjuncts(phi) -> list:
    """Top-level conjuncts of phi: ∧, ¬∨ and ¬¬ are pushed through the outer
    connectives only."""
    out: list = []
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack.extend(reversed(f.items))
        elif isinstance(f, Not) and isinstance(f.sub, Or):
            stack.extend(Not(x) for x in reversed(f.sub.items))
        elif isinstance(f, Not) and isinstance(f.sub, Not):
            stack.append(f.sub.sub)
        else:
            out.append(f)
    return out


def assert_split_as_by_the_reference(phi):
    assert [to_nnf(c) for c in reference_conjuncts(phi)] == _conjuncts(phi), phi


def test_conjuncts_match_the_reference_on_the_oracle_golden():
    sets = sentence_sets()
    assert len(sets) == 243
    for phis in sets.values():
        for phi in phis:
            assert_split_as_by_the_reference(phi)


def test_conjuncts_match_the_reference_on_the_corpus():
    for inst in corpus(42, 500):
        assert_split_as_by_the_reference(inst.phi)
        assert_split_as_by_the_reference(Not(inst.psi))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(formulas())
def test_conjuncts_match_the_reference_on_formulas(f):
    assert_split_as_by_the_reference(f)
    assert_split_as_by_the_reference(Not(f))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(wide_formulas())
def test_conjuncts_match_the_reference_on_wide_formulas(f):
    assert_split_as_by_the_reference(f)
    assert_split_as_by_the_reference(Not(f))
