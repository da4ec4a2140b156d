"""Every proving entry point takes sentences; ``prove`` checks every input
that reaches it, and ``search_interpolant`` checks its own before its model
screens run.

An open formula reaching any of them raises FormulaError (NonSentenceError
is one), whichever argument it is passed as; none of them closes it by
freezing its free variables.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings

from craig.definability import Theory, monotone_rewrite
from craig.errors import FormulaError, NonSentenceError, NotNNFError
from craig.formulas import Atom, Var, signature_of
from craig.interpolation import (
    craig_interpolant, entails, search_interpolant, verify_interpolant,
)
from craig.parser import parse
from craig.tableau import LabeledSentence, labeled, prove
from craig.theory import strong_interpolant, weak_interpolant
from test_formulas import formulas

BUDGET = 200
SENTENCE = parse("P(c) | !P(c)")
EMPTY = Theory(())


def _entry_points(phi, other):
    """One call per proving entry point, with phi as the open argument."""
    return {
        "prove": lambda: prove(labeled([other], [phi]), BUDGET),
        "entails": lambda: entails(phi, other, BUDGET),
        "entails-psi": lambda: entails(other, phi, BUDGET),
        # theta = phi mentions only symbols phi and psi share
        "verify_interpolant": lambda: verify_interpolant(phi, phi, phi, BUDGET),
        "craig_interpolant": lambda: craig_interpolant(phi, other, BUDGET),
        "weak_interpolant": lambda: weak_interpolant(EMPTY, other, phi, BUDGET),
        "strong_interpolant": lambda: strong_interpolant(EMPTY, phi, other, BUDGET),
        "monotone_rewrite": lambda: monotone_rewrite(phi, "P", BUDGET, arity=1),
        "search_interpolant": lambda: search_interpolant(phi, other, 2, BUDGET),
    }


@settings(max_examples=60, derandomize=True, deadline=None)
@given(formulas())
def test_open_formulas_raise_in_every_proving_entry(phi):
    assume(signature_of(phi).free_vars)
    for name, call in _entry_points(phi, SENTENCE).items():
        try:
            call()
        except FormulaError:
            continue
        pytest.fail(f"{name} accepted the open formula {phi!r}")


OPEN = Atom("P", (Var("x"),))
NOT_NNF = parse("!(P(a) & P(b))")


@pytest.mark.parametrize("bad", [OPEN, NOT_NNF], ids=["open", "not-nnf"])
def test_prove_reports_an_arity_clash_first(bad):
    inputs = [LabeledSentence(parse("P(a, a)"), "L"), LabeledSentence(bad, "L"),
              LabeledSentence(parse("P(a)"), "R")]
    with pytest.raises(FormulaError, match="relation P used with arities 2 and 1"):
        prove(inputs, BUDGET)


def test_prove_names_the_first_bad_input():
    with pytest.raises(NotNNFError, match="not in NNF"):
        prove([LabeledSentence(NOT_NNF, "L"), LabeledSentence(OPEN, "R")], BUDGET)
    with pytest.raises(NonSentenceError, match="free variables"):
        prove([LabeledSentence(OPEN, "L"), LabeledSentence(NOT_NNF, "R")], BUDGET)
