from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from craig.errors import (
    BranchNotSaturatedError, FormulaError, NonSentenceError, NotNNFError,
)
from craig.formulas import (
    BOTTOM, TOP, And, Atom, Exists, Forall, Not, Or, Var, free_vars, to_nnf,
)
from craig.interpolation import propagate
from craig.models import evaluate, find_model
from craig.parser import parse, print_formula
from craig.tableau import (
    Branch, Closed, Closure, LabeledSentence, Satisfiable, Unknown, prove,
    render_trace, saturated_branch_model,
)
from test_formulas import formulas, wide_formulas


def _labeled(left, right=()):
    out = [LabeledSentence(to_nnf(parse(s)), "L") for s in left]
    out += [LabeledSentence(to_nnf(parse(s)), "R") for s in right]
    return out


def _clash_pairs(tableau):
    pairs = []
    for leaf in tableau.leaves():
        assert isinstance(leaf.rule, Closure)
        ev = leaf.rule.evidence
        assert ev[0] == "clash"
        pairs.append((print_formula(ev[1].formula), ev[1].label,
                      print_formula(ev[2].formula), ev[2].label))
    return pairs


def test_fig2_closes_with_expected_shape(fig2_inputs):
    left, right = fig2_inputs
    out = prove([LabeledSentence(to_nnf(left), "L"),
                 LabeledSentence(to_nnf(right), "R")], 10_000)
    assert isinstance(out, Closed)
    assert out.tableau.branch_count() == 2
    assert _clash_pairs(out.tableau) == [
        ("A(c0)", "L", "!A(c0)", "R"),
        ("B(c0)", "R", "!B(c0)", "L"),
    ]


def test_trivial_clash_closes_in_one_step():
    out = prove(_labeled(["P(c)"], ["!P(c)"]), 100)
    assert isinstance(out, Closed)
    assert out.tableau.rule_applications == 1


def test_single_literal_is_satisfiable():
    out = prove(_labeled(["P(c)"]), 100)
    assert isinstance(out, Satisfiable)
    assert out.structure.domain_size == 1
    assert evaluate(out.structure, parse("P(c)"))


def test_model_honesty_on_saturated_branch():
    sentences = ["exists x. P(x) | Q(x)", "forall x. !Q(x)"]
    out = prove(_labeled(sentences), 1000)
    assert isinstance(out, Satisfiable)
    for s in sentences:
        assert evaluate(out.structure, to_nnf(parse(s)))


def test_forall_seeds_fresh_constant_on_empty_branch():
    out = prove(_labeled(["forall x. P(x)"]), 100)
    assert isinstance(out, Satisfiable)
    assert out.structure.relations["P"] == {(0,)}


def test_forall_reinstantiation_closes():
    out = prove(_labeled(["(exists x y. R(x,y)) & forall x y. !R(x,y)"]), 1000)
    assert isinstance(out, Closed)


def test_budget_exhaustion_reports_unknown():
    out = prove(_labeled(["forall x. exists y. R(x,y)"]), 50)
    assert isinstance(out, Unknown)
    assert out.budget_spent == 50


def test_non_sentence_rejected():
    f = Atom("P", (Var("x"),))
    with pytest.raises(NonSentenceError):
        prove([LabeledSentence(f, "L")], 10)


def test_arity_clash_rejected():
    # the one arity check (signature_of) now also guards the prover's inputs
    # (each set would close at once on its clash if nothing checked)
    with pytest.raises(FormulaError, match="relation R used with arities 1 and 2"):
        prove(_labeled(["R(a)", "!R(a)", "R(a, a)"]), 10)
    with pytest.raises(FormulaError, match="relation R used with arities 2 and 1"):
        prove(_labeled(["R(a, a)", "!R(a, a)"], ["R(a)"]), 10)


def test_non_nnf_rejected():
    with pytest.raises(NotNNFError):
        prove([LabeledSentence(parse("!(P(c) & Q(c))"), "L")], 10)


def test_bottom_input_closes():
    out = prove(_labeled(["false"]), 10)
    assert isinstance(out, Closed)
    leaf = out.tableau.leaves()[0]
    assert leaf.rule.evidence[0] == "bottom"


def test_determinism_of_outcomes(fig2_inputs):
    left, right = fig2_inputs
    inputs = [LabeledSentence(to_nnf(left), "L"), LabeledSentence(to_nnf(right), "R")]
    first = prove(inputs, 10_000)
    second = prove(inputs, 10_000)
    assert render_trace(first.tableau) == render_trace(second.tableau)


def test_soundness_against_finite_models():
    # whenever the tableau closes, the exhaustive oracle finds no small model
    unsat_sets = [
        ["P(c)", "!P(c)"],
        ["exists x. P(x) & !P(x)"],
        ["(forall x. P(x)) & exists y. !P(y)"],
        ["forall x. P(x) -> Q(x)", "P(c)", "!Q(c)"],
    ]
    for sentences in unsat_sets:
        parsed = [parse(s) for s in sentences]
        out = prove([LabeledSentence(to_nnf(f), "L") for f in parsed], 5000)
        assert isinstance(out, Closed), sentences
        assert find_model(parsed, 3) is None, sentences


def test_fairness_every_item_processed_before_saturation():
    # saturation implies no applicable rule was postponed: every universal is
    # instantiated with every branch constant and every disjunction satisfied
    sentences = ["exists x. Q(x)", "forall x. P(x)", "P(d) | Q(d)"]
    out = prove(_labeled(sentences), 1000)
    assert isinstance(out, Satisfiable)
    model = out.structure
    # both constants (d and the witness) must satisfy P
    assert len(model.relations["P"]) == model.domain_size


def test_trace_golden(fig2_inputs):
    left, right = fig2_inputs
    out = prove([LabeledSentence(to_nnf(left), "L"),
                 LabeledSentence(to_nnf(right), "R")], 10_000)
    assert render_trace(out.tableau) == """\
* exists x. (A(x) & !B(x)) & C(x) ^L  [input]
* forall y. !A(y) & E(y) | B(y) ^R  [input]
* (A(c0) & !B(c0)) & C(c0) ^L  [exists c0]
* !A(c0) & E(c0) | B(c0) ^R  [forall c0]
* A(c0) & !B(c0) ^L  [and]
* C(c0) ^L  [and]
* A(c0) ^L  [and]
* !B(c0) ^L  [and]
  * !A(c0) & E(c0) ^R  [or]
  * !A(c0) ^R  [and]
  * E(c0) ^R  [and]
  x  clash: A(c0) ^L / !A(c0) ^R
  * B(c0) ^R  [or]
  x  clash: B(c0) ^R / !B(c0) ^L
"""


@pytest.mark.parametrize("left, right, expected", [
    ("false", "P(a)", """\
* false ^L  [input]
* P(a) ^R  [input]
  [interpolant false]
x  bottom: false ^L
  [interpolant false]
"""),
    ("P(a)", "false", """\
* P(a) ^L  [input]
* false ^R  [input]
  [interpolant true]
x  bottom: false ^R
  [interpolant true]
"""),
], ids=["bottom-left", "bottom-right"])
def test_trace_bottom_closure(left, right, expected):
    # a bottom leaf gives false when L-labeled and true when R-labeled
    out = prove(_labeled([left], [right]), 10)
    assert render_trace(out.tableau, propagate(out.tableau).interpolants) == expected


# --------------------------------------------------------- branch models

def test_branch_model_single_literal():
    branch = Branch.from_sentences([parse("P(c)")])
    model = saturated_branch_model(branch)
    assert model.domain_size == 1
    assert model.relations["P"] == {(0,)}
    assert model.constants == {"c": 0}


def test_branch_model_negative_literal():
    branch = Branch.from_sentences([parse("P(c)"), parse("!Q(c)")])
    model = saturated_branch_model(branch)
    assert model.relations["P"] == {(0,)}
    assert model.relations["Q"] == frozenset()


def test_branch_model_fully_instantiated_forall():
    branch = Branch.from_sentences([to_nnf(parse("forall x. P(x)")), parse("P(c)")])
    model = saturated_branch_model(branch)
    assert model.relations["P"] == {(0,)}
    assert evaluate(model, to_nnf(parse("forall x. P(x)")))


def test_branch_model_rejects_unsaturated():
    branch = Branch.from_sentences([to_nnf(parse("exists x. P(x)"))])
    with pytest.raises(BranchNotSaturatedError):
        saturated_branch_model(branch)


def test_branch_model_rejects_missing_instantiation():
    branch = Branch.from_sentences([to_nnf(parse("forall x. P(x)")), parse("Q(c)")])
    with pytest.raises(BranchNotSaturatedError):
        saturated_branch_model(branch)


def test_branch_model_rejects_closed_branch():
    branch = Branch.from_sentences([parse("P(c)"), parse("!P(c)")])
    with pytest.raises(BranchNotSaturatedError):
        saturated_branch_model(branch)


def test_empty_input_is_satisfiable():
    out = prove([], 10)
    assert isinstance(out, Satisfiable)
    assert out.structure.domain_size == 1


def test_budget_spent_never_exceeds_budget():
    for budget in (1, 3, 10, 200):
        out = prove(_labeled(["forall x. exists y. R(x,y)"]), budget)
        assert isinstance(out, Unknown)
        assert out.budget_spent == budget


def test_zero_ary_relations_in_proofs():
    out = prove(_labeled(["Z & P(c)"], ["!Z"]), 100)
    assert isinstance(out, Closed)
    sat = prove(_labeled(["Z | P(c)"]), 100)
    assert isinstance(sat, Satisfiable)


# ------------------------------------------------------ vacuous ∃ blocks

@pytest.mark.parametrize("sentence, relations", [
    (Exists(("x",), TOP), {}),
    (parse("exists x. P"), {"P": {()}}),
    (parse("exists x y. P & !Q"), {"P": {()}, "Q": frozenset()}),
])
def test_vacuous_exists_on_a_constant_free_branch_is_satisfiable(sentence, relations):
    # the body, which uses no block variable, is its own one instance
    out = prove([LabeledSentence(to_nnf(sentence), "L")], 100)
    assert isinstance(out, Satisfiable)
    assert out.structure.domain_size == 1
    assert out.structure.relations == relations
    assert evaluate(out.structure, sentence)


def test_vacuous_exists_still_needs_its_body():
    with pytest.raises(BranchNotSaturatedError, match="no witness"):
        saturated_branch_model(Branch.from_sentences([parse("exists x. P(x)")]))
    with pytest.raises(BranchNotSaturatedError, match="no witness"):
        saturated_branch_model(Branch.from_sentences([parse("exists x. P")]))
    model = saturated_branch_model(Branch.from_sentences([parse("exists x. P"),
                                                          parse("P")]))
    assert model.relations == {"P": {()}}


def _close(phi, draw):
    for v in sorted(free_vars(phi)):
        phi = draw(st.sampled_from([Exists, Forall]))((v,), phi)
    return phi


@st.composite
def vacuous_exists_sets(draw):
    """One to three sentences, each under a vacuous ∃ block of one or two
    variables: generated formulas with their free variables bound, and
    constant-free ones over 0-ary A, B, where the ∃ rule mints no constant."""
    propositional = st.recursive(
        st.sampled_from([Atom("A", ()), Atom("B", ()), TOP, BOTTOM]),
        lambda inner: st.one_of(st.builds(Not, inner),
                                st.builds(lambda a, b: And((a, b)), inner, inner),
                                st.builds(lambda a, b: Or((a, b)), inner, inner)),
        max_leaves=4)
    sentences = []
    for _ in range(draw(st.integers(1, 3))):
        phi = _close(draw(st.one_of(formulas(max_depth=2), wide_formulas(),
                                    propositional)), draw)
        sentences.append(Exists(draw(st.sampled_from([("k",), ("k", "m")])), phi))
    return sentences


@settings(max_examples=200, derandomize=True, deadline=None)
@given(vacuous_exists_sets())
def test_vacuous_exists_blocks_agree_with_find_model(sentences):
    out = prove([LabeledSentence(to_nnf(s), "L") for s in sentences], 300)
    if isinstance(out, Closed):
        assert find_model(sentences, 2) is None
    elif isinstance(out, Satisfiable):
        assert all(evaluate(out.structure, s) for s in sentences)
        if out.structure.domain_size <= 2:
            assert find_model(sentences, 2) is not None
