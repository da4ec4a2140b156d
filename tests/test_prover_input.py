"""Checked prover inputs: merged and negated reports against the walk, and
the input check's errors against the joint check of ``prove``.

``merge_reports`` builds the report of two formula lists from their two
reports and ``negated_report`` that of NNF(¬θ) from θ's, with no walk; both
must equal ``signature_of`` field by field, in the order of the constants,
free variables and arities.  ``check_sides`` walks an L part and an R part
apart; ``craig_interpolant`` goes through it, and must raise what the
parent's path raised: ``refute(labeled([phi], [Not(psi)]), budget)``, with
the same text.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from craig.corpus import corpus
from craig.errors import FormulaError, NonSentenceError, NotNNFError
from craig.formulas import (
    And, Atom, Const, Exists, Forall, Not, Or, TOP, Var, merge_reports,
    negated_report, signature_of, to_nnf,
)
from craig.interpolation import craig_interpolant, entails
from craig.parser import parse
from craig.tableau import (
    Closed, LabeledSentence, check_input, check_sides, labeled, prove, refute,
    render_trace,
)

from test_formulas import formulas, wide_formulas
from test_substitution_program import BUDGET, problems


def fields(report) -> tuple:
    """Every field of a report, with the order of its ordered ones."""
    return (report.relations, list(report.arities.items()), list(report.constants),
            report.relsig_pos, report.relsig_neg, list(report.free_vars))


def outcome(call) -> tuple:
    """("ok", value) or (error class, error text)."""
    try:
        return "ok", call()
    except Exception as e:  # noqa: BLE001 - the error itself is compared
        return type(e), str(e)


def walked_or_merged(a: list, b: list):
    """The joint walk's outcome and the merge's, when each part walks."""
    joint = outcome(lambda: fields(signature_of(*a, *b)))
    merged = outcome(lambda: fields(merge_reports(signature_of(*a), signature_of(*b))))
    return joint, merged


@st.composite
def clashing_formulas(draw, max_depth=3):
    """Formulas whose relations P and Q take 0-2 arguments, so one relation
    may come with two arities, within a formula or across two; variables may
    occur free."""
    def build(depth, scope):
        options = ["atom"] + (["not", "and", "or", "exists", "forall", "top"]
                              if depth else [])
        kind = draw(st.sampled_from(options))
        if kind == "top":
            return TOP
        if kind == "atom":
            terms = st.sampled_from([Var(v) for v in (*scope, "z")]
                                    + [Const("a"), Const("b"), Const("c")])
            n = draw(st.integers(0, 2))
            return Atom(draw(st.sampled_from(["P", "Q"])), tuple(draw(terms) for _ in range(n)))
        if kind == "not":
            return Not(build(depth - 1, scope))
        if kind in ("and", "or"):
            items = tuple(build(depth - 1, scope) for _ in range(draw(st.integers(2, 3))))
            return (And if kind == "and" else Or)(items)
        v = draw(st.sampled_from(["x", "y"]))
        return (Exists if kind == "exists" else Forall)((v,), build(depth - 1, (*scope, v)))

    return build(max_depth, ())


# ---------------------------------------------------------------- merged reports

def corpus_parts() -> list:
    """(A, B) formula lists: each corpus instance's phi and ¬psi, raw and in
    NNF, and each Pelletier problem's and chain's left and negated right."""
    out = []
    for inst in corpus(42, 500):
        out.append(([inst.phi], [Not(inst.psi)]))
        out.append(([to_nnf(inst.phi)], [to_nnf(Not(inst.psi))]))
        out.append(([inst.psi], [inst.phi, inst.psi]))
    for left, right in problems():
        out.append((left, [Not(r) for r in right]))
        out.append((right, left))
    return out


def test_the_merged_report_is_the_joint_walk_on_the_corpus_and_pelletier():
    parts = corpus_parts()
    assert len(parts) > 1500
    for a, b in parts:
        joint, merged = walked_or_merged(a, b)
        assert joint[0] == "ok"
        assert merged == joint


@settings(max_examples=400, derandomize=True)
@given(st.lists(st.one_of(formulas(), wide_formulas()), max_size=3),
       st.lists(st.one_of(formulas(), wide_formulas()), max_size=3))
def test_the_merged_report_is_the_joint_walk_on_hypothesis_lists(a, b):
    joint, merged = walked_or_merged(a, b)
    assert merged == joint


@settings(max_examples=600, derandomize=True)
@given(st.lists(clashing_formulas(), max_size=3), st.lists(clashing_formulas(), max_size=3))
def test_the_merge_raises_the_joint_walks_clash(a, b):
    try:
        signature_of(*a), signature_of(*b)
    except FormulaError:
        return  # a part that clashes alone is never merged: check_sides walks jointly
    joint, merged = walked_or_merged(a, b)
    assert merged == joint


def test_a_clash_across_the_parts_names_the_first_relation_of_the_second():
    a = [parse("P(a) & Q(a, b)")]
    b = [Or((Atom("R", ()), Atom("Q", (Const("a"),)), Atom("P", ())))]
    with pytest.raises(FormulaError, match=r"^relation Q used with arities 2 and 1$"):
        signature_of(*a, *b)
    with pytest.raises(FormulaError, match=r"^relation Q used with arities 2 and 1$"):
        merge_reports(signature_of(*a), signature_of(*b))


# ---------------------------------------------------------------- negated reports

def interpolants() -> list:
    return [craig_interpolant(inst.phi, inst.psi, BUDGET) for inst in corpus(42, 300)]


def test_the_negated_report_is_the_report_of_the_nnf_of_the_negation():
    thetas = interpolants() + [s for left, right in problems() for s in (*left, *right)]
    for theta in thetas:
        report = signature_of(theta)
        assert fields(signature_of(to_nnf(theta))) == fields(report)
        assert fields(negated_report(report)) == fields(signature_of(to_nnf(Not(theta))))


@settings(max_examples=400, derandomize=True)
@given(st.one_of(formulas(), wide_formulas(), clashing_formulas()))
def test_the_negated_report_is_the_report_of_the_nnf_of_the_negation_on_hypothesis(theta):
    walked = outcome(lambda: fields(signature_of(to_nnf(Not(theta)))))
    assert outcome(lambda: fields(negated_report(signature_of(theta)))) == walked


# ---------------------------------------------------------------- the input check

def check_outcome(call) -> tuple:
    """The error of an input check, or its sentences and reports."""
    result = outcome(call)
    if result[0] != "ok":
        return result
    return "ok", result[1].sentences, fields(result[1].report)


@settings(max_examples=600, derandomize=True)
@given(st.lists(st.one_of(clashing_formulas(), formulas()), max_size=3),
       st.lists(st.one_of(clashing_formulas(), formulas()), max_size=3))
def test_check_sides_raises_what_the_joint_check_raises(a, b):
    # raw formulas, so open and non-NNF inputs reach the check too
    left = [LabeledSentence(f, "L") for f in a]
    right = [LabeledSentence(f, "R") for f in b]
    joint = check_outcome(lambda: check_input(left + right))
    assert check_outcome(lambda: check_sides(left, right)) == joint
    if joint[0] == "ok":
        inputs = check_sides(left, right)
        assert fields(inputs.sides[0]) == fields(signature_of(*a))
        assert fields(inputs.sides[1]) == fields(signature_of(*b))
        assert list(inputs) == left + right


def test_the_check_goes_input_by_input_open_then_nnf():
    open_nnf, closed_not_nnf = Atom("P", (Var("x"),)), Not(Not(parse("P(a)")))
    for inputs, error in (([closed_not_nnf, open_nnf], NotNNFError),
                          ([open_nnf, closed_not_nnf], NonSentenceError)):
        with pytest.raises(error):
            check_input(inputs)
        with pytest.raises(error):
            check_sides([LabeledSentence(inputs[0], "L")], [LabeledSentence(inputs[1], "R")])
    # a given report is trusted for the clash, not for the sentence check
    report = signature_of(open_nnf)
    with pytest.raises(NonSentenceError, match=r"^free variables in input: "):
        check_input([open_nnf], report)


def test_a_checked_input_proves_as_its_raw_sentences_do():
    for inst in corpus(42, 300):
        raw = labeled([inst.phi], [Not(inst.psi)])
        checked = check_sides(labeled([inst.phi], ()), labeled((), [Not(inst.psi)]))
        a, b = prove(raw, BUDGET), prove(checked, BUDGET)
        assert type(a) is type(b) is Closed
        assert a.tableau.rule_applications == b.tableau.rule_applications
        assert render_trace(a.tableau) == render_trace(b.tableau)


def test_entails_with_reports_proves_as_without():
    for inst, theta in zip(corpus(42, 300), interpolants()):
        for a, b in ((inst.phi, theta), (theta, inst.psi), (inst.psi, inst.phi)):
            walked = entails(a, b, BUDGET)
            merged = entails(a, b, BUDGET, (signature_of(a), signature_of(b)))
            assert type(walked) is type(merged)
            if isinstance(walked, Closed):
                assert render_trace(walked.tableau) == render_trace(merged.tableau)


# ---------------------------------------------------------------- craig's errors

def error_cases() -> list:
    """(phi, psi, budget) whose Craig extraction raises before any proof."""
    ra, rab = Atom("R", (Const("a"),)), Atom("R", (Const("a"), Const("b")))
    sa, sab = Atom("S", (Const("a"),)), Atom("S", (Const("a"), Const("b")))
    px, qy = Atom("P", (Var("x"),)), Atom("Q", (Var("y"),))
    return [
        (ra, And((rab, sa, sab)), 100),          # a clash across; psi clashes alone too
        (And((sa, sab)), ra, 100),               # a clash inside phi
        (ra, And((sa, sab)), 100),               # a clash inside psi
        (ra, rab, 100),                          # a clash across the sides only
        (ra, rab, 0),                            # a bad budget before the clash
        (ra, And((rab, sa, sab)), True),         # a bool is not a budget
        (And((sa, sab)), ra, "5"),
        (px, px, 100),                           # open phi
        (ra, qy, 100),                           # open psi
        (px, And((sa, sab)), 100),               # open phi, clash inside psi
        (And((px, ra)), rab, 100),               # open phi, clash across
        (px, qy, -1),                            # open, bad budget
        ("R(a)", ra, 100),                       # not a formula: to_nnf's error first
        ("R(a)", ra, 0),
        (parse("forall x. exists y. R(x, y)"),   # budget exhausted
         parse("!(forall x. exists y. !R(y, x))"), 1),
    ]


@pytest.mark.parametrize("case", range(len(error_cases())))
def test_craig_raises_what_the_joint_check_raises(case):
    phi, psi, budget = error_cases()[case]
    expected = outcome(lambda: refute(labeled([phi], [Not(psi)]), budget))
    assert expected[0] != "ok"
    assert outcome(lambda: craig_interpolant(phi, psi, budget)) == expected


def test_craig_pins_the_error_texts():
    texts = [outcome(lambda c=c: craig_interpolant(*c))[1] for c in error_cases()]
    assert texts[0] == "relation R used with arities 1 and 2"
    assert texts[1] == texts[2] == "relation S used with arities 1 and 2"
    assert texts[3] == "relation R used with arities 1 and 2"
    assert texts[4] == "budget must be a positive int, got 0"
    assert texts[5] == "budget must be a positive int, got True"
    assert texts[6] == "budget must be a positive int, got '5'"
    assert texts[7].startswith("free variables in input: Atom(rel='P'")
    assert texts[8].startswith("free variables in input: Not(sub=Atom(rel='Q'")
    assert texts[9] == "relation S used with arities 1 and 2"
    assert texts[10] == "relation R used with arities 1 and 2"
    assert texts[11] == "budget must be a positive int, got -1"
    assert texts[12] == texts[13] == "not a formula: 'R(a)'"
    assert texts[14] == "budget exhausted after 1 rule applications"
