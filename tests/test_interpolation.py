from __future__ import annotations

import pytest

from craig import definability, interpolation, theory
from craig.corpus import corpus
from craig.definability import (
    Theory, explicit_definition, monotone_rewrite, robinson_separator,
)
from craig.errors import FormulaError, NotProvedWithinBudget, NotValid
from craig.formulas import (
    BOTTOM, TOP, Atom, Const, Not, RESERVED_CONSTANT, signature_of, simplify, to_nnf,
)
from craig.interpolation import (
    AnnotatedTableau, Verdict, certify, craig_interpolant, entails, enumerate_shared_formulas,
    interpolant_from_labeled, lyndon_check, propagate, search_interpolant,
    verify_interpolant,
)
from craig.models import enumerate_structures, evaluate

from craig.parser import parse, print_formula
from craig.tableau import Closed, ClosedTableau, LabeledSentence, check_input, prove
from craig.theory import strong_interpolant, weak_interpolant


def parent_map(tableau) -> dict:
    """Node id -> parent node (None for the root), read off ``children``."""
    parents = {tableau.root.id: None}
    stack = [tableau.root]
    while stack:
        node = stack.pop()
        for ch in node.children:
            parents[ch.id] = node
        stack.extend(node.children)
    return parents


def side_sentences(node, label: str, parents: dict) -> list:
    """Sentences with the given label introduced at the node or above it."""
    out = []
    n = node
    while n is not None:
        for ls in n.introduced:
            if ls.label == label:
                out.append(ls.formula)
        n = parents[n.id]
    out.reverse()
    return out


def _prove_fig2(fig2_inputs):
    left, right = fig2_inputs
    out = prove([LabeledSentence(to_nnf(left), "L"),
                 LabeledSentence(to_nnf(right), "R")], 10_000)
    assert isinstance(out, Closed)
    return out.tableau


def test_fig2_propagation_cases(fig2_inputs):
    tableau = _prove_fig2(fig2_inputs)
    annotated = propagate(tableau)
    by_node = annotated.interpolants
    leaves = tableau.leaves()
    assert print_formula(by_node[leaves[0].id]) == "A(c0)"
    assert print_formula(by_node[leaves[1].id]) == "!B(c0)"
    # the or-node combines with ∧ (R-labeled premise)
    parents = parent_map(tableau)
    or_parent = parents[leaves[0].id]
    while len(or_parent.children) < 2:
        or_parent = parents[or_parent.id]
    assert print_formula(by_node[or_parent.id]) == "A(c0) & !B(c0)"
    assert print_formula(annotated.root_interpolant()) == "exists x0. A(x0) & !B(x0)"


def test_fig2_root_interpolant_verified(fig2_inputs):
    left, right = fig2_inputs
    theta, _ = interpolant_from_labeled(
        [LabeledSentence(to_nnf(left), "L"), LabeledSentence(to_nnf(right), "R")],
        10_000)
    # the extracted sentence interpolates the implication left -> !right
    assert verify_interpolant(left, Not(right), theta, 10_000)
    target = parse("exists x. A(x) & !B(x)")
    assert isinstance(entails(theta, target, 10_000), Closed)
    assert isinstance(entails(target, theta, 10_000), Closed)


def test_fig2_per_node_invariant(fig2_inputs):
    # finite-model screening of the propagation claim at every node
    tableau = _prove_fig2(fig2_inputs)
    annotated = propagate(tableau)
    nodes = []

    def collect(node):
        nodes.append(node)
        for ch in node.children:
            collect(ch)

    collect(tableau.root)
    parents = parent_map(tableau)
    for node in nodes:
        theta = annotated.interpolants[node.id]
        chi_l = side_sentences(node, "L", parents)
        chi_r = side_sentences(node, "R", parents)
        sig = signature_of(*(chi_l + chi_r + [theta]))
        for n in (1, 2, 3):
            for A in enumerate_structures(sig, n):
                if all(evaluate(A, f) for f in chi_l):
                    assert evaluate(A, theta)
                if all(evaluate(A, f) for f in chi_r):
                    assert not evaluate(A, theta)


def test_one_leaf_clash_interpolant():
    theta, _ = interpolant_from_labeled(
        [LabeledSentence(parse("P(c)"), "L"),
         LabeledSentence(to_nnf(parse("!P(c)")), "R")], 100)
    assert theta == parse("P(c)")


def test_one_leaf_same_side_clash_gives_bottom():
    theta, _ = interpolant_from_labeled(
        [LabeledSentence(parse("P(c)"), "L"),
         LabeledSentence(to_nnf(parse("!P(c)")), "L"),
         LabeledSentence(parse("Q(d)"), "R")], 100)
    assert theta == BOTTOM


def test_craig_identity():
    assert craig_interpolant(parse("P(c)"), parse("P(c)"), 100) == parse("P(c)")


def test_craig_from_contradiction():
    theta = craig_interpolant(parse("A(c) & !A(c)"), parse("B(d)"), 100)
    assert theta == BOTTOM


def test_craig_example1(example1):
    phi, psi, theta1, _ = example1
    theta = craig_interpolant(phi, psi, 10_000)
    report = signature_of(theta)
    assert report.relations <= {"Cat", "Big"}
    assert not report.constants
    assert isinstance(entails(theta, theta1, 10_000), Closed)
    assert isinstance(entails(theta1, theta, 10_000), Closed)


def test_craig_rejects_invalid_implication():
    with pytest.raises(NotValid) as exc:
        craig_interpolant(parse("P(c)"), parse("Q(d)"), 1000)
    assert exc.value.structure is not None


def test_reprove_countermodel_is_internal_error():
    # a claim the construction made has a model: the construction is wrong,
    # and no budget would have re-proved it
    with pytest.raises(FormulaError, match="internal error"):
        certify(TOP, (), [("P(c) is contradictory", check_input([parse("P(c)")]))], 1000,
                signature_of(TOP))


def _leaking_constructions(tallest):
    """Each construction, called on inputs for which the theta beside it
    passes every re-proof the construction makes, and the symbol of theta
    outside the signature the construction may use."""
    r, padded, empty = parse("R(a)"), parse("R(a) & (Z | !Z)"), Theory(())
    sigma1, sigma2 = Theory((parse("P(a)"), parse("Q(a)"))), Theory((parse("!P(a)"),))
    return {
        "craig": (lambda: craig_interpolant(r, r, 1000), padded, "Z"),
        # S occurs on the left only: the allowed symbols are the two sides'
        # common ones, not all of them
        "craig-one-side": (lambda: craig_interpolant(parse("R(a) & S(a)"),
                                                     parse("R(a) | T(a)"), 1000),
                           parse("R(a) & (S(a) | !S(a))"), "S"),
        "beth": (lambda: explicit_definition(tallest, "Tallest", ["Taller-than"], 1000),
                 Atom("Tallest", (Const("c0"),)), "Tallest"),  # c0: the defined tuple
        "robinson": (lambda: robinson_separator(sigma1, sigma2, 1000),
                     parse("P(a) & Q(a)"), "Q"),
        "monotone": (lambda: monotone_rewrite(r, "R", 1000), padded, "Z"),
        "weak": (lambda: weak_interpolant(empty, r, r, 1000), padded, "Z"),
        "strong": (lambda: strong_interpolant(empty, r, r, 1000), padded, "Z"),
    }


@pytest.mark.parametrize("name", ["craig", "craig-one-side", "beth", "robinson",
                                  "monotone", "weak", "strong"])
def test_every_construction_rejects_a_leaked_symbol(name, tallest_theory, monkeypatch):
    call, theta, leak = _leaking_constructions(tallest_theory)[name]

    def leaking(inputs, budget):
        # the stand-in for the proof keeps what a closed tableau keeps and
        # the constructions read: its checked input, with the sides' reports
        return theta, AnnotatedTableau(ClosedTableau(None, check_input(inputs), 0), {})

    for module in (interpolation, definability, theory):
        monkeypatch.setattr(module, "interpolant_from_labeled", leaking)
    with pytest.raises(FormulaError, match=f"internal error: {leak} outside the signature"):
        call()


def test_craig_budget_exhaustion():
    with pytest.raises(NotProvedWithinBudget):
        craig_interpolant(parse("forall x. exists y. R(x,y)"),
                          parse("!(forall x. exists y. !R(y,x))"), 30)


def test_verify_example1(example1):
    phi, psi, theta1, _ = example1
    assert verify_interpolant(phi, psi, theta1, 10_000).kind == Verdict.VERIFIED


def test_verify_signature_violation(example1):
    phi, psi, _, _ = example1
    verdict = verify_interpolant(phi, psi, parse("exists x. Green(x)"), 1000)
    assert verdict.kind == Verdict.SIGNATURE_VIOLATION
    assert "Green" in verdict.details


@pytest.mark.parametrize("phi, psi, theta", [
    ("R(a, b) & S(a)", "R(a, b) | T(a)", "R(a)"),  # theta's R is not phi's and psi's
    ("R(a, b) & S(a)", "R(a) | T(a)", "R(a, b)"),  # phi's R is not psi's
    ("!R(a, b) & S(a)", "!R(a, b) | T(a)", "!R(a)"),
])
def test_a_relation_is_its_name_and_arity(phi, psi, theta):
    phi, psi, theta = parse(phi), parse(psi), parse(theta)
    assert not lyndon_check(phi, psi, theta)
    verdict = verify_interpolant(phi, psi, theta, 1000)
    assert (verdict.kind, verdict.details) == (Verdict.SIGNATURE_VIOLATION,
                                               "relations not shared: R")
    # with one arity throughout, the polarities pass
    assert lyndon_check(*[parse(print_formula(f).replace("R(a, b)", "R(a)"))
                          for f in (phi, psi, theta)])


def test_verify_not_entailed_carries_its_countermodel(example1):
    phi, psi, _, _ = example1
    theta = parse("forall x. Cat(x)")
    verdict = verify_interpolant(phi, psi, theta, 10_000)
    assert verdict.kind == Verdict.NOT_ENTAILED
    assert evaluate(verdict.structure, phi) and not evaluate(verdict.structure, theta)
    assert verify_interpolant(phi, psi, parse("exists x. Big(x) & Cat(x)"),
                              10_000).structure is None


def test_verify_budget(example1):
    phi, psi, theta1, _ = example1
    verdict = verify_interpolant(phi, psi, theta1, 1)
    assert verdict.kind == Verdict.ENTAILMENT_UNKNOWN


def test_lyndon_example2(example1):
    phi, psi, theta1, theta2 = example1
    assert lyndon_check(phi, psi, theta1)
    assert not lyndon_check(phi, psi, theta2)


def test_lyndon_top_always_passes(example1):
    phi, psi, _, _ = example1
    assert lyndon_check(phi, psi, TOP)


def test_extracted_interpolants_verified_and_lyndon_on_sample():
    for inst in corpus(7, 40):
        theta = craig_interpolant(inst.phi, inst.psi, 20_000)
        assert verify_interpolant(inst.phi, inst.psi, theta, 20_000)
        assert lyndon_check(inst.phi, inst.psi, theta)
        for c in signature_of(theta).constants:
            assert not RESERVED_CONSTANT.match(c), (inst.index, c)


def test_negated_interpolant_interpolates_the_contrapositive():
    # duality: theta interpolates phi -> psi, so !theta interpolates !psi -> !phi
    for inst in corpus(42, 150):
        theta = craig_interpolant(inst.phi, inst.psi, 20_000)
        verdict = verify_interpolant(Not(inst.psi), Not(inst.phi), Not(theta), 20_000)
        assert verdict.kind == Verdict.VERIFIED, (inst.index, verdict)


def test_enumerate_shared_formulas_canonical_and_closed():
    seen = list(enumerate_shared_formulas({"P": 1}, ["c"], 4))
    assert seen[0] == TOP
    assert parse("P(c)") in seen
    assert BOTTOM in seen
    for f in seen:
        assert not signature_of(f).free_vars
    assert len(seen) == len(set(seen))


@pytest.mark.parametrize("relations, constants, max_size, count", [
    ({"P": 0, "A": 1, "R": 2}, ["k"], 6, 43_832),
    ({"A": 1, "B": 1}, ["a", "b"], 6, 35_638),
    ({"R": 2}, [], 7, 16_362),
    ({"Q": 0}, ["x0"], 7, 9_212),
])
def test_enumerate_shared_formulas_yields_no_repeats(relations, constants, max_size, count):
    # the enumeration keeps no set of what it yielded: a formula's size
    # follows from its structure, and no (size, scope) list repeats
    seen = list(enumerate_shared_formulas(relations, constants, max_size))
    assert len(seen) == count
    assert len(set(seen)) == count


def test_search_finds_verified_interpolant(example1):
    phi, psi, _, _ = example1
    theta = search_interpolant(phi, psi, 8, 10_000)
    assert theta is not None
    assert verify_interpolant(phi, psi, theta, 10_000)


def test_search_unknown_candidate_raises(example1):
    # at budget 1 the first screened candidate can be neither verified nor
    # refuted, so no later candidate may be reported as the first verified one
    phi, psi, _, _ = example1
    with pytest.raises(NotProvedWithinBudget, match="neither verified nor refuted"):
        search_interpolant(phi, psi, 6, 1)


def test_search_absent_for_non_entailment():
    assert search_interpolant(parse("P(c)"), parse("Q(d)"), 4, 1000) is None


def test_search_finds_bottom_for_contradictory_left():
    theta = search_interpolant(parse("A(c) & !A(c)"), parse("B(d)"), 2, 1000)
    assert theta == BOTTOM


def test_example1_pinned_forms(example1):
    # golden: the raw extraction keeps the propagation shape; the optional
    # normalization pass reduces it
    phi, psi, _, _ = example1
    theta = craig_interpolant(phi, psi, 10_000)
    assert print_formula(theta) == "exists x0. false | Big(x0) & Cat(x0)"
    assert print_formula(simplify(theta)) == "exists x0. Big(x0) & Cat(x0)"


def test_multivariable_block_interpolation():
    phi = parse("(forall x y. R(x,y)) & P(c)")
    psi = parse("R(c,c) | Q(c)")
    theta = craig_interpolant(phi, psi, 1000)
    assert theta == parse("R(c, c)")


def test_multivariable_exists_block_interpolation():
    phi = parse("exists x y. R(x,y) & S(x)")
    psi = parse("exists u. exists v. R(u,v)")
    theta = craig_interpolant(phi, psi, 1000)
    assert verify_interpolant(phi, psi, theta, 1000)


def test_zero_ary_relation_interpolation():
    phi = parse("Z & P(c)")
    psi = parse("Z | Q(c)")
    theta = craig_interpolant(phi, psi, 1000)
    assert theta == parse("Z")
    assert lyndon_check(phi, psi, theta)


def test_interpolant_with_top_consequent():
    theta = craig_interpolant(parse("P(c)"), parse("true"), 100)
    assert verify_interpolant(parse("P(c)"), parse("true"), theta, 100)


def test_per_node_invariant_on_corpus_sample():
    # finite-model screening of the propagation claim over random proofs
    for inst in corpus(11, 12):
        outcome = prove([LabeledSentence(to_nnf(inst.phi), "L"),
                         LabeledSentence(to_nnf(Not(inst.psi)), "R")], 20_000)
        assert isinstance(outcome, Closed)
        annotated = propagate(outcome.tableau)
        stack = [outcome.tableau.root]
        nodes = []
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children)
        parents = parent_map(outcome.tableau)
        for node in nodes:
            theta = annotated.interpolants[node.id]
            chi_l = side_sentences(node, "L", parents)
            chi_r = side_sentences(node, "R", parents)
            sig = signature_of(*(chi_l + chi_r + [theta]))
            for n in (1, 2):
                for A in enumerate_structures(sig, n):
                    if all(evaluate(A, f) for f in chi_l):
                        assert evaluate(A, theta), (inst.index, node.id)
                    if all(evaluate(A, f) for f in chi_r):
                        assert not evaluate(A, theta), (inst.index, node.id)
