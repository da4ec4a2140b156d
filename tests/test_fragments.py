from __future__ import annotations

import pathlib
import random

import pytest
from hypothesis import given, settings

from craig.corpus import SignaturePool, _random_formula, corpus
from craig.errors import UnknownFragmentError
from craig.formulas import (
    And, Atom, Const, Exists, Forall, Not, Or, Var, free_vars, to_nnf, variable_names, walk,
)
from craig.fragments import (
    _CIP_TABLE, HAS, LACKS, NOT_APPLICABLE, FragmentReport, canonical_rename, cip_status,
    classify,
)
from craig.parser import parse, parse_problem
from test_formulas import formulas, wide_formulas

PELLETIER = pathlib.Path(__file__).parent.parent / "bench" / "pelletier"


def test_classify_guarded_two_variable_example():
    report = classify(parse("exists x y. R(x,y) & R(y,x)"))
    assert report.guarded
    assert report.two_variable
    assert report.unary_negation
    assert report.guarded_negation
    assert not report.quantifier_free


def test_classify_relativized_example():
    phi = parse("(exists x. P(x) & R(x,x)) & forall x. P(x) -> Q(x)")
    assert classify(phi, {"P", "Q", "T"}).relativized
    assert not classify(phi, {"Q"}).relativized


@pytest.mark.parametrize("text", ["exists x. U(x)", "forall x. !U(x)",
                                  "exists x. U(x) & true", "forall x. U(x) -> false"])
def test_a_lone_guard_is_relativized(text):
    # the first two are the guard alone, the last two the same guard with a
    # trivial rest
    assert classify(parse(text), {"U"}).relativized
    assert not classify(parse(text), {"V"}).relativized


def test_classify_top():
    report = classify(parse("true"))
    assert report.quantifier_free and report.relativized
    assert report.two_variable and report.guarded
    assert report.unary_negation and report.guarded_negation


def test_quantifier_free_iff_empty_relativized():
    pool = SignaturePool((("P", 1), ("R", 2)), ("c",))
    for i in range(1000):
        rng = random.Random(i)
        phi = _random_formula(rng, pool, depth=2)
        report = classify(phi, set())
        assert report.quantifier_free == report.relativized, i


def test_two_variable_canonicalizes_names():
    # three names, but two suffice after renaming
    phi = parse("(exists x. P(x)) & (exists y. P(y)) & exists z. P(z)")
    assert classify(phi).two_variable
    # genuinely three variables
    assert not classify(parse("exists x y z. T(x,y,z)")).two_variable


def test_classification_stable_under_renaming():
    a = parse("forall u. P(u) -> exists w. R(u,w)")
    b = parse("forall x. P(x) -> exists y. R(x,y)")
    assert classify(a) == classify(b)


def test_canonical_rename_structure():
    phi = parse("exists a. P(a) & exists b. R(a, b)")
    renamed = canonical_rename(phi)
    assert classify(phi).two_variable
    assert renamed == parse("exists v0. P(v0) & exists v1. R(v0, v1)")


def test_unguarded_quantifier():
    assert not classify(parse("exists x y. P(x) & Q(y)")).guarded
    # an atom guards an ∃ body; a ∀ body needs a negated one
    assert not classify(parse("forall x y. R(x,y)")).guarded
    assert classify(parse("forall x y. !R(x,y) | S(y,x)")).guarded


def test_one_free_variable_is_self_guarded():
    # x = x guards a body whose only free variable is x, also under !
    assert classify(parse("exists v0. !R(v0, k)")).guarded
    assert classify(parse("!(forall v0. R(v0, k))")).guarded
    assert classify(parse("forall x. P(x) | exists y. Q(y)")).guarded


@settings(max_examples=400, derandomize=True, deadline=None)
@given(formulas())
def test_guardedness_is_read_on_the_nnf(f):
    assert classify(f).guarded == classify(to_nnf(f)).guarded


def test_unary_negation_flag():
    assert classify(parse("forall x. P(x) -> Q(x)")).unary_negation
    assert not classify(parse("exists x y. R(x,y) & !S(x,y)")).unary_negation


def test_guarded_negation_flag():
    guarded = parse("exists x y. R(x,y) & !S(x,y)")
    assert classify(guarded).guarded_negation
    unguarded = parse("exists x y. P(x) & Q(y) & !S(x,y)")
    assert not classify(unguarded).guarded_negation


def test_cip_status_table():
    assert cip_status("GNFO") == HAS
    assert cip_status("GFO") == LACKS
    assert cip_status("FO2") == LACKS
    assert cip_status("FO²") == LACKS
    assert cip_status("FO") == HAS
    assert cip_status("UNFO") == HAS
    assert cip_status("ML") == HAS
    assert cip_status("C2") == LACKS
    assert cip_status("FF") == LACKS
    assert cip_status("FL") == LACKS


def test_cip_status_unknown_fragment():
    with pytest.raises(UnknownFragmentError):
        cip_status("LTL")


def test_report_cip_rows():
    report = classify(parse("exists x y. R(x,y) & R(y,x)"))
    assert report.cip["FO"] == HAS
    assert report.cip["FO2"] == LACKS
    assert report.cip["GFO"] == LACKS
    assert report.cip["UNFO"] == HAS
    assert report.cip["FF"] == NOT_APPLICABLE
    three_var = classify(parse("exists x y z. T(x,y,z)"))
    assert three_var.cip["FO2"] == NOT_APPLICABLE


# The walk-based classify that the two folds replaced, kept verbatim as the
# reference: it re-reads every quantifier body and every negation's scope
# through free_vars, so it costs time quadratic in the nesting depth.  One
# edit since: _is_relativized takes a lone guard as its own body, as
# classify does.

def _quantifiers(phi):
    return (f for f in walk(phi) if isinstance(f, (Exists, Forall)))


def _is_relativized(phi, relativizers) -> bool:
    for q in _quantifiers(phi):
        if len(q.vars) != 1:
            return False
        v = q.vars[0]
        guard_atom = None
        if isinstance(q, Exists):
            if isinstance(q.body, And):
                guard_atom = q.body.items[0]
            else:
                guard_atom = q.body
        else:
            # forall x. U(x) -> beta parses to !(U(x) & !beta); accept the
            # NNF spelling !U(x) | beta as well
            if isinstance(q.body, Not) and isinstance(q.body.sub, And):
                guard_atom = q.body.sub.items[0]
            elif isinstance(q.body, Not):
                guard_atom = q.body.sub
            elif isinstance(q.body, Or) and isinstance(q.body.items[0], Not):
                guard_atom = q.body.items[0].sub
        if not isinstance(guard_atom, Atom):
            return False
        if guard_atom.rel not in relativizers:
            return False
        if guard_atom.args != (Var(v),):
            return False
    return True


def _guards(q):
    body = q.body
    if isinstance(q, Exists):
        items = body.items if isinstance(body, And) else (body,)
        return [g for g in items if isinstance(g, Atom)]
    items = body.items if isinstance(body, Or) else (body,)
    return [g.sub for g in items if isinstance(g, Not) and isinstance(g.sub, Atom)]


def _is_guarded(phi) -> bool:
    for q in _quantifiers(to_nnf(phi)):
        need = free_vars(q.body)
        if len(need) > 1 and not any(need <= free_vars(g) for g in _guards(q)):
            return False
    return True


def _negations(phi):
    stack = [(phi, ())]
    while stack:
        f, siblings = stack.pop()
        if isinstance(f, Not):
            yield f, siblings
            stack.append((f.sub, ()))
        elif isinstance(f, And):
            atoms = tuple(g for g in f.items if isinstance(g, Atom))
            for g in f.items:
                stack.append((g, atoms))
        elif isinstance(f, Or):
            for g in f.items:
                stack.append((g, ()))
        elif isinstance(f, (Exists, Forall)):
            stack.append((f.body, ()))


def _is_unary_negation(phi) -> bool:
    return all(len(free_vars(n.sub)) <= 1 for n, _ in _negations(phi))


def _is_guarded_negation(phi) -> bool:
    for n, sibling_atoms in _negations(phi):
        need = free_vars(n.sub)
        if len(need) <= 1:
            continue
        if not any(need <= free_vars(g) for g in sibling_atoms):
            return False
    return True


def reference_classify(phi, relativizers=()) -> FragmentReport:
    relativizers = set(relativizers)
    qf = not any(True for _ in _quantifiers(phi))
    relativized = qf or _is_relativized(phi, relativizers)
    two_var = len(variable_names(canonical_rename(phi))) <= 2
    guarded = _is_guarded(phi)
    unfo = _is_unary_negation(phi)
    gnfo = _is_guarded_negation(phi)
    membership = {
        "FO": True,
        "FO2": two_var,
        "C2": two_var,  # counting quantifiers are not in this syntax
        "GFO": guarded,
        "GNFO": gnfo,
        "UNFO": unfo,
        "FF": None,  # no inline syntax definition; membership unchecked
        "FL": None,
        "ML": None,
    }
    cip = {name: (_CIP_TABLE[name] if member else NOT_APPLICABLE)
           for name, member in membership.items()}
    return FragmentReport(qf, relativized, two_var, guarded, unfo, gnfo, cip)


def assert_classified_as_by_the_reference(phi, relativizers_sets):
    for relativizers in relativizers_sets:
        assert classify(phi, relativizers) == reference_classify(phi, relativizers), (
            phi, relativizers)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(formulas())
def test_classify_matches_the_reference_on_formulas(f):
    for g in (f, to_nnf(f)):
        assert_classified_as_by_the_reference(g, [(), {"P"}, {"P", "Q"}])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(wide_formulas())
def test_classify_matches_the_reference_on_wide_formulas(f):
    assert_classified_as_by_the_reference(f, [(), {"P"}, {"P", "Q", "R"}])


def test_classify_matches_the_reference_on_corpus_and_pelletier():
    for inst in corpus(42, 500):
        for f in (inst.phi, inst.psi, Not(inst.psi)):
            assert_classified_as_by_the_reference(f, [(), {"A", "B"}])
    for path in sorted(PELLETIER.glob("p*.fol")):
        problem = parse_problem(path.read_text(encoding="utf-8"))
        for f in problem.left + problem.right:
            assert_classified_as_by_the_reference(f, [(), {"P", "Q", "F"}])


def test_classify_matches_the_reference_on_random_formulas():
    pool = SignaturePool((("P", 1), ("Q", 1), ("R", 2)), ("c",))
    for i in range(1000):
        phi = _random_formula(random.Random(i), pool, depth=3)
        assert_classified_as_by_the_reference(phi, [(), {"P"}])


def test_classify_of_a_4000_deep_nest():
    # exists x. (P(x) & !Q(x) & ...), built by constructors: both folds are
    # linear in the depth (the reference takes about 11 s here)
    x = Var("x")
    p, not_q = Atom("P", (x,)), Not(Atom("Q", (x,)))
    f = Atom("Q", (Const("a"),))
    for _ in range(4_000):
        f = Exists(("x",), And((p, not_q, f)))
    report = classify(f, {"P"})
    assert not report.quantifier_free
    assert report.relativized and report.two_variable and report.guarded
    assert report.unary_negation and report.guarded_negation
    assert not classify(f, {"Q"}).relativized
