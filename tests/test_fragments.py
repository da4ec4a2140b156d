from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from craig.corpus import SignaturePool, _random_formula
from craig.errors import UnknownFragmentError
from craig.formulas import to_nnf
from craig.fragments import (
    HAS, LACKS, NOT_APPLICABLE, canonical_rename, cip_status, classify,
)
from craig.parser import parse
from test_formulas import formulas


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
