from __future__ import annotations

import pytest

from craig.definability import (
    Definition, Theory, explicit_definition, monotone_rewrite,
    padoa_counterexample, robinson_separator,
)
from craig.errors import (
    FormulaError, ImplicitDefinabilityRefuted, JointlyConsistent,
    NotValid,
)
from craig.formulas import (
    And, Atom, Exists, Not, Var, signature_of, substitute_constant, to_nnf,
)
from craig.interpolation import entails
from craig.models import Structure, evaluate, isomorphic_pair
from craig.parser import parse
from craig.tableau import Closed, LabeledSentence, prove

PAPER_PAIR = (
    Structure(3, {"Taller-than": {(0, 1), (1, 2), (0, 2)}, "Tallest": {(0,)}}),
    Structure(3, {"Taller-than": {(0, 2), (2, 1), (0, 1)}, "Tallest": {(0,)}}),
)


def _equivalent_under(sigma: Theory, lhs, rhs, variables, budget=100_000) -> bool:
    grounded = []
    for f in (lhs, rhs):
        for i, v in enumerate(variables):
            f = substitute_constant(f, v, f"w{i}")
        grounded.append(f)
    base = [LabeledSentence(to_nnf(s), "L") for s in sigma.sentences]
    for a, b in ((grounded[0], grounded[1]), (grounded[1], grounded[0])):
        sents = base + [LabeledSentence(to_nnf(a), "L"),
                        LabeledSentence(to_nnf(Not(b)), "L")]
        if not isinstance(prove(sents, budget), Closed):
            return False
    return True


def test_explicit_definition_tallest(tallest_theory):
    d = explicit_definition(tallest_theory, "Tallest", ["Taller-than"], 100_000)
    assert isinstance(d, Definition)
    assert signature_of(d.formula).relations <= {"Taller-than"}
    x = d.variables[0]
    target = Not(Exists(("y",), Atom("Taller-than", (Var("y"), Var(x)))))
    assert _equivalent_under(tallest_theory, d.formula, target, d.variables)


def test_explicit_definition_p_from_q():
    sigma = Theory((parse("forall x. P(x) -> Q(x)"), parse("forall x. Q(x) -> P(x)")))
    d = explicit_definition(sigma, "P", ["Q"], 10_000)
    assert signature_of(d.formula).relations <= {"Q"}
    target = Atom("Q", (Var(d.variables[0]),))
    assert _equivalent_under(sigma, d.formula, target, d.variables)


V4_AXIOMS = (
    "forall x y u. R(x,u) & R(u,y) -> V2(x,y)",
    "forall x y. V2(x,y) -> exists u. R(x,u) & R(u,y)",
    "forall x y u. V2(x,u) & V2(u,y) -> V4(x,y)",
    "forall x y. V4(x,y) -> exists u. V2(x,u) & V2(u,y)",
)


def test_explicit_definition_v4_from_v2():
    sigma = Theory(tuple(parse(a) for a in V4_AXIOMS), "paths")
    d = explicit_definition(sigma, "V4", ["V2"], 200_000,
                            max_counterexample_size=2)
    assert signature_of(d.formula).relations <= {"V2"}
    x, y = d.variables
    target = Exists(("u",), And((Atom("V2", (Var(x), Var("u"))),
                                 Atom("V2", (Var("u"), Var(y))))))
    assert _equivalent_under(sigma, d.formula, target, d.variables, 200_000)


def test_explicit_definition_refuted_by_padoa(tallest_theory):
    with pytest.raises(ImplicitDefinabilityRefuted) as exc:
        explicit_definition(tallest_theory, "Taller-than", ["Tallest"], 10_000)
    assert exc.value.pair is not None


def test_definition_never_mentions_primed_or_defined(tallest_theory):
    d = explicit_definition(tallest_theory, "Tallest", ["Taller-than"], 100_000)
    rels = signature_of(d.formula).relations
    assert "Tallest" not in rels
    assert not any("'" in r for r in rels)


def test_beth_requires_relational_theory():
    sigma = Theory((parse("P(c)"),))
    with pytest.raises(FormulaError):
        explicit_definition(sigma, "P", [], 100)


# ------------------------------------------------------------------- Padoa

def test_padoa_tallest_pair_matches_paper(tallest_theory):
    pair = padoa_counterexample(tallest_theory, "Taller-than", ["Tallest"], 3)
    assert pair is not None
    A, B = pair
    assert A.domain_size == B.domain_size == 3
    assert A.relations["Tallest"] == B.relations["Tallest"]
    assert A.relations["Taller-than"] != B.relations["Taller-than"]
    for structure in pair:
        for s in tallest_theory.sentences:
            assert evaluate(structure, s)
    assert isomorphic_pair(pair, PAPER_PAIR)


def test_padoa_absent_when_explicitly_defined():
    sigma = Theory((parse("forall x. P(x) -> Q(x)"), parse("forall x. Q(x) -> P(x)")))
    assert padoa_counterexample(sigma, "P", ["Q"], 3) is None
    # P is everything: models of two sizes with Q empty agree on Q, not on P,
    # but are no Padoa pair
    sigma = Theory((parse("forall x. P(x) & (Q(x) | !Q(x))"),))
    assert padoa_counterexample(sigma, "P", ["Q"], 3) is None


def test_padoa_empty_theory():
    # a theory that mentions P without constraining it says no more than
    # the empty theory, so P is undefined already at size 1
    pair = padoa_counterexample(Theory((parse("forall x. P(x) | !P(x)"),)), "P", [], 3)
    assert pair is not None
    A, B = pair
    assert A.domain_size == 1
    assert {A.relations["P"], B.relations["P"]} == {frozenset(), frozenset({(0,)})}


def test_padoa_and_definition_mutually_exclusive(tallest_theory):
    cases = [
        (tallest_theory, "Tallest", ["Taller-than"]),
        (tallest_theory, "Taller-than", ["Tallest"]),
        (Theory((parse("forall x. P(x) -> Q(x)"), parse("forall x. Q(x) -> P(x)"))),
         "P", ["Q"]),
    ]
    for sigma, rel, tau in cases:
        pair = padoa_counterexample(sigma, rel, tau, 3)
        try:
            explicit_definition(sigma, rel, tau, 50_000)
            defined = True
        except ImplicitDefinabilityRefuted:
            defined = False
        assert defined == (pair is None)


# ---------------------------------------------------------------- Robinson

def test_robinson_forall_side():
    theta = robinson_separator(Theory((parse("forall x. P(x)"),)),
                               Theory((parse("exists x. !P(x)"),)), 10_000)
    assert isinstance(entails(theta, parse("forall x. P(x)"), 10_000), Closed)
    assert isinstance(entails(parse("forall x. P(x)"), theta, 10_000), Closed)


def test_robinson_atomic():
    theta = robinson_separator(Theory((parse("A(c)"),)),
                               Theory((parse("!A(c)"),)), 1000)
    assert theta == parse("A(c)")


def test_robinson_jointly_consistent():
    with pytest.raises(JointlyConsistent) as exc:
        robinson_separator(Theory((parse("A(c)"),)), Theory((parse("B(c)"),)), 1000)
    model = exc.value.structure
    assert model.domain_size == 1
    assert evaluate(model, parse("A(c)")) and evaluate(model, parse("B(c)"))


def test_robinson_separator_screens_on_small_models(tallest_theory):
    sigma1 = Theory((parse("forall x. P(x) -> Q(x)"), parse("P(c)")))
    sigma2 = Theory((parse("!Q(c)"),))
    theta = robinson_separator(sigma1, sigma2, 10_000)
    report = signature_of(theta)
    assert report.symbols() <= (sigma1.signature().symbols()
                                & sigma2.signature().symbols())
    from craig.models import find_model
    assert find_model(list(sigma1.sentences) + [Not(theta)], 3) is None
    assert find_model(list(sigma2.sentences) + [theta], 3) is None


# ---------------------------------------------------------------- monotone

def test_monotone_rewrite_existential():
    theta = monotone_rewrite(parse("exists x. R(x)"), "R", 10_000)
    assert "R" not in signature_of(theta).relsig_neg
    assert isinstance(entails(theta, parse("exists x. R(x)"), 10_000), Closed)
    assert isinstance(entails(parse("exists x. R(x)"), theta, 10_000), Closed)


def test_monotone_rewrite_top():
    assert monotone_rewrite(parse("true"), "R", 1000, arity=1) == parse("true")


def test_monotone_rewrite_rejects_antitone():
    with pytest.raises(NotValid):
        monotone_rewrite(parse("forall x. !R(x)"), "R", 2000)


def test_monotone_rewrite_contradiction_closes():
    # the contradictory sentence is (vacuously) monotone; the rewrite is ⊥-like
    theta = monotone_rewrite(parse("(exists x. R(x)) & forall y. !R(y)"), "R", 5000)
    assert "R" not in signature_of(theta).relsig_neg
    assert isinstance(entails(theta, parse("false"), 5000), Closed)


def test_explicit_definition_rejects_symbols_outside_tau(tallest_theory, monkeypatch):
    # re-proving R <-> R closes, so only the signature check catches this
    from craig import definability
    from craig.formulas import Const
    leak = Atom("Tallest", (Const("c0"),))  # c0 stands for the defined tuple
    monkeypatch.setattr(definability, "interpolant_from_labeled",
                        lambda inputs, budget: (leak, None))
    with pytest.raises(FormulaError, match="Tallest outside the signature"):
        explicit_definition(tallest_theory, "Tallest", ["Taller-than"], 1000)


@pytest.mark.parametrize("relation, arity, message", [
    ("R", 5, "relation R has arity 1 in the sentence, not 5"),
    ("R", 0, "relation R has arity 1 in the sentence, not 0"),
    ("R", -1, "arity of R must be non-negative, got -1"),
    ("Zed", -1, "arity of Zed must be non-negative, got -1"),
])
def test_monotone_rewrite_rejects_a_contradicting_arity(relation, arity, message):
    with pytest.raises(FormulaError, match=message):
        monotone_rewrite(parse("exists x. R(x)"), relation, 1000, arity=arity)


def test_monotone_rewrite_rejects_a_bool_arity():
    # True == 1, the sentence's arity, but a bool is not an int
    with pytest.raises(FormulaError, match="arity of R must be non-negative, got True"):
        monotone_rewrite(parse("exists x. R(x)"), "R", 1000, arity=True)


def test_monotone_rewrite_accepts_the_sentences_arity():
    phi = parse("exists x. R(x)")
    assert monotone_rewrite(phi, "R", 10_000, arity=1) == \
        monotone_rewrite(phi, "R", 10_000)


@pytest.mark.parametrize("sentences", [5, None])
def test_theory_names_sentences_that_are_not_a_collection(sentences):
    with pytest.raises(FormulaError, match=f"^theory sentences must be a collection "
                                           f"of sentences, found {sentences}$"):
        Theory(sentences)
