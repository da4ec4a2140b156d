"""Every construction's re-proof claims, built from reports, against the raw
claims they replaced.

Each construction hands ``certify`` two claims, checked inputs made from
reports it already holds.  Before, each claim was a raw sentence list that
the prover's input check walked as a whole.  A built claim must equal
``check_input`` of that raw list: the same formulas in the same order and
the same report field by field, constants in order, so the re-proof searches
the same way.  The inputs are ``corpus(42, 500)`` and theories drawn from the
Pelletier problems and chains; a run that fails before ``certify`` (not
valid, not splittable, out of budget) records no claim and is skipped.
"""

from __future__ import annotations

import itertools

import pytest

from craig import definability, interpolation, theory
from craig.corpus import corpus
from craig.definability import (
    Theory, explicit_definition, monotone_rewrite, robinson_separator,
)
from craig.errors import CraigError
from craig.formulas import (
    Atom, Const, Not, conj, fresh_names, signature_of, substitute_constants,
)
from craig.interpolation import craig_interpolant
from craig.parser import parse
from craig.tableau import check_input, labeled
from craig.theory import strong_interpolant, weak_interpolant

from test_definability import V4_AXIOMS
from test_prover_input import fields
from test_substitution_program import BUDGET, problems


@pytest.fixture
def recorded(monkeypatch) -> list:
    """The (theta, claims) of every certify call made after it is set up."""
    calls = []
    real = interpolation.certify

    def recording(theta, allowed, claims, budget, report):
        calls.append((theta, claims))
        return real(theta, allowed, claims, budget, report)

    for module in (interpolation, definability, theory):
        monkeypatch.setattr(module, "certify", recording)
    return calls


def claims_of(recorded: list, call) -> tuple:
    """(theta, claims) of call's one certify, or None when it raised first."""
    del recorded[:]
    try:
        call()
    except CraigError:
        pass  # after certify too: a re-proof may run out of budget
    return recorded[0] if recorded else None


def assert_built_as_raw(claims: list, raw: list):
    assert [name for name, _ in claims] == [name for name, _ in raw]
    for (name, built), (_, sentences) in zip(claims, raw):
        expected = check_input(labeled(sentences, ()))
        assert [ls.formula for ls in built] == [ls.formula for ls in expected], name
        assert fields(built.report) == fields(expected.report), name


def theory_cases() -> list:
    """(Σ, phi, psi) with Σ ∪ {phi} ⊨ psi: each Pelletier problem's and
    chain's premises but the last, that last one (or true) and the goals."""
    out = []
    for left, right in problems():
        out.append((Theory(tuple(left[:-1])), conj(left[-1:]), conj(right)))
    return out


def test_craig_claims_are_the_raw_ones(recorded):
    for inst in corpus(42, 500):
        theta, claims = claims_of(recorded, lambda: craig_interpolant(inst.phi, inst.psi,
                                                                      BUDGET))
        assert_built_as_raw(claims, [("phi -> theta", [inst.phi, Not(theta)]),
                                     ("theta -> psi", [theta, Not(inst.psi)])])


def test_robinson_claims_are_the_raw_ones(recorded):
    pairs = [(Theory((inst.phi,)), Theory((Not(inst.psi),))) for inst in corpus(42, 500)]
    pairs += [(Theory(tuple(s.sentences) + (phi,)), Theory((Not(psi),)))
              for s, phi, psi in theory_cases()]
    seen = 0
    for sigma1, sigma2 in pairs:
        got = claims_of(recorded, lambda: robinson_separator(sigma1, sigma2, BUDGET))
        if got is None:
            continue
        theta, claims = got
        seen += 1
        assert_built_as_raw(claims, [("sigma1 |= phi", [*sigma1.sentences, Not(theta)]),
                                     ("sigma2 |= !phi", [*sigma2.sentences, theta])])
    assert seen > 500


def test_monotone_claims_are_the_raw_ones(recorded):
    seen = 0
    for inst in corpus(42, 500):
        for relation in sorted(signature_of(inst.phi).relations):
            got = claims_of(recorded, lambda: monotone_rewrite(inst.phi, relation, BUDGET))
            if got is None:
                continue
            theta, claims = got
            seen += 1
            assert_built_as_raw(claims, [("phi -> theta", [inst.phi, Not(theta)]),
                                         ("theta -> phi", [theta, Not(inst.phi)])])
    assert seen > 200


@pytest.mark.parametrize("construction", [weak_interpolant, strong_interpolant])
def test_theory_claims_are_the_raw_ones(construction, recorded):
    cases = [(Theory(()), inst.phi, inst.psi) for inst in corpus(42, 500)]
    seen = 0
    for sigma, phi, psi in cases + theory_cases():
        got = claims_of(recorded, lambda: construction(sigma, phi, psi, BUDGET))
        if got is None:
            continue
        theta, claims = got
        seen += 1
        assert_built_as_raw(claims, [
            ("Sigma, phi |= theta", [*sigma.sentences, phi, Not(theta)]),
            ("Sigma, theta |= psi", [*sigma.sentences, theta, Not(psi)])])
    assert seen > 500


def test_beth_claims_are_the_raw_ones(recorded, tallest_theory):
    cases = [(tallest_theory, "Tallest", ["Taller-than"], 100_000),
             (Theory((parse("forall x. P(x) -> Q(x)"), parse("forall x. Q(x) -> P(x)"))),
              "P", ["Q"], 10_000),
             (Theory(tuple(parse(a) for a in V4_AXIOMS)), "V4", ["V2"], 200_000)]
    for sigma, relation, tau, budget in cases:
        definition = explicit_definition(sigma, relation, tau, budget,
                                         max_counterexample_size=2)
        (phi, claims), = recorded
        del recorded[:]
        assert phi == definition.formula
        frozen = tuple(itertools.islice(fresh_names("c", ()), len(definition.variables)))
        theta = substitute_constants(phi, dict(zip(definition.variables, frozen)))
        head = Atom(relation, tuple(map(Const, frozen)))
        assert_built_as_raw(claims, [
            ("R -> definition", [*sigma.sentences, head, Not(theta)]),
            ("definition -> R", [*sigma.sentences, theta, Not(head)])])
