"""signature_of over formula sets: depth, arity clashes across formulas, and a
differential check against per-formula reports merged by hand."""

from __future__ import annotations

import pytest

from craig.corpus import corpus
from craig.errors import FormulaError
from craig.formulas import (
    And, Atom, Const, Exists, Not, SignatureReport, Var, signature_of,
)
from craig.interpolation import search_interpolant
from craig.parser import parse


def test_signature_of_deep_negation_chain():
    f = Exists(("x",), And((Atom("P", (Var("x"), Const("c"))),
                            Not(Atom("Q", (Var("y"),))))))
    for _ in range(50_000):
        f = Not(f)
    r = signature_of(f)
    assert r.relations == {"P", "Q"}
    assert r.arities == {"P": 2, "Q": 1}
    assert r.constants == {"c"}
    assert r.relsig_pos == {"P"} and r.relsig_neg == {"Q"}
    assert r.free_vars == {"y"}


def test_arity_clash_across_formulas():
    phi, psi = parse("R(c)"), parse("R(c, c) | Q(c)")
    with pytest.raises(FormulaError, match="relation R used with arities 1 and 2"):
        signature_of(phi, psi)
    with pytest.raises(FormulaError, match="relation R used with arities 1 and 2"):
        search_interpolant(phi, psi, 3, 100)


def _merged_by_hand(phis) -> SignatureReport:
    reports = [signature_of(phi) for phi in phis]
    arities: dict = {}
    for r in reports:
        for rel, k in r.arities.items():
            if arities.setdefault(rel, k) != k:
                raise FormulaError(f"relation {rel} used with arities {arities[rel]} and {k}")
    return SignatureReport(
        frozenset().union(*(r.relations for r in reports)),
        arities,
        frozenset().union(*(r.constants for r in reports)),
        frozenset().union(*(r.relsig_pos for r in reports)),
        frozenset().union(*(r.relsig_neg for r in reports)),
        frozenset().union(*(r.free_vars for r in reports)),
    )


def test_signature_of_matches_merged_reports_on_corpus():
    for inst in corpus(42, 200):
        open_body = getattr(inst.gamma, "body", inst.gamma)  # may have free variables
        for phis in ([], [inst.phi], [Not(inst.psi)], [inst.phi, Not(inst.psi)],
                     [inst.psi, inst.phi], [inst.gamma, Not(inst.delta)],
                     [inst.alpha, inst.gamma, inst.delta, open_body]):
            assert signature_of(*phis) == _merged_by_hand(phis), (inst.index, phis)
