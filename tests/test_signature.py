"""signature_of over formula sets: depth, arity clashes across formulas, a
differential check against per-formula reports merged by hand, and one of
the first-occurrence order of constants and free variables against walk-based
references."""

from __future__ import annotations

import itertools
import pathlib

import pytest

from craig.corpus import corpus
from craig.errors import FormulaError
from craig.formulas import (
    And, Atom, Const, Exists, Forall, Not, Or, SignatureReport, Var, signature_of,
    walk,
)
from craig.interpolation import search_interpolant
from craig.parser import parse, parse_problem


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


PELLETIER = pathlib.Path(__file__).parent.parent / "bench" / "pelletier"


def constants_in_order(phis) -> list:
    """Reference: constants by a preorder walk of each formula in turn."""
    out: list = []
    for phi in phis:
        for f in walk(phi):
            if isinstance(f, Atom):
                for t in f.args:
                    if isinstance(t, Const) and t.name not in out:
                        out.append(t.name)
    return out


def free_vars_in_order(phis) -> list:
    """Reference: free variables by a recursive preorder walk."""
    out: list = []

    def visit(f, bound):
        if isinstance(f, Atom):
            for t in f.args:
                if isinstance(t, Var) and t.name not in bound and t.name not in out:
                    out.append(t.name)
        elif isinstance(f, Not):
            visit(f.sub, bound)
        elif isinstance(f, (And, Or)):
            for g in f.items:
                visit(g, bound)
        elif isinstance(f, (Exists, Forall)):
            visit(f.body, bound | set(f.vars))

    for phi in phis:
        visit(phi, set())
    return out


def formula_sets() -> list:
    """Every subformula of corpus(42, 200) and of the Pelletier problems
    alone, each instance's formulas together and each problem's sentences
    together."""
    groups = [[inst.phi, inst.psi, inst.gamma, inst.delta] for inst in corpus(42, 200)]
    for path in sorted(PELLETIER.glob("p*.fol")):
        pf = parse_problem(path.read_text(encoding="utf-8"))
        groups.append(list(pf.left) + list(pf.right))
    return groups + [[f] for group in groups for phi in group for f in walk(phi)]


def test_signature_order_matches_walk_references():
    for phis in formula_sets():
        r = signature_of(*phis)
        assert list(r.constants) == constants_in_order(phis), phis
        assert list(r.free_vars) == free_vars_in_order(phis), phis


def test_ordered_reports_behave_as_sets():
    reports = [signature_of(*phis) for phis in formula_sets()[::7]]
    for a, b in itertools.product(reports[:60], repeat=2):
        for field in ("constants", "free_vars"):
            x, y = getattr(a, field), getattr(b, field)
            fx, fy = frozenset(x), frozenset(y)
            assert (x & y) == (fx & fy) and (x | y) == (fx | fy)
            assert (x - y) == (fx - fy) and (x - fy) == (fx - fy)
            assert (x == y) == (fx == fy) and (x == fy) == (fx == fy)
            assert (x <= fy) == (fx <= fy) and bool(x) == bool(fx)
            assert sorted(x) == sorted(fx)
            assert all(n in x for n in fx) and "no such name" not in x
            assert frozenset().union(x) == fx
            assert isinstance(fx.union(y), frozenset)
    assert all(isinstance(r.symbols(), frozenset) for r in reports)
