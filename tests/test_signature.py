"""signature_of over formula sets: depth, arity clashes across formulas, a
differential check against per-formula reports merged by hand, and one of
the first-occurrence order of constants and free variables against walk-based
references."""

from __future__ import annotations

import itertools
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from craig.corpus import corpus
from craig.errors import FormulaError
from craig.formulas import (
    And, Atom, Const, Exists, Forall, Not, Or, SignatureReport, Top, Var,
    signature_of, walk,
)
from craig.interpolation import search_interpolant
from craig.parser import parse, parse_problem

from test_formulas import formulas, wide_formulas


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


# ------------------------------------------------ the walk against a reference

def reference_signature_of(*phis) -> SignatureReport:
    """signature_of's walk as it was before negations were walked in place:
    one stack entry per node, the polarity as the set an atom goes to."""
    arities: dict = {}
    constants: dict = {}
    pos: set = set()
    neg: set = set()
    free: dict = {}
    stack: list = [(phi, frozenset(), pos) for phi in reversed(phis)]
    while stack:
        f, bound, polarity = stack.pop()
        kind = type(f)
        if kind is Atom:
            seen = arities.setdefault(f.rel, len(f.args))
            if seen != len(f.args):
                raise FormulaError(
                    f"relation {f.rel} used with arities {seen} and {len(f.args)}")
            for t in f.args:
                if type(t) is Const:
                    constants[t.name] = None
                elif t.name not in bound:
                    free[t.name] = None
            polarity.add(f.rel)
        elif kind is Not:
            stack.append((f.sub, bound, neg if polarity is pos else pos))
        elif kind is And or kind is Or:
            stack.extend([(g, bound, polarity) for g in reversed(f.items)])
        elif kind is Exists or kind is Forall:
            stack.append((f.body, bound | frozenset(f.vars), polarity))
        elif kind is not Top:
            raise FormulaError(f"not a formula: {f!r}")
    return SignatureReport(frozenset(arities), arities, constants.keys(),
                           frozenset(pos), frozenset(neg), free.keys())


def _negated(f, times: int):
    for _ in range(times):
        f = Not(f)
    return f


# P and R with the other arity: formulas() and wide_formulas() use unary P
# and binary R, so mixing one of these in makes a clash
CLASHES = (Atom("P", (Const("c"), Var("x"))), Atom("R", (Var("y"),)))


@st.composite
def formula_set(draw):
    """1-3 formulas, each under 0-3 negations and sometimes joined to an
    atom whose arity clashes with the other formulas'."""
    phis = []
    for _ in range(draw(st.integers(1, 3))):
        f = draw(st.one_of(formulas(), wide_formulas()))
        if draw(st.integers(0, 5)) == 0:
            clash = _negated(draw(st.sampled_from(CLASHES)), draw(st.integers(0, 2)))
            f = draw(st.sampled_from([And((f, clash)), Or((clash, f)), clash]))
        phis.append(_negated(f, draw(st.integers(0, 3))))
    return phis


def _outcome(fn, phis):
    try:
        r = fn(*phis)
    except FormulaError as e:
        return "raises", str(e)
    return r, list(r.constants), list(r.free_vars)


@settings(max_examples=500, derandomize=True)
@given(formula_set())
def test_signature_of_matches_the_reference_walk(phis):
    assert _outcome(signature_of, phis) == _outcome(reference_signature_of, phis)


@pytest.mark.parametrize("phis", [
    [And((Atom("P", (Const("c"),)), Not(Not(Atom("P", (Const("c"), Const("d")))))))],
    [Not(Atom("P", (Const("c"),))), Exists(("x",), Not(Atom("P", (Var("x"), Var("x")))))],
    [Not(Not(Top())), Not(Not(Not("junk")))],
    [And((Atom("Q", ()), "junk")), Atom("Q", (Const("c"),))],
], ids=["clash-within", "clash-across", "junk-under-negations", "junk-before-clash"])
def test_signature_of_reports_errors_as_the_reference(phis):
    outcome = _outcome(signature_of, phis)
    assert outcome[0] == "raises"
    assert outcome == _outcome(reference_signature_of, phis)
