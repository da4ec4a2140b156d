from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings

from craig.access import (
    AccessMethod, BindPattResult, accessible_part, am_leq, bind_patt,
    check_access_determinacy, is_bounded, upward_closure,
)
from craig.corpus import SignaturePool, _random_formula
from craig.errors import FormulaError
from craig.formulas import TOP, And, Atom, Const, Exists, Forall, Not, Or, Top, signature_of
from craig.models import Structure, enumerate_structures
from craig.parser import parse
from test_formulas import formulas


def m(rel, *positions):
    return AccessMethod(rel, frozenset(positions))


def test_am_leq_examples():
    assert am_leq(m("R"), m("R", 1))
    assert not am_leq(m("R", 1), m("R"))
    assert not am_leq(m("R"), m("S"))


def test_upward_closure_from_empty_inputs():
    out = upward_closure({m("R")}, {"R": 2})
    assert out == {m("R"), m("R", 1), m("R", 2), m("R", 1, 2)}


def test_upward_closure_top_element():
    assert upward_closure({m("R", 1, 2)}, {"R": 2}) == {m("R", 1, 2)}


def test_upward_closure_partial():
    # subset-enumeration oracle
    expected = {AccessMethod("R", frozenset({1}) | frozenset(extra))
                for k in range(2) for extra in itertools.combinations([2], k)}
    assert upward_closure({m("R", 1)}, {"R": 2}) == expected


def test_upward_closure_validates_positions():
    with pytest.raises(FormulaError):
        upward_closure({m("R", 3)}, {"R": 2})


def _random_methods(rng: random.Random):
    arities = {"R": 2, "S": 1, "T": 3}
    out = set()
    for _ in range(rng.randrange(1, 5)):
        rel = rng.choice(sorted(arities))
        positions = frozenset(p for p in range(1, arities[rel] + 1)
                              if rng.random() < 0.5)
        out.add(AccessMethod(rel, positions))
    return frozenset(out), arities


def test_upward_closure_is_a_closure_operator():
    for i in range(200):
        rng = random.Random(i)
        methods, arities = _random_methods(rng)
        closed = upward_closure(methods, arities)
        assert methods <= closed                                     # extensive
        assert upward_closure(closed, arities) == closed             # idempotent
        sub = frozenset(itertools.islice(sorted(
            methods, key=lambda x: (x.relation, sorted(x.inputs))), 1))
        assert upward_closure(sub, arities) <= closed                # monotone


def test_bindpatt_universal_implication():
    phi = parse("forall x y. R(x,y) -> S(x,y)")
    result = bind_patt(phi)
    assert result.defined
    assert result.methods == {m("R"), m("S", 1, 2)}


def test_bindpatt_top():
    result = bind_patt(TOP)
    assert result.defined and result.methods == frozenset()


def test_bindpatt_bare_forall_undefined():
    assert not bind_patt(parse("forall x. P(x)")).defined


def test_bindpatt_atom_full_inputs():
    result = bind_patt(parse("R(a, b)"))
    assert result.methods == {m("R", 1, 2)}


def test_bindpatt_conjunction_union():
    result = bind_patt(parse("R(a, b) & S(a)"))
    assert result.methods == {m("R", 1, 2), m("S", 1)}


def test_bindpatt_negation_transparent():
    assert bind_patt(parse("!R(a, b)")).methods == {m("R", 1, 2)}


def test_bindpatt_exists_with_binding_atom():
    phi = parse("exists x. R(c, x) & !S(x)")
    result = bind_patt(phi)
    assert result.methods == {m("R", 1), m("S", 1)}


def test_bindpatt_rejects_a_non_formula_under_an_undefined_node():
    with pytest.raises(FormulaError, match="not a formula: 'junk'"):
        bind_patt(Or((Atom("A"), "junk")))


# The recursive _bind_patt that the fold replaced, kept verbatim as the
# reference (it answers undefined for a non-formula instead of raising).

def reference_bind_patt(phi) -> BindPattResult:
    methods = _reference_bind_patt(phi)
    if methods is None:
        return BindPattResult(False, None)
    return BindPattResult(True, frozenset(methods))


def _reference_bind_patt(f):
    if isinstance(f, Top):
        return set()
    if isinstance(f, Atom):
        return {AccessMethod(f.rel, frozenset(range(1, len(f.args) + 1)))}
    if isinstance(f, And):
        out = set()
        for g in f.items:
            sub = _reference_bind_patt(g)
            if sub is None:
                return None
            out |= sub
        return out
    if isinstance(f, Not):
        return _reference_bind_patt(f.sub)
    if isinstance(f, Exists):
        body = f.body
        if not isinstance(body, And) or not isinstance(body.items[0], Atom):
            return None
        binding = body.items[0]
        rest = body.items[1:]
        sub = _reference_bind_patt(rest[0] if len(rest) == 1 else And(rest))
        if sub is None:
            return None
        positions = frozenset(
            i + 1 for i, t in enumerate(binding.args)
            if isinstance(t, Const) or t.name not in f.vars)
        return sub | {AccessMethod(binding.rel, positions)}
    if isinstance(f, Forall):
        # ∀x⃗ δ is read as ¬∃x⃗ ¬δ on the literal tree
        inner = f.body.sub if isinstance(f.body, Not) else Not(f.body)
        return _reference_bind_patt(Exists(f.vars, inner))
    return None


@settings(max_examples=800, derandomize=True, deadline=None)
@given(formulas())
def test_bindpatt_matches_the_reference_on_formulas(f):
    for g in (f, Not(f)):
        assert bind_patt(g) == reference_bind_patt(g), g


def test_bindpatt_matches_the_reference_on_random_formulas():
    pool = SignaturePool((("P", 1), ("Q", 1), ("R", 2)), ("c",))
    defined = 0
    for i in range(3000):
        phi = _random_formula(random.Random(i), pool, depth=3)
        result = bind_patt(phi)
        assert result == reference_bind_patt(phi), (i, phi)
        defined += result.defined
    assert 1000 < defined < 2000  # 1,140: both answers are well represented


def test_is_bounded_spec_examples():
    phi = parse("forall x y. R(x,y) -> S(x,y)")
    assert is_bounded(phi, {m("R"), m("S", 1)})
    assert not is_bounded(phi, {m("R", 1), m("S", 1, 2)})
    assert is_bounded(TOP, set())


def _naive_accessible_part(A, methods, start):
    # independent oracle: recompute from scratch until nothing changes
    region = set(start)
    while True:
        bigger = set(region)
        for method in methods:
            for t in A.relations[method.relation]:
                if all(t[i - 1] in region for i in method.inputs):
                    bigger.update(t)
        if bigger == region:
            return frozenset(region)
        region = bigger


def test_accessible_part_hand_fixpoint():
    A = Structure(2, {"R": {(0, 1)}})
    assert accessible_part(A, {m("R", 1)}, (0,)) == {0, 1}
    assert _naive_accessible_part(A, {m("R", 1)}, (0,)) == {0, 1}


def test_accessible_part_unreached():
    A = Structure(2, {"R": {(0, 1)}})
    assert accessible_part(A, {m("R", 1)}, (1,)) == {1}


def test_accessible_part_start_must_be_domain_elements():
    A = Structure(2, {"R": {(0, 1)}})
    for start in ((2,), (-1,), (True,), (1.0,)):
        with pytest.raises(FormulaError, match="outside the domain"):
            accessible_part(A, {m("R", 1)}, start)


def test_accessible_part_no_methods():
    A = Structure(3, {"R": {(0, 1)}})
    assert accessible_part(A, set(), (2,)) == {2}


def test_accessible_part_matches_naive_oracle():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 4)
        tuples = {(rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randrange(5))}
        A = Structure(n, {"R": tuples, "S": {(rng.randrange(n),)}})
        methods = frozenset(m
                            for m in [AccessMethod("R", frozenset({1})),
                                      AccessMethod("R", frozenset()),
                                      AccessMethod("S", frozenset())]
                            if rng.random() < 0.5)
        start = tuple(rng.randrange(n) for _ in range(rng.randrange(3)))
        assert accessible_part(A, methods, start) == \
            _naive_accessible_part(A, methods, start)


def test_accessible_part_monotone_in_methods_and_start():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randrange(1, 4)
        tuples = {(rng.randrange(n), rng.randrange(n))
                  for _ in range(rng.randrange(6))}
        A = Structure(n, {"R": tuples})
        small = {m("R", 1)}
        large = {m("R", 1), m("R")}
        a = (rng.randrange(n),)
        ab = a + (rng.randrange(n),)
        assert accessible_part(A, small, a) <= accessible_part(A, large, a)
        assert accessible_part(A, small, a) <= accessible_part(A, small, ab)


def test_access_determinacy_bounded_formula():
    phi = parse("forall x y. R(x,y) -> S(x,y)")
    methods = bind_patt(phi).methods
    sig = signature_of(phi)
    for n in (1, 2):
        for A in enumerate_structures(sig, n):
            assert check_access_determinacy(phi, methods, A, ())
    # size-3 sample
    for i, A in enumerate(enumerate_structures(sig, 3)):
        if i % 131 == 0:
            assert check_access_determinacy(phi, methods, A, ())


def test_access_determinacy_fails_for_domain_dependent():
    phi = parse("exists x. !P(x)")
    methods = {m("P"), m("P", 1)}
    A = Structure(2, {"P": {(0,)}})
    assert not check_access_determinacy(phi, methods, A, ())


def test_access_determinacy_empty_part_keeps_zero_ary_facts():
    # the empty accessible part is the empty induced substructure, which
    # keeps 0-ary facts as substructure does
    for fact in (set(), {()}):
        A = Structure(1, {"P": fact, "R": {(0,)}})
        for phi in ("P", "!P", "P & forall x. R(x)"):
            assert check_access_determinacy(parse(phi), [], A, [])


def test_access_determinacy_top():
    assert check_access_determinacy(TOP, set(), Structure(2, {"P": set()}), ())
