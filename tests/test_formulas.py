from __future__ import annotations

import copy as copy_module
import gc
import os
import pathlib
import pickle
import subprocess
import sys
import threading
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from craig.access import bind_patt
from craig.corpus import formula_size
from craig.errors import FormulaError
from craig.formulas import (
    BOTTOM, TOP, And, Atom, Const, Exists, Forall, Not, Or, Top, Var,
    abstract_constant, compile_substitution, free_vars, fresh_constant, is_nnf,
    map_atoms, signature_of, simplify, substitute_constant, substitute_constants,
    to_nnf, variable_names, walk,
)
from craig.fragments import canonical_rename, classify
from craig.models import enumerate_structures, evaluate
from craig.parser import parse, print_formula


def test_nnf_de_morgan():
    assert to_nnf(parse("!(A(x0) & B(x0))")) == parse("!A(x0) | !B(x0)")


def test_nnf_quantifier_duality():
    assert to_nnf(parse("!(exists x. P(x))")) == parse("forall x. !P(x)")


def test_nnf_double_negation():
    assert to_nnf(parse("!!P(c)")) == parse("P(c)")


def test_nnf_keeps_multivariable_blocks():
    f = to_nnf(parse("!(forall x y. R(x,y))"))
    assert f == Exists(("x", "y"), Not(Atom("R", (Var("x"), Var("y")))))


def test_nnf_negations_only_on_atoms():
    f = parse("!((exists x. P(x) -> Q(x)) & !(P(c) | false))")
    nnf = to_nnf(f)
    assert is_nnf(nnf)
    assert not is_nnf(f)


@st.composite
def formulas(draw, max_depth=3):
    scope = draw(st.lists(st.sampled_from(["x", "y"]), unique=True))

    def build(depth, scope):
        options = ["atom"]
        if depth > 0:
            options += ["not", "and", "or", "exists", "forall", "top"]
        kind = draw(st.sampled_from(options))
        if kind == "top":
            return TOP
        if kind == "atom":
            rel = draw(st.sampled_from(["P", "Q"]))
            term = draw(st.sampled_from(
                [Var(v) for v in scope] + [Const("c"), Const("d")]))
            return Atom(rel, (term,))
        if kind == "not":
            return Not(build(depth - 1, scope))
        if kind in ("and", "or"):
            cls = And if kind == "and" else Or
            return cls((build(depth - 1, scope), build(depth - 1, scope)))
        v = "x" if "x" not in scope else "y" if "y" not in scope else "z"
        body = build(depth - 1, scope + (v,))
        return (Exists if kind == "exists" else Forall)((v,), body)

    return build(max_depth, tuple(scope))


@st.composite
def wide_formulas(draw, max_depth=2):
    """The shapes formulas() never builds: 2-4-item ∧/∨ and one- or
    two-variable quantifier blocks, over unary P, Q and binary R."""
    scope = draw(st.lists(st.sampled_from(["x", "y"]), unique=True))

    def build(depth, scope):
        options = ["atom"]
        if depth > 0:
            options += ["not", "and", "or", "exists", "forall", "top"]
        kind = draw(st.sampled_from(options))
        if kind == "top":
            return TOP
        if kind == "atom":
            terms = st.sampled_from([Var(v) for v in scope] + [Const("c"), Const("d")])
            if draw(st.booleans()):
                return Atom("R", (draw(terms), draw(terms)))
            return Atom(draw(st.sampled_from(["P", "Q"])), (draw(terms),))
        if kind == "not":
            return Not(build(depth - 1, scope))
        if kind in ("and", "or"):
            n = draw(st.integers(2, 4))
            return (And if kind == "and" else Or)(
                tuple([build(depth - 1, scope) for _ in range(n)]))
        free = [v for v in ("x", "y", "z", "u", "v", "w") if v not in scope]
        block = tuple(free[:draw(st.integers(1, 2))])
        body = build(depth - 1, scope + block)
        return (Exists if kind == "exists" else Forall)(block, body)

    return build(max_depth, tuple(scope))


def dual(f):
    """De Morgan dual of an NNF formula: ∧ and ∨ swapped, ∃ and ∀ swapped,
    and every literal complemented (atom and ¬atom, ⊤ and ⊥)."""
    if isinstance(f, (Atom, Top)):
        return Not(f)
    if isinstance(f, Not):
        return f.sub
    if isinstance(f, (And, Or)):
        return (Or if isinstance(f, And) else And)(tuple(map(dual, f.items)))
    return (Forall if isinstance(f, Exists) else Exists)(f.vars, dual(f.body))


@settings(max_examples=400, derandomize=True)
@given(formulas())
def test_nnf_of_a_negation_is_the_dual_of_the_nnf(phi):
    assert to_nnf(Not(phi)) == dual(to_nnf(phi))


@settings(max_examples=200, derandomize=True)
@given(wide_formulas())
def test_nnf_of_a_negation_is_the_dual_of_the_nnf_on_wide_formulas(phi):
    assert to_nnf(Not(phi)) == dual(to_nnf(phi))


@settings(max_examples=150, derandomize=True)
@given(formulas())
def test_nnf_idempotent(phi):
    once = to_nnf(phi)
    assert to_nnf(once) == once


@settings(max_examples=60, derandomize=True, deadline=None)
@given(formulas(max_depth=2))
def test_nnf_equivalent_on_small_structures(phi):
    report = signature_of(phi)
    if report.free_vars:
        for v in sorted(report.free_vars):
            phi = substitute_constant(phi, v, "e")
    nnf = to_nnf(phi)
    sig = signature_of(phi, nnf)
    for n in (1, 2, 3):
        for A in enumerate_structures(sig, n):
            assert evaluate(A, phi) == evaluate(A, nnf)


# ------------------------------------------------ the NNF memo against references

def reference_nnf(f, negated=False):
    """to_nnf as it was before it kept its result on the node: every call
    rebuilds the whole NNF, and each negated atom gets a new Not."""
    while type(f) is Not:
        f, negated = f.sub, not negated
    kind = type(f)
    if kind is Atom or kind is Top:
        return Not(f) if negated else f
    dual_kind = {And: Or, Or: And, Exists: Forall, Forall: Exists}[kind]
    out = dual_kind if negated else kind
    if kind is And or kind is Or:
        return out(tuple([reference_nnf(g, negated) for g in f.items]))
    return out(f.vars, reference_nnf(f.body, negated))


def reference_is_nnf(phi) -> bool:
    """is_nnf as a plain walk, with no memo to consult."""
    for f in walk(phi):
        if isinstance(f, Not) and not isinstance(f.sub, (Atom, Top)):
            return False
    return True


def fresh(phi):
    """An equal formula with no node shared with phi, so no memo either."""
    return pickle.loads(pickle.dumps(phi))


def assert_nnf_memo_agrees(phi):
    expected = reference_nnf(phi)
    in_nnf = reference_is_nnf(phi)
    printed = repr(phi)
    assert is_nnf(phi) is in_nnf  # the walk: to_nnf has not seen phi
    out = to_nnf(phi)
    assert out == expected and len(list(walk(out))) == len(list(walk(expected)))
    for new, ref in zip(walk(out), walk(expected)):
        assert type(new) is type(ref) and hash(new) == hash(ref) and new == ref, new
    assert (out is phi) == in_nnf
    assert to_nnf(phi) is out and to_nnf(out) is out
    assert is_nnf(phi) is in_nnf and is_nnf(out) is True  # the memo
    # the memo is no field: repr, pickling and copies ignore it
    assert repr(phi) == printed
    for copy in (fresh(phi), copy_module.deepcopy(phi)):
        assert copy == phi and hash(copy) == hash(phi) and repr(copy) == printed
        assert is_nnf(copy) is in_nnf and to_nnf(copy) == out
    # every subformula comes back as itself exactly when it is in NNF
    for g in walk(fresh(phi)):
        assert (to_nnf(g) is g) == reference_is_nnf(g), g


@settings(max_examples=300, derandomize=True)
@given(formulas())
def test_nnf_memo_matches_the_reference(phi):
    assert_nnf_memo_agrees(phi)
    assert_nnf_memo_agrees(Not(fresh(phi)))


@settings(max_examples=200, derandomize=True)
@given(wide_formulas())
def test_nnf_memo_matches_the_reference_on_wide_formulas(phi):
    assert_nnf_memo_agrees(phi)
    assert_nnf_memo_agrees(Not(fresh(phi)))


P_C = Atom("P", (Const("c"),))


@pytest.mark.parametrize("build", [
    lambda: Not(Top()), lambda: BOTTOM, lambda: Not(Not(Top())),
    lambda: Not(Not(Not(Top()))), lambda: Not(P_C), lambda: Not(Not(P_C)),
    lambda: Not(Not(Not(P_C))), lambda: And((Not(Not(P_C)), Not(P_C))),
    lambda: Forall(("x",), Not(Not(Not(Or((P_C, Not(Top()))))))),
], ids=["not-top", "bottom", "not2-top", "not3-top", "not-atom", "not2-atom",
        "not3-atom", "and-of-negations", "forall-not3-or"])
def test_nnf_memo_on_negation_chains(build):
    assert_nnf_memo_agrees(build())


def test_nnf_reuses_the_innermost_negation_of_a_chain():
    inner = Not(P_C)
    assert to_nnf(Not(Not(inner))) is inner
    assert to_nnf(And((P_C, Not(Not(inner))))).items[1] is inner


JUNK = ["junk", And((Atom("A"), "junk")), Not(Not("junk")), Exists(("x",), "junk")]


@pytest.mark.parametrize("junk", JUNK)
def test_is_nnf_rejects_a_non_formula_as_to_nnf_does(junk):
    with pytest.raises(FormulaError, match="not a formula: 'junk'"):
        to_nnf(junk)
    with pytest.raises(FormulaError, match="not a formula: 'junk'"):
        is_nnf(junk)


@pytest.mark.parametrize("walker", [
    lambda f: list(walk(f)), variable_names, formula_size, print_formula, simplify,
    lambda f: map_atoms(f, lambda a, _bound: a), canonical_rename, classify, bind_patt,
], ids=["walk", "variable_names", "formula_size", "print_formula", "simplify",
        "map_atoms", "canonical_rename", "classify", "bind_patt"])
@pytest.mark.parametrize("junk", JUNK)
def test_walkers_reject_a_non_formula(walker, junk):
    with pytest.raises(FormulaError, match="not a formula: 'junk'"):
        walker(junk)


def test_signature_example1_relations(example1):
    phi, psi, _, _ = example1
    assert signature_of(phi).relations == {"Cat", "Big", "Green"}
    assert signature_of(psi).relations == {"Cat", "Dog", "Big"}


def test_signature_example2_polarities(example1):
    phi, psi, _, _ = example1
    r = signature_of(phi)
    assert r.relsig_pos == {"Cat", "Big", "Green"}
    assert r.relsig_neg == {"Cat"}
    s = signature_of(psi)
    assert s.relsig_pos == {"Big", "Cat", "Dog"}
    assert s.relsig_neg == frozenset()


def test_signature_of_top_is_empty():
    r = signature_of(TOP)
    assert not r.relations and not r.constants
    assert not r.relsig_pos and not r.relsig_neg and not r.free_vars


def test_nnf_polarity_matches_not_nesting():
    phi = to_nnf(parse("!(A(c) & !B(c)) | !C(c)"))
    r = signature_of(phi)
    under_not = {f.sub.rel for f in _nots(phi)}
    assert r.relsig_neg == under_not


def _nots(phi):
    from craig.formulas import walk
    return [f for f in walk(phi) if isinstance(f, Not) and isinstance(f.sub, Atom)]


def test_substitute_respects_scope():
    f = And((Atom("P", (Var("x0"),)), Exists(("x0",), Atom("Q", (Var("x0"),)))))
    assert substitute_constant(f, "x0", "c") == parse("P(c) & exists x0. Q(x0)")


def test_substitute_absent_variable():
    f = Atom("P", (Var("y0"),))
    assert substitute_constant(f, "x0", "c") == f


def test_substitute_free_under_other_binder():
    f = Forall(("y",), Atom("R", (Var("x"), Var("y"))))
    assert substitute_constant(f, "x", "c") == \
        Forall(("y",), Atom("R", (Const("c"), Var("y"))))


def test_substitute_shares_unchanged_subtrees():
    left = Atom("P", (Var("x0"),))
    right = Exists(("y",), Atom("Q", (Var("y"),)))
    out = substitute_constant(And((left, right)), "x0", "c")
    assert out.items[0] == Atom("P", (Const("c"),))
    assert out.items[1] is right
    unchanged = Not(right)
    assert substitute_constant(unchanged, "x0", "c") is unchanged


def reference_substitute_constants(phi, mapping: dict):
    """The substitution as one map_atoms pass, with a callback per atom: the
    reference the compiled substitution must agree with."""
    consts = {x: Const(c) for x, c in mapping.items()}

    def sub(a, bound):
        for t in a.args:
            if isinstance(t, Var) and t.name in consts and t.name not in bound:
                return Atom(a.rel, tuple(
                    consts.get(t.name, t) if isinstance(t, Var) and t.name not in bound
                    else t for t in a.args))
        return a

    return map_atoms(phi, sub)


def assert_compiled_substitution_agrees(phi, names):
    mapping = {x: f"k{i}" for i, x in enumerate(names)}
    program = compile_substitution(phi, names)
    # the variables that occur free, in free_vars order
    assert program.vars == tuple(v for v in free_vars(phi) if v in mapping)
    out = program.run(tuple(Const(mapping[x]) for x in program.vars))
    expected = reference_substitute_constants(phi, mapping)
    assert out == expected
    assert substitute_constants(phi, mapping) == expected
    # a subtree is rebuilt exactly where the reference rebuilds it; every
    # other subtree comes back as the same object
    for old, new, ref in zip(walk(phi), walk(out), walk(expected)):
        assert (new is old) == (ref is old), (old, new)
        # run sets up its nodes without their constructors; the reference's
        # come from constructor calls, so each must hash and compare the same
        assert type(new) is type(ref) and hash(new) == hash(ref) and new == ref, new


NAMES = st.lists(st.sampled_from(["x", "y", "z", "u"]), unique=True, max_size=3)


@settings(max_examples=300, derandomize=True)
@given(formulas(), NAMES)
def test_compiled_substitution_matches_the_map_atoms_reference(phi, names):
    assert_compiled_substitution_agrees(phi, names)


@settings(max_examples=300, derandomize=True)
@given(wide_formulas(), NAMES)
def test_compiled_substitution_matches_the_reference_on_wide_formulas(phi, names):
    assert_compiled_substitution_agrees(phi, names)


X, Y = Var("x"), Var("y")


@pytest.mark.parametrize("phi, names", [
    # ∀x … ∃x …: the inner block rebinds x, so only the outer occurrence is free
    (Forall(("y",), And((Atom("R", (X, Y)), Exists(("x",), Atom("P", (X,)))))), ("x",)),
    (And((Exists(("x",), Atom("P", (X,))), Atom("Q", (X,)))), ("x", "y")),
    (Exists(("x", "y"), Atom("R", (X, Y))), ("x", "y")),
    (Exists(("x",), Or((Atom("R", (X, Y)), Not(Atom("P", (Y,)))))), ("x", "y")),
    # vacuous block variables: names that do not occur free, first or not
    (Atom("R", (Y, X)), ("z", "x", "u", "y")),
    (Not(Atom("P", (Const("c"),))), ("x",)),
    (TOP, ("x",)),
    # first occurrence decides the order: y before x, repeats counted once
    (And((Atom("R", (Y, Y)), Atom("R", (X, Y)), Atom("P", (X,)))), ("x", "y")),
])
def test_compiled_substitution_on_shadowing_and_vacuous_variables(phi, names):
    assert_compiled_substitution_agrees(phi, names)


def test_compiled_substitution_runs_many_times():
    phi = Forall(("y",), Or((Atom("R", (X, Y)), Atom("P", (Const("c"),)))))
    program = compile_substitution(phi, ("x",))
    for c in ("a", "b", "a"):
        assert program.run((Const(c),)) == reference_substitute_constants(phi, {"x": c})
    assert program.run((Const("a"),)).body.items[1] is phi.body.items[1]


def test_substitute_and_abstract_are_iterative():
    f = Atom("P", (Var("x"),))
    for _ in range(50_000):
        f = Not(f)
    g = abstract_constant(substitute_constant(f, "x", "c"), "c", "z")
    depth = 0
    while isinstance(g, Not):
        g, depth = g.sub, depth + 1
    assert depth == 50_000
    assert g == Atom("P", (Var("z"),))


def test_abstract_constant_uniform():
    f = parse("A(c) & !B(c)")
    assert abstract_constant(f, "c", "x") == \
        And((Atom("A", (Var("x"),)), Not(Atom("B", (Var("x"),)))))


def test_abstract_absent_constant():
    f = parse("P(d)")
    assert abstract_constant(f, "c", "x") == f


def test_abstract_under_binder():
    f = parse("exists y. R(c, y)")
    assert abstract_constant(f, "c", "x") == \
        Exists(("y",), Atom("R", (Var("x"), Var("y"))))


def test_abstract_rejects_occurring_variable():
    with pytest.raises(FormulaError):
        abstract_constant(parse("exists x. R(c, x)"), "c", "x")


def test_substitute_then_abstract_roundtrip():
    f = parse("P(x0) & exists y. R(x0, y)")
    grounded = substitute_constant(f, "x0", "w")
    assert abstract_constant(grounded, "w", "x0") == f


def test_fresh_constant_series():
    assert fresh_constant(set()) == "c0"
    assert fresh_constant({"c0"}) == "c1"


def test_fresh_constant_lowest_unused():
    avoid = {"c0", "c2"}
    # independent oracle: exhaustive scan for the lowest unused index
    expected = next(f"c{i}" for i in range(10) if f"c{i}" not in avoid)
    assert expected == "c1"
    assert fresh_constant(avoid) == expected


def test_bottom_is_not_top():
    assert BOTTOM == Not(TOP)
    assert to_nnf(Not(BOTTOM)) == TOP


def test_zero_ary_relations_allowed():
    f = parse("Z & P(c)")
    r = signature_of(f)
    assert r.arities["Z"] == 0 and r.arities["P"] == 1


def test_arity_mismatch_rejected():
    with pytest.raises(FormulaError):
        signature_of(And((Atom("P", (Const("c"),)), Atom("P", ()))))


def test_dual_kinds_share_a_constructor_but_not_its_error_text():
    a = Atom("A")
    with pytest.raises(FormulaError) as e:
        And((a,))
    assert str(e.value) == "And needs at least two conjuncts (use conj() to collapse)"
    with pytest.raises(FormulaError) as e:
        Or((a,))
    assert str(e.value) == "Or needs at least two disjuncts (use disj() to collapse)"
    for kind in (Exists, Forall):
        with pytest.raises(FormulaError, match="must bind at least one variable"):
            kind((), a)
        with pytest.raises(FormulaError, match="duplicate variable"):
            kind(("x", "x"), a)


def test_abstract_constants_in_one_pass():
    from craig.formulas import _abstract_constants
    f = parse("forall y. R(a, y) & (exists z. S(b, z, a)) | P(c) | R(b, b)")
    g = _abstract_constants(f, {"a": "x0", "b": "x1"})
    report = signature_of(g)
    assert list(report.constants) == ["c"] and list(report.free_vars) == ["x0", "x1"]
    assert substitute_constants(g, {"x0": "a", "x1": "b"}) == f
    assert _abstract_constants(f, {}) is f


def test_simplify_units_and_flattening():
    f = Or((BOTTOM, And((TOP, parse("P(c)"), And((parse("Q(c)"), parse("P(c)")))))))
    assert simplify(f) == And((parse("P(c)"), parse("Q(c)")))


def test_simplify_drops_vacuous_quantifier():
    f = Forall(("z",), parse("exists x. P(x)"))
    assert simplify(f) == parse("exists x. P(x)")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(formulas())
def test_simplify_equivalent_idempotent_and_normal(phi):
    for v in sorted(signature_of(phi).free_vars):
        phi = substitute_constant(phi, v, "e")
    s = simplify(phi)
    assert simplify(s) == s
    for f in walk(s):
        if isinstance(f, (And, Or)):
            for g in f.items:
                assert type(g) is not type(f), s
                assert g != TOP and g != BOTTOM, s
        if isinstance(f, (Exists, Forall)):
            assert set(f.vars) <= free_vars(f.body), s
    sig = signature_of(phi)
    for n in (1, 2):
        for A in enumerate_structures(sig, n):
            assert evaluate(A, s) == evaluate(A, phi)


def _rebuilt(f):
    """A distinct copy of f made by fresh constructor calls: the print/parse
    round trip where it holds, else a map_atoms rebuild with fresh atoms."""
    g = parse(print_formula(f))
    if repr(g) != repr(f):  # free variables print as names and parse as constants
        g = map_atoms(f, lambda a, _bound: Atom(a.rel, a.args))
    if g is f:  # TOP: parse returns the shared constant and map_atoms keeps it
        g = Top()
    return g


@settings(max_examples=400, derandomize=True)
@given(formulas(max_depth=2), formulas(max_depth=2))
def test_hash_and_eq_agree_with_the_structural_reference(f, g):
    # repr spells out the whole tree, so equal reprs are the reference for ==
    same = repr(f) == repr(g)
    copy_f, copy_g = _rebuilt(f), _rebuilt(g)
    for h, copy in ((f, copy_f), (g, copy_g)):
        assert copy is not h
        assert copy == h and hash(copy) == hash(h)
    for a, b in ((f, g), (copy_f, g), (f, copy_g), (copy_f, copy_g)):
        assert (a == b) is same and (a != b) is not same
        if a == b:
            assert hash(a) == hash(b)


def test_a_pickled_formula_is_rehashed_where_it_is_loaded(tmp_path):
    # string hashes differ between the two hash seeds, so a pickled cached
    # hash would no longer match a fresh parse in the loading process
    texts = ["forall x. P(x) -> exists y. R(x, y) & !Q(c)", "P(a) | Z", "true"]
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    dumped = tmp_path / "formulas.pickle"
    dump = ("import pickle, sys; from craig.parser import parse; "
            f"pickle.dump([parse(t) for t in {texts!r}], open(sys.argv[1], 'wb'))")
    load = ("import pickle, sys; from craig.parser import parse\n"
            f"fresh = [parse(t) for t in {texts!r}]\n"
            "loaded = pickle.load(open(sys.argv[1], 'rb'))\n"
            "index = {f: i for i, f in enumerate(fresh)}\n"
            "for i, (f, g) in enumerate(zip(loaded, fresh)):\n"
            "    assert f == g and hash(f) == hash(g) and index[f] == i, (f, g)\n"
            "print('ok')\n")
    for code, seed in ((dump, "1"), (load, "2")):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(dumped)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_terms_are_interned_and_immutable():
    a, x = Const("a"), Var("x")
    assert Const("a") is a and Var("x") is x
    assert Var("x") != Const("x") and Var("a") is not a
    assert (repr(a), repr(x)) == ("Const(a)", "Var(x)")
    with pytest.raises(FrozenInstanceError):
        a.name = "b"
    with pytest.raises(FrozenInstanceError):
        del x.name
    assert (a.name, x.name) == ("a", "x")
    assert copy_module.copy(a) is a and copy_module.deepcopy(x) is x
    assert pickle.loads(pickle.dumps(a)) is a
    f = Atom("P", (a, x))
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g.args[0] is a and g.args[1] is x


def test_an_unreferenced_term_leaves_the_table():
    name = "term-held-by-nothing"
    f = Atom("P", (Const(name),))
    assert Const(name) is f.args[0] and name in Const._interned
    del f
    gc.collect()
    assert name not in Const._interned
    assert Const(name).name == name  # made afresh


def test_a_term_pickled_in_another_process_is_interned_where_it_is_loaded(tmp_path):
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    dumped = tmp_path / "terms.pickle"
    dump = ("import pickle, sys; from craig.formulas import Atom, Const, Var\n"
            "pickle.dump([Const('a'), Var('x'), Atom('P', (Const('a'), Var('x')))],"
            " open(sys.argv[1], 'wb'))")
    load = ("import pickle, sys; from craig.formulas import Atom, Const, Var\n"
            "a, x = Const('a'), Var('x')\n"
            "la, lx, atom = pickle.load(open(sys.argv[1], 'rb'))\n"
            "assert la is a and lx is x and atom.args[0] is a and atom.args[1] is x\n"
            "assert atom == Atom('P', (a, x)) and hash(atom) == hash(Atom('P', (a, x)))\n"
            "print('ok')\n")
    for code in (dump, load):
        proc = subprocess.run([sys.executable, "-c", code, str(dumped)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_each_node_class_compares_its_own_fields():
    a, b, x = Const("a"), Const("b"), Var("x")
    p, q = Atom("P", (a,)), Atom("P", (b,))
    pairs = [
        (Atom("P", (a,)), p, True), (p, q, False), (p, Atom("Q", (a,)), False),
        (Not(Atom("P", (a,))), Not(p), True), (Not(p), Not(q), False),
        (And((p, q)), And((Atom("P", (a,)), q)), True), (And((p, q)), And((q, p)), False),
        (And((p, q)), Or((p, q)), False), (Or((p, q)), Or((p, Atom("P", (b,)))), True),
        (Exists(("x",), Atom("P", (x,))), Exists(("x",), Atom("P", (x,))), True),
        (Exists(("x",), Atom("P", (x,))), Forall(("x",), Atom("P", (x,))), False),
        (Exists(("x",), p), Exists(("y",), p), False), (Top(), TOP, True), (TOP, p, False),
        (BOTTOM, Not(Top()), True), (BOTTOM, TOP, False),
    ]
    for f, g, same in pairs:
        assert (f == g, g == f, f != g) == (same, same, not same), (f, g)
        if same:
            assert hash(f) == hash(g)
        else:  # with the cached hashes forced equal, the fields still decide
            forged = copy_module.copy(g)
            object.__setattr__(forged, "_h", hash(f))
            assert f != forged and forged != f, (f, g)
    assert p != "P(a)" and (p == object()) is False


def test_threads_interning_the_same_names_get_the_same_terms():
    # every thread makes the same fresh names, in its own order, with a short
    # switch interval; a term made twice for one name would be seen as two
    names = [f"race{i}" for i in range(3_000)]
    results: list = [None] * 8

    def make(k):
        order = names[k:] + names[:k]
        results[k] = {n: (Const(n), Var(n)) for n in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=make, args=(k,)) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for n in names:
        first = results[0][n]
        assert all(r[n][0] is first[0] and r[n][1] is first[1] for r in results)
