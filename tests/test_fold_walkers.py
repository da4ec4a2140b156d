"""The four formula rebuilders that share one fold, against the code they
replaced.

``map_atoms``, ``print_formula``, ``simplify`` and
``fragments.canonical_rename`` are built on ``formulas._fold``.  Each is
compared here with a copy of its earlier implementation (an explicit-stack
loop for ``map_atoms``, recursion for the other three) on hypothesis
``formulas()`` and ``wide_formulas()``, on every formula of
``corpus(42, 500)``, and on its Craig interpolants and their negations.
Results and printed text must be equal.  For ``map_atoms`` the atoms and
bound sets its callback receives, in order, must be equal too, and a
subtree must come back as the same object exactly where the old loop
returned it as the same object.
"""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, settings

from craig.corpus import corpus
from craig.formulas import (
    BOTTOM, TOP, And, Atom, Const, Exists, Forall, Not, Or, Top, Var, conj, disj,
    free_vars, fresh_names, map_atoms, simplify, walk,
)
from craig.fragments import canonical_rename
from craig.interpolation import craig_interpolant
from craig.parser import print_formula

from test_formulas import formulas, wide_formulas


def old_map_atoms(phi, fn):
    out: list = []
    stack: list = [(phi, frozenset(), False)]
    while stack:
        f, bound, ready = stack.pop()
        kind = type(f)
        if kind is Atom:
            out.append(fn(f, bound))
        elif kind is Top:
            out.append(f)
        elif ready:
            if kind is Not:
                sub = out.pop()
                out.append(f if sub is f.sub else Not(sub))
            elif kind is And or kind is Or:
                n = len(f.items)
                items = tuple(out[-n:])
                del out[-n:]
                changed = any(a is not b for a, b in zip(items, f.items))
                out.append(kind(items) if changed else f)
            else:
                body = out.pop()
                out.append(f if body is f.body else kind(f.vars, body))
        elif kind is Not:
            stack.append((f, bound, True))
            stack.append((f.sub, bound, False))
        elif kind is And or kind is Or:
            stack.append((f, bound, True))
            stack.extend([(g, bound, False) for g in reversed(f.items)])
        else:
            stack.append((f, bound, True))
            stack.append((f.body, bound | frozenset(f.vars), False))
    return out[0]


_PREC = {"or": 1, "and": 2, "unary": 3}


def old_print(f, parent_prec: int = 0) -> str:
    if isinstance(f, Top):
        return "true"
    if f == BOTTOM:
        return "false"
    if isinstance(f, Atom):
        if not f.args:
            return f.rel
        return f.rel + "(" + ", ".join(t.name for t in f.args) + ")"
    if isinstance(f, Not):
        return "!" + old_print(f.sub, _PREC["unary"])
    if isinstance(f, And):
        s = " & ".join(old_print(g, _PREC["and"]) for g in f.items)
        return f"({s})" if parent_prec >= _PREC["and"] else s
    if isinstance(f, Or):
        s = " | ".join(old_print(g, _PREC["or"]) for g in f.items)
        return f"({s})" if parent_prec >= _PREC["or"] else s
    kw = "exists" if isinstance(f, Exists) else "forall"
    s = f"{kw} {' '.join(f.vars)}. {old_print(f.body, 0)}"
    return f"({s})" if parent_prec > 0 else s


def old_simplify(f):
    if isinstance(f, (Atom, Top)):
        return f
    if isinstance(f, Not):
        s = old_simplify(f.sub)
        if isinstance(s, Not):
            return s.sub
        return Not(s)
    if isinstance(f, (And, Or)):
        is_and = isinstance(f, And)
        unit, absorb = (TOP, BOTTOM) if is_and else (BOTTOM, TOP)
        flat = []
        for g in f.items:
            g = old_simplify(g)
            if isinstance(f, And) and isinstance(g, And) or isinstance(f, Or) and isinstance(g, Or):
                flat.extend(g.items)
            else:
                flat.append(g)
        kept = []
        for g in flat:
            if g == absorb:
                return absorb
            if g != unit and g not in kept:
                kept.append(g)
        return conj(kept) if is_and else disj(kept)
    body = old_simplify(f.body)
    fv = free_vars(body)
    kept = tuple(v for v in f.vars if v in fv)
    if not kept:
        return body
    return Exists(kept, body) if isinstance(f, Exists) else Forall(kept, body)


def old_canonical_rename(phi):
    def rec(f, env):
        if isinstance(f, Atom):
            return Atom(f.rel, tuple(
                Var(env.get(t.name, t.name)) if isinstance(t, Var) else t
                for t in f.args))
        if isinstance(f, Top):
            return f
        if isinstance(f, Not):
            return Not(rec(f.sub, env))
        if isinstance(f, And):
            return And(tuple(rec(g, env) for g in f.items))
        if isinstance(f, Or):
            return Or(tuple(rec(g, env) for g in f.items))
        outer_free = free_vars(f.body) - set(f.vars)
        blocked = {env.get(x, x) for x in outer_free}
        fresh = tuple(itertools.islice(fresh_names("v", blocked), len(f.vars)))
        env2 = {**env, **dict(zip(f.vars, fresh))}
        body = rec(f.body, env2)
        cls = Exists if isinstance(f, Exists) else Forall
        return cls(fresh, body)

    return rec(phi, {})


def _keep(a, _bound):
    return a


def _rename_some(a, _bound):
    return Atom(a.rel + "2", a.args) if a.rel in ("A", "P") else a


def _close_free(a, bound):
    # always a new atom, so every ancestor is rebuilt
    return Atom(a.rel, tuple(
        Const("k") if type(t) is Var and t.name not in bound else t for t in a.args))


def _recorded(fn, calls: list):
    @functools.wraps(fn)
    def callback(a, bound):
        calls.append((a, bound))
        return fn(a, bound)
    return callback


def assert_walkers_agree(phi):
    assert print_formula(phi) == old_print(phi)
    new, old = simplify(phi), old_simplify(phi)
    assert new == old and print_formula(new) == old_print(old)
    new, old = canonical_rename(phi), old_canonical_rename(phi)
    assert new == old and print_formula(new) == old_print(old)
    for fn in (_keep, _rename_some, _close_free):
        new_calls, old_calls = [], []
        new = map_atoms(phi, _recorded(fn, new_calls))
        old = old_map_atoms(phi, _recorded(fn, old_calls))
        assert new_calls == old_calls, fn.__name__
        assert new == old and print_formula(new) == old_print(old)
        # the callbacks return atoms, so all three trees have one shape
        for f, n, o in zip(walk(phi), walk(new), walk(old)):
            assert (n is f) == (o is f), (fn.__name__, f)


@settings(max_examples=300, derandomize=True)
@given(formulas())
def test_fold_walkers_match_the_old_code(phi):
    assert_walkers_agree(phi)


@settings(max_examples=300, derandomize=True)
@given(wide_formulas())
def test_fold_walkers_match_the_old_code_on_wide_formulas(phi):
    assert_walkers_agree(phi)


@pytest.fixture(scope="module")
def corpus_formulas() -> list:
    out = []
    for inst in corpus(42, 500):
        theta = craig_interpolant(inst.phi, inst.psi, 20_000)
        out += [inst.phi, inst.psi, theta, Not(inst.phi), Not(inst.psi), Not(theta)]
    return out


def test_fold_walkers_match_the_old_code_on_the_corpus(corpus_formulas):
    for phi in corpus_formulas:
        assert_walkers_agree(phi)
