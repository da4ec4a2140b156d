"""Syntactic fragment membership flags and the CIP status table.

Membership checks are purely syntactic (guardedness reads the NNF):

* quantifier-free: no quantifier at all;
* relativized (given a set of unary relativizers): every quantifier is a
  single-variable ``exists x. U(x) & ...`` or ``forall x. U(x) -> ...``,
  or has the guard alone as its body, ``exists x. U(x)`` or
  ``forall x. !U(x)``;
* two-variable: at most two distinct variable names after a canonical
  minimal-renaming pass (raw name counting is not renaming-invariant);
* guarded: every quantifier body with two or more free variables has an
  atom conjunct (∃) or negated-atom disjunct (∀) containing them all; one
  free variable x is guarded by x = x (Andréka, van Benthem & Németi 1998);
* unary-negation: every negation's scope has at most one free variable;
* guarded-negation: every negation unary or guarded by a sibling atom in an
  enclosing conjunction (best effort; self-guardedness is not modeled).

The report's CIP column gives the table status for each fragment the formula
belongs to and "not-applicable" for the rest (the forward/fluted fragments
carry no membership check at all, so they are always "not-applicable" there).

Every flag comes from a fold (``formulas._fold``) whose values are free
names: one over the surface tree for quantifier-free, relativized,
unary-negation and guarded-negation, one over the NNF for guarded, and
canonical_rename's for two-variable.  So classify is linear in the
formula's size, and only to_nnf's recursion bounds the depth it handles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import UnknownFragmentError
from .formulas import (
    And, Atom, Exists, Forall, Not, Or, Var, _fold, _free_names, _rebuild, fresh_names,
    to_nnf, variable_names,
)

HAS = "has"
LACKS = "lacks"
NOT_APPLICABLE = "not-applicable"

_CIP_TABLE = {
    "FO": HAS,
    "FO2": LACKS,
    "C2": LACKS,
    "GFO": LACKS,
    "GNFO": HAS,
    "UNFO": HAS,
    "FF": LACKS,
    "FL": LACKS,
    "ML": HAS,
}

_ALIASES = {"FO²": "FO2", "C²": "C2", "GF": "GFO", "UNF": "UNFO", "GNF": "GNFO"}


def cip_status(fragment: str) -> str:
    name = _ALIASES.get(fragment, fragment).upper()
    name = _ALIASES.get(name, name)
    if name not in _CIP_TABLE:
        raise UnknownFragmentError(
            f"unknown fragment {fragment!r}; known: {', '.join(sorted(_CIP_TABLE))}")
    return _CIP_TABLE[name]


@dataclass(frozen=True)
class FragmentReport:
    quantifier_free: bool
    relativized: bool
    two_variable: bool
    guarded: bool
    unary_negation: bool
    guarded_negation: bool
    cip: dict = field(default_factory=dict)

    def flags(self) -> dict:
        return {
            "quantifier-free": self.quantifier_free,
            "relativized": self.relativized,
            "two-variable": self.two_variable,
            "guarded": self.guarded,
            "unary-negation": self.unary_negation,
            "guarded-negation": self.guarded_negation,
        }


def _is_relativized(q, relativizers) -> bool:
    """Whether the quantifier q is ``exists x. U(x) & ...`` or ``forall x.
    U(x) -> ...`` for a relativizer U.  The ∀ form parses to
    !(U(x) & !...); its NNF spelling !U(x) | ... is accepted as well.  A
    lone guard is its own body: ``exists x. U(x)`` and ``forall x. !U(x)``."""
    body = q.body
    if type(q) is Exists:
        guard = body.items[0] if type(body) is And else body
    elif type(body) is Not:
        guard = body.sub.items[0] if type(body.sub) is And else body.sub
    else:
        guard = body.items[0].sub if type(body) is Or and type(body.items[0]) is Not else None
    return (len(q.vars) == 1 and type(guard) is Atom and guard.rel in relativizers
            and guard.args == (Var(q.vars[0]),))


def _surface_flags(phi, relativizers) -> tuple:
    """(quantifier-free, relativized, unary-negation, guarded-negation), from
    one fold whose values are free names.  An ∧ hands its children the free
    names of its atom items: the guards a negation among them may use."""
    qf = relativized = unary = guarded_negation = True

    def enter(f, _siblings):
        if type(f) is not And:
            return ()
        return [_free_names(g, None, None) for g in f.items if type(g) is Atom]

    def case(f, siblings, kids):
        nonlocal qf, relativized, unary, guarded_negation
        kind = type(f)
        if kind is Not and len(kids) > 1:
            unary = False
            guarded_negation = guarded_negation and any(kids <= g for g in siblings)
        elif kind is Exists or kind is Forall:
            qf = False
            relativized = relativized and _is_relativized(f, relativizers)
        return _free_names(f, None, kids)

    _fold(phi, case, enter, ())
    return qf, relativized, unary, guarded_negation


def _guards(q):
    """Atoms that can guard the body of an NNF quantifier: for ∃ the body if
    it is an atom, else its atom conjuncts; for ∀ the atom of a negated-atom
    body, else the atoms of its negated-atom disjuncts."""
    body = q.body
    if isinstance(q, Exists):
        items = body.items if isinstance(body, And) else (body,)
        return [g for g in items if isinstance(g, Atom)]
    items = body.items if isinstance(body, Or) else (body,)
    return [g.sub for g in items if isinstance(g, Not) and isinstance(g.sub, Atom)]


def _is_guarded(phi) -> bool:
    """One fold over phi's NNF, whose values are free names: a quantifier's
    child value is what its guards must cover."""
    guarded = True

    def case(f, _ctx, kids):
        nonlocal guarded
        if (type(f) is Exists or type(f) is Forall) and len(kids) > 1:
            guarded = guarded and any(
                kids <= _free_names(g, None, None) for g in _guards(f))
        return _free_names(f, None, kids)

    _fold(to_nnf(phi), case)
    return guarded


def canonical_rename(phi):
    """Greedily rename bound variables to a minimal pool (v0, v1, ...).

    A pool name is reusable under a binder unless an outer variable mapped to
    it occurs free in the binder's body.  A first fold collects each
    binder's free variables, so the cost is linear in phi's size.
    """
    free: dict = {}  # id of each quantifier node -> the names free in it
    _fold(phi, _free_names, None, free)
    blocks: list = []  # the new names of each block being folded, innermost last

    def enter(f, env):
        if type(f) is not Exists and type(f) is not Forall:
            return env
        blocked = {env.get(x, x) for x in free[id(f)]}
        fresh = tuple(itertools.islice(fresh_names("v", blocked), len(f.vars)))
        blocks.append(fresh)
        return {**env, **dict(zip(f.vars, fresh))}

    def case(f, env, kids):
        kind = type(f)
        if kind is Atom:
            return Atom(f.rel, tuple(
                [Var(env.get(t.name, t.name)) if type(t) is Var else t for t in f.args]))
        if kind is Exists or kind is Forall:
            return kind(blocks.pop(), kids)
        return _rebuild(f, env, kids)

    return _fold(phi, case, enter, {})


def classify(phi, relativizers=()) -> FragmentReport:
    """Compute the syntactic fragment flags and the matching CIP rows."""
    qf, relativized, unfo, gnfo = _surface_flags(phi, set(relativizers))
    two_var = len(variable_names(canonical_rename(phi))) <= 2
    guarded = _is_guarded(phi)
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
