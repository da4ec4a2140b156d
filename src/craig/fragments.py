"""Syntactic fragment membership flags and the CIP status table.

Membership checks are purely syntactic (guardedness reads the NNF):

* quantifier-free: no quantifier at all;
* relativized (given a set of unary relativizers): every quantifier is a
  single-variable ``exists x. U(x) & ...`` or ``forall x. U(x) -> ...``;
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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import UnknownFragmentError
from .formulas import (
    And, Atom, Exists, Forall, Not, Or, Var, _fold, _free_names, _rebuild, free_vars,
    fresh_names, to_nnf, variable_names, walk,
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


def _quantifiers(phi):
    return (f for f in walk(phi) if isinstance(f, (Exists, Forall)))


def _is_relativized(phi, relativizers) -> bool:
    for q in _quantifiers(phi):
        if len(q.vars) != 1:
            return False
        v = q.vars[0]
        guard_atom = None
        if isinstance(q, Exists):
            if isinstance(q.body, And):
                guard_atom = q.body.items[0]
        else:
            # forall x. U(x) -> beta parses to !(U(x) & !beta); accept the
            # NNF spelling !U(x) | beta as well
            if isinstance(q.body, Not) and isinstance(q.body.sub, And):
                guard_atom = q.body.sub.items[0]
            elif isinstance(q.body, Or) and isinstance(q.body.items[0], Not):
                guard_atom = q.body.items[0].sub
        if not isinstance(guard_atom, Atom):
            return False
        if guard_atom.rel not in relativizers:
            return False
        if guard_atom.args != (Var(v),):
            return False
    return True


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
    for q in _quantifiers(to_nnf(phi)):
        need = free_vars(q.body)
        if len(need) > 1 and not any(need <= free_vars(g) for g in _guards(q)):
            return False
    return True


def _negations(phi):
    stack = [(phi, ())]
    while stack:
        f, siblings = stack.pop()
        if isinstance(f, Not):
            yield f, siblings
            stack.append((f.sub, ()))
        elif isinstance(f, And):
            atoms = tuple(g for g in f.items if isinstance(g, Atom))
            for g in f.items:
                stack.append((g, atoms))
        elif isinstance(f, Or):
            for g in f.items:
                stack.append((g, ()))
        elif isinstance(f, (Exists, Forall)):
            stack.append((f.body, ()))


def _is_unary_negation(phi) -> bool:
    return all(len(free_vars(n.sub)) <= 1 for n, _ in _negations(phi))


def _is_guarded_negation(phi) -> bool:
    for n, sibling_atoms in _negations(phi):
        need = free_vars(n.sub)
        if len(need) <= 1:
            continue
        if not any(need <= free_vars(g) for g in sibling_atoms):
            return False
    return True


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
    relativizers = set(relativizers)
    qf = not any(True for _ in _quantifiers(phi))
    relativized = qf or _is_relativized(phi, relativizers)
    two_var = len(variable_names(canonical_rename(phi))) <= 2
    guarded = _is_guarded(phi)
    unfo = _is_unary_negation(phi)
    gnfo = _is_guarded_negation(phi)
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
