"""Access methods, binding-pattern extraction, boundedness, the accessible-
part fixpoint and the access-determinacy spot check.

Binding patterns are shape-sensitive, so this module consumes the surface
parse tree, not NNF.  A universal block over an implication is canonically
read as a negated existential first; the binding atom of the existential
clause is the first conjunct of the quantified body.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import FormulaError, MissingSymbolError
from .formulas import (
    And, Atom, Const, Forall, Not, Or, Top, _fold, free_vars, signature_of,
)
from .models import Structure, _eval, _is_element, _trusted_structure, evaluate, substructure


@dataclass(frozen=True)
class AccessMethod:
    """Relation access with the given 1-based argument positions as inputs."""

    relation: str
    inputs: frozenset

    def __post_init__(self):
        if type(self.relation) is not str or not self.relation:
            raise FormulaError(f"access method relation must be a non-empty string, "
                               f"found {self.relation!r}")
        try:
            object.__setattr__(self, "inputs", frozenset(self.inputs))
        except TypeError:
            raise FormulaError(f"access method inputs must be a collection of positions, "
                               f"found {self.inputs!r}") from None
        if any(type(i) is not int or i < 1 for i in self.inputs):  # a bool is not an int
            raise FormulaError("input positions are 1-based naturals")

    def __repr__(self):
        pos = ",".join(str(i) for i in sorted(self.inputs)) or "-"
        return f"{self.relation}:{pos}"


def am_leq(a: AccessMethod, b: AccessMethod) -> bool:
    """a is at least as powerful as b: same relation, a.inputs ⊆ b.inputs."""
    return a.relation == b.relation and a.inputs <= b.inputs


def upward_closure(methods, arities: dict) -> frozenset:
    """All methods above the given ones: same relation, superset inputs.
    arities maps each relation name to its arity."""
    out = set()
    for m in methods:
        arity = arities.get(m.relation)
        if arity is None:
            raise FormulaError(f"relation {m.relation} not in the signature")
        if any(i > arity for i in m.inputs):
            raise FormulaError(f"method {m!r} exceeds arity {arity}")
        rest = sorted(set(range(1, arity + 1)) - m.inputs)
        for k in range(len(rest) + 1):
            for extra in itertools.combinations(rest, k):
                out.add(AccessMethod(m.relation, m.inputs | frozenset(extra)))
    return frozenset(out)


@dataclass(frozen=True)
class BindPattResult:
    defined: bool
    methods: "frozenset | None" = None


def bind_patt(phi) -> BindPattResult:
    """Access methods the formula's shape requires; undefined off the table.
    One fold, linear in phi's size; a non-formula anywhere in phi raises
    FormulaError."""
    methods = _fold(phi, _bind_patt, None, {})
    if methods is None:
        return BindPattResult(False, None)
    return BindPattResult(True, methods)


def _bind_patt(f, rests, kids):
    # the fold case: a node's value is the frozenset of methods its shape
    # requires, or None where undefined.  rests maps the id of each ∧ whose
    # first item is an atom (a quantifier's binding atom) to the value of
    # its other items, which is what that quantifier needs of its body
    kind = type(f)
    if kind is Top:
        return frozenset()
    if kind is Atom:
        return frozenset({AccessMethod(f.rel, frozenset(range(1, len(f.args) + 1)))})
    if kind is Not:
        return kids
    if kind is Or:
        return None
    if kind is And:
        rest = None if None in kids[1:] else frozenset().union(*kids[1:])
        if type(f.items[0]) is Atom:
            rests[id(f)] = rest
        return None if rest is None or kids[0] is None else kids[0] | rest
    body = f.body
    if kind is Forall:
        # ∀x⃗ δ is read as ¬∃x⃗ ¬δ on the literal tree
        body = body.sub if type(body) is Not else None
    if type(body) is not And or type(body.items[0]) is not Atom:
        return None
    rest = rests[id(body)]
    if rest is None:
        return None
    binding = body.items[0]
    positions = frozenset(
        i + 1 for i, t in enumerate(binding.args) if type(t) is Const or t.name not in f.vars)
    return rest | {AccessMethod(binding.rel, positions)}


def is_bounded(phi, methods) -> bool:
    """BindPatt(phi) is defined and lies in the upward closure of methods."""
    result = bind_patt(phi)
    if not result.defined:
        return False
    return all(any(am_leq(s, m) for s in methods) for m in result.methods)


def accessible_part(structure: Structure, methods, start) -> frozenset:
    """Least superset of the start tuple closed under the access rule.

    If a tuple of a relation with a method has all its input positions inside
    the set, all its elements join the set.  Worklist iteration to fixpoint.
    """
    for e in start:
        if not _is_element(e, structure.domain_size):
            raise FormulaError(f"element {e!r} outside the domain")
    method_list = sorted(set(methods), key=lambda m: (m.relation, sorted(m.inputs)))
    for m in method_list:
        if m.relation not in structure.relations:
            raise MissingSymbolError(f"structure does not interpret {m.relation}")
    reached = set(start)
    changed = True
    while changed:
        changed = False
        for m in method_list:
            for t in sorted(structure.relations[m.relation]):
                if any(i > len(t) for i in m.inputs):
                    raise FormulaError(f"method {m!r} exceeds arity {len(t)}")
                if all(t[i - 1] in reached for i in m.inputs):
                    for e in t:
                        if e not in reached:
                            reached.add(e)
                            changed = True
    return frozenset(reached)


def check_access_determinacy(phi, methods, structure: Structure, args) -> bool:
    """Spot check: does phi agree on the structure and on its accessible part?

    args lists values for the free variables of phi in sorted name order.
    This is a single-instance check, not a decision procedure.
    """
    names = sorted(free_vars(phi))
    if len(names) != len(args):
        raise FormulaError(
            f"free variables {names} need exactly {len(names)} argument values")
    assignment = dict(zip(names, args))
    full = evaluate(structure, phi, assignment)
    region = accessible_part(structure, methods, tuple(args))
    if not region:
        if signature_of(phi).constants:
            raise FormulaError("empty accessible part but the formula has constants")
        # the empty induced substructure keeps each relation's 0-ary fact,
        # as substructure does
        empty = _trusted_structure(0, {name: ts & {()} for name, ts
                                       in structure.relations.items()}, {})
        return full == _eval(empty, phi, {})
    if any(c not in region for c in structure.constants.values()):
        raise FormulaError("a constant denotation falls outside the accessible part")
    sub = substructure(structure, region)
    order = sorted(region)
    renumber = {e: i for i, e in enumerate(order)}
    reduced_assignment = {v: renumber[e] for v, e in assignment.items()}
    return full == evaluate(sub, phi, reduced_assignment)
