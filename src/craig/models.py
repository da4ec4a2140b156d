"""Finite structures, first-order evaluation and exhaustive enumeration.

This is the brute-force oracle the rest of the package is checked against:
everything here is deliberately simple and deterministic.

Enumeration prunes by prefix.  ``satisfying_structures`` assigns the symbols
one at a time (relations sorted, then constants sorted), so every structure
of the enumeration order shares its prefix of assignments with the block of
structures that differ from it only in later symbols.  Each sentence is split
into top-level conjuncts, and a conjunct is evaluated as soon as the last of
its symbols is assigned: its truth is the same for the whole block, so a
failing conjunct skips the block without losing a satisfying structure.  The
survivors come out in enumeration order, which is why ``find_model`` and
``padoa_counterexample`` return the same first models as a filter over every
structure would.  ``enumerate_structures`` is the case with no sentences.

Compile once, evaluate many.  Where one formula meets many structures (each
conjunct of ``satisfying_structures``, each interpolant-search candidate on
its screens) ``_compile`` translates it once into nested closures, so node
dispatch, atom argument shapes and quantifier loops are fixed before the
first structure.  ``evaluate`` keeps the ``_eval`` interpreter, for two
reasons: for one formula on one structure, compiling and running costs about
twice as much as interpreting (corpus formulas, size 1 and 2 structures), and
``_eval`` is the independent reference the compiled closures are tested
against.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import FormulaError, MissingSymbolError, PartialAssignmentError
from .formulas import (
    And, Atom, Exists, Forall, Not, Or, Top, Var,
    SignatureReport, signature_of,
)


@dataclass(frozen=True)
class Structure:
    """Finite interpretation over domain {0..domain_size-1}."""

    domain_size: int
    relations: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.domain_size < 1:
            raise FormulaError("domain must be non-empty")
        rels = {name: frozenset(tuple(t) for t in tuples)
                for name, tuples in self.relations.items()}
        object.__setattr__(self, "relations", rels)
        for name, tuples in rels.items():
            for t in tuples:
                if any(not (0 <= e < self.domain_size) for e in t):
                    raise FormulaError(f"tuple {t} of {name} outside domain")
        for name, e in self.constants.items():
            if not (0 <= e < self.domain_size):
                raise FormulaError(f"constant {name} -> {e} outside domain")

    def key(self) -> tuple:
        """Canonical hashable form."""
        return (
            self.domain_size,
            tuple((n, tuple(sorted(ts))) for n, ts in sorted(self.relations.items())),
            tuple(sorted(self.constants.items())),
        )


def evaluate(structure: Structure, phi, assignment: dict | None = None) -> bool:
    """Tarskian truth of phi in the structure under the assignment."""
    g = dict(assignment or {})
    _check_evaluable(signature_of(phi), structure.relations, structure.constants, g)
    return _eval(structure, phi, g)


def _check_evaluable(report: SignatureReport, relations, constants, variables=()) -> None:
    """Raise evaluate's error unless a structure interpreting these relation
    and constant names, under an assignment of these variable names, can
    evaluate a formula with this signature."""
    for rel in sorted(report.relations):
        if rel not in relations:
            raise MissingSymbolError(f"structure does not interpret relation {rel}")
    for c in sorted(report.constants):
        if c not in constants:
            raise MissingSymbolError(f"structure does not interpret constant {c}")
    missing = report.free_vars - set(variables)
    if missing:
        raise PartialAssignmentError(f"assignment misses {sorted(missing)}")


def _eval(A: Structure, f, g: dict) -> bool:
    kind = type(f)  # exact types: dispatch is the hot path of the oracle
    if kind is Atom:
        return tuple([g[t.name] if type(t) is Var else A.constants[t.name]
                      for t in f.args]) in A.relations[f.rel]
    if kind is Not:
        return not _eval(A, f.sub, g)
    if kind is And:
        for x in f.items:
            if not _eval(A, x, g):
                return False
        return True
    if kind is Or:
        for x in f.items:
            if _eval(A, x, g):
                return True
        return False
    if kind is Exists or kind is Forall:
        # a witness decides ∃, a counterexample ∀; g2 is private to this loop
        decisive = kind is Exists
        g2 = dict(g)
        for values in itertools.product(range(A.domain_size), repeat=len(f.vars)):
            g2.update(zip(f.vars, values))
            if _eval(A, f.body, g2) == decisive:
                return decisive
        return not decisive
    if kind is Top:
        return True
    raise FormulaError(f"not a formula: {f!r}")


def _compile(f):
    """Translate f once into a closure ``holds(structure, assignment)``.

    The closure returns exactly what ``_eval(structure, f, assignment)``
    returns and raises what it raises, at the same point: connectives and
    quantifier blocks short-circuit in the same order, and a node that is not
    a formula raises ``FormulaError`` when evaluation reaches it, not at
    compile time.  Compiling and running each recurse once per nesting level,
    no deeper than ``_eval``.
    """
    kind = type(f)
    if kind is Atom:
        rel, names = f.rel, [t.name for t in f.args]
        shape = [type(t) is Var for t in f.args]
        if len(names) == 1:  # the common case: one lookup, no tuple building
            (n,) = names
            if shape[0]:
                return lambda A, g: (g[n],) in A.relations[rel]
            return lambda A, g: (A.constants[n],) in A.relations[rel]
        if len(names) > 1 and (all(shape) or not any(shape)):
            get = operator.itemgetter(*names)  # a tuple, keys read in order
            if shape[0]:
                return lambda A, g: get(g) in A.relations[rel]
            return lambda A, g: get(A.constants) in A.relations[rel]
        pairs = tuple(zip(shape, names))
        return lambda A, g: tuple([g[n] if is_var else A.constants[n]
                                   for is_var, n in pairs]) in A.relations[rel]
    if kind is Not:
        sub = _compile(f.sub)
        return lambda A, g: not sub(A, g)
    if kind is And or kind is Or:
        items = []
        for x in f.items:  # a loop, not a generator: one frame per level
            items.append(_compile(x))
        if len(items) == 2:
            a, b = items
            if kind is And:
                return lambda A, g: a(A, g) and b(A, g)
            return lambda A, g: a(A, g) or b(A, g)
        decisive = kind is Or  # a false conjunct decides ∧, a true disjunct ∨

        def junction(A, g):
            for x in items:
                if x(A, g) == decisive:
                    return decisive
            return not decisive
        return junction
    if kind is Exists or kind is Forall:
        decisive = kind is Exists
        block, body = f.vars, _compile(f.body)
        if len(block) == 1:
            (v,) = block

            def quantifier(A, g):
                g2 = dict(g)
                for e in range(A.domain_size):
                    g2[v] = e
                    if body(A, g2) == decisive:
                        return decisive
                return not decisive
            return quantifier

        def block_quantifier(A, g):
            g2 = dict(g)
            for values in itertools.product(range(A.domain_size), repeat=len(block)):
                g2.update(zip(block, values))
                if body(A, g2) == decisive:
                    return decisive
            return not decisive
        return block_quantifier
    if kind is Top:
        return lambda A, g: True

    def not_a_formula(A, g):
        raise FormulaError(f"not a formula: {f!r}")
    return not_a_formula


def _trusted_structure(n: int, relations: dict, constants: dict) -> Structure:
    # enumeration fast path: fields are valid by construction
    A = object.__new__(Structure)
    object.__setattr__(A, "domain_size", n)
    object.__setattr__(A, "relations", relations)
    object.__setattr__(A, "constants", constants)
    return A


def enumerate_structures(sig: SignatureReport, n: int) -> Iterator[Structure]:
    """Every structure with domain {0..n-1}, exactly once.

    Order: relations sorted by name, then constants sorted by name; for each
    relation the tuple universe is sorted lexicographically and subsets are
    emitted in binary-counter order (bit i = i-th tuple); the rightmost symbol
    varies fastest.  The count is prod_R 2^(n^arity(R)) * n^#constants.
    This is satisfying_structures with no sentences.
    """
    yield from satisfying_structures(sig, n, ())


def satisfying_structures(sig: SignatureReport, n: int, sentences) -> Iterator[Structure]:
    """The structures of enumerate_structures(sig, n) that satisfy every
    sentence, in the same order.

    Each top-level conjunct of a sentence is evaluated once per assignment of
    the symbols up to the last one it mentions, and a failing conjunct skips
    every completion of that prefix.  Every sentence is checked up front as
    evaluate checks it: a symbol outside sig or a free variable raises before
    anything is enumerated.
    """
    if n < 1:
        raise FormulaError("domain must be non-empty")
    rel_names = sorted(sig.relations)
    const_names = sorted(sig.constants)
    names = rel_names + const_names
    rel_position = {r: i for i, r in enumerate(rel_names)}
    const_position = {c: len(rel_names) + i for i, c in enumerate(const_names)}
    # checks[i + 1] holds the conjuncts whose last symbol is names[i];
    # checks[0] those that mention no symbol at all
    checks: list = [[] for _ in range(len(names) + 1)]
    for phi in sentences:
        _check_evaluable(signature_of(phi), sig.relations, sig.constants)
        for conjunct in _conjuncts(phi):
            r = signature_of(conjunct)
            last = max([rel_position[x] for x in r.relations]
                       + [const_position[x] for x in r.constants], default=-1)
            checks[last + 1].append(_compile(conjunct))

    pools = [_relation_options(n, sig.arities[r]) for r in rel_names] + \
            [range(n)] * len(const_names)
    relations = {r: pools[i][0] for i, r in enumerate(rel_names)}
    constants = dict.fromkeys(const_names, 0)
    targets = [relations] * len(rel_names) + [constants] * len(const_names)
    partial = _trusted_structure(n, relations, constants)  # mutated in place
    no_vars: dict = {}  # closures copy an assignment before binding into it
    if not all(holds(partial, no_vars) for holds in checks[0]):
        return
    if not names:
        yield _trusted_structure(n, {}, {})
        return
    last = len(names) - 1

    def fill(i: int):
        target, name, check = targets[i], names[i], checks[i + 1]
        for value in pools[i]:
            target[name] = value
            for holds in check:
                if not holds(partial, no_vars):
                    break
            else:
                if i == last:
                    yield _trusted_structure(n, dict(relations), dict(constants))
                else:
                    yield from fill(i + 1)

    yield from fill(0)


def _relation_options(n: int, arity: int) -> list:
    """Every interpretation of one relation over {0..n-1}: subsets of the
    sorted tuple universe in binary-counter order (bit i = i-th tuple)."""
    univ = sorted(itertools.product(range(n), repeat=arity))
    return [frozenset(t for i, t in enumerate(univ) if mask >> i & 1)
            for mask in range(1 << len(univ))]


def _conjuncts(phi) -> list:
    """Top-level conjuncts of phi: ∧, ¬∨ and ¬¬ are pushed through the outer
    connectives only."""
    out: list = []
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, And):
            stack.extend(reversed(f.items))
        elif isinstance(f, Not) and isinstance(f.sub, Or):
            stack.extend(Not(x) for x in reversed(f.sub.items))
        elif isinstance(f, Not) and isinstance(f.sub, Not):
            stack.append(f.sub.sub)
        else:
            out.append(f)
    return out


def count_structures(sig: SignatureReport, n: int) -> int:
    total = 1
    for r in sorted(sig.relations):
        total *= 1 << (n ** sig.arities[r])
    total *= n ** len(sig.constants)
    return total


def find_model(phis: list, max_size: int):
    """Smallest-domain structure satisfying every sentence, or None.

    Deterministic: sizes ascending, and within a size the first structure of
    enumerate_structures that satisfies every sentence; blocks of structures
    that a conjunct already refutes on their prefix are skipped unvisited.
    A formula with free variables raises PartialAssignmentError.
    """
    sig = signature_of(*phis)
    for n in range(1, max_size + 1):
        for A in satisfying_structures(sig, n, phis):
            return A
    return None


def structure_to_json(A: Structure) -> str:
    """Canonical JSON: {"domain": n, "relations": {...}, "constants": {...}}."""
    obj = {
        "domain": A.domain_size,
        "relations": {n: [list(t) for t in sorted(ts)]
                      for n, ts in sorted(A.relations.items())},
        "constants": {n: e for n, e in sorted(A.constants.items())},
    }
    return json.dumps(obj)


def structure_from_json(text: str) -> Structure:
    obj = json.loads(text)
    return Structure(
        obj["domain"],
        {n: frozenset(tuple(t) for t in ts) for n, ts in obj.get("relations", {}).items()},
        dict(obj.get("constants", {})),
    )


def substructure(A: Structure, elements: Iterable) -> Structure:
    """Induced substructure on the given elements, renumbered in order."""
    elems = sorted(set(elements))
    if not elems:
        raise FormulaError("substructure needs a non-empty element set")
    index = {e: i for i, e in enumerate(elems)}
    keep = set(elems)
    rels = {}
    for name, ts in A.relations.items():
        rels[name] = frozenset(tuple(index[e] for e in t)
                               for t in ts if all(e in keep for e in t))
    consts = {}
    for name, e in A.constants.items():
        if e not in keep:
            raise FormulaError(f"constant {name} -> {e} falls outside the substructure")
        consts[name] = index[e]
    return Structure(len(elems), rels, consts)


def apply_permutation(A: Structure, perm: tuple) -> Structure:
    """Image of A under a domain permutation (perm[i] = image of i)."""
    rels = {name: frozenset(tuple(perm[e] for e in t) for t in ts)
            for name, ts in A.relations.items()}
    consts = {name: perm[e] for name, e in A.constants.items()}
    return Structure(A.domain_size, rels, consts)


def isomorphic_pair(pair_a: tuple, pair_b: tuple) -> bool:
    """True if one permutation maps the first pair onto the second
    (in either order)."""
    A1, A2 = pair_a
    B1, B2 = pair_b
    if A1.domain_size != B1.domain_size or A2.domain_size != B2.domain_size:
        return False
    for perm in itertools.permutations(range(A1.domain_size)):
        img1, img2 = apply_permutation(A1, perm), apply_permutation(A2, perm)
        if (img1.key(), img2.key()) in ((B1.key(), B2.key()), (B2.key(), B1.key())):
            return True
    return False
