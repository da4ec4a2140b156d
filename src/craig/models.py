"""Finite structures, first-order evaluation and exhaustive enumeration.

This is the brute-force oracle the rest of the package is checked against:
everything here is deliberately simple and deterministic.
"""

from __future__ import annotations

import itertools
import json
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
    report = signature_of(phi)
    for rel in sorted(report.relations):
        if rel not in structure.relations:
            raise MissingSymbolError(f"structure does not interpret relation {rel}")
    for c in sorted(report.constants):
        if c not in structure.constants:
            raise MissingSymbolError(f"structure does not interpret constant {c}")
    missing = report.free_vars - set(g)
    if missing:
        raise PartialAssignmentError(f"assignment misses {sorted(missing)}")
    return _eval(structure, phi, g)


def _term_value(structure: Structure, t, g: dict) -> int:
    if isinstance(t, Var):
        return g[t.name]
    return structure.constants[t.name]


def _eval(A: Structure, f, g: dict) -> bool:
    if isinstance(f, Atom):
        tup = tuple(_term_value(A, t, g) for t in f.args)
        return tup in A.relations[f.rel]
    if isinstance(f, Top):
        return True
    if isinstance(f, Not):
        return not _eval(A, f.sub, g)
    if isinstance(f, And):
        return all(_eval(A, x, g) for x in f.items)
    if isinstance(f, Or):
        return any(_eval(A, x, g) for x in f.items)
    if isinstance(f, Exists):
        return _eval_quant(A, f.vars, f.body, g, any)
    if isinstance(f, Forall):
        return _eval_quant(A, f.vars, f.body, g, all)
    raise FormulaError(f"not a formula: {f!r}")


def _eval_quant(A: Structure, names, body, g: dict, mode) -> bool:
    dom = range(A.domain_size)

    def gen():
        for values in itertools.product(dom, repeat=len(names)):
            g2 = dict(g)
            g2.update(zip(names, values))
            yield _eval(A, body, g2)

    return mode(gen())


def merged_signature(phis: Iterable) -> SignatureReport:
    """Joint signature of several formulas, with arity-consistency checks."""
    relations: set = set()
    arities: dict = {}
    constants: set = set()
    pos: set = set()
    neg: set = set()
    free: set = set()
    for phi in phis:
        r = signature_of(phi)
        for rel in r.relations:
            seen = arities.setdefault(rel, r.arities[rel])
            if seen != r.arities[rel]:
                raise FormulaError(f"relation {rel} used with inconsistent arities")
        relations |= r.relations
        constants |= r.constants
        pos |= r.relsig_pos
        neg |= r.relsig_neg
        free |= r.free_vars
    return SignatureReport(frozenset(relations), arities, frozenset(constants),
                           frozenset(pos), frozenset(neg), frozenset(free))


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
    """
    if n < 1:
        raise FormulaError("domain must be non-empty")
    rel_names = sorted(sig.relations)
    const_names = sorted(sig.constants)
    universes = {r: sorted(itertools.product(range(n), repeat=sig.arities[r]))
                 for r in rel_names}

    def rel_options(r):
        univ = universes[r]
        for mask in range(1 << len(univ)):
            yield frozenset(t for i, t in enumerate(univ) if mask >> i & 1)

    pools = [list(rel_options(r)) for r in rel_names] + \
            [list(range(n)) for _ in const_names]
    for combo in itertools.product(*pools):
        rels = dict(zip(rel_names, combo[:len(rel_names)]))
        consts = dict(zip(const_names, combo[len(rel_names):]))
        yield _trusted_structure(n, rels, consts)


def count_structures(sig: SignatureReport, n: int) -> int:
    total = 1
    for r in sorted(sig.relations):
        total *= 1 << (n ** sig.arities[r])
    total *= n ** len(sig.constants)
    return total


def find_model(phis: list, max_size: int):
    """Smallest-domain structure satisfying every sentence, or None.

    Deterministic: sizes ascending, structures in enumeration order.
    """
    sig = merged_signature(phis)
    for n in range(1, max_size + 1):
        for A in enumerate_structures(sig, n):
            if all(_eval(A, phi, {}) for phi in phis):
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
