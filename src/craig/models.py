"""Finite structures, first-order evaluation and exhaustive enumeration.

This is the brute-force oracle the rest of the package is checked against:
everything here is deliberately simple and deterministic.

Enumeration prunes by prefix and finishes bit-parallel.
``satisfying_structures`` visits structures in the order of
``enumerate_structures``: relations sorted, then constants sorted, each
relation's interpretations in binary-counter order over its sorted tuple
universe, the rightmost symbol fastest.  That order is a mixed-radix counter
whose fastest digits are the constants, then the last relation's lowest
tuples, so the structures that differ only there form contiguous runs of it.
One such run is a block.  It holds the trailing constants (as many as fit)
and, if every constant fits, the last relation's c lowest tuples (as many as
fit), and at most ``_BLOCK_BITS`` structures.  The last relation's higher
tuples, if any, are assigned in an outer loop, one chunk of the block's size
per subset of them.  Bit o·K + j of a block mask stands for the structure
with the c low tuples at option o and the batched constants at their j-th
value combination (K = n^#batched constants, rightmost fastest), so
ascending bits are enumeration order.

One call covers every domain size: ``satisfying_structures`` analyses its
sentences once (checks them, splits each into the top-level conjuncts of its
NNF and finds each conjunct's last symbol), and per size builds only the
block, its masks and the compiled conjuncts.  A conjunct whose last symbol
comes before the block is evaluated once per prefix, as soon as that symbol
is assigned: its truth is the same for every completion, so a failing
conjunct skips them all.  A conjunct whose last symbol lies in the block is
evaluated once per chunk as a mask, and the chunk's survivors are the set
bits of the AND of those masks, in ascending order.  The survivors of both
come out in enumeration order, which is why ``find_model`` and
``padoa_counterexample`` (each one call over the sizes 1..max) return the
same first models as a filter over every structure would.
``enumerate_structures`` is the one-size call with no sentences.

Compile once, evaluate many.  Where one formula meets many structures (each
conjunct of ``satisfying_structures``, each interpolant-search candidate on
its screens) ``_compile`` translates it once into nested closures, so node
dispatch, atom argument shapes and quantifier loops are fixed before the
first structure, one closure per connective.  The closures return masks
over a batch of structures: ∧, ∨ and ¬ are ``&``, ``|`` and ``^``, ∃ and ∀
are the OR and AND of their instances, a k-item ∧ or ∨ is k − 1 nested
binary ones, a block of k quantified variables is k nested one-variable
quantifiers, and a scalar use (the candidate screens, the per-prefix checks)
is a batch of one structure.  ``evaluate`` keeps the ``_eval`` interpreter,
for two reasons: for one formula on one structure, compiling and running
costs about twice as much as interpreting (corpus formulas, size 1 and 2
structures), and ``_eval`` is the independent reference the compiled
closures are tested against.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .errors import FormulaError, MissingSymbolError, PartialAssignmentError
from .formulas import (
    And, Atom, Exists, Forall, Not, Or, Top, Var,
    SignatureReport, signature_of, to_nnf,
)

# The most structures one block of satisfying_structures evaluates at once,
# the bit width of its masks.  Python ints of this width still AND, OR and
# XOR in well under a microsecond, and a block of this size keeps the cached
# tables small (at most 2^12 relation interpretations per relation shape).
_BLOCK_BITS = 1 << 12


@dataclass(frozen=True)
class Structure:
    """Finite interpretation over domain {0..domain_size-1}."""

    domain_size: int
    relations: dict = field(default_factory=dict)
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.domain_size
        if type(n) is not int:
            raise FormulaError(f"domain size must be an int, found {n!r}")
        if n < 1:
            raise FormulaError("domain must be non-empty")
        for kind, names in (("relation", self.relations), ("constant", self.constants)):
            if not isinstance(names, Mapping):
                raise FormulaError(f"{kind}s must be a mapping of names, found {names!r}")
            for name in names:  # JSON object keys: a name must survive the round trip
                if not isinstance(name, str) or not name:
                    raise FormulaError(f"{kind} name must be a non-empty string, found {name!r}")
        rels = {}
        for name, tuples in self.relations.items():
            try:
                tuples = [tuple(t) for t in tuples]
            except TypeError:
                raise FormulaError(f"relation {name} must be a collection of tuples, "
                                   f"found {tuples!r}") from None
            if len({len(t) for t in tuples}) > 1:
                raise FormulaError(f"relation {name} has tuples of different lengths")
            for t in tuples:
                if not all(_is_element(e, n) for e in t):
                    raise FormulaError(f"tuple {t} of {name} outside domain")
            rels[name] = frozenset(tuples)
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "constants", dict(self.constants))  # not the caller's
        for name, e in self.constants.items():
            if not _is_element(e, n):
                raise FormulaError(f"constant {name} -> {e!r} outside domain")

    def key(self) -> tuple:
        """Canonical hashable form."""
        return (
            self.domain_size,
            tuple((n, tuple(sorted(ts))) for n, ts in sorted(self.relations.items())),
            tuple(sorted(self.constants.items())),
        )


def _is_element(e, n: int) -> bool:
    """Whether e is an element of the domain {0..n-1}: an int (not a bool,
    which equals 0 or 1, nor a float) in range."""
    return type(e) is int and 0 <= e < n


def evaluate(structure: Structure, phi, assignment: dict | None = None) -> bool:
    """Tarskian truth of phi in the structure under the assignment.

    phi must use each relation at the arity of its interpretation; an empty
    interpretation has no arity to compare and is not checked.  Every value
    of the assignment must be a domain element."""
    g = dict(assignment or {})
    for x, e in g.items():
        if not _is_element(e, structure.domain_size):
            raise FormulaError(f"variable {x} -> {e!r} outside domain")
    arities = {r: next(map(len, ts), None) for r, ts in structure.relations.items()}
    _check_evaluable(signature_of(phi), arities, structure.constants, g)
    return _eval(structure, phi, g)


def _check_evaluable(report: SignatureReport, arities, constants, variables=()) -> None:
    """Raise evaluate's error unless a structure with relations of these
    arities (None for an empty one, which shows none), these constants and an
    assignment of these variables can evaluate a formula with this signature."""
    for rel in sorted(report.relations):
        if rel not in arities:
            raise MissingSymbolError(f"structure does not interpret relation {rel}")
    for c in sorted(report.constants):
        if c not in constants:
            raise MissingSymbolError(f"structure does not interpret constant {c}")
    missing = report.free_vars - set(variables)
    if missing:
        raise PartialAssignmentError(f"assignment misses {sorted(missing)}")
    for rel, arity in report.arities.items():
        if arities[rel] not in (None, arity):
            raise FormulaError(f"relation {rel} has arity {arities[rel]} in the "
                               f"structure but {arity} in the formula")


def _eval(A: Structure, f, g: dict) -> bool:
    kind = type(f)  # exact types: dispatch is the hot path of the oracle
    if kind is Atom:
        return tuple([g[t.name] if type(t) is Var else A.constants[t.name]
                      for t in f.args]) in A.relations[f.rel]
    if kind is Not:
        return not _eval(A, f.sub, g)
    if kind is And or kind is Or:
        decisive = kind is Or  # a true item decides ∨, a false one ∧
        for x in f.items:
            if _eval(A, x, g) == decisive:
                return decisive
        return not decisive
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


class _Batch(NamedTuple):
    """The structures a compiled closure evaluates at once: a block.

    Bit b of a mask stands for the b-th structure of the block, and ``full``
    has every bit set.  ``rel`` names the batched relation: in the evaluated
    structure its interpretation is a table from each tuple to the mask of
    the block structures that contain it.  ``consts`` maps each batched
    constant to its value masks (bit b of the e-th is set where it denotes
    e).  Every other symbol has one value for the whole block.
    """

    full: int
    rel: str | None
    consts: dict


_SCALAR = _Batch(1, None, {})  # a block of one structure


def _compile(f, batch: _Batch = _SCALAR):
    """Translate f once into a closure ``holds(structure, assignment)`` that
    returns a mask over the batch: bit b is f's truth in the b-th structure
    of the block.

    Over ``_SCALAR`` the mask is 0 or 1 (or a bool, a one-bit mask) with
    the truth value ``_eval(structure, f, assignment)`` returns, and the
    closure raises what ``_eval`` raises at the same point.  Connectives and
    quantifiers stop where ``_eval`` does: ∧ and ∀ at the all-false mask, ∨
    and ∃ at the all-true one, and a node that is not a formula raises
    ``FormulaError`` when evaluation reaches it, not at compile time.  A
    quantifier block of k variables runs as k nested one-variable
    quantifiers, which visit its instances in ``_eval``'s order.  An atom
    with no batched symbol is 0 or ``full``.  A k-item ∧ or ∨ is its binary
    closure folded from the left, ``((a·b)·c)…``.  Compiling recurses once
    per nesting level; running recurses once per level, per block variable,
    and per item of an ∧ or ∨ after the first.
    """
    kind = type(f)
    full = batch.full
    if kind is Atom:
        rel, names = f.rel, [t.name for t in f.args]
        shape = [type(t) is Var for t in f.args]
        if rel == batch.rel or batch.consts and any(
                not is_var and n in batch.consts for is_var, n in zip(shape, names)):
            return _mask_atom(rel, shape, names, batch)
        holds = _membership(rel, shape, names)
        # a bool is a one-bit mask
        return holds if full == 1 else lambda A, g: full if holds(A, g) else 0
    if kind is Not:
        sub = _compile(f.sub, batch)
        return lambda A, g: full ^ sub(A, g)
    if kind is And or kind is Or:
        holds = _compile(f.items[0], batch)
        for x in f.items[1:]:  # a loop, not a generator: one frame per level
            holds = _connective(kind is And, holds, _compile(x, batch), full)
        return holds
    if kind is Exists or kind is Forall:
        # a block of k variables is k nested quantifiers, the first outermost
        holds = _compile(f.body, batch)
        for v in reversed(f.vars):
            holds = _quantifier(kind is Exists, v, holds, full)
        return holds
    if kind is Top:
        return lambda A, g: full

    def not_a_formula(A, g):
        raise FormulaError(f"not a formula: {f!r}")
    return not_a_formula


def _membership(rel, shape, names):
    """The closure that tests whether an atom's argument tuple is in its
    relation."""
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


def _connective(conjunction: bool, a, b, full: int):
    # ∧ and ∨ evaluate a first and skip b once a decides the mask
    if conjunction:
        return lambda A, g: (m := a(A, g)) and m & b(A, g)
    return lambda A, g: m if (m := a(A, g)) == full else m | b(A, g)


def _quantifier(existential: bool, v: str, body, full: int):
    # ∃ is the OR of the body's instances and ∀ their AND; each stops once
    # the mask is decided.  g2 is private to one evaluation.
    if existential:
        def exists(A, g):
            g2, m = dict(g), 0
            for e in range(A.domain_size):
                g2[v] = e
                m |= body(A, g2)
                if m == full:
                    return m
            return m
        return exists

    def forall(A, g):
        g2, m = dict(g), full
        for e in range(A.domain_size):
            g2[v] = e
            m &= body(A, g2)
            if not m:
                return 0
        return m
    return forall


def _mask_atom(rel, shape, names, batch: _Batch):
    """An atom of the batched relation or with batched constants.  With
    batched constants its mask is the OR, over every combination of their
    values, of the combination's mask and the atom's truth at it."""
    pairs = tuple(zip(shape, names))
    batched = [not is_var and n in batch.consts for is_var, n in pairs]
    if not any(batched):  # one tuple for the whole block: its mask is in the table
        return lambda A, g: A.relations[rel][tuple([g[n] if is_var else A.constants[n]
                                                    for is_var, n in pairs])]
    distinct = list(dict.fromkeys(n for (_, n), b in zip(pairs, batched) if b))
    fills = []  # per combination: its mask, and the arguments it fixes
    for values in itertools.product(range(len(batch.consts[distinct[0]])),
                                    repeat=len(distinct)):
        where = batch.full
        for n, e in zip(distinct, values):
            where &= batch.consts[n][e]
        at = dict(zip(distinct, values))
        fills.append((where, [(i, at[n]) for i, (_, n) in enumerate(pairs) if batched[i]]))
    full, in_table = batch.full, rel == batch.rel

    def atom(A, g):
        table, m = A.relations[rel], 0
        args = [None if b else g[n] if is_var else A.constants[n]
                for (is_var, n), b in zip(pairs, batched)]
        for where, fill in fills:
            for i, e in fill:
                args[i] = e
            t = tuple(args)
            m |= where & (table[t] if in_table else full if t in table else 0)
        return m
    return atom


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
    This is satisfying_structures of the one size n with no sentences.
    """
    yield from satisfying_structures(sig, (n,), ())


def satisfying_structures(sig: SignatureReport, sizes, sentences) -> Iterator[Structure]:
    """For each n in sizes, in the order given, the structures of
    enumerate_structures(sig, n) that satisfy every sentence, in its order.

    Every sentence is checked as evaluate checks it before anything is
    enumerated, even for no sizes: a symbol outside sig or a free variable
    raises.  Each sentence is split into the top-level conjuncts of its NNF
    once per call; per size, a conjunct is evaluated once per prefix that
    assigns its last symbol, or once per chunk, as a mask, when that symbol
    is in the block.
    """
    rel_names, const_names = sorted(sig.relations), sorted(sig.constants)
    position = {x: i for i, x in enumerate(rel_names + const_names)}
    conjuncts = []  # (position of its last symbol, -1 for none; conjunct)
    for phi in sentences:
        _check_evaluable(signature_of(phi), sig.arities, sig.constants)
        for conjunct in _conjuncts(phi):
            r = signature_of(conjunct)
            conjuncts.append((max([position[x] for x in (*r.relations, *r.constants)],
                                  default=-1), conjunct))
    for n in sizes:
        yield from _satisfying(sig, n, rel_names, const_names, conjuncts)


def _satisfying(sig: SignatureReport, n: int, rel_names: list, const_names: list,
                conjuncts: list) -> Iterator[Structure]:
    # one size of satisfying_structures: the block, its masks and the
    # compiled conjuncts are all that depend on n
    if n < 1:
        raise FormulaError("domain must be non-empty")
    names = rel_names + const_names
    # the block: the trailing constants that fit in _BLOCK_BITS and, if all
    # of them fit, the c lowest tuples of the last relation
    m = 0
    while m < len(const_names) and n ** (m + 1) <= _BLOCK_BITS:
        m += 1
    combos = n ** m
    rel = rel_names[-1] if rel_names and m == len(const_names) else None
    if rel is None:
        arity, c, start = 0, 0, len(names) - m
    else:
        arity, start = sig.arities[rel], len(rel_names) - 1
        c = min(n ** arity, (_BLOCK_BITS // combos).bit_length() - 1)
    full, tuple_masks, const_masks, values = _block_masks(n, c, m)
    block_consts = const_names[len(const_names) - m:]
    batch = _Batch(full, rel, dict(zip(block_consts, const_masks)))

    # checks[i + 1] holds the conjuncts whose last symbol is names[i] < start;
    # checks[0] those that mention no symbol at all
    checks: list = [[] for _ in range(start + 1)]
    in_block: list = []
    for last, conjunct in conjuncts:
        if last >= start:
            in_block.append(_compile(conjunct, batch))
        else:
            checks[last + 1].append(_compile(conjunct))

    relations = dict.fromkeys(rel_names, frozenset())
    constants = dict.fromkeys(const_names[:len(const_names) - m], 0)  # the block's come last
    partial = _trusted_structure(n, relations, constants)  # mutated in place
    no_vars: dict = {}  # closures copy an assignment before binding into it
    if not all(holds(partial, no_vars) for holds in checks[0]):
        return

    if rel is not None:
        univ, lows = _low_subsets(n, arity, c)
        relations[rel] = low_table = dict(zip(univ, tuple_masks))  # the c lowest tuples
    tails = [dict(zip(block_consts, v)) for v in values]  # the block constants' values

    def fill(i: int):
        if i < start:
            name, check = names[i], checks[i + 1]
            if i < len(rel_names):
                target, pool = relations, _relation_options(n, sig.arities[name])
            else:
                target, pool = constants, range(n)
            for value in pool:
                target[name] = value
                for holds in check:
                    if not holds(partial, no_vars):
                        break
                else:
                    yield from fill(i + 1)
            return
        # the block, one chunk per subset of the last relation's high tuples:
        # the contiguous range of its options that share them
        for high in (_high_subsets(univ, c) if rel is not None else (None,)):
            if rel is not None and c < len(univ):
                table = dict(low_table)
                for t in univ[c:]:
                    table[t] = full if t in high else 0
                relations[rel] = table
            survivors = full
            for holds in in_block:
                survivors &= holds(partial, no_vars)
                if not survivors:
                    break
            bits = bin(survivors)[:1:-1]  # bit b at index b
            b = bits.find("1")
            while b >= 0:
                option, j = divmod(b, combos)
                rels = relations.copy()
                if rel is not None:
                    rels[rel] = lows[option] | high if high else lows[option]
                yield _trusted_structure(n, rels, {**constants, **tails[j]})
                b = bits.find("1", b + 1)

    yield from fill(0)


def _relation_options(n: int, arity: int):
    """Every interpretation of one relation over {0..n-1}, lazily: subsets
    of the sorted tuple universe in binary-counter order (bit i = i-th
    tuple).  The subsets of the lowest tuples come from a cache; the higher
    tuples count in an outer loop."""
    c = min(n ** arity, _BLOCK_BITS.bit_length() - 1)
    univ, lows = _low_subsets(n, arity, c)
    if c == len(univ):
        return lows
    return (low | high for high in _high_subsets(univ, c) for low in lows)


@functools.lru_cache(maxsize=16)
def _low_subsets(n: int, arity: int, c: int) -> tuple:
    """The sorted tuple universe of an arity-ary relation over {0..n-1}, and
    the 2^c subsets of its c lowest tuples in binary-counter order."""
    univ = tuple(itertools.product(range(n), repeat=arity))  # sorted
    return univ, tuple(frozenset(t for i, t in enumerate(univ[:c]) if mask >> i & 1)
                       for mask in range(1 << c))


def _high_subsets(univ: tuple, c: int):
    """The subsets of univ[c:] in binary-counter order, the empty set first."""
    high = univ[c:]
    if not high:
        return _NO_TUPLES
    return (frozenset(t for i, t in enumerate(high) if mask >> i & 1)
            for mask in range(1 << len(high)))


_NO_TUPLES = (frozenset(),)


@functools.lru_cache(maxsize=16)
def _block_masks(n: int, c: int, m: int) -> tuple:
    """The masks of a block of 2^c relation options by K = n^m constant
    value combinations, where bit o·K + j stands for option o and the j-th
    combination (rightmost constant fastest).

    Returns ``full``, the mask of each of the c lowest tuples (set where
    bit i of o is), each constant's n value masks, and the K combinations.
    Each mask is one run of bits repeated with a fixed period.
    """
    K = n ** m
    full = (1 << (K << c)) - 1

    def periodic(run: int, offset: int, period: int) -> int:
        # bits offset..offset+run-1 of every period-bit stretch of the block
        return (((1 << run) - 1) << offset) * (full // ((1 << period) - 1))

    tuple_masks = tuple(periodic(K << i, K << i, K << (i + 1)) for i in range(c))
    weights = [n ** (m - 1 - p) for p in range(m)]
    const_masks = tuple(tuple(periodic(w, e * w, n * w) for e in range(n)) for w in weights)
    return full, tuple_masks, const_masks, tuple(itertools.product(range(n), repeat=m))


def _conjuncts(phi) -> list:
    """The top-level conjuncts of phi's NNF, left to right: its ∧ items,
    flattened."""
    out: list = []
    stack = [to_nnf(phi)]
    while stack:
        f = stack.pop()
        if type(f) is And:
            stack.extend(reversed(f.items))
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

    Deterministic: the first structure of one satisfying_structures call
    over the sizes 1..max_size, ascending, so within a size the first
    structure of enumerate_structures that satisfies every sentence.  A
    formula with free variables raises PartialAssignmentError, also when
    max_size is below 1.
    """
    return next(satisfying_structures(signature_of(*phis), range(1, max_size + 1), phis),
                None)


def structure_to_json(A: Structure) -> str:
    """Canonical JSON: {"domain": n, "relations": {...}, "constants": {...}}."""
    obj = {
        "domain": A.domain_size,
        "relations": {n: [list(t) for t in sorted(ts)]
                      for n, ts in sorted(A.relations.items())},
        "constants": {n: e for n, e in sorted(A.constants.items())},
    }
    return json.dumps(obj)


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def structure_from_json(text: str) -> Structure:
    """The structure a JSON object describes: {"domain": n, "relations":
    {name: [[e, ...], ...]}, "constants": {name: e}}, the last two optional.
    A value of the wrong JSON kind is named; the rest (domain size, tuple
    entries, constant values) Structure checks."""
    obj = json.loads(text)
    if type(obj) is not dict:
        raise FormulaError(f"a structure must be a JSON object, found {_JSON_KINDS[type(obj)]}")
    if "domain" not in obj:
        raise FormulaError('a structure must have a "domain"')
    relations, constants = obj.get("relations", {}), obj.get("constants", {})
    for key, value in (("relations", relations), ("constants", constants)):
        if type(value) is not dict:
            raise FormulaError(f'"{key}" must be an object, found {_JSON_KINDS[type(value)]}')
    for name, tuples in relations.items():
        if type(tuples) is not list or not all(type(t) is list for t in tuples):
            raise FormulaError(f"relation {name} must be an array of arrays")
    return Structure(obj["domain"], relations, constants)


def substructure(A: Structure, elements: Iterable) -> Structure:
    """Induced substructure on the given elements of A's domain, renumbered
    in order."""
    keep = set(elements)
    if not keep:
        raise FormulaError("substructure needs a non-empty element set")
    for e in keep:
        if not _is_element(e, A.domain_size):
            raise FormulaError(f"element {e!r} outside the domain")
    elems = sorted(keep)
    index = {e: i for i, e in enumerate(elems)}
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
