"""First-order formula trees and the basic syntactic operations on them.

Formulas are equality-free and function-free: atoms apply a relation symbol
to variables and constants, the connectives are top, conjunction,
disjunction, negation and (multi-variable) quantifier blocks, and falsity is
encoded as ``Not(Top)``.  Everything is immutable and hashable; each formula
node's hash is computed once, at construction, so hashing never re-walks a
subtree, and terms are interned, so a term's hash and ``==`` are identity
operations.
"""

from __future__ import annotations

import itertools
import operator
import re
import threading
import weakref
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable, Iterator

from .errors import FormulaError

_new = object.__new__
_INTERNING = threading.Lock()
# Substitution.run's opcodes, most frequent first
_ATOM1, _NOT, _ITEM2, _ITEM1, _BLOCK, _ATOM, _ITEMS = range(7)


class _Term:
    """Base of the terms: one object per class and name.

    ``Var(name)`` and ``Const(name)`` return the one live term of that class
    and name, kept in the class's weak table, so equal terms are the same
    object and ``hash`` and ``==`` are the C-level identity operations; a
    term no formula holds any more leaves the table.  A new term is made
    under a lock, so two threads never make two terms of one name.  Terms
    are immutable (assignment or deletion raises FrozenInstanceError, as on
    every frozen_record), and pickling goes through the constructor, so a
    loaded term is the loading process's interned one.
    """

    __slots__ = ("name", "__weakref__")

    def __new__(cls, name):
        term = cls._interned.get(name)
        if term is None:
            with _INTERNING:
                term = cls._interned.get(name)
                if term is None:
                    term = _new(cls)
                    _Term.name.__set__(term, name)
                    cls._interned[name] = term
        return term

    def __setattr__(self, attr, value):
        raise FrozenInstanceError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise FrozenInstanceError(f"cannot delete field {attr!r}")

    def __reduce__(self):
        return self.__class__, (self.name,)

    def __repr__(self):
        return f"{self.__class__.__name__}({self.name})"


class Var(_Term):
    __slots__ = ()
    _interned = weakref.WeakValueDictionary()


class Const(_Term):
    __slots__ = ()
    _interned = weakref.WeakValueDictionary()


Term = Var | Const


def frozen_record(cls=None, /, **options):
    """``dataclass(frozen=True, slots=True, **options)``, whose instances
    refuse every assignment and deletion with FrozenInstanceError, of a name
    that is not a field too: the generated methods raise TypeError there,
    since they name the class from before ``slots=True`` rebuilt it."""
    def wrap(cls):
        cls = dataclass(cls, frozen=True, slots=True, **options)
        cls.__setattr__, cls.__delattr__ = _Term.__setattr__, _Term.__delattr__
        return cls

    return wrap if cls is None else wrap(cls)


class _Node:
    """Base of the formula nodes: hashing, equality and pickling.

    Each node's ``__init__`` checks its fields, sets them and stores
    ``_h = hash(self._fields())``, written out inline (``Substitution.run``
    sets the same fields and hash without the checks); And and Or share one,
    as do Exists and Forall.  Both set every field through the slots' own
    member-descriptor setters (``_SETTERS``, ``_SET_H``), not through
    ``object.__setattr__`` by name, which costs more.  A formula child holds
    its own cached hash, so ``hash()`` is O(1) and never recurses.  Each
    class has its own ``==``, assigned after the classes below (an
    ``__eq__`` in a class body would unset the inherited ``__hash__``): True
    at once on identity, NotImplemented across classes, False at once on
    differing hashes, and otherwise a direct comparison of that class's
    fields (recursing only into distinct, equal subtrees); this base's is
    Top's, which has no fields.  Unpickling rebuilds a node through its
    constructor, so a cached hash never outlives its process.

    ``_nnf_form`` is unset until to_nnf has seen the node; then it holds the
    node's NNF, or None when the node is its own NNF (storing the node
    itself would make a cycle that only the cyclic collector frees).  It is
    a memo, not a field: ``==``, ``hash``, ``repr`` and pickling ignore it.
    """

    __slots__ = ("_h", "_nnf_form")

    def __hash__(self):
        return self._h

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return True

    def __reduce__(self):
        return self.__class__, self._fields()

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))


# frozen_record supplies repr, match args, slots and immutability; the
# hand-written __init__s set each field once and hash without a
# __post_init__ call, since nodes are built on every hot path: generated
# __init__s with a __post_init__ cost corpus-interpolate 2.8 % of its items
# per kref (median of 8 alternating pairs of runs, behind in 7).
@frozen_record(eq=False, init=False)
class Atom(_Node):
    rel: str
    args: tuple = ()

    def __init__(self, rel, args=()):
        if not rel:
            raise FormulaError("relation symbol must be non-empty")
        args = tuple(args)
        for t in args:
            if not isinstance(t, (Var, Const)):
                raise FormulaError(f"atom argument must be a variable or constant, got {t!r}")
        _SET_REL(self, rel)
        _SET_ARGS(self, args)
        _SET_H(self, hash((rel, args)))


@frozen_record(eq=False, init=False)
class Top(_Node):
    def __init__(self):
        _SET_H(self, hash(()))


@frozen_record(eq=False, init=False)
class And(_Node):
    items: tuple = ()


@frozen_record(eq=False, init=False)
class Or(_Node):
    items: tuple = ()


@frozen_record(eq=False, init=False)
class Not(_Node):
    sub: object

    def __init__(self, sub):
        _SET_SUB(self, sub)
        _SET_H(self, hash((sub,)))


@frozen_record(eq=False, init=False)
class Exists(_Node):
    vars: tuple
    body: object


@frozen_record(eq=False, init=False)
class Forall(_Node):
    vars: tuple
    body: object


def _items_init(self, items=()):  # And and Or
    items = tuple(items)
    if len(items) < 2:
        raise FormulaError(_TOO_FEW_ITEMS[self.__class__])
    (set_items,) = _SETTERS[self.__class__]
    set_items(self, items)
    _SET_H(self, hash((items,)))


def _block_init(self, vars, body):  # Exists and Forall
    vars = tuple(vars)
    _check_block(vars)
    set_vars, set_body = _SETTERS[self.__class__]
    set_vars(self, vars)
    set_body(self, body)
    _SET_H(self, hash((vars, body)))


_TOO_FEW_ITEMS = {And: "And needs at least two conjuncts (use conj() to collapse)",
                  Or: "Or needs at least two disjuncts (use disj() to collapse)"}


def _atom_eq(a, b):
    if a is b:
        return True
    if b.__class__ is not Atom:
        return NotImplemented
    return a._h == b._h and a.rel == b.rel and a.args == b.args


def _not_eq(a, b):
    if a is b:
        return True
    if b.__class__ is not Not:
        return NotImplemented
    while a._h == b._h:  # down a negation chain in one frame
        a, b = a.sub, b.sub
        if a.__class__ is not Not or b.__class__ is not Not:
            return a == b
        if a is b:
            return True
    return False


def _items_eq(a, b):  # And and Or
    if a is b:
        return True
    if b.__class__ is not a.__class__:
        return NotImplemented
    return a._h == b._h and a.items == b.items


def _block_eq(a, b):  # Exists and Forall
    if a is b:
        return True
    if b.__class__ is not a.__class__:
        return NotImplemented
    return a._h == b._h and a.vars == b.vars and a.body == b.body


Atom.__eq__, Not.__eq__ = _atom_eq, _not_eq
And.__init__ = Or.__init__ = _items_init
And.__eq__ = Or.__eq__ = _items_eq
Exists.__init__ = Forall.__init__ = _block_init
Exists.__eq__ = Forall.__eq__ = _block_eq


def _slot_setters(cls) -> tuple:
    """The setters of a slotted dataclass's fields, in field order: each
    slot's own member-descriptor ``__set__``, which skips the name lookup of
    ``object.__setattr__`` and so costs less.  Frozen classes on hot paths
    set their fields through them."""
    return tuple(getattr(cls, name).__set__ for name in cls.__match_args__)


# the node constructors and Substitution.run set every field through these
_SETTERS = {kind: _slot_setters(kind) for kind in (Atom, Not, And, Or, Exists, Forall)}
_SET_H, _SET_NNF = _Node._h.__set__, _Node._nnf_form.__set__
_SET_REL, _SET_ARGS = _SETTERS[Atom]
(_SET_SUB,) = _SETTERS[Not]

Formula = Atom | Top | And | Or | Not | Exists | Forall

TOP = Top()
BOTTOM = Not(TOP)

# Fresh constants live in a reserved namespace the parser rejects.
RESERVED_CONSTANT = re.compile(r"^c[0-9]+$")


def _check_block(names: tuple):
    if not names:
        raise FormulaError("quantifier block must bind at least one variable")
    if len(set(names)) != len(names):
        raise FormulaError(f"duplicate variable in quantifier block {names}")
    for n in names:
        if not isinstance(n, str) or not n:
            raise FormulaError("quantifier variables are non-empty name strings")


def conj(items: Iterable) -> object:
    """n-ary conjunction collapsing 0 -> top and 1 -> the formula itself."""
    items = list(items)
    if not items:
        return TOP
    if len(items) == 1:
        return items[0]
    return And(tuple(items))


def disj(items: Iterable) -> object:
    items = list(items)
    if not items:
        return BOTTOM
    if len(items) == 1:
        return items[0]
    return Or(tuple(items))


def implies(a, b) -> object:
    """Surface implication; desugars to ¬(a ∧ ¬b) like the parser does."""
    return Not(And((a, Not(b))))


def walk(phi) -> Iterator:
    """Yield every subformula, preorder; a non-formula raises FormulaError."""
    stack = [phi]
    while stack:
        f = stack.pop()
        kind = type(f)
        if kind is And or kind is Or:
            stack.extend(reversed(f.items))
        elif kind is Not:
            stack.append(f.sub)
        elif kind is Exists or kind is Forall:
            stack.append(f.body)
        elif kind is not Atom and kind is not Top:
            raise FormulaError(f"not a formula: {f!r}")
        yield f


@frozen_record(init=False)
class SignatureReport:
    """Symbols of a formula: occurrence sets, polarities and free variables.
    ``constants`` and ``free_vars`` are ``dict.keys()`` views: sets that list
    each name once, in order of first occurrence (preorder, arguments left to
    right).  Built through the slot setters, as the nodes are."""

    relations: frozenset
    arities: dict
    constants: object  # dict keys view, first-occurrence order
    relsig_pos: frozenset
    relsig_neg: frozenset
    free_vars: object  # dict keys view, first-occurrence order

    def __init__(self, relations, arities, constants, relsig_pos, relsig_neg, free_vars):
        _SET_RELATIONS(self, relations)
        _SET_ARITIES(self, arities)
        _SET_CONSTANTS(self, constants)
        _SET_POS(self, relsig_pos)
        _SET_NEG(self, relsig_neg)
        _SET_FREE(self, free_vars)

    def symbols(self) -> frozenset:
        return self.relations.union(self.constants)

    def __reduce__(self):  # a keys view neither copies nor pickles: pass tuples
        return _signature_report, (self.relations, self.arities, tuple(self.constants),
                                   self.relsig_pos, self.relsig_neg, tuple(self.free_vars))


def _signature_report(relations, arities, constants, relsig_pos, relsig_neg, free_vars):
    return SignatureReport(relations, arities, dict.fromkeys(constants).keys(),
                           relsig_pos, relsig_neg, dict.fromkeys(free_vars).keys())


(_SET_RELATIONS, _SET_ARITIES, _SET_CONSTANTS, _SET_POS, _SET_NEG,
 _SET_FREE) = _slot_setters(SignatureReport)


_NO_NAMES = frozenset()


def signature_of(*phis) -> SignatureReport:
    """Joint signature of the formulas: relations with their arities,
    constants, polarities and free variables.

    This is the one place that collects a formula set's constants or free
    variables; it checks the arities of built formulas, as the parser's
    registry does while reading and models._check_evaluable does against a
    structure.  Constants and free variables come in first-occurrence
    (preorder) order.  Polarity is negation-depth parity; top contributes no
    symbols; a variable is free if it occurs free in some formula.  A relation
    used with two arities, in one formula or across several, raises
    FormulaError.  Iterative, with exact type dispatch as in map_atoms, and
    a negation flips the polarity in place, with no stack entry: nesting
    depth is not bounded by the recursion limit.
    simplify and canonical_rename carry each node's free variables up their
    folds instead, through _free_names.
    """
    arities: dict = {}
    constants: dict = {}
    pos: set = set()
    neg: set = set()
    free: dict = {}
    stack: list = [(phi, _NO_NAMES, True) for phi in reversed(phis)]
    push = stack.append
    while stack:
        f, bound, positive = stack.pop()
        kind = type(f)
        while kind is Not:
            f, positive = f.sub, not positive
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
            (pos if positive else neg).add(f.rel)
        elif kind is And or kind is Or:
            for g in reversed(f.items):
                push((g, bound, positive))
        elif kind is Exists or kind is Forall:
            push((f.body, bound.union(f.vars), positive))
        elif kind is not Top:
            raise FormulaError(f"not a formula: {f!r}")
    return SignatureReport(frozenset(arities), arities, constants.keys(),
                           frozenset(pos), frozenset(neg), free.keys())


def free_vars(phi):
    """Free variables of phi in first-occurrence order, as a set view."""
    return signature_of(phi).free_vars


def is_sentence(phi) -> bool:
    return not free_vars(phi)


def to_nnf(phi) -> object:
    """Negation normal form: negations pushed down to atoms (or top).

    Multi-variable quantifier blocks are preserved; the transform is
    idempotent and equivalence-preserving.  Every subformula already in NNF
    comes back as the same object, so ``to_nnf(g) is g`` exactly when g is
    in NNF.  The result is kept on phi and on itself: a second call on
    either returns it at once.  Negation chains cost no frame.
    """
    try:
        nnf = phi._nnf_form
    except AttributeError:  # not computed yet (or not a formula: _nnf raises)
        nnf = _nnf(phi, False)
        if nnf is not phi:
            _SET_NNF(phi, nnf)
        _SET_NNF(nnf, None)
        return nnf
    return phi if nnf is None else nnf


_DUAL = {And: Or, Or: And, Exists: Forall, Forall: Exists}  # what a negation makes of each


def _nnf(f, negated: bool):
    # one case per node kind (exact types, as in map_atoms); a Not flips the
    # polarity.  A subformula in NNF is returned as itself, and a negated
    # atom reuses the Not above it.
    inner = None  # the innermost Not of the chain
    while type(f) is Not:
        inner, f, negated = f, f.sub, not negated
    kind = type(f)
    if kind is Atom or kind is Top:
        if not negated:
            return f
        return Not(f) if inner is None else inner
    if kind not in _DUAL:
        raise FormulaError(f"not a formula: {f!r}")
    out = _DUAL[kind] if negated else kind
    if kind is And or kind is Or:
        items = tuple([_nnf(g, negated) for g in f.items])
        return f if out is kind and all(map(operator.is_, items, f.items)) else out(items)
    body = _nnf(f.body, negated)
    return f if out is kind and body is f.body else out(f.vars, body)


def is_nnf(phi) -> bool:
    """Whether phi is in NNF: at once if to_nnf has seen phi, else by an
    iterative walk, which raises FormulaError on a non-formula as to_nnf
    does."""
    try:
        return phi._nnf_form is None
    except AttributeError:
        pass
    nnf = True
    for f in walk(phi):
        if type(f) is Not:
            nnf = nnf and (type(f.sub) is Atom or type(f.sub) is Top)
    return nnf


def _fold(phi, case, enter=None, ctx=None):
    """phi's value, built bottom-up over an explicit stack: ``case(f, ctx,
    kids)`` makes node f's value from its context and its children's values
    (None for an atom or ⊤, the child's value for ¬, ∃ and ∀, the list of
    the items' values for ∧ and ∨), children left to right.  ``ctx`` is the
    root's context and ``enter(f, ctx)``, if given, that of f's children
    (else f's own).  Dispatch is on exact types; a non-formula raises
    FormulaError."""
    values: list = []
    stack: list = [(phi, ctx, False)]  # (node, context, whether its kids are folded)
    push, pop, put = stack.append, stack.pop, values.append
    while stack:
        f, c, ready = pop()
        kind = type(f)
        if ready:
            if kind is And or kind is Or:
                n = len(f.items)
                kids = values[-n:]
                del values[-n:]
                put(case(f, c, kids))
            else:
                values[-1] = case(f, c, values[-1])
        elif kind is Atom or kind is Top:
            put(case(f, c, None))
        elif kind is Not or kind in _DUAL:
            inner = c if enter is None else enter(f, c)
            push((f, c, True))
            if kind is And or kind is Or:
                for g in reversed(f.items):
                    push((g, inner, False))
            else:
                push((f.sub if kind is Not else f.body, inner, False))
        else:
            raise FormulaError(f"not a formula: {f!r}")
    return values[0]


def _rebuild(f, _ctx, kids):
    """The fold case that puts the children's values in place of an inner
    node's children, keeping the node when none changed; an atom or ⊤ stays."""
    kind = type(f)
    if kind is Not:
        return f if kids is f.sub else Not(kids)
    if kind is And or kind is Or:
        return f if all(map(operator.is_, kids, f.items)) else kind(kids)
    if kind is Exists or kind is Forall:
        return f if kids is f.body else kind(f.vars, kids)
    return f


def _bind(f, bound):
    kind = type(f)
    return bound.union(f.vars) if kind is Exists or kind is Forall else bound


def map_atoms(phi, fn) -> object:
    """Rebuild phi with every atom a replaced by fn(a, bound).

    bound is the frozenset of variable names bound above the atom.
    Iterative; a subformula in which no atom changed is returned as the same
    object.
    """
    def case(f, bound, kids):
        return fn(f, bound) if type(f) is Atom else _rebuild(f, bound, kids)

    return _fold(phi, case, _bind, _NO_NAMES)


def substitute_constant(phi, x: str, c: str) -> object:
    """Replace every free occurrence of variable x by constant c."""
    return substitute_constants(phi, {x: c})


def substitute_constants(phi, mapping: dict) -> object:
    """Replace every free occurrence of each variable x in mapping by the
    constant mapping[x]: compile once, run once."""
    program = compile_substitution(phi, mapping)
    return program.run(tuple([Const(mapping[x]) for x in program.vars]))


class Substitution:
    """A formula compiled for substituting constants for the free
    occurrences of some variables; made by compile_substitution.

    ``vars`` lists the variables that occur free, in first-occurrence order
    (preorder, arguments left to right), the order signature_of gives.
    ``run(consts)`` takes one Const per entry of ``vars``, in that order, and
    returns the substituted formula.  ``code`` is a flat post-order program
    over only the nodes that contain a free occurrence; running it rebuilds
    those nodes and reuses every other subtree as the same object.  Each
    instruction rebuilds one node from the nodes rebuilt before it, taken
    off a stack; it is a 5-tuple (opcode, a, b, c, d):

    - ``_ATOM1``: an atom with one rebuilt argument, (rel, the arguments
      before it, those after it, its index into consts);
    - ``_ATOM``: any other atom, (the atom, ((argument position, index
      into consts), ...), -, -);
    - ``_NOT``: a negation, all unused;
    - ``_ITEM1`` and ``_ITEM2``: an ∧ or ∨ whose one rebuilt item, or two
      adjacent ones, go between two kept runs, (And or Or, the items before,
      the items after, the items' setter);
    - ``_ITEMS``: any other ∧ or ∨, (And or Or, the items, (positions of the
      rebuilt items, ...), the items' setter);
    - ``_BLOCK``: an ∃ or ∀, (Exists or Forall, the block, the vars'
      setter, the body's setter).

    A rebuilt node gets its fields and cached hash set as its constructor
    would set them, through the slots' own setters, with no constructor
    call: the compiled formula passed every constructor check, and an
    instance differs from it only in the constants that stand for
    variables.
    """

    __slots__ = ("formula", "vars", "code")

    def __init__(self, formula, vars: tuple, code: tuple):
        self.formula = formula
        self.vars = vars
        self.code = code

    def run(self, consts: tuple):
        code = self.code
        if not code:
            return self.formula
        stack: list = []
        push, pop = stack.append, stack.pop
        for op, a, b, c, d in code:
            if op is _ATOM1:  # the one rebuilt argument goes between b and c
                node = _new(Atom)
                args = b + (consts[d],) + c
                _SET_REL(node, a)
                _SET_ARGS(node, args)
                _SET_H(node, hash((a, args)))
            elif op is _NOT:
                node = _new(Not)
                sub = pop()
                _SET_SUB(node, sub)
                _SET_H(node, hash((sub,)))
            elif op is _ITEM2:  # the two rebuilt items go between b and c
                node = _new(a)
                second = pop()
                items = b + (pop(), second) + c
                d(node, items)
                _SET_H(node, hash((items,)))
            elif op is _ITEM1:  # the one rebuilt item goes between b and c
                node = _new(a)
                items = b + (pop(),) + c
                d(node, items)
                _SET_H(node, hash((items,)))
            elif op is _BLOCK:
                node = _new(a)
                body = pop()
                c(node, b)
                d(node, body)
                _SET_H(node, hash((b, body)))
            elif op is _ATOM:
                node = _new(Atom)
                args = list(a.args)
                for i, k in b:
                    args[i] = consts[k]
                args = tuple(args)
                _SET_REL(node, a.rel)
                _SET_ARGS(node, args)
                _SET_H(node, hash((a.rel, args)))
            else:  # _ITEMS
                node = _new(a)
                items = list(b)
                for i in reversed(c):
                    items[i] = pop()
                items = tuple(items)
                d(node, items)
                _SET_H(node, hash((items,)))
            push(node)
        return stack[0]


def compile_substitution(phi, names) -> Substitution:
    """Compile phi once for substituting constants for the free occurrences
    of the variables in names (any iterable of names); see Substitution.
    A quantifier that rebinds one of them cuts it off below.  Iterative,
    with exact type dispatch as in map_atoms."""
    index: dict = {}    # variable -> slot in consts, by first free occurrence
    code: list = []
    rebuilt: list = []  # per finished subformula: whether the program rebuilds it
    stack: list = [(phi, frozenset(names), False)]
    while stack:
        f, live, ready = stack.pop()
        kind = type(f)
        if kind is Atom:
            slots = ()
            for i, t in enumerate(f.args):
                if t.__class__ is Var and t.name in live:
                    slots += ((i, index.setdefault(t.name, len(index))),)
            if len(slots) == 1:
                ((i, k),) = slots
                code.append((_ATOM1, f.rel, f.args[:i], f.args[i + 1:], k))
            elif slots:
                code.append((_ATOM, f, slots, None, None))
            rebuilt.append(bool(slots))
        elif kind is Top:
            rebuilt.append(False)
        elif ready:
            if kind is And or kind is Or:
                n = len(f.items)
                positions = tuple(itertools.compress(range(n), rebuilt[-n:]))
                del rebuilt[-n:]
                if positions:
                    i, j = positions[0], positions[-1]
                    (setter,) = _SETTERS[kind]
                    if j - i == len(positions) - 1 <= 1:  # one item, or two adjacent
                        code.append((_ITEM1 if i == j else _ITEM2, kind,
                                     f.items[:i], f.items[j + 1:], setter))
                    else:
                        code.append((_ITEMS, kind, f.items, positions, setter))
                rebuilt.append(bool(positions))
            elif rebuilt[-1]:  # Not or a quantifier: its one child was rebuilt
                code.append((_NOT, None, None, None, None) if kind is Not
                            else (_BLOCK, kind, f.vars, *_SETTERS[kind]))
        elif kind is Not:
            stack.append((f, live, True))
            stack.append((f.sub, live, False))
        elif kind is And or kind is Or:
            stack.append((f, live, True))
            for g in reversed(f.items):
                stack.append((g, live, False))
        elif kind is Exists or kind is Forall:
            if not live.isdisjoint(f.vars):
                live = live.difference(f.vars)
            if live:
                stack.append((f, live, True))
                stack.append((f.body, live, False))
            else:  # every variable is rebound here: nothing below is free
                rebuilt.append(False)
        else:
            raise FormulaError(f"not a formula: {f!r}")
    return Substitution(phi, tuple(index), tuple(code))


def abstract_constant(phi, c: str, x: str) -> object:
    """Replace every occurrence of constant c by variable x (left free)."""
    if x in variable_names(phi):
        raise FormulaError(f"variable {x} already occurs; cannot abstract {c} to it")
    return _abstract_constants(phi, {c: x})


def _abstract_constants(phi, mapping: dict) -> object:
    """Replace every occurrence of each constant c in mapping by the variable
    mapping[c], in one pass, for variables the caller already knows not to
    occur in phi."""
    terms = {Const(c): Var(x) for c, x in mapping.items()}  # interned: keyed by identity

    def ab(a, _bound):
        for t in a.args:
            if t in terms:
                return Atom(a.rel, tuple([terms.get(t, t) for t in a.args]))
        return a

    return map_atoms(phi, ab)


def variable_names(phi) -> set:
    """Every variable name in phi: free, bound, and quantifier-block names."""
    names = set()
    for f in walk(phi):
        if isinstance(f, (Exists, Forall)):
            names.update(f.vars)
        elif isinstance(f, Atom):
            names.update(t.name for t in f.args if isinstance(t, Var))
    return names


def fresh_names(prefix: str, taken) -> Iterator[str]:
    """Every name <prefix><i> not in taken, by ascending i, without end: the
    one fresh-name supply (take one with next, a few with itertools.islice)."""
    for i in itertools.count():
        if f"{prefix}{i}" not in taken:
            yield f"{prefix}{i}"


def fresh_constant(avoid: Iterable) -> str:
    """Lowest-index c<i> not in avoid (a set of constant names)."""
    return next(fresh_names("c", set(avoid)))


# a term's name, and isinstance(t, Var), as C callables for map and filter
_NAME = operator.attrgetter("name")
_IS_VAR = Var.__instancecheck__


def _free_names(f, found, kids):
    """The fold case whose value is the frozenset of the variable names free
    in the node: one pass, linear in the formula's size.  With a dict as the
    context, each quantifier node's value is also kept there under the
    node's id."""
    kind = type(f)
    if kind is Atom:
        return frozenset(map(_NAME, filter(_IS_VAR, f.args)))
    if kind is Not:
        return kids
    if kind is And or kind is Or:
        return _NO_NAMES.union(*kids)
    if kind is Top:
        return _NO_NAMES
    names = kids.difference(f.vars)
    if found is not None:
        found[id(f)] = names
    return names


def _simplify_node(f, _ctx, kids):
    # a node's value: (its simplified form, the names free in that form); a
    # node that simplification leaves as it was is kept, not rebuilt, and no
    # empty name set is made
    kind = type(f)
    if kind is Atom:
        for t in f.args:
            if type(t) is Var:
                return f, frozenset(map(_NAME, filter(_IS_VAR, f.args)))
        return f, _NO_NAMES
    if kind is Not:
        g, free = kids
        if type(g) is Not:
            return g.sub, free
        return (f if g is f.sub else Not(g)), free
    if kind is And or kind is Or:
        unit, absorb = (TOP, BOTTOM) if kind is And else (BOTTOM, TOP)
        kept = []
        free = _NO_NAMES
        for g, names in kids:
            for h in (g.items if type(g) is kind else (g,)):
                if h == absorb:
                    return absorb, _NO_NAMES
                if h != unit and h not in kept:
                    kept.append(h)
            if names:
                free = free | names if free else names
        if len(kept) == len(f.items) and all(map(operator.is_, kept, f.items)):
            return f, free
        return (conj(kept) if kind is And else disj(kept)), free
    if kind is Top:
        return f, _NO_NAMES
    body, free = kids
    kept = tuple(filter(free.__contains__, f.vars))
    free = free.difference(f.vars)
    if body is f.body and len(kept) == len(f.vars):
        return f, free
    return (kind(kept, body) if kept else body), free


def simplify(phi) -> object:
    """Cosmetic normalization: flatten ∧/∨, drop ⊤/⊥ units, drop vacuous
    quantifier variables.  Equivalence-preserving (domains are non-empty).
    Used by the CLI --simplify flag, explicit_definition,
    robinson_separator, monotone_rewrite and the theory interpolants;
    craig_interpolant returns its interpolant unsimplified.  Free variables
    are carried up the fold, so the cost is linear in phi's size."""
    return _fold(phi, _simplify_node)[0]
