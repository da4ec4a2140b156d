"""Differential test: compiled evaluation against the ``_eval`` interpreter.

``models._compile`` must give the truth value ``_eval`` gives, and raise what
it raises, on every formula, structure and assignment the oracle can meet.
The reference side never runs compiled code: structures come from
``enumerate_structures`` (no sentences, so no conjunct is evaluated) and the
interpolant screens are rebuilt by filtering them through ``evaluate``.

The cases:

- the ``formulas()`` strategy of ``test_formulas`` (open formulas included)
  on every structure of size <= 2 over the formula's signature, under every
  assignment of its free variables;
- hand-written formulas for the shapes that strategy never builds: n-ary
  connectives, multi-variable blocks, mixed and 0-ary atoms, and a subterm
  that is not a formula (inside a multi-variable block too, where the
  instance that raises first shows the order the block visits);
- the ``wide_formulas()`` strategy, which draws 2-4-item connectives and
  two-variable blocks, and one ∃ over a 3,000-item ∨ (and its dual ∀ over
  an ∧) at size 1, which the compiler runs as 2,999 nested binary closures;
- every ``enumerate_shared_formulas`` candidate of size <= 5 for the first
  ``SEARCH_SLICE`` instances of ``corpus(42, 50, small=True)``, on both
  screen lists ``search_interpolant`` builds.

The mask closures ``_compile(f, batch)`` returns for a block of structures
are checked the same way: bit b of the mask must be ``_eval``'s truth in the
b-th structure of the block, for every block the compiler can be given (no
relation or any one relation with any number of its lowest tuples batched,
with any set of batched constants), every assignment of the symbols outside
the block and every assignment of the free variables.  The test builds its
own masks and block structures from the definition of the bit order; the
masks ``_block_masks`` caches are checked against them.  The cases are the
``formulas()`` and ``wide_formulas()`` strategies and the hand-written
shapes at sizes <= 2.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings

from craig.corpus import corpus
from craig.formulas import (
    And, Atom, Const, Exists, Forall, Not, Or, Var, signature_of, to_nnf,
)
from craig.interpolation import _SCREEN_CAP, enumerate_shared_formulas
from craig.models import (
    Structure, _Batch, _block_masks, _compile, _eval, _trusted_structure,
    count_structures, enumerate_structures, evaluate, find_model,
)
from craig.parser import parse
from test_formulas import formulas, wide_formulas

SEARCH_SLICE = 2  # 916 candidates each; the third instance alone has 2,518
SCREEN_SIZE = 3  # search_interpolant's default screen_size


def _outcome(run):
    """The value run() returns, or the type and text of what it raises."""
    try:
        return run()
    except Exception as e:  # the contract covers exceptions as well
        return type(e), str(e)


def _assert_agrees(f, structures, assignments) -> None:
    holds = _compile(f)
    for A in structures:
        for g in assignments:
            want = _outcome(lambda: _eval(A, f, dict(g)))
            got = _outcome(lambda: holds(A, dict(g)))
            assert got == want, (f, A.key(), g)


def _assignments(names, n: int) -> list:
    names = sorted(names)
    return [dict(zip(names, values))
            for values in itertools.product(range(n), repeat=len(names))]


def _agrees_everywhere(f, max_size: int = 2) -> None:
    sig = signature_of(f)
    for n in range(1, max_size + 1):
        structures = list(enumerate_structures(sig, n))
        # the empty assignment too: an unassigned variable must raise alike
        _assert_agrees(f, structures, _assignments(sig.free_vars, n) + [{}])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(formulas())
def test_compiled_matches_interpreted_on_generated_formulas(phi):
    _agrees_everywhere(phi)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(wide_formulas())
def test_compiled_matches_interpreted_on_wide_formulas(phi):
    _agrees_everywhere(phi)


HAND_WRITTEN = (
    "A(c) & B(c) & !A(d)",
    "A(x) | B(c) | !A(y) | B(x)",
    "forall x y. R(x, k) | !R(y, x) | Z",
    "exists x y z. R(x, y) & R(y, z) & !R(x, z)",
    "forall x. exists y z. R(x, y) & !R(k, z) & (Z | R(z, x))",
    "exists y. R(x, y) & R(y, k)",
    "Z & !Z",
    "R(k, c) | !R(k, k) | exists x. R(x, x)",
    "forall x y. R(y, x) -> !Q(x)",
    "forall x. Q(x) | exists y. R(y, x)",
    "true | false",
)


def test_compiled_matches_interpreted_on_other_shapes():
    for text in HAND_WRITTEN:
        _agrees_everywhere(parse(text))


MASK_SHAPES = (
    "R(c, d) | !R(d, c) & R(c, c)",
    "forall x. R(x, c) -> R(c, x) | Q(d)",
    "exists x. R(x, k) & !R(k, x) & Q(c)",
    "Z | R(c, k) & !Z",
    "(Z -> Y) & forall x y. R(x, y) | !R(y, x)",
    "forall x. exists y. R(x, y) & (Q(y) | !Z)",
    "Q(c) & !Q(d) & (Q(k) | Q(c))",
)


def _subsets(items) -> list:
    """Every subset of items, in binary-counter order (bit i = items[i])."""
    return [frozenset(t for i, t in enumerate(items) if mask >> i & 1)
            for mask in range(1 << len(items))]


def _universe(n: int, arity: int) -> list:
    return list(itertools.product(range(n), repeat=arity))


def _layouts(sig, n: int):
    """Every block over sig at size n: (batched relation or None, how many of
    its lowest tuples are batched, batched constants)."""
    consts = sorted(sig.constants)
    chosen = [[x for i, x in enumerate(consts) if k >> i & 1] for k in range(1 << len(consts))]
    for rel in [None] + sorted(sig.relations):
        for c in range(n ** sig.arities[rel] + 1) if rel else [0]:
            for batched in chosen:
                yield rel, c, batched


def _masks_agree(f, max_size: int = 2) -> None:
    sig = signature_of(f)
    for n in range(1, max_size + 1):
        assignments = _assignments(sig.free_vars, n)
        truth: dict = {}  # (relations, constants, assignment index) -> _eval
        for rel, c, batched in _layouts(sig, n):
            # bit b stands for (o, j): option o of the c batched tuples and
            # the j-th combination of the batched constants' values
            combos = list(itertools.product(range(n), repeat=len(batched)))
            bits = [(o, j) for o in range(1 << c) for j in range(len(combos))]
            full = (1 << len(bits)) - 1
            univ = _universe(n, sig.arities[rel]) if rel else []
            tuple_masks = [sum(1 << b for b, (o, _) in enumerate(bits) if o >> i & 1)
                           for i in range(c)]
            const_masks = {x: tuple(sum(1 << b for b, (_, j) in enumerate(bits)
                                        if combos[j][p] == e) for e in range(n))
                           for p, x in enumerate(batched)}
            assert _block_masks(n, c, len(batched)) == (
                full, tuple(tuple_masks), tuple(const_masks.values()), tuple(combos))
            holds = _compile(f, _Batch(full, rel, const_masks))
            others = sorted(sig.relations - {rel})
            fixed = [x for x in sorted(sig.constants) if x not in batched]
            for values in itertools.product(
                    *[_subsets(_universe(n, sig.arities[r])) for r in others],
                    _subsets(univ[c:]), itertools.product(range(n), repeat=len(fixed))):
                *rel_values, high, const_values = values
                relations = dict(zip(others, rel_values))
                constants = dict(zip(fixed, const_values))  # batched ones absent
                if rel:
                    table = dict(zip(univ, tuple_masks))
                    table.update((t, full if t in high else 0) for t in univ[c:])
                    relations[rel] = table
                partial = _trusted_structure(n, relations, constants)
                for index, g in enumerate(assignments):
                    mask = holds(partial, dict(g))
                    assert 0 <= mask <= full, (f, rel, c, batched)
                    for b, (o, j) in enumerate(bits):
                        rels, consts = dict(relations), dict(constants)
                        if rel:
                            rels[rel] = frozenset(t for i, t in enumerate(univ[:c])
                                                  if o >> i & 1) | high
                        consts.update(zip(batched, combos[j]))
                        key = (tuple(sorted(rels.items())), tuple(sorted(consts.items())), index)
                        if key not in truth:
                            truth[key] = _eval(Structure(n, rels, consts), f, dict(g))
                        assert (mask >> b & 1) == truth[key], (f, rel, c, batched, key)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(formulas())
def test_masks_match_interpreted_on_generated_formulas(phi):
    _masks_agree(phi)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(wide_formulas())
def test_masks_match_interpreted_on_wide_formulas(phi):
    _masks_agree(phi)


def test_masks_match_interpreted_on_other_shapes():
    for text in HAND_WRITTEN + MASK_SHAPES:
        _masks_agree(parse(text))


def test_compiled_raises_for_a_non_formula_only_when_reached():
    junk = object()
    A = next(enumerate_structures(signature_of(Atom("P", (Const("c"),))), 2))
    for f in (Not(junk), And((Atom("P", (Const("c"),)), junk)),
              Or((Atom("P", (Const("c"),)), junk)), Or((Not(Atom("P", (Var("x"),))), junk))):
        _assert_agrees(f, [A], [{"x": 0}, {"x": 1}])
    # a block body that decides at an instance where R and Q hold and raises
    # where R fails: the outcome shows which instance the block reaches first
    R, Q = Atom("R", (Var("x"), Var("y"))), Atom("Q", (Var("y"),))
    body = Or((And((R, Q)), And((Not(R), junk))))
    structures = list(enumerate_structures(signature_of(R, Q), 2))
    for f in (Exists(("x", "y"), body), Forall(("x", "y"), Not(body))):
        _assert_agrees(f, structures, [{}])


def test_a_3000_item_connective_runs_as_a_fold_under_the_limit():
    # a k-item ∧ or ∨ runs as k - 1 nested binary closures: 2,999 frames
    # here, which the import-time recursion limit covers
    items = [Atom(f"R{i % 3}", (Var("x"), Const("k"))) if i % 2
             else Not(Atom(f"Q{i % 3}", (Var("x"),))) for i in range(3_000)]
    phi = Exists(("x",), Or(tuple(items)))
    for f in (phi, to_nnf(Not(phi))):  # ∃ over an ∨, and ∀ over an ∧
        structures = list(enumerate_structures(signature_of(f), 1))
        _assert_agrees(f, structures, [{}])
        first = next(A for A in structures if evaluate(A, f))
        assert find_model([f], 1).key() == first.key()


def _screen(sentence, sig) -> list:
    # search_interpolant's screen, filtered through evaluate
    sizes = range(1, SCREEN_SIZE + 1)
    if any(count_structures(sig, n) > _SCREEN_CAP for n in sizes):
        return []
    return [A for n in sizes for A in enumerate_structures(sig, n) if evaluate(A, sentence)]


def test_compiled_matches_interpreted_on_search_candidates():
    for inst in corpus(42, 50, small=True)[:SEARCH_SLICE]:
        sig_phi, sig_psi = signature_of(inst.phi), signature_of(inst.psi)
        shared = {r: sig_phi.arities[r]
                  for r in sorted(sig_phi.relations & sig_psi.relations)}
        screens = _screen(inst.phi, sig_phi) + _screen(Not(inst.psi), sig_psi)
        assert screens, inst.index
        consts = sorted(sig_phi.constants & sig_psi.constants)
        for theta in enumerate_shared_formulas(shared, consts, 5):
            # closed candidates on screens that interpret them never raise
            holds = _compile(theta)
            assert [holds(A, {}) for A in screens] == \
                [_eval(A, theta, {}) for A in screens], theta
