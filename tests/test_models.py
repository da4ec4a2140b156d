from __future__ import annotations

import contextlib
import itertools
import json
import signal

import pytest

from craig.errors import FormulaError, MissingSymbolError, PartialAssignmentError
from craig.formulas import signature_of
from craig.models import (
    Structure, apply_permutation, count_structures, enumerate_structures,
    evaluate, find_model, satisfying_structures, structure_from_json,
    structure_to_json, substructure,
)
from craig.parser import parse

# the taller-than structure from the definability walkthrough: a -> 0, b -> 1, c -> 2
PAPER_A = Structure(3, {"Taller-than": {(0, 1), (1, 2), (0, 2)}, "Tallest": {(0,)}})


def test_evaluate_paper_structure():
    axiom = parse("forall x y. Taller-than(y,x) -> !Tallest(x)")
    assert evaluate(PAPER_A, axiom)


def test_evaluate_top():
    assert evaluate(Structure(1), parse("true"))


def test_evaluate_empty_relation():
    A = Structure(2, {"P": set()})
    assert not evaluate(A, parse("exists x. P(x)"))


def test_evaluate_with_assignment():
    from craig.formulas import And, Atom, Exists, Var
    A = Structure(2, {"P": {(1,)}})
    f = Exists(("y",), And((Atom("P", (Var("x0"),)), Atom("P", (Var("y"),)))))
    assert evaluate(A, f, {"x0": 1})
    assert not evaluate(A, f, {"x0": 0})


def test_evaluate_missing_symbol():
    with pytest.raises(MissingSymbolError):
        evaluate(Structure(1), parse("P(c)"))


def test_evaluate_rejects_a_use_at_another_arity():
    A = Structure(2, {"R": {(0, 1)}, "S": set()})
    for f in ("exists x. R(x)", "forall x. !R(x)", "exists x y z. R(x, y, z)"):
        with pytest.raises(FormulaError, match="relation R has arity 2"):
            evaluate(A, parse(f))
    # an empty interpretation has no arity to compare against
    assert evaluate(A, parse("forall x. !S(x)"))
    assert not evaluate(A, parse("exists x y. S(x, y)"))
    # the oracle makes the same check against the signature it enumerates
    with pytest.raises(FormulaError, match="relation R has arity 1"):
        list(satisfying_structures(signature_of(parse("R(a)")), [1],
                                   [parse("exists x y. R(x, y)")]))


def test_structure_rejects_mixed_tuple_lengths():
    with pytest.raises(FormulaError, match="tuples of different lengths"):
        Structure(2, {"R": {(0,), (0, 1)}})


def test_evaluate_partial_assignment():
    from craig.formulas import And, Atom, Exists, Var
    A = Structure(1, {"P": {(0,)}})
    f = Exists(("y",), And((Atom("P", (Var("x0"),)), Atom("P", (Var("y"),)))))
    with pytest.raises(PartialAssignmentError):
        evaluate(A, f)


def test_zero_ary_relation_truth():
    A = Structure(1, {"Z": {()}})
    B = Structure(1, {"Z": set()})
    assert evaluate(A, parse("Z"))
    assert not evaluate(B, parse("Z"))


def _sig(text):
    return signature_of(parse(text))


def test_enumerate_count_unary():
    sig = _sig("exists x. P(x)")
    assert len(list(enumerate_structures(sig, 2))) == 4


def test_enumerate_count_binary():
    sig = _sig("exists x. R(x, x)")
    assert len(list(enumerate_structures(sig, 1))) == 2


def test_enumerate_count_with_constant():
    sig = _sig("P(c)")
    structures = list(enumerate_structures(sig, 2))
    # counting oracle: 2^(2^1) * 2^1
    assert len(structures) == (1 << 2) * 2 == 8
    assert count_structures(sig, 2) == 8


def test_enumerate_distinct_and_closed_form():
    sig = signature_of(parse("exists x. P(x) & R(x, x) & Q(c)"))
    structures = list(enumerate_structures(sig, 2))
    keys = {A.key() for A in structures}
    assert len(keys) == len(structures) == count_structures(sig, 2)


def test_find_model_exists():
    A = find_model([parse("exists x. P(x)")], 3)
    assert A.domain_size == 1 and A.relations["P"] == {(0,)}


def test_find_model_contradiction_absent():
    assert find_model([parse("P(c)"), parse("!P(c)")], 3) is None


def test_find_model_conjunction():
    A = find_model([parse("exists x. (A(x) & !B(x)) & C(x)")], 3)
    assert A is not None and A.domain_size == 1
    assert evaluate(A, parse("exists x. (A(x) & !B(x)) & C(x)"))


def test_find_model_results_satisfy_inputs():
    sentences = [parse("exists x. P(x) | Q(x)"), parse("forall x. !Q(x)")]
    A = find_model(sentences, 3)
    assert all(evaluate(A, s) for s in sentences)


def test_find_model_rejects_open_formulas_before_enumerating():
    # whichever conjunct pruning would check first, a free variable raises,
    # also when there is no size to search
    from craig.formulas import BOTTOM, And, Atom, Var
    open_atom = Atom("P", (Var("x"),))
    for phi in (open_atom, And((open_atom, BOTTOM)), And((BOTTOM, open_atom))):
        for max_size in (0, 2):
            with pytest.raises(PartialAssignmentError, match=r"assignment misses \['x'\]"):
                find_model([phi], max_size)


@contextlib.contextmanager
def _time_limit(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("ternary", ["T", "A"])
def test_find_model_with_a_ternary_relation_at_size_3(ternary):
    # 2^27 interpretations of the ternary relation: they must not be built
    # before the first model, whether the relation comes last (T) or first (A)
    small = [parse("exists x. P(x) & Q(x)"), parse("exists y. P(y) & !Q(y)"),
             parse("exists z. !P(z)")]
    sentences = small + [parse(f"exists x y z. {ternary}(x, y, z)")]
    first = next(A for A in enumerate_structures(signature_of(*small), 3)
                 if all(evaluate(A, s) for s in small))
    with _time_limit(5):
        assert find_model(sentences, 2) is None
        A = find_model(sentences, 3)
    assert A.key() == Structure(3, {**first.relations, ternary: {(0, 0, 0)}}).key()


def test_evaluate_isomorphism_invariance():
    phi = parse("exists x. forall y. R(x, y) | P(y)")
    sig = signature_of(phi)
    for n in (1, 2, 3):
        for A in itertools.islice(enumerate_structures(sig, n), 0, None, 7):
            value = evaluate(A, phi)
            for perm in itertools.permutations(range(n)):
                assert evaluate(apply_permutation(A, perm), phi) == value


def test_structure_json_roundtrip():
    text = structure_to_json(PAPER_A)
    assert structure_from_json(text) == PAPER_A
    assert text == ('{"domain": 3, "relations": {"Taller-than": '
                    '[[0, 1], [0, 2], [1, 2]], "Tallest": [[0]]}, "constants": {}}')


def test_structure_validation():
    with pytest.raises(FormulaError):
        Structure(1, {"P": {(3,)}})
    with pytest.raises(FormulaError):
        Structure(0)
    with pytest.raises(FormulaError):
        Structure(1, {}, {"c": 5})


def test_substructure_renumbers():
    sub = substructure(PAPER_A, {0, 2})
    assert sub.domain_size == 2
    assert sub.relations["Taller-than"] == {(0, 1)}
    assert sub.relations["Tallest"] == {(0,)}


def _round_trips(A) -> bool:
    return structure_from_json(structure_to_json(A)) == A


def test_every_enumerated_structure_round_trips_through_json():
    # a 0-ary, a unary and a binary relation and a constant
    sig = signature_of(parse("Z | P(c) | exists x y. R(x, y)"))
    for n in (1, 2):
        structures = list(enumerate_structures(sig, n))
        assert len(structures) == count_structures(sig, n)
        assert all(map(_round_trips, structures))


def test_every_oracle_golden_model_round_trips_through_json():
    from test_oracle_golden import load_golden
    texts = []
    for value in load_golden().values():
        if isinstance(value, str) and value.startswith("{"):
            texts.append(value)
        elif isinstance(value, list):
            texts.extend(value)
    assert len(texts) == 177  # 173 models and 2 Padoa pairs
    for text in texts:
        A = structure_from_json(text)
        assert _round_trips(A) and structure_to_json(A) == text


@pytest.mark.parametrize("domain, relations, constants", [
    (2, {"P": [[True]]}, {}),        # true equals 1
    (2, {"P": [[1.0]]}, {}),         # and so does 1.0
    (2, {"P": [[[0]]]}, {}),         # a nested list is no element
    (True, {}, {}),
    (2, {}, {"c": 1.0}),
])
def test_domain_elements_are_ints(domain, relations, constants):
    with pytest.raises(FormulaError):
        Structure(domain, relations, constants)
    # the JSON reader hands its input to the same check
    text = json.dumps({"domain": domain, "relations": relations, "constants": constants})
    with pytest.raises(FormulaError):
        structure_from_json(text)


def test_a_structure_keeps_its_own_copy_of_what_it_checked():
    relations, constants = {"P": {(0,)}}, {"c": 0}
    A = Structure(2, relations, constants)
    relations["P"].add((7,))
    constants["c"] = 7
    assert A.relations == {"P": {(0,)}} and A.constants == {"c": 0}


def test_substructure_rejects_elements_outside_the_domain():
    with pytest.raises(FormulaError, match="element 5 outside the domain"):
        substructure(Structure(2, {"P": {(0,)}}), [5])


def test_evaluate_rejects_assignment_values_outside_the_domain():
    from craig.formulas import Atom, Var
    A = Structure(2, {"P": {(0,)}})
    f = Atom("P", (Var("x"),))
    for value in (7, -1, True):
        with pytest.raises(FormulaError, match="variable x -> .* outside domain"):
            evaluate(A, f, {"x": value})
