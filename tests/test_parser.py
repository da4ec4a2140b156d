from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from craig.corpus import SignaturePool, _random_formula
from craig.errors import ParseError
from craig.formulas import (
    And, Atom, BOTTOM, Const, Exists, Forall, Not, Or, TOP, Top, Var,
)
from craig.parser import parse, parse_problem, print_formula

import random


def test_parse_exists_conjunction():
    f = parse("exists x. Cat(x) & Big(x)")
    assert f == Exists(("x",), And((Atom("Cat", (Var("x"),)),
                                    Atom("Big", (Var("x"),)))))


def test_unbound_lowercase_is_constant():
    assert parse("P(c)") == Atom("P", (Const("c"),))


def test_function_symbols_rejected():
    with pytest.raises(ParseError):
        parse("f(x) = y")


def test_equality_rejected():
    with pytest.raises(ParseError):
        parse("P(c) = Q(c)")


def test_reserved_namespace_rejected():
    with pytest.raises(ParseError):
        parse("P(c12)")


def test_arity_mismatch_located():
    with pytest.raises(ParseError) as exc:
        parse("R(a, b) & R(a)")
    assert "arity" in str(exc.value)


def test_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("P(c) &")
    assert "1:" in str(exc.value)


def test_implication_desugars():
    assert parse("A(c) -> B(c)") == Not(And((parse("A(c)"), Not(parse("B(c)")))))


def test_precedence():
    f = parse("!A(c) & B(c) | C(c) -> D(c)")
    # -> binds loosest, then |, then &, then !
    assert f == Not(And((parse("!A(c) & B(c) | C(c)"), Not(parse("D(c)")))))


def test_quantifier_extends_maximally_right():
    f = parse("forall x. P(x) & Q(x)")
    assert isinstance(f, type(parse("forall x. true"))) and \
        f == parse("forall x. (P(x) & Q(x))")


def test_unicode_aliases():
    assert parse("∀x. ¬P(x) ∨ Q(x)") == parse("forall x. !P(x) | Q(x)")
    assert parse("⊤ ∧ ⊥") == And((TOP, BOTTOM))


def test_true_false_tokens():
    assert parse("true") == TOP
    assert parse("false") == BOTTOM


def test_roundtrip_example1(example1):
    phi, psi, _, _ = example1
    assert parse(print_formula(phi)) == phi
    assert parse(print_formula(psi)) == psi


def test_roundtrip_top():
    assert parse(print_formula(TOP)) == TOP
    assert parse(print_formula(BOTTOM)) == BOTTOM


def test_roundtrip_random_formulas():
    # 1000 generated formulas re-parse to structural equality
    pool = SignaturePool((("P", 1), ("Q", 2), ("Z", 0)), ("c", "d"))
    for i in range(1000):
        rng = random.Random(i)
        f = _random_formula(rng, pool, depth=3)
        text = print_formula(f)
        assert parse(text) == f, text


def test_print_deterministic(example1):
    phi = example1[0]
    assert print_formula(phi) == print_formula(phi)


def test_hyphenated_identifiers():
    f = parse("forall x y. Taller-than(x,y) -> !Taller-than(y,x)")
    assert "Taller-than" in print_formula(f)
    assert parse(print_formula(f)) == f


def test_problem_file_sections():
    pf = parse_problem("""
# a comment
P(c)
[right]
Q(c)  # trailing comment
[theory]
forall x. P(x) -> Q(x)
[options]
budget = 1234
""")
    assert pf.left == [parse("P(c)")]
    assert pf.right == [parse("Q(c)")]
    assert len(pf.theory) == 1
    assert pf.options == {"budget": "1234"}


def test_identifier_outside_binder_scope_is_constant():
    # the grammar cannot produce free variables: x outside the binder is a constant
    f = parse("(exists x. P(x)) & Q(x)")
    assert f == And((Exists(("x",), Atom("P", (Var("x"),))),
                     Atom("Q", (Const("x"),))))


def test_problem_file_arity_consistency_across_lines():
    with pytest.raises(ParseError):
        parse_problem("[left]\nR(a, b)\nR(a)\n")


# Tokens of the grammar (and a few it rejects), so that generated strings
# parse often enough to exercise the round trip and not only the lexer.
FUZZ_TOKENS = (
    "exists", "forall", "∀", "∃", "x", "y", "c", "c0", "P", "Q", "R", "Z",
    "Taller-than", "true", "false", "⊤", "(", ")", ",", ".", "&", "|", "!",
    "¬", "~", "->", "→", "=", "f", "#", "\n", "[", "1",
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(FUZZ_TOKENS), max_size=24).map(" ".join),
    st.lists(st.sampled_from(FUZZ_TOKENS), max_size=24).map("".join),
))
def test_parse_returns_a_formula_or_raises_parse_error(text):
    try:
        f = parse(text)
    except ParseError:
        return
    assert isinstance(f, (Atom, And, Or, Not, Exists, Forall, Top))
    assert parse(print_formula(f)) == f
