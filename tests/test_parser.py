from __future__ import annotations

import re
import tracemalloc
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from craig.corpus import SignaturePool, _random_formula
from craig.errors import ParseError
from craig.formulas import (
    And, Atom, BOTTOM, Const, Exists, Forall, Not, Or, TOP, Top, Var,
)
from craig import parser
from craig.parser import _tokenize, parse, parse_problem, print_formula

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


@pytest.mark.parametrize("text, line, column, message", [
    ("[left]\n   P(a) @ Q\n", 2, 9, "unexpected character '@'"),
    ("# header\n[right]\n\tQ(c) &  # dangling\n", 3, 8, "expected a formula, found ''"),
    ("P(a)\n  [left]  \n \t R(a, b)  & R(a)\n", 3, 15,
     "relation R used with arity 1, expected 2"),
    ("[options]\n  budget\n", 2, 3, "options are key=value lines"),
    # only spaces, tabs and \r are blank at a line's ends; str.strip would
    # also drop these there, while the tokenizer rejects them inside a line
    *[case for blank in ("\x0b", "\x0c", "\x85", "\xa0", "\u2028") for case in (
        (f"{blank}P(a)\n", 1, 1, f"unexpected character {blank!r}"),
        (f"P(a) {blank}\n", 1, 6, f"unexpected character {blank!r}"),
        (f"[left]\n  P(a){blank}\n", 2, 7, f"unexpected character {blank!r}"),
        (f"[options]\n{blank}budget = 3\n", 2, 1, f"unknown option {blank + 'budget'!r}"))],
])
def test_problem_file_errors_are_located_in_the_file(text, line, column, message):
    with pytest.raises(ParseError) as exc:
        parse_problem(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"{line}:{column}: {message}"


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"])
def test_problem_file_lines_end_at_newline_only(separator):
    # str.splitlines would break the line here and read two sentences
    with pytest.raises(ParseError) as exc:
        parse_problem(f"P(a){separator}Q(b)\n")
    assert (exc.value.line, exc.value.column) == (1, 5)
    assert exc.value.reason == f"unexpected character {separator!r}"
    # inside a comment it is skipped, and later lines keep the file's \n count
    with pytest.raises(ParseError) as exc:
        parse_problem(f"# one{separator}two\nP(a)\n[right]\n Q(c) @\n")
    assert (exc.value.line, exc.value.column) == (4, 7)


def test_crlf_problem_files_parse_as_lf():
    lf = ("# comment\n[left]\nP(a) & Q(a)  # trailing\n\n[right]\n"
          "forall x. P(x) -> R(x)\n[theory]\nR(a)\n[options]\nbudget = 12\n")
    assert parse_problem(lf.replace("\n", "\r\n")) == parse_problem(lf)
    for text in ("[left]\n   P(a) @ Q\n", "[options]\n  budget\n"):
        with pytest.raises(ParseError) as lf_error:
            parse_problem(text)
        with pytest.raises(ParseError) as crlf_error:
            parse_problem(text.replace("\n", "\r\n"))
        assert str(crlf_error.value) == str(lf_error.value)


def test_problem_file_free_variable_error_names_the_line(monkeypatch):
    # the grammar never yields a free variable, so stand in an open formula
    monkeypatch.setattr(parser, "parse", lambda text, arities: Atom("P", (Var("x"),)))
    with pytest.raises(ParseError) as exc:
        parse_problem("[left]\nP(c)\n")
    assert (exc.value.line, exc.value.column) == (2, 0)
    assert str(exc.value) == "2: free variables ['x'] (sentences required)"


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


# The named-group tokenizer that the one-scan tokenizer replaced, kept as the
# reference: it tracks line and column as it goes.
_REFERENCE_TOKEN = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<newline>\n)
  | (?P<arrow>->|→)
  | (?P<and>&|∧)
  | (?P<or>\||∨)
  | (?P<not>!|¬|~)
  | (?P<forall>forall\b|∀)
  | (?P<exists>exists\b|∃)
  | (?P<true>true\b|⊤)
  | (?P<false>false\b|⊥)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<eq>=)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*(?:-[A-Za-z_][A-Za-z0-9_']*)*)
    """,
    re.VERBOSE,
)


@dataclass
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _reference_tokenize(text: str) -> list:
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        lex = m.group()
        if kind == "newline":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                toks.append(_Tok(kind, lex, line, col))
            col += len(lex)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


def _tokens_or_error(tokenize, located, text):
    try:
        return [located(tok, text) for tok in tokenize(text)]
    except ParseError as e:
        return str(e), e.line, e.column


def _at_offset(tok, text):
    kind, lexeme, offset = tok
    return (kind, lexeme, text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


LEXER_PIECES = (
    "->", "→", "&", "∧", "|", "∨", "!", "¬", "~", "∀", "∃", "⊤", "⊥", "(", ")",
    ",", ".", "=", "-", "'", "_", "forall", "exists", "true", "false",
    "forall-x", "forallx", "forall_", "true'", "false-", "exist", "x", "c0",
    "P", "Taller-than", "a'b", "x-", "é", "\x0b", "\t", "\r", " ", "\n",
    "# note", "#", "9", "@",
)


@settings(max_examples=1500, derandomize=True, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(LEXER_PIECES), max_size=20).map("".join),
    st.lists(st.sampled_from(LEXER_PIECES), max_size=12).map(" ".join),
    st.text(alphabet="".join(LEXER_PIECES), max_size=30),
))
def test_tokenizer_matches_the_reference(text):
    # same (kind, text, line, column) list, or the same located error
    assert _tokens_or_error(_tokenize, _at_offset, text) == _tokens_or_error(
        _reference_tokenize, lambda t, _: (t.kind, t.text, t.line, t.col), text)


def test_an_inner_block_binds_only_its_own_scope():
    # the inner block raises x's count and lowers it after its body, so the
    # outer binding still holds for Q(x), and no binding is left outside
    assert parse("forall x. (forall x. P(x)) & Q(x)") == Forall(("x",), And((
        Forall(("x",), Atom("P", (Var("x"),))), Atom("Q", (Var("x"),)))))
    assert parse("(forall x. P(x)) & Q(x)") == And((
        Forall(("x",), Atom("P", (Var("x"),))), Atom("Q", (Const("x"),))))


def test_nested_quantifiers_parse_in_linear_memory():
    # the scope is one name -> count table, not a set per level: 3,000
    # levels built a 217 MB peak when each level kept its own bound-name set
    names = [f"x{i}" for i in range(3_000)]
    text = "".join(f"forall {name}. " for name in names) + "P(x0)"
    tracemalloc.start()
    try:
        f = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000
    for name in names:
        assert type(f) is Forall and f.vars == (name,)
        f = f.body
    assert f == Atom("P", (Var("x0"),))
