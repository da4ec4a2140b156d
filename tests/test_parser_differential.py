"""The parser against a verbatim copy of the recursive descent it replaced.

The old ``_Parser`` took one method per precedence level (implication,
disjunction, conjunction, unary, primary); the new one reads ``&`` and
``|`` in one loop and recurses only for ``->``'s right side, ``!``,
parentheses and quantifier bodies.  On printed formulas, the corpus, every
Pelletier line, token soups and texts with one token dropped, duplicated or
swapped, both must give equal formulas or equal ``ParseError`` text, line
and column, and leave equal arity registries.
"""

from __future__ import annotations

import pathlib
import random

from hypothesis import given, settings, strategies as st

from craig.corpus import corpus
from craig.errors import ParseError
from craig.formulas import (
    TOP, BOTTOM, And, Atom, Const, Exists, Forall, Not, Or, Var,
    RESERVED_CONSTANT, implies,
)
from craig.parser import _LEXEME, _error, _tokenize, parse, print_formula

from test_formulas import formulas, wide_formulas
from test_parser import FUZZ_TOKENS

PELLETIER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "pelletier"


# ------------------------------------------------- the parser before, verbatim

class _Parser:
    """Recursive-descent parser over one arity registry.

    A registry shared across calls keeps relation arities consistent within a
    problem file.
    """

    def __init__(self, text: str, arities: dict):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.arities = arities

    def peek(self) -> str:
        """Kind of the next token."""
        return self.toks[self.i][0]

    def next(self) -> tuple:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> tuple:
        if self.peek() != kind:
            self.error(f"expected {kind}, found {self.toks[self.i][1]!r}")
        return self.next()

    def error(self, msg: str, tok: tuple | None = None):
        """Raise msg at tok, by default at the next token."""
        raise _error(msg, self.text, (tok or self.toks[self.i])[2])

    def parse_formula(self, bound: frozenset):
        return self.implication(bound)

    def implication(self, bound):
        left = self.disjunction(bound)
        if self.peek() == "arrow":
            self.next()
            return implies(left, self.implication(bound))
        return left

    def disjunction(self, bound):
        items = [self.conjunction(bound)]
        while self.peek() == "or":
            self.next()
            items.append(self.conjunction(bound))
        return items[0] if len(items) == 1 else Or(tuple(items))

    def conjunction(self, bound):
        items = [self.unary(bound)]
        while self.peek() == "and":
            self.next()
            items.append(self.unary(bound))
        return items[0] if len(items) == 1 else And(tuple(items))

    def unary(self, bound):
        kind = self.peek()
        if kind == "not":
            self.next()
            return Not(self.unary(bound))
        if kind in ("forall", "exists"):
            return self.quantified(bound)
        return self.primary(bound)

    def quantified(self, bound):
        q = self.next()
        names = []
        while self.peek() == "ident":
            tok = self.next()
            name = tok[1]
            if name[0].isupper():
                self.error(f"quantified variable {name!r} must be lowercase", tok)
            if RESERVED_CONSTANT.match(name):
                self.error(f"{name!r} is in the reserved fresh-constant namespace", tok)
            if name in names:
                self.error(f"duplicate variable {name!r} in quantifier block", tok)
            names.append(name)
        if not names:
            self.error("quantifier needs at least one variable")
        self.expect("dot")
        body = self.parse_formula(bound | frozenset(names))
        cls = Forall if q[0] == "forall" else Exists
        return cls(tuple(names), body)

    def primary(self, bound):
        kind = self.peek()
        if kind == "true":
            self.next()
            return TOP
        if kind == "false":
            self.next()
            return BOTTOM
        if kind == "lpar":
            self.next()
            f = self.parse_formula(bound)
            self.expect("rpar")
            return f
        if kind == "ident":
            return self.atom(bound)
        if kind == "eq":
            self.error("equality atoms are not supported")
        self.error(f"expected a formula, found {self.toks[self.i][1]!r}")

    def atom(self, bound):
        head = self.next()
        name = head[1]
        if not name[0].isupper():
            if self.peek() == "lpar":
                self.error(f"function symbols are not supported: {name!r}", head)
            if self.peek() == "eq":
                self.error("equality atoms are not supported", head)
            self.error(f"relation symbols are capitalized; {name!r} looks like a term",
                       head)
        args = []
        if self.peek() == "lpar":
            self.next()
            if self.peek() != "rpar":
                args.append(self.term(bound))
                while self.peek() == "comma":
                    self.next()
                    args.append(self.term(bound))
            self.expect("rpar")
        if self.peek() == "eq":
            self.error("equality atoms are not supported")
        seen = self.arities.setdefault(name, len(args))
        if seen != len(args):
            self.error(f"relation {name} used with arity {len(args)}, expected {seen}",
                       head)
        return Atom(name, tuple(args))

    def term(self, bound):
        t = self.expect("ident")
        name = t[1]
        if name[0].isupper():
            self.error(f"relation symbol {name!r} used as a term", t)
        if self.peek() == "lpar":
            self.error(f"function symbols are not supported: {name!r}", t)
        if name in bound:
            return Var(name)
        if RESERVED_CONSTANT.match(name):
            self.error(f"{name!r} is in the reserved fresh-constant namespace", t)
        return Const(name)


def reference_parse(text: str, arities: dict | None = None):
    """Parse a single formula."""
    p = _Parser(text, {} if arities is None else arities)
    f = p.parse_formula(frozenset())
    if p.peek() != "eof":
        p.error(f"trailing input {p.toks[p.i][1]!r}")
    return f


# ---------------------------------------------------------------- comparison

# a registry that clashes with the arities the inputs use, so that the
# arity errors and their positions are compared too
CLASHING = {"P": 2, "Q": 0, "R": 1, "Taller-than": 1}


def outcome(parser, text: str, arities: dict) -> tuple:
    """What parser makes of text with arities: the formula or the error's
    text, line and column, then the registry it leaves."""
    try:
        result = ("formula", parser(text, arities))
    except ParseError as e:
        result = ("error", e.reason, e.line, e.column, str(e))
    return result, arities


def assert_parsers_agree(text: str) -> set:
    """The first words of the errors the two parsers agreed on."""
    reasons = set()
    for registry in ({}, CLASHING):
        new = outcome(parse, text, dict(registry))
        old = outcome(reference_parse, text, dict(registry))
        assert new == old, text
        if new[0][0] == "error":
            reasons.add(new[0][1].split(" ")[0])
    return reasons


def lexemes(text: str) -> list:
    """text's tokens, blanks and comments left out."""
    return [lex for lex in _LEXEME.findall(text) if not lex.isspace() and lex[0] != "#"]


def mutilations(text: str):
    """text with one token dropped, duplicated or swapped with the next."""
    toks = lexemes(text)
    for i in range(len(toks)):
        yield " ".join(toks[:i] + toks[i + 1:])
        yield " ".join(toks[:i + 1] + toks[i:])
        if i + 1 < len(toks):
            yield " ".join(toks[:i] + [toks[i + 1], toks[i]] + toks[i + 2:])


def corpus_texts() -> list:
    return [print_formula(f) for inst in corpus(42, 500) for f in (inst.phi, inst.psi)]


def pelletier_lines() -> list:
    """Every sentence line of the Pelletier files, comments and headers out."""
    lines = []
    for path in sorted(PELLETIER.glob("*.fol")):
        for line in path.read_text().split("\n"):
            line = line.split("#", 1)[0].strip()
            if line and not line.startswith("["):
                lines.append(line)
    return lines


def test_the_inputs_are_many_and_mostly_parse():
    texts = corpus_texts() + pelletier_lines()
    assert len(texts) > 1_050
    assert all(outcome(parse, t, {})[0][0] == "formula" for t in texts)


def test_the_corpus_and_pelletier_parse_alike():
    for text in corpus_texts() + pelletier_lines():
        assert_parsers_agree(text)


def test_pelletier_files_leave_alike_registries():
    # one registry per file, shared by its lines as parse_problem shares it
    for path in sorted(PELLETIER.glob("*.fol")):
        new, old = {}, {}
        for line in path.read_text().split("\n"):
            line = line.split("#", 1)[0].strip()
            if line and not line.startswith("["):
                assert outcome(parse, line, new) == outcome(reference_parse, line, old)
        assert new and new == old, path.name


def test_mutilated_pelletier_lines_and_corpus_texts_parse_alike():
    texts = pelletier_lines() + random.Random(42).sample(corpus_texts(), 200)
    reasons = set()
    for text in texts:
        for bad in mutilations(text):
            reasons |= assert_parsers_agree(bad)
    assert {"expected", "trailing", "quantifier", "quantified", "relation",
            "duplicate", "function"} <= reasons, reasons


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.one_of(formulas(), wide_formulas()), st.data())
def test_printed_formulas_parse_alike(f, data):
    text = print_formula(f)
    assert_parsers_agree(text)
    bad = list(mutilations(text))
    assert_parsers_agree(data.draw(st.sampled_from(bad)) if bad else text)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from(FUZZ_TOKENS), max_size=24).map(" ".join),
    st.lists(st.sampled_from(FUZZ_TOKENS), max_size=24).map("".join),
))
def test_token_soups_parse_alike(text):
    assert_parsers_agree(text)


def test_hand_picked_texts_parse_alike():
    reasons = set()
    for text in ["", "P", "P(", "P()", "P(a,)", "P(a b)", "(P", "P)", "!", "!!",
                 "forall", "forall x", "forall x.", "forall X. P(X)",
                 "exists x x. P(x)", "forall c1. P(c1)", "P(c1)", "P(Q)",
                 "P(a) = Q", "a = b", "f(a)", "p", "P & ", "P | ", "P ->",
                 "P -> Q -> R", "P | Q & R -> S | T", "P & Q | R & S | T",
                 "A -> B | C -> D & E", "((P))", "(P & Q) & R", "true & false",
                 "P(a) & P(a, b)", "P(a, b) | P", "forall x. P(x) & Q(x) | R",
                 "exists x y. R(x, y) -> forall z. R(z, z)", "P Q", "P(a) )",
                 "¬∀x. ∃y. R(x, y) ∧ P(y) → ⊥", "~P ∨ Q"]:
        reasons |= assert_parsers_agree(text)
    assert {"equality", "function", "relation", "'c1'", "quantified",
            "expected"} <= reasons, reasons
