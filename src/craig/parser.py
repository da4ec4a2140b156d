"""Concrete grammar, parser and pretty-printer for formulas and problem files.

Precedence, loosest to tightest: ``->``  <  ``|``  <  ``&``  <  ``!``;
quantifiers extend maximally to the right.  ASCII keywords are
``forall exists & | ! -> true false``; the usual Unicode glyphs are accepted
as aliases.  Identifiers bound by an enclosing quantifier parse as variables,
unbound lowercase identifiers as constants, capitalized identifiers as
relation symbols.  ``a -> b`` desugars to ``!(a & !b)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError
from .formulas import (
    TOP, BOTTOM, And, Atom, Const, Exists, Forall, Not, Or, Top, Var,
    RESERVED_CONSTANT, free_vars,
)

_TOKEN = re.compile(
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


def _tokenize(text: str) -> list:
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
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


class _Parser:
    """Recursive-descent parser over one arity registry.

    A registry shared across calls keeps relation arities consistent within a
    problem file.
    """

    def __init__(self, toks: list, arities: dict):
        self.toks = toks
        self.i = 0
        self.arities = arities

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.text!r}", t.line, t.col)
        return self.next()

    def error(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def parse_formula(self, bound: frozenset):
        return self.implication(bound)

    def implication(self, bound):
        left = self.disjunction(bound)
        if self.peek().kind == "arrow":
            self.next()
            right = self.implication(bound)
            return Not(And((left, Not(right))))
        return left

    def disjunction(self, bound):
        items = [self.conjunction(bound)]
        while self.peek().kind == "or":
            self.next()
            items.append(self.conjunction(bound))
        return items[0] if len(items) == 1 else Or(tuple(items))

    def conjunction(self, bound):
        items = [self.unary(bound)]
        while self.peek().kind == "and":
            self.next()
            items.append(self.unary(bound))
        return items[0] if len(items) == 1 else And(tuple(items))

    def unary(self, bound):
        t = self.peek()
        if t.kind == "not":
            self.next()
            return Not(self.unary(bound))
        if t.kind in ("forall", "exists"):
            return self.quantified(bound)
        return self.primary(bound)

    def quantified(self, bound):
        q = self.next()
        names = []
        while self.peek().kind == "ident":
            tok = self.next()
            name = tok.text
            if name[0].isupper():
                raise ParseError(f"quantified variable {name!r} must be lowercase",
                                 tok.line, tok.col)
            if RESERVED_CONSTANT.match(name):
                raise ParseError(f"{name!r} is in the reserved fresh-constant namespace",
                                 tok.line, tok.col)
            if name in names:
                raise ParseError(f"duplicate variable {name!r} in quantifier block",
                                 tok.line, tok.col)
            names.append(name)
        if not names:
            self.error("quantifier needs at least one variable")
        self.expect("dot")
        body = self.parse_formula(bound | frozenset(names))
        cls = Forall if q.kind == "forall" else Exists
        return cls(tuple(names), body)

    def primary(self, bound):
        t = self.peek()
        if t.kind == "true":
            self.next()
            return TOP
        if t.kind == "false":
            self.next()
            return BOTTOM
        if t.kind == "lpar":
            self.next()
            f = self.parse_formula(bound)
            self.expect("rpar")
            return f
        if t.kind == "ident":
            return self.atom(bound)
        if t.kind == "eq":
            self.error("equality atoms are not supported")
        self.error(f"expected a formula, found {t.text!r}")

    def atom(self, bound):
        head = self.next()
        name = head.text
        if not name[0].isupper():
            if self.peek().kind == "lpar":
                raise ParseError(f"function symbols are not supported: {name!r}",
                                 head.line, head.col)
            if self.peek().kind == "eq":
                raise ParseError("equality atoms are not supported", head.line, head.col)
            raise ParseError(
                f"relation symbols are capitalized; {name!r} looks like a term",
                head.line, head.col)
        args = []
        if self.peek().kind == "lpar":
            self.next()
            if self.peek().kind != "rpar":
                args.append(self.term(bound))
                while self.peek().kind == "comma":
                    self.next()
                    args.append(self.term(bound))
            self.expect("rpar")
        if self.peek().kind == "eq":
            raise ParseError("equality atoms are not supported",
                             self.peek().line, self.peek().col)
        seen = self.arities.setdefault(name, len(args))
        if seen != len(args):
            raise ParseError(
                f"relation {name} used with arity {len(args)}, expected {seen}",
                head.line, head.col)
        return Atom(name, tuple(args))

    def term(self, bound):
        t = self.expect("ident")
        name = t.text
        if name[0].isupper():
            raise ParseError(f"relation symbol {name!r} used as a term", t.line, t.col)
        if self.peek().kind == "lpar":
            raise ParseError(f"function symbols are not supported: {name!r}",
                             t.line, t.col)
        if name in bound:
            return Var(name)
        if RESERVED_CONSTANT.match(name):
            raise ParseError(f"{name!r} is in the reserved fresh-constant namespace",
                             t.line, t.col)
        return Const(name)


def parse(text: str, arities: dict | None = None):
    """Parse a single formula."""
    toks = _tokenize(text)
    p = _Parser(toks, {} if arities is None else arities)
    f = p.parse_formula(frozenset())
    if p.peek().kind != "eof":
        p.error(f"trailing input {p.peek().text!r}")
    return f


_PREC = {"or": 1, "and": 2, "unary": 3}


def print_formula(phi) -> str:
    """Deterministic text form; ``parse(print_formula(phi))`` equals ``phi``."""
    return _print(phi, 0)


def _print(f, parent_prec: int) -> str:
    if isinstance(f, Top):
        return "true"
    if f == BOTTOM:
        return "false"
    if isinstance(f, Atom):
        if not f.args:
            return f.rel
        return f.rel + "(" + ", ".join(t.name for t in f.args) + ")"
    if isinstance(f, Not):
        return "!" + _print(f.sub, _PREC["unary"])
    if isinstance(f, And):
        s = " & ".join(_print(g, _PREC["and"]) for g in f.items)
        return f"({s})" if parent_prec >= _PREC["and"] else s
    if isinstance(f, Or):
        s = " | ".join(_print(g, _PREC["or"]) for g in f.items)
        return f"({s})" if parent_prec >= _PREC["or"] else s
    if isinstance(f, (Exists, Forall)):
        kw = "exists" if isinstance(f, Exists) else "forall"
        s = f"{kw} {' '.join(f.vars)}. {_print(f.body, 0)}"
        # a quantifier swallows everything right of the dot, so any enclosing
        # operator needs it parenthesized
        return f"({s})" if parent_prec > 0 else s
    raise ParseError(f"cannot print {f!r}")


@dataclass
class ProblemFile:
    """Sections of a .fol problem file."""

    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    theory: list = field(default_factory=list)
    options: dict = field(default_factory=dict)
    arities: dict = field(default_factory=dict)


_SECTION = re.compile(r"^\[(left|right|theory|options)\]\s*$")


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file: '#' comments, one sentence per line, sections
    [left] [right] [theory] [options].  Sentences before any header go to
    [left]."""
    pf = ProblemFile()
    section = "left"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _SECTION.match(line)
        if m:
            section = m.group(1)
            continue
        if section == "options":
            if "=" not in line:
                raise ParseError("options are key=value lines", lineno, 1)
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in ("budget", "max-model-size"):
                raise ParseError(f"unknown option {key!r}", lineno, 1)
            pf.options[key] = val
            continue
        try:
            f = parse(line, pf.arities)
        except ParseError as e:
            raise ParseError(f"line {lineno}: {e}") from e
        if free_vars(f):
            raise ParseError(
                f"line {lineno}: free variables {sorted(free_vars(f))} (sentences required)")
        getattr(pf, section).append(f)
    return pf
