"""Concrete grammar, parser and pretty-printer for formulas and problem files.

Precedence, loosest to tightest: ``->``  <  ``|``  <  ``&``  <  ``!``;
quantifiers extend maximally to the right.  ASCII keywords are
``forall exists & | ! -> true false``; the usual Unicode glyphs are accepted
as aliases.  Identifiers bound by an enclosing quantifier parse as variables,
unbound lowercase identifiers as constants, capitalized identifiers as
relation symbols.  ``a -> b`` desugars to ``!(a & !b)``.

The tokenizer is one ``findall`` scan whose alternatives tile the text; a
lexeme's kind is a dict lookup, or else its first character decides
(identifier, skipped blank or comment, unexpected character).  Tokens are
plain ``(kind, text, offset)`` tuples, and a line and column are computed
from the offset only when a ``ParseError`` is raised.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field

from .errors import ParseError
from .formulas import (
    TOP, BOTTOM, And, Atom, Const, Exists, Forall, Not, Or, Top, Var,
    RESERVED_CONSTANT, _fold, free_vars, implies,
)

# One scan tiles the text: every alternative consumes at least one character
# and the final ``.`` takes anything else.  The keywords come before the
# identifier so that ``forall-x`` and ``true'`` split where they always have.
_LEXEME = re.compile(
    r"[ \t\r]+|#[^\n]*|\n|->|(?:forall|exists|true|false)\b"
    r"|[A-Za-z_][A-Za-z0-9_']*(?:-[A-Za-z_][A-Za-z0-9_']*)*|.")

_KIND = {
    "->": "arrow", "→": "arrow", "&": "and", "∧": "and", "|": "or", "∨": "or",
    "!": "not", "¬": "not", "~": "not", "forall": "forall", "∀": "forall",
    "exists": "exists", "∃": "exists", "true": "true", "⊤": "true",
    "false": "false", "⊥": "false", "(": "lpar", ")": "rpar", ",": "comma",
    ".": "dot", "=": "eq",
}
_IDENT_START = frozenset(string.ascii_letters + "_")
_SKIPPED = frozenset(" \t\r\n#")


def _error(msg: str, text: str, pos: int) -> ParseError:
    """ParseError at offset pos, located by 1-based line and column."""
    return ParseError(msg, text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos))


def _tokenize(text: str) -> list:
    """(kind, text, offset) tokens, ending with an ``eof`` token."""
    toks = []
    pos = 0
    for lex in _LEXEME.findall(text):
        kind = _KIND.get(lex)
        if kind is None:
            first = lex[0]
            if first in _IDENT_START:
                kind = "ident"
            elif first in _SKIPPED:
                pos += len(lex)
                continue
            else:
                raise _error(f"unexpected character {first!r}", text, pos)
        toks.append((kind, lex, pos))
        pos += len(lex)
    toks.append(("eof", "", pos))
    return toks


class _Parser:
    """Recursive-descent parser over one arity registry.

    parse_formula reads one ``->`` level in a loop over ``&`` and ``|``, and
    recurses only for the right side of ``->``; unary reads everything
    tighter.  A ``!`` costs one frame (unary), a parenthesis two (unary and
    parse_formula) and a quantifier three (and quantified).  ``bound``
    counts, per name, the enclosing quantifiers that bind it: a block raises
    its names' counts before its body and lowers them after, so nested
    quantifiers cost linear time and memory.  A registry shared across calls
    keeps relation arities consistent within a problem file.
    """

    def __init__(self, text: str, arities: dict):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.arities = arities
        self.bound: dict = {}  # variable name -> number of blocks binding it here

    def expect(self, kind: str) -> tuple:
        tok = self.toks[self.i]
        if tok[0] != kind:
            self.error(f"expected {kind}, found {tok[1]!r}")
        self.i += 1
        return tok

    def error(self, msg: str, tok: tuple | None = None):
        """Raise msg at tok, by default at the next token."""
        raise _error(msg, self.text, (tok or self.toks[self.i])[2])

    def parse_formula(self):
        """``a -> b`` (right-associative) over ``|`` over ``&`` over unary."""
        toks, unary = self.toks, self.unary
        disjuncts = []
        items = [unary()]
        while True:
            kind = toks[self.i][0]
            if kind == "and":
                self.i += 1
                items.append(unary())
                continue
            disjuncts.append(items[0] if len(items) == 1 else And(tuple(items)))
            if kind != "or":
                break
            self.i += 1
            items = [unary()]
        f = disjuncts[0] if len(disjuncts) == 1 else Or(tuple(disjuncts))
        if kind == "arrow":
            self.i += 1
            return implies(f, self.parse_formula())
        return f

    def unary(self):
        # few locals and a shallow stack: a chain of ! holds one frame of
        # this per level, so its size is that chain's memory
        kind = self.toks[self.i][0]
        if kind == "ident":
            return self.atom()
        if kind == "not":
            self.i += 1
            return Not(self.unary())
        if kind == "lpar":
            self.i += 1
            return self.closed(self.parse_formula())
        if kind == "forall" or kind == "exists":
            return self.quantified(kind)
        if kind == "true" or kind == "false":
            self.i += 1
            return TOP if kind == "true" else BOTTOM
        if kind == "eq":
            self.error("equality atoms are not supported")
        self.error(f"expected a formula, found {self.toks[self.i][1]!r}")

    def closed(self, f):
        """f, once the ``)`` after it is read."""
        self.expect("rpar")
        return f

    def quantified(self, kind):
        toks, bound = self.toks, self.bound
        self.i += 1
        names = []
        while toks[self.i][0] == "ident":
            tok = toks[self.i]
            self.i += 1
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
        for name in names:
            bound[name] = bound.get(name, 0) + 1
        body = self.parse_formula()
        for name in names:
            bound[name] -= 1
        return (Forall if kind == "forall" else Exists)(tuple(names), body)

    def atom(self):
        toks = self.toks
        head = toks[self.i]
        self.i += 1
        name = head[1]
        kind = toks[self.i][0]
        if not name[0].isupper():
            if kind == "lpar":
                self.error(f"function symbols are not supported: {name!r}", head)
            if kind == "eq":
                self.error("equality atoms are not supported", head)
            self.error(f"relation symbols are capitalized; {name!r} looks like a term",
                       head)
        args = []
        if kind == "lpar":
            self.i += 1
            if toks[self.i][0] != "rpar":
                while True:
                    args.append(self.term())
                    if toks[self.i][0] != "comma":
                        break
                    self.i += 1
            self.expect("rpar")
            kind = toks[self.i][0]
        if kind == "eq":
            self.error("equality atoms are not supported")
        seen = self.arities.setdefault(name, len(args))
        if seen != len(args):
            self.error(f"relation {name} used with arity {len(args)}, expected {seen}",
                       head)
        return Atom(name, tuple(args))

    def term(self):
        t = self.expect("ident")
        name = t[1]
        if name[0].isupper():
            self.error(f"relation symbol {name!r} used as a term", t)
        if self.toks[self.i][0] == "lpar":
            self.error(f"function symbols are not supported: {name!r}", t)
        if self.bound.get(name):
            return Var(name)
        if RESERVED_CONSTANT.match(name):
            self.error(f"{name!r} is in the reserved fresh-constant namespace", t)
        return Const(name)


def parse(text: str, arities: dict | None = None):
    """Parse a single formula."""
    p = _Parser(text, {} if arities is None else arities)
    f = p.parse_formula()
    tok = p.toks[p.i]
    if tok[0] != "eof":
        p.error(f"trailing input {tok[1]!r}")
    return f


# the precedence each connective gives its children: print_formula's fold
# context (0 at the root)
_CHILD_PREC = {Not: 3, And: 2, Or: 1, Exists: 0, Forall: 0}


def print_formula(phi) -> str:
    """Deterministic text form; ``parse(print_formula(phi))`` equals ``phi``."""
    return _fold(phi, _print_node, lambda f, _prec: _CHILD_PREC[type(f)], 0)


def _print_node(f, parent_prec: int, kids) -> str:
    kind = type(f)
    if kind is Atom:
        return f.rel + "(" + ", ".join([t.name for t in f.args]) + ")" if f.args else f.rel
    if kind is Top:
        return "true"
    if kind is Not:
        return "false" if type(f.sub) is Top else "!" + kids
    if kind is And or kind is Or:
        s = (" & " if kind is And else " | ").join(kids)
        return f"({s})" if parent_prec >= _CHILD_PREC[kind] else s
    s = f"{'exists' if kind is Exists else 'forall'} {' '.join(f.vars)}. {kids}"
    # a quantifier swallows everything right of the dot, so any enclosing
    # operator needs it parenthesized
    return f"({s})" if parent_prec > 0 else s


@dataclass
class ProblemFile:
    """Sections of a .fol problem file."""

    left: list = field(default_factory=list)
    right: list = field(default_factory=list)
    theory: list = field(default_factory=list)
    options: dict = field(default_factory=dict)
    arities: dict = field(default_factory=dict)


_BLANK = " \t\r"  # the only blanks a problem-file line may start or end with
_SECTION = re.compile(r"^\[(left|right|theory|options)\]$")  # matched on a stripped line
# a number is ASCII digits only; int() would also take "1_0", "٣" and blanks
_NATURAL = re.compile(r"[0-9]+")


def parse_natural(text: str) -> int:
    """The number text writes in ASCII digits; anything else raises
    ParseError."""
    if _NATURAL.fullmatch(text) is None:
        raise ParseError(f"expected a number in ASCII digits, found {text!r}")
    return int(text)


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file: '#' comments, one sentence per line, sections
    [left] [right] [theory] [options].  Sentences before any header go to
    [left].  Lines end at ``\n`` only (a trailing ``\r`` is blank), so line
    numbers match the file's ``\n`` count, and a form feed or other
    ``str.splitlines`` boundary is an unexpected character, at a line's ends
    too: only spaces, tabs and ``\r`` are blank there.  An [options] value is
    a number in ASCII digits."""
    pf = ProblemFile()
    section = "left"
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0]
        line = body.strip(_BLANK)
        if not line:
            continue
        indent = len(body) - len(body.lstrip(_BLANK))
        m = _SECTION.match(line)
        if m:
            section = m.group(1)
            continue
        if section == "options":
            if "=" not in line:
                raise ParseError("options are key=value lines", lineno, indent + 1)
            key, rest = line.split("=", 1)
            key, val = key.strip(_BLANK), rest.strip(_BLANK)
            if key not in ("budget", "max-model-size"):
                raise ParseError(f"unknown option {key!r}", lineno, indent + 1)
            if _NATURAL.fullmatch(val) is None:
                column = indent + len(line) - len(rest.lstrip(_BLANK)) + 1
                raise ParseError(f"option {key} must be a number in ASCII digits, "
                                 f"found {val!r}", lineno, column)
            pf.options[key] = val
            continue
        try:
            f = parse(line, pf.arities)
        except ParseError as e:
            # e is located in the one-line text; report the file's line and
            # the column in the raw line
            raise ParseError(e.reason, lineno, indent + e.column) from e
        if free_vars(f):
            raise ParseError(
                f"free variables {sorted(free_vars(f))} (sentences required)", lineno)
        getattr(pf, section).append(f)
    return pf
