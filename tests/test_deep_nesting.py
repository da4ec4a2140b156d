"""Nesting depths the package must handle.

``craig/__init__.py`` raises the recursion limit at import because the
parser recurses once per ``!``, twice per parenthesis and three times per
quantifier (a ``->`` chain once per arrow), ``to_nnf`` once per
∧/∨/∃/∀ level, and ``==`` between two distinct, equal deep trees once per
∧/∨/∃/∀ level: two frames per ∃/∀ level (a comparison and the node class's
own ``__eq__``) and three per ∧/∨ level (the tuple comparison between).
Each case below that runs in this process fails at the default limit of
1,000, so these tests pin what the raise buys; a change that makes those
walkers iterative and deletes the raise must keep them passing.  Hashing
does not recurse (every formula node computes its hash once, at
construction), ``to_nnf`` does not recurse on a chain of negations (it flips
a polarity instead), nor does ``==`` on two of them (``Not``'s ``__eq__``
loops down both), and neither compiling a substitution nor running it
recurses (both are flat loops over an explicit stack), nor do
``signature_of`` and ``is_nnf`` (``is_nnf`` reads the memo ``to_nnf`` leaves
on a node, or else walks an explicit stack), nor ``print_formula``,
``simplify``, ``canonical_rename`` and ``bind_patt`` (folds over an explicit
stack), nor ``classify`` but for its one ``to_nnf``; the subprocess cases
pin these at the default limit.
``evaluate`` and ``models._compile`` recurse once per level too, but no
case here pins them.  The parser's own depths at the default limit are
pinned in a subprocess too: about 490 parentheses or 330 quantifiers fit.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

from craig.cli import main
from craig.formulas import Atom, Const, Not, conj, signature_of
from craig.interpolation import craig_interpolant
from craig.parser import parse, parse_problem, print_formula

from test_tableau_golden import chain_problem

P_A = Atom("P", (Const("a"),))


def test_prove_under_ten_thousand_negations(tmp_path, capsys):
    problem = tmp_path / "deep.fol"
    problem.write_text("[left]\n" + "!" * 10_000 + "P(a)\n[right]\n!P(a)\n")
    assert main(["prove", str(problem)]) == 0
    assert capsys.readouterr().out == "closed: 1 branches, 1 rule applications\n"


def test_interpolant_of_the_500_chain():
    # craig_interpolant verifies what it returns; P499 is the only shared relation
    problem = parse_problem(chain_problem(500))
    theta = craig_interpolant(conj(problem.left), problem.right[0], 10_000)
    assert signature_of(theta).relations <= {"P499"}


def test_print_parse_round_trip_of_5000_negations():
    f = P_A
    for _ in range(5_000):
        f = Not(f)
    assert parse(print_formula(f)) == f


def test_parse_inside_1000_parentheses():
    assert parse("(" * 1_000 + "P(a)" + ")" * 1_000) == P_A


def _run_at_the_default_limit(code: str) -> None:
    # the limit is lowered after the import, which raises it
    code = "import sys\nimport craig\nsys.setrecursionlimit(1000)\n" + code
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


def test_hashing_does_not_recurse_at_the_default_limit():
    _run_at_the_default_limit("""
from craig.formulas import And, Atom, Const, Not
p = Atom("P", (Const("a"),))
q = Atom("Q", (Const("b"),))
negations, conjunctions = p, p
for _ in range(50_000):
    negations = Not(negations)
    conjunctions = And((q, conjunctions))
for f in (negations, conjunctions):
    assert hash(f) == hash(f) and f in {f} and f in {q, f}
print("ok")
""")


def test_nnf_of_a_negation_chain_does_not_recurse_at_the_default_limit():
    _run_at_the_default_limit("""
from craig.formulas import Atom, Const, Not, to_nnf
p = Atom("P", (Const("a"),))
f = p
for _ in range(50_000):
    f = Not(f)
assert to_nnf(f) == p
assert to_nnf(Not(f)) == Not(p)
print("ok")
""")


def test_compiled_substitution_does_not_recurse_at_the_default_limit():
    _run_at_the_default_limit("""
from craig.formulas import And, Atom, Const, Forall, Var, compile_substitution
x, q = Atom("P", (Var("x"),)), Atom("Q", (Const("b"),))
body = x
for _ in range(50_000):
    body = And((q, body))
f = Forall(("x",), body)
program = compile_substitution(f.body, f.vars)
assert program.vars == ("x",)
g = program.run((Const("a"),))
depth = 0
while type(g) is And:
    assert g.items[0] is q
    g, depth = g.items[1], depth + 1
assert (depth, g) == (50_000, Atom("P", (Const("a"),)))
print("ok")
""")


def test_signature_of_a_negation_chain_does_not_recurse_at_the_default_limit():
    _run_at_the_default_limit("""
from craig.formulas import Atom, Const, Not, signature_of
f = Atom("P", (Const("a"),))
for _ in range(50_000):
    f = Not(f)
r = signature_of(f, Not(f))
assert (r.relsig_pos, r.relsig_neg, list(r.constants)) == ({"P"}, {"P"}, ["a"])
print("ok")
""")


def test_is_nnf_of_a_deep_conjunction_does_not_recurse_at_the_default_limit():
    # built by constructors, the chain has no memo: is_nnf walks it; after
    # to_nnf (which recurses per ∧ level, so it runs in a thread with a large
    # stack under a raised limit) is_nnf reads the memo
    _run_at_the_default_limit("""
import threading
from craig.formulas import And, Atom, Const, Not, is_nnf, to_nnf
p, not_q = Atom("P", (Const("a"),)), Not(Atom("Q", (Const("b"),)))
f = g = p
for _ in range(50_000):
    f, g = And((not_q, f)), And((Not(Not(not_q)), g))
assert is_nnf(f) and not is_nnf(g)
sys.setrecursionlimit(120_000)
threading.stack_size(256 << 20)
worker = threading.Thread(target=lambda: [to_nnf(f), to_nnf(g)])
worker.start()
worker.join()
sys.setrecursionlimit(1000)
assert is_nnf(f) and to_nnf(f) is f
h = to_nnf(g)
assert not is_nnf(g) and is_nnf(h) and to_nnf(h) is h and hash(h) == hash(f)
depth = 0
while type(h) is And:
    assert h.items[0] is not_q
    h, depth = h.items[1], depth + 1
assert (depth, h) == (50_000, p)
print("ok")
""")


def test_printing_and_simplifying_a_negation_chain_do_not_recurse_at_the_default_limit():
    _run_at_the_default_limit("""
from craig.formulas import Atom, Const, Not, simplify
from craig.parser import print_formula
p = Atom("P", (Const("a"),))
f = p
for _ in range(5_000):
    f = Not(f)
assert print_formula(f) == "!" * 5_000 + "P(a)"
assert simplify(f) == p and simplify(Not(f)) == Not(p)
print("ok")
""")


def test_bind_patt_and_classify_of_a_negation_chain_do_not_recurse_at_the_default_limit():
    _run_at_the_default_limit("""
from craig.access import AccessMethod, bind_patt
from craig.formulas import Atom, Const, Not
from craig.fragments import classify
f = Atom("P", (Const("a"),))
for _ in range(5_000):
    f = Not(f)
result = bind_patt(f)
assert result.defined and result.methods == {AccessMethod("P", frozenset({1}))}
assert all(classify(f).flags().values())
print("ok")
""")


def test_equality_of_50000_deep_negation_chains_does_not_recurse_at_the_default_limit():
    # two distinct, equal chains: Not's == loops down both in one frame
    _run_at_the_default_limit("""
from craig.formulas import Atom, Const, Not
def chain(depth):
    f = Atom("P", (Const("a"),))
    for _ in range(depth):
        f = Not(f)
    return f
f, g = chain(50_000), chain(50_000)
assert f is not g and f == g and not (f != g) and f != chain(49_999)
print("ok")
""")


def test_folds_over_a_deep_quantifier_nest_do_not_recurse_at_the_default_limit():
    # texts are compared, not trees: == of two distinct deep trees recurses.
    # simplify and canonical_rename carry free variables up their folds, so
    # this case costs time linear in the depth
    _run_at_the_default_limit("""
from craig.formulas import And, Atom, Const, Exists, Var, simplify
from craig.fragments import canonical_rename
from craig.parser import print_formula

def nest(x, depth):
    # exists x. (... & Q(x)), 'depth' quantifiers deep, and its text
    f, text, q = Atom("Q", (Const("a"),)), "Q(a)", Atom("Q", (Var(x),))
    for i in range(depth):
        f = Exists((x,), And((f, q)))
        text = f"exists {x}. {text if i == 0 else '(' + text + ')'} & Q({x})"
    return f, text

f, text = nest("x", 3_000)
assert print_formula(f) == text
assert print_formula(simplify(f)) == text
assert print_formula(canonical_rename(f)) == nest("v0", 3_000)[1]
print("ok")
""")


def test_parse_inside_400_parentheses_at_the_default_limit():
    # two frames a level (unary, then parse_formula); the descent with one
    # method per precedence level took six and stopped at 163 levels
    _run_at_the_default_limit("""
from craig.formulas import Atom, Const
from craig.parser import parse
assert parse("(" * 400 + "P(a)" + ")" * 400) == Atom("P", (Const("a"),))
print("ok")
""")


def test_parse_under_300_nested_quantifiers_at_the_default_limit():
    # three frames a level (unary, quantified, parse_formula)
    _run_at_the_default_limit("""
from craig.formulas import Atom, Forall, Var
from craig.parser import parse
names = [f"x{i}" for i in range(300)]
f = Atom("P", (Var("x0"),))
for name in reversed(names):
    f = Forall((name,), f)
assert parse("".join(f"forall {name}. " for name in names) + "P(x0)") == f
print("ok")
""")
