"""Nesting depths the package must handle.

``craig/__init__.py`` raises the recursion limit at import because the
parser, ``to_nnf``, ``print_formula``, ``simplify`` and formula hashing
recurse once or twice per nesting level.  Each case below fails at the
default limit of 1,000, so these tests pin what the raise buys; a change
that makes those walkers iterative and deletes the raise must keep them
passing.
"""

from __future__ import annotations

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
