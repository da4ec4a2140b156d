"""How a ∀ step builds its instance and its records, against the old code.

``compile_substitution`` emits one specialised instruction per rebuilt node
(an atom with one rebuilt argument and an ∧/∨ with one or two adjacent
rebuilt items are precomputed tuple splices), and ``Substitution.run`` sets
every field through the slots' own setters.  ``LabeledSentence`` sets its
fields the same way in a hand-written ``__init__``; ``ForallRule`` is
generated by ``frozen_record``, which also makes every record refuse a
write of a name that is not a field.  ``propagate`` reads the root's
constants off the input check's sides, and those of every node below the
root off its rule.  The reference copies below are the
previous code, kept verbatim: one general instruction per node kind with
fields set by ``object.__setattr__``, the dataclass-generated ``__init__``s
with a ``__post_init__`` label check, and a ``propagate`` that walks every
root, ∃ and ∀ sentence with ``signature_of``.

The inputs are every ∃ and ∀ node of the Pelletier problems, the chains and
``corpus(42, 500)``, on the surface and in NNF, and the closed tableaux of
the Pelletier problems and chains at budget 1,500 and of ``corpus(42, 500)``.

A proof shares one table of literals among its ∀ and ∃ instances
(``Substitution.run(consts, table)``).  Every run the prover makes on those
problems is checked against a run without the table: the same formula and
hash, the compiled formula's own kept subtrees, and one object per rebuilt
literal within the proof.
"""

from __future__ import annotations

import copy
import dataclasses
import pathlib
import pickle
from dataclasses import FrozenInstanceError, dataclass

import pytest

from craig import interpolation
from craig.corpus import corpus
from craig.errors import FormulaError, OpenTableauError
from craig.formulas import (
    BOTTOM, TOP, And, Atom, Const, Exists, Forall, Not, Or, Substitution, Top,
    Var, compile_substitution, signature_of, to_nnf, walk,
)
from craig.interpolation import (
    AnnotatedTableau, _leaf_interpolant, _quantifier_case, propagate,
)
from craig.parser import parse, parse_problem
from craig.tableau import (
    Closed, ClosedTableau, Closure, Conj, Disj, ExistsRule, ForallRule,
    LabeledSentence, Root, labeled, prove,
)

from test_tableau_golden import chain_problem

PELLETIER = pathlib.Path(__file__).parent.parent / "bench" / "pelletier"
BUDGET = 1_500


# ---------------------------------------------------------------- reference copies

_set = object.__setattr__
_new = object.__new__


class ReferenceSubstitution:
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
        for kind, x, y in code:  # kind is the class of the node to rebuild
            node = _new(kind)
            if kind is Atom:
                args = list(x.args)
                for i, k in y:
                    args[i] = consts[k]
                args = tuple(args)
                _set(node, "rel", x.rel)
                _set(node, "args", args)
                _set(node, "_h", hash((x.rel, args)))
            elif kind is Not:
                sub = pop()
                _set(node, "sub", sub)
                _set(node, "_h", hash((sub,)))
            elif kind is And or kind is Or:
                items = list(x)
                for i in reversed(y):
                    items[i] = pop()
                items = tuple(items)
                _set(node, "items", items)
                _set(node, "_h", hash((items,)))
            else:
                body = pop()
                _set(node, "vars", x)
                _set(node, "body", body)
                _set(node, "_h", hash((x, body)))
            push(node)
        return stack[0]


def reference_compile_substitution(phi, names) -> ReferenceSubstitution:
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
            if slots:
                code.append((Atom, f, slots))
            rebuilt.append(bool(slots))
        elif kind is Top:
            rebuilt.append(False)
        elif ready:
            if kind is And or kind is Or:
                n = len(f.items)
                positions = ()
                for i, hit in enumerate(rebuilt[-n:]):
                    if hit:
                        positions += (i,)
                del rebuilt[-n:]
                if positions:
                    code.append((kind, f.items, positions))
                rebuilt.append(bool(positions))
            elif rebuilt[-1]:  # Not or a quantifier: its one child was rebuilt
                code.append((kind, None, None) if kind is Not else (kind, f.vars, None))
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
    return ReferenceSubstitution(phi, tuple(index), tuple(code))


class old:
    """The records as the dataclass decorator generated them."""

    @dataclass(frozen=True, slots=True)
    class LabeledSentence:
        formula: object
        label: str  # "L" or "R"

        def __post_init__(self):
            if self.label not in ("L", "R"):
                raise FormulaError(f"label must be L or R, got {self.label!r}")

    @dataclass(frozen=True, slots=True)
    class ForallRule:
        premise: LabeledSentence
        constant: str


def reference_propagate(tableau: ClosedTableau) -> AnnotatedTableau:
    interpolants: dict = {}
    consts: dict = {}
    order: list = []
    stack = [(tableau.root, frozenset(), frozenset())]
    while stack:
        node, l_consts, r_consts = stack.pop()
        if isinstance(node.rule, (Root, ExistsRule, ForallRule)):
            for ls in node.introduced:
                names = signature_of(ls.formula).constants
                if ls.label == "L":
                    l_consts = l_consts.union(names)
                else:
                    r_consts = r_consts.union(names)
        consts[node.id] = (l_consts, r_consts)
        order.append(node)
        stack.extend((ch, l_consts, r_consts) for ch in node.children)

    for node in reversed(order):
        if not node.children:
            if not isinstance(node.rule, Closure):
                raise OpenTableauError("tableau has an open branch; cannot propagate")
            theta = _leaf_interpolant(node.rule.evidence)
        elif len(node.children) == 1:
            child = node.children[0]
            theta = interpolants[child.id]
            if isinstance(child.rule, ForallRule):
                l_consts, r_consts = consts[node.id]
                theta = _quantifier_case(theta, child.rule.constant, l_consts, r_consts)
            elif not isinstance(child.rule, (Conj, ExistsRule, Closure)):
                raise FormulaError(f"unexpected single-child rule {child.rule!r}")
        else:
            thetas = []
            premise = None
            for child in node.children:
                if not isinstance(child.rule, Disj):
                    raise FormulaError(f"unexpected branching rule {child.rule!r}")
                premise = child.rule.premise
                thetas.append(interpolants[child.id])
            theta = Or(tuple(thetas)) if premise.label == "L" else And(tuple(thetas))
        interpolants[node.id] = theta
    return AnnotatedTableau(tableau, interpolants)


# ---------------------------------------------------------------- inputs

def problems() -> list:
    """(left sentences, right sentences) of every Pelletier problem and chain."""
    texts = [p.read_text(encoding="utf-8") for p in sorted(PELLETIER.glob("p*.fol"))]
    texts += [chain_problem(n) for n in (10, 50, 200)]
    return [(pf.left, pf.right) for pf in map(parse_problem, texts)]


@pytest.fixture(scope="module")
def sentences() -> list:
    out = [s for left, right in problems() for s in (*left, *right)]
    for inst in corpus(42, 500):
        out += [inst.phi, inst.psi, Not(inst.psi)]
    return out + [to_nnf(s) for s in out]


def closed_tableaux():
    pairs = [(left, [Not(r) for r in right]) for left, right in problems()]
    outcomes = [prove(labeled(left, right), BUDGET) for left, right in pairs]
    outcomes += [prove(labeled([inst.phi], [Not(inst.psi)]), BUDGET)
                 for inst in corpus(42, 500)]
    return [o.tableau for o in outcomes if isinstance(o, Closed)]


# ---------------------------------------------------------------- substitution

def assert_runs_agree(phi, names):
    program = compile_substitution(phi, names)
    reference = reference_compile_substitution(phi, names)
    assert program.vars == reference.vars
    n = len(program.vars)
    for consts in (tuple(map(Const, ("k0", "k1", "k2")[:n])), (Const("a"),) * n):
        out, expected = program.run(consts), reference.run(consts)
        assert out == expected and hash(out) == hash(expected), (phi, names)
        # the same nodes rebuilt, each hashing and comparing as the
        # reference's; every other subtree is phi's own object
        for old, new, ref in zip(walk(phi), walk(out), walk(expected)):
            assert (new is old) == (ref is old), (phi, old)
            assert type(new) is type(ref) and hash(new) == hash(ref) and new == ref
            assert new.__class__.__slots__ == ref.__class__.__slots__
            if new is not old:  # no NNF memo on a rebuilt node
                assert not hasattr(new, "_nnf_form")
    return program


def test_substitution_matches_the_reference_on_every_quantifier(sentences):
    ops = set()
    blocks = 0
    for s in sentences:
        for f in walk(s):
            if type(f) is Exists or type(f) is Forall:
                blocks += 1
                # the ∀ rule peels one variable; the ∃ rule instantiates the block
                for names in {f.vars[:1], f.vars}:
                    ops.update(ins[0] for ins in assert_runs_agree(f.body, names).code)
    assert blocks > 4_000
    assert len(ops) == 7  # every instruction kind ran


@pytest.mark.parametrize("text, names", [
    ("R(x, y, x) & R(y, x, c)", ("x",)),               # two slots in one atom
    ("R(x, y, x) & R(y, x, c)", ("x", "y")),
    ("P(x) | Q(c) | P(x)", ("x",)),                     # two items, not adjacent
    ("Q(c) | P(x) | P(x) | Q(c)", ("x",)),              # two adjacent, between others
    ("P(x) & P(y) & Q(c) & P(x)", ("x", "y")),          # three items
    ("!!(P(x) & exists x. P(x))", ("x",)),              # rebound below
    ("forall y. R(x, y) | exists z. R(z, x)", ("x",)),
    ("true & P(c)", ("x",)),                             # nothing to rebuild
])
def test_substitution_matches_the_reference_on_each_instruction(text, names):
    assert_runs_agree(parse(text), names)


# ---------------------------------------------------------------- records

def record_pairs(sentences) -> list:
    """(record, reference record, its fields, other fields) for labeled
    sentences and ∀ rules."""
    out = []
    for s in sentences[:200]:
        for label, other in (("L", "R"), ("R", "L")):
            out.append((LabeledSentence(s, label), old.LabeledSentence(s, label),
                        (s, label), (s, other)))
            premise = LabeledSentence(Forall(("x",), s), label)
            out.append((ForallRule(premise, "c0"), old.ForallRule(premise, "c0"),
                        (premise, "c0"), (premise, "c1")))
    return out


def values(record) -> tuple:
    return tuple(getattr(record, f.name) for f in dataclasses.fields(record))


def outcome(fn):
    try:
        return "ok", fn()
    except Exception as e:
        return type(e), str(e)


def test_records_keep_the_dataclass_behaviour(sentences):
    for new, ref, fields, other in record_pairs(sentences):
        cls = type(new)
        names = [f.name for f in dataclasses.fields(ref)]
        assert [f.name for f in dataclasses.fields(new)] == names
        assert cls.__match_args__ == type(ref).__match_args__ == tuple(names)
        assert cls.__slots__ == type(ref).__slots__
        assert values(new) == values(ref) == fields
        assert hash(new) == hash(ref) == hash(fields)
        assert repr(new) == repr(ref).replace("old.", "", 1)
        keywords = cls(**dict(zip(names, fields)))
        assert keywords == new and hash(keywords) == hash(new) and keywords is not new
        assert new != ref  # == is per class, as the generated one
        assert new != cls(*other) and ref != type(ref)(*other)
        for attempt in (lambda: setattr(new, names[0], TOP), lambda: delattr(new, names[1]),
                        lambda: setattr(new, "extra", TOP), lambda: delattr(new, "extra")):
            with pytest.raises(FrozenInstanceError):
                attempt()
        assert values(new) == fields
        assert copy.copy(new) == new and copy.deepcopy(new) == new
        round_trip = outcome(lambda: pickle.loads(pickle.dumps(new)))
        assert round_trip[0] is outcome(lambda: pickle.loads(pickle.dumps(ref)))[0]
        if round_trip[0] == "ok":
            assert round_trip[1] == new and hash(round_trip[1]) == hash(new)


@pytest.mark.parametrize("label", ["", "l", "LR", None, 0, ("L",)])
def test_labeled_sentence_rejects_a_bad_label_as_before(label):
    new = outcome(lambda: LabeledSentence(TOP, label))
    assert new == outcome(lambda: old.LabeledSentence(TOP, label))
    assert new == (FormulaError, f"label must be L or R, got {label!r}")
    assert outcome(lambda: LabeledSentence(formula=BOTTOM, label=label)) == new


@pytest.mark.parametrize("make", [
    lambda cls: cls(TOP), lambda cls: cls(TOP, "L", "R"), lambda cls: cls(formula=TOP),
    lambda cls: cls(TOP, label="L", formula=TOP), lambda cls: cls(TOP, lable="L"),
])
def test_labeled_sentence_rejects_bad_arguments_as_before(make):
    assert outcome(lambda: make(LabeledSentence))[0] is TypeError
    assert outcome(lambda: make(old.LabeledSentence))[0] is TypeError


# ---------------------------------------------------------------- propagate

def assert_propagation_agrees(t):
    new, ref = propagate(t), reference_propagate(t)
    assert new.interpolants.keys() == ref.interpolants.keys()
    for node_id, theta in ref.interpolants.items():
        assert new.interpolants[node_id] == theta, node_id


def test_propagate_matches_the_reference_node_by_node(monkeypatch):
    tableaux = closed_tableaux()
    assert len(tableaux) > 450
    calls = []
    counted = interpolation.signature_of

    def counting(*phis):
        calls.append(phis)
        return counted(*phis)

    for t in tableaux:
        monkeypatch.setattr(interpolation, "signature_of", counting)
        del calls[:]
        new = propagate(t)
        assert not calls  # the root's constants are the input check's sides
        monkeypatch.undo()
        assert new.interpolants == reference_propagate(t).interpolants
        assert_propagation_agrees(t)


def test_propagate_skips_the_constant_of_a_vacuous_instance():
    # the vacuous R-labeled ∀ is instantiated with c, which occurs only on
    # the left: c must not join the right's constants there, or the later
    # R-labeled instance with c would keep c, not quantify it away (its
    # instance with b is T(b) again, so it makes no node)
    phi = parse("P(c) & forall x. !P(x) | Q(x)")
    psi = parse("(forall z. T(b)) -> exists x. Q(x)")
    t = prove(labeled([phi], [Not(psi)]), 100).tableau
    vacuous = [n for n in walk_nodes(t) if isinstance(n.rule, ForallRule)
               and n.introduced[0].formula == n.rule.premise.formula.body]
    assert [(n.rule.constant, n.rule.premise.label) for n in vacuous] == [("c", "R")]
    assert_propagation_agrees(t)
    theta = propagate(t).root_interpolant()
    assert "c" not in signature_of(theta).constants
    assert interpolation.verify_interpolant(phi, psi, theta, 1_000)


def test_propagate_reads_a_block_instance_by_its_body():
    # peeling z off ∀z w leaves a ∀ over w, which differs from the premise's
    # body however the step went: the instance's body decides, and T(b)
    # does not use c
    phi = parse("P(c) & forall x. !P(x) | Q(x)")
    psi = parse("(forall z w. T(b)) -> exists x. Q(x)")
    t = prove(labeled([phi], [Not(psi)]), 100).tableau
    blocks = [n for n in walk_nodes(t) if isinstance(n.rule, ForallRule)
              and len(n.rule.premise.formula.vars) > 1]
    assert [(n.rule.constant, n.introduced[0].formula) for n in blocks] == \
        [("c", parse("forall w. T(b)"))]
    assert_propagation_agrees(t)
    theta = propagate(t).root_interpolant()
    assert "c" not in signature_of(theta).constants


def walk_nodes(t) -> list:
    out, stack = [], [t.root]
    while stack:
        n = stack.pop()
        out.append(n)
        stack.extend(reversed(n.children))
    return out


# ---------------------------------------------------------------- literal table

def is_literal(f) -> bool:
    return type(f) is Atom or (type(f) is Not and type(f.sub) is Atom)


def table_runs(monkeypatch, inputs) -> list:
    """(program, consts, instance, table) of every run the proof of inputs
    made with its literal table, in order."""
    runs = []
    run = Substitution.run

    def recorded(self, consts, table=None):
        out = run(self, consts, table)
        if table is not None:
            runs.append((self, consts, out, table))
        return out

    monkeypatch.setattr(Substitution, "run", recorded)
    prove(inputs, BUDGET)
    monkeypatch.undo()
    return runs


def assert_table_runs_agree(runs) -> int:
    """Check one proof's runs against runs without the table; returns the
    number of rebuilt literals."""
    one = {}  # literal -> the one object of it in this proof
    literals = 0
    for program, consts, out, table in runs:
        plain = program.run(consts)
        assert out == plain and hash(out) == hash(plain), program.formula
        for old, new, ref in zip(walk(program.formula), walk(out), walk(plain)):
            # a kept subtree is the compiled formula's own object; only a
            # rebuilt node may come from the table
            assert (new is old) == (ref is old), (program.formula, old)
            assert type(new) is type(ref) and hash(new) == hash(ref) and new == ref
            if new is not old and is_literal(new):
                literals += 1
                assert table[hash(new)] is new
                assert one.setdefault(new, new) is new, new
    if runs:  # the table holds literals only, each under its hash
        assert all(is_literal(v) and k == hash(v) for k, v in runs[-1][3].items())
    return literals


def test_the_literal_table_changes_no_instance(monkeypatch):
    # every ∀ and ∃ program run while proving Pelletier 1-46, the chains and
    # corpus(42, 500): the instance equals the one built without the table,
    # with the same hash; kept subtrees are the compiled formula's own
    # objects; and within one proof, equal rebuilt literals are one object
    inputs = [labeled(left, [Not(r) for r in right]) for left, right in problems()]
    inputs += [labeled([inst.phi], [Not(inst.psi)]) for inst in corpus(42, 500)]
    runs = literals = reused = 0
    for one_input in inputs:
        proof_runs = table_runs(monkeypatch, one_input)
        assert len({id(table) for *_, table in proof_runs}) <= 1  # one table per proof
        runs += len(proof_runs)
        found = assert_table_runs_agree(proof_runs)
        literals += found
        if proof_runs:
            reused += found - len(proof_runs[-1][3])
    assert runs > 10_000 and literals > 40_000
    assert 2 * reused > literals  # most rebuilt literals came from the table


def test_the_literal_table_checks_what_it_finds_under_a_hash():
    # a node the table holds under the hash of another literal (two literals
    # whose hashes collide) is not reused, and the new one takes its place
    x = Var("x")
    phi = Or((Atom("P", (x,)), Not(Atom("P", (x,))), Atom("Q", (x, x))))
    program = compile_substitution(phi, ("x",))
    a = (Const("a"),)
    atom, negation = parse("P(a)"), parse("!P(a)")
    table = {hash(atom): parse("P(b)"), hash(negation): parse("!P(b)")}
    out = program.run(a, table)
    assert out == program.run(a) == parse("P(a) | !P(a) | Q(a, a)")
    first, second, _ = out.items
    assert table[hash(atom)] is first and table[hash(negation)] is second
    assert second.sub is first
    # a negation is reused only over the very atom the run took: an equal
    # negation over another object is replaced
    stale = table[hash(negation)] = Not(atom)
    again = program.run(a, table)
    assert again.items[0] is first and again.items[1] is not stale
    assert again.items[1].sub is first and table[hash(negation)] is again.items[1]
    # with the table full, a run builds no literal
    assert all(f is g for f, g in zip(program.run(a, table).items, again.items))
