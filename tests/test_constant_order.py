"""Order golden: the order in which constants join a tableau branch.

A branch's constants are its inputs' constants in first-occurrence order,
then each ∃ instance's fresh constants in the order their variables first
occur in the instance body (not the order of the quantifier block).  The ∀
rule tries constants in that order, so it fixes node order, which constant a
∀ is instantiated with, and the Herbrand model of a saturated branch.

``data/constant-order-golden.json`` records, for ``data/exists-order.fol``,
one satisfiable hand-written set and generated sets whose ∃ blocks list
their variables in another order than their bodies use them, each at two
budgets, with the right side and without it: the outcome as
``test_tableau_golden.outcome_record`` has it (for Closed the trace annotated
with interpolants; for Satisfiable the model, the branch sentences and the
branch constants).

Regenerate (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_constant_order.py``.
"""

from __future__ import annotations

import json
import pathlib
import random

from craig.parser import parse, parse_problem
from craig.tableau import Satisfiable, labeled, prove

from test_tableau_golden import compact, outcome_record

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "constant-order-golden.json"
BUDGETS = (20, 400)
GENERATED = 24


def generated_problem(rng: random.Random) -> tuple:
    """(left, right) sentence texts around one multi-variable ∃ block whose
    body uses a shuffled (sometimes partial) subset of the block variables."""
    block = [f"x{j}" for j in range(rng.randint(2, 4))]
    used = rng.sample(block, len(block))
    if len(used) > 2 and rng.random() < 0.3:
        used.pop()  # a vacuous block variable mints no constant
    atoms = [f"R({a}, {b})" for a, b in zip(used, used[1:])]
    atoms += [f"P({v})" for v in used if rng.random() < 0.4]
    if rng.random() < 0.4:
        atoms.insert(rng.randrange(len(atoms) + 1), f"R(a, {used[-1]})")
    left = [f"exists {' '.join(block)}. {' & '.join(atoms)}"]
    if rng.random() < 0.5:
        left.append("forall z. Q(z) | !Q(z)")
    if rng.random() < 0.3:
        left.append("forall z. exists w. S(z, w)")
    right = [rng.choice(["forall z w. !R(z, w)", "forall z. !P(z)",
                         "forall z. !R(z, z) | !P(z)"])]
    return left, right


def problems() -> list:
    """(name, left, right) for every problem of the golden."""
    pf = parse_problem((DATA / "exists-order.fol").read_text(encoding="utf-8"))
    out = [("exists-order", list(pf.left), list(pf.right)),
           ("sat-pair", [parse("exists x y. R(y, x)"), parse("forall z. Q(z) | !Q(z)")], [])]
    rng = random.Random(8)
    for i in range(GENERATED):
        left, right = generated_problem(rng)
        out.append((f"gen{i}", [parse(s) for s in left], [parse(s) for s in right]))
    return out


def record() -> dict:
    out = {}
    for name, left, right in problems():
        for variant, r in (("", right), ("-noright", [])):
            if variant and not right:
                continue
            for budget in BUDGETS:
                out[f"{name}{variant}.b{budget}"] = outcome_record(
                    prove(labeled(left, r), budget))
    return out


def load_golden() -> dict:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {key: golden["records"][i] for key, i in golden["runs"].items()}


def test_constant_order_matches_golden():
    golden = load_golden()
    got = record()
    assert list(got) == list(golden)
    for key, want in golden.items():
        assert got[key] == want, key


def test_golden_covers_closed_and_satisfiable():
    kinds = {rec[0] for rec in load_golden().values()}
    assert {"Closed", "Satisfiable"} <= kinds


def test_occurrence_order_examples():
    """The two sets the golden starts from, spelled out."""
    golden = load_golden()
    trace = golden["exists-order.b400"][2]
    assert trace.index("[forall c1]") < trace.index("[forall c0]")
    assert golden["sat-pair.b400"][0] == "Satisfiable"
    assert golden["sat-pair.b400"][3] == ["c1", "c0"]
    outcome = prove(labeled([parse("exists x y. R(y, x)"),
                             parse("forall z. Q(z) | !Q(z)")], []), 400)
    assert isinstance(outcome, Satisfiable)
    assert outcome.branch.constants == ("c1", "c0")


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compact(record()), indent=0, ensure_ascii=False) + "\n",
                      encoding="utf-8")
