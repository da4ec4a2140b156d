"""Prover golden: every outcome the tableau reaches on a fixed set of runs.

``data/tableau-golden.json`` was recorded from the prover that copied the
whole branch state at every split, before it moved to one mutable state with
an undo trail.  The runs are Pelletier 1-46 (``bench/pelletier``), the
chains of length 10 and 50, and ``corpus(7, 200)``, each at a ladder of small
budgets, with the goal and with the goal dropped (so that Satisfiable
outcomes reached after backtracking are covered).  Each run records:

- the outcome kind and its rule-application count (``budget_spent`` for
  Unknown);
- for Closed, the trace annotated with ``propagate``'s interpolants;
- for Satisfiable, the model as ``structure_to_json``, the branch's printed
  sentences with their labels in order, and its constants.

``repr(Structure)`` is not compared: its relation order follows the hash
seed.  A record shared by several runs (every Unknown at budget 1, a proof
that closes at the same size under each larger budget) is stored once, and
each run names its record by index.

Regenerate (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_tableau_golden.py``.
"""

from __future__ import annotations

import json
import pathlib

from craig.corpus import corpus
from craig.formulas import Not, to_nnf
from craig.interpolation import propagate
from craig.models import structure_to_json
from craig.parser import parse_problem, print_formula
from craig.tableau import Closed, LabeledSentence, Satisfiable, prove, render_trace

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN = pathlib.Path(__file__).parent / "data" / "tableau-golden.json"
BUDGETS = (1, 2, 5, 13, 40, 100, 400)
CHAIN_LENGTHS = (10, 50)


def chain_problem(n: int) -> str:
    """P0(a) and P(i-1)(x) -> Pi(x) for i < n entail P(n-1)(a)."""
    lines = ["[left]", "P0(a)"]
    lines += [f"forall x. P{i - 1}(x) -> P{i}(x)" for i in range(1, n)]
    lines += ["[right]", f"P{n - 1}(a)"]
    return "\n".join(lines) + "\n"


def problems() -> list:
    """(name, premises, goal) for every problem of the golden."""
    out = []
    texts = [(f"P{int(p.stem[1:])}", p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "bench" / "pelletier").glob("p*.fol"))]
    texts += [(f"chain{n}", chain_problem(n)) for n in CHAIN_LENGTHS]
    for name, text in texts:
        pf = parse_problem(text)
        out.append((name, list(pf.left), pf.right[0]))
    out += [(f"corpus{inst.index}", [inst.phi], inst.psi) for inst in corpus(7, 200)]
    return out


def inputs_of(premises, goal) -> list:
    """{premises^L, nnf(¬goal)^R}, or the premises alone when goal is None."""
    out = [LabeledSentence(to_nnf(p), "L") for p in premises]
    if goal is not None:
        out.append(LabeledSentence(to_nnf(Not(goal)), "R"))
    return out


def outcome_record(outcome) -> list:
    kind = type(outcome).__name__
    if isinstance(outcome, Closed):
        tableau = outcome.tableau
        return [kind, tableau.rule_applications,
                render_trace(tableau, propagate(tableau).interpolants)]
    if isinstance(outcome, Satisfiable):
        branch = outcome.branch
        return [kind, structure_to_json(outcome.structure),
                [f"{print_formula(ls.formula)} ^{ls.label}" for ls in branch.sentences],
                list(branch.constants)]
    return [kind, outcome.budget_spent]


def record() -> dict:
    out = {}
    for name, premises, goal in problems():
        for variant, g in (("", goal), ("-nogoal", None)):
            inputs = inputs_of(premises, g)
            for budget in BUDGETS:
                out[f"{name}{variant}.b{budget}"] = outcome_record(prove(inputs, budget))
    return out


def compact(runs: dict) -> dict:
    """{"records": distinct records, "runs": run name -> record index}."""
    records: list = []
    index: dict = {}
    out = {}
    for key, rec in runs.items():
        text = json.dumps(rec)
        if text not in index:
            index[text] = len(records)
            records.append(rec)
        out[key] = index[text]
    return {"records": records, "runs": out}


def load_golden() -> dict:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {key: golden["records"][i] for key, i in golden["runs"].items()}


def test_prover_matches_golden():
    golden = load_golden()
    got = record()
    assert list(got) == list(golden)
    for key, want in golden.items():
        assert got[key] == want, key


def test_golden_covers_every_outcome_kind():
    kinds = {rec[0] for rec in load_golden().values()}
    assert kinds == {"Closed", "Satisfiable", "Unknown"}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compact(record()), indent=0, ensure_ascii=False) + "\n",
                      encoding="utf-8")
