"""Old-vs-new differential golden.

``data/differential-golden.json`` was recorded from the implementation
before the formula helpers were merged into one traversal.  It holds, for
every instance of ``corpus(42, 500)``, the prover verdict on
{nnf(phi)^L, nnf(¬psi)^R}, its rule-application count and the printed Craig
interpolant, plus the annotated traces of two hand-written problems.  Any
change to the tableau, the propagation or the syntactic helpers they use
shows up here as a byte difference.

Regenerate (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_differential.py``.
"""

from __future__ import annotations

import json
import pathlib

from craig.corpus import corpus
from craig.formulas import Not, conj, to_nnf
from craig.interpolation import craig_interpolant, interpolant_from_labeled
from craig.parser import parse_problem, print_formula
from craig.tableau import Closed, LabeledSentence, prove, render_trace

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = DATA / "differential-golden.json"
BUDGET = 20_000
TRACE_FILES = ("fig2-implication.fol", "example1.fol")


def _corpus_record() -> list:
    out = []
    for inst in corpus(42, 500):
        outcome = prove([LabeledSentence(to_nnf(inst.phi), "L"),
                         LabeledSentence(to_nnf(Not(inst.psi)), "R")], BUDGET)
        apps = outcome.tableau.rule_applications if isinstance(outcome, Closed) else None
        out.append([type(outcome).__name__, apps,
                    print_formula(craig_interpolant(inst.phi, inst.psi, BUDGET))])
    return out


def _trace_record() -> dict:
    out = {}
    for name in TRACE_FILES:
        problem = parse_problem((DATA / name).read_text(encoding="utf-8"))
        inputs = [LabeledSentence(to_nnf(conj(problem.left)), "L"),
                  LabeledSentence(to_nnf(Not(conj(problem.right))), "R")]
        _, annotated = interpolant_from_labeled(inputs, BUDGET)
        out[name] = render_trace(annotated.tableau, annotated.interpolants)
    return out


def _record() -> dict:
    return {"corpus": _corpus_record(), "traces": _trace_record()}


def test_differential_corpus_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = _corpus_record()
    assert len(got) == len(golden["corpus"]) == 500
    for i, (want, have) in enumerate(zip(golden["corpus"], got)):
        assert have == want, f"corpus instance {i}"


def test_differential_traces_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _trace_record() == golden["traces"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_record(), indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
