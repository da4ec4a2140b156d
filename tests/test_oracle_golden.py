"""Oracle golden: every answer the finite-model oracle gives on a fixed set
of calls, and a differential check of the pruned enumeration.

``data/oracle-golden.json`` was recorded from the oracle that built every
structure of the enumeration before evaluating any sentence on it, before
failing prefixes were skipped.  It records:

- ``find_model(sentences, 3)`` as ``structure_to_json`` or ``None``, for six
  sentence sets of each instance of ``corpus(42, SLICE)`` (see ``SHAPES``)
  and for the sentences of each of ``tests/data/sat.fol``,
  ``tests/data/tallest.fol`` and ``bench/cli/unsat.fol`` taken together;
- ``padoa_counterexample(…, 3)`` as a pair of ``structure_to_json`` or
  ``None``, for the Tallest theory in both directions and for
  ``bench/cli/pq-theory.fol``;
- the printed result of ``search_interpolant(phi, psi, 7, 20000)`` on each
  instance of ``corpus(42, 50, small=True)``.

The differential test compares ``satisfying_structures`` with a filter of
``enumerate_structures`` through ``evaluate``, structure by structure and in
order, for the sentence sets of the first ``DIFFERENTIAL_SLICE`` instances,
the files and ``CHUNK_SETS``, at every domain size up to 3, under the default
block bound and under each of ``SMALL_BOUNDS``.  The last test checks that the
interpolant screens still raise ``evaluate``'s error for a candidate that
``evaluate`` would reject.

Regenerate (only when a change of output is intended) with
``PYTHONPATH=src python tests/test_oracle_golden.py``.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

from craig import interpolation, models
from craig.corpus import corpus
from craig.definability import Theory, padoa_counterexample
from craig.errors import CraigError
from craig.formulas import Atom, Const, Not, Var, signature_of
from craig.interpolation import search_interpolant
from craig.models import (
    enumerate_structures, evaluate, find_model, satisfying_structures,
    structure_to_json,
)
from craig.parser import parse, parse_problem, print_formula

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN = pathlib.Path(__file__).parent / "data" / "oracle-golden.json"
SLICE = 40
DIFFERENTIAL_SLICE = 8  # the reference filter visits every structure: ~1 s per instance
MAX_SIZE = 3
SHAPES = {
    "phi": lambda i: [i.phi],
    "not-psi": lambda i: [Not(i.psi)],
    "phi,not-psi": lambda i: [i.phi, Not(i.psi)],
    "not-phi": lambda i: [Not(i.phi)],
    "psi,phi": lambda i: [i.psi, i.phi],
    "gamma,not-delta": lambda i: [i.gamma, Not(i.delta)],
}
FILES = ("tests/data/sat.fol", "tests/data/tallest.fol", "bench/cli/unsat.fol")
PADOA = (
    ("tests/data/tallest.fol", "Taller-than", ["Tallest"]),
    ("tests/data/tallest.fol", "Tallest", ["Taller-than"]),
    ("bench/cli/pq-theory.fol", "P", ["Q"]),
    ("bench/cli/pq-theory.fol", "P", []),
)


# Block bounds far below the default, so that at sizes <= 3 the block is one
# structure (1), holds only constants (8: two or more constants at size 3),
# or splits the last relation into many chunks (8 and 64).
SMALL_BOUNDS = (1, 8, 64)
# Sentence sets (" ;; " between sentences) with three constants, with a 0-ary
# relation last, and with relations only (a binary one last).
CHUNK_SETS = (
    "exists x. P(x) & !P(c) ;; P(d) | !P(k) ;; P(c) -> P(k)",
    "Z | R(c, k) ;; !Z | exists x. R(x, c) & !R(k, x)",
    "exists x. R(x, x) ;; forall x. exists y. R(x, y) & !R(y, x) | Q(x)",
)


def _problem(path: str):
    return parse_problem((ROOT / path).read_text(encoding="utf-8"))


def sentence_sets(count: int = SLICE) -> dict:
    """name -> sentences, for every find_model call of the golden (the first
    count corpus instances and every file)."""
    out = {}
    for inst in corpus(42, count):
        for shape, make in SHAPES.items():
            out[f"corpus{inst.index}.{shape}"] = make(inst)
    for path in FILES:
        pf = _problem(path)
        out[path] = pf.left + pf.right + pf.theory
    return out


def _json(A):
    return None if A is None else structure_to_json(A)


def record() -> dict:
    out = {}
    for name, sentences in sentence_sets().items():
        out[f"find_model:{name}"] = _json(find_model(sentences, MAX_SIZE))
    for path, relation, tau in PADOA:
        theory = Theory(tuple(_problem(path).theory), path)
        pair = padoa_counterexample(theory, relation, tau, MAX_SIZE)
        out[f"padoa:{path}:{relation}:{','.join(tau)}"] = \
            None if pair is None else [_json(A) for A in pair]
    for inst in corpus(42, 50, small=True):
        theta = search_interpolant(inst.phi, inst.psi, 7, 20000)
        out[f"search:corpus-small{inst.index}"] = \
            None if theta is None else print_formula(theta)
    return out


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_oracle_matches_golden():
    golden = load_golden()
    got = record()
    assert list(got) == list(golden)
    for key, want in golden.items():
        assert got[key] == want, key


def test_golden_has_models_and_misses():
    golden = load_golden()
    for kind in ("find_model:", "padoa:"):
        values = [v for k, v in golden.items() if k.startswith(kind)]
        assert any(v is None for v in values) and any(v is not None for v in values), kind


def test_pruned_enumeration_matches_filtered_enumeration(monkeypatch):
    sets = sentence_sets(DIFFERENTIAL_SLICE)
    sets.update((text, [parse(x) for x in text.split(" ;; ")]) for text in CHUNK_SETS)
    for name, phis in sets.items():
        sig = signature_of(*phis)
        for n in range(1, MAX_SIZE + 1):
            want = [A.key() for A in enumerate_structures(sig, n)
                    if all(evaluate(A, p) for p in phis)]
            for bound in (models._BLOCK_BITS,) + SMALL_BOUNDS:
                with monkeypatch.context() as patch:
                    patch.setattr(models, "_BLOCK_BITS", bound)
                    got = [A.key() for A in satisfying_structures(sig, [n], phis)]
                assert got == want, (name, n, bound)


def _bad_candidates():
    """A candidate with a free variable, one with a relation outside phi's
    signature and one with a constant outside it."""
    inst = corpus(42, 1, small=True)[0]
    rel = min(signature_of(inst.phi).relations)
    return inst, [Atom(rel, (Var("x"),)), Atom("Absent", ()), Atom(rel, (Const("absent"),))]


@pytest.mark.parametrize("which", range(3))
def test_search_candidate_raises_what_evaluate_raises(monkeypatch, which):
    # the screens check each candidate's symbols once instead of calling
    # evaluate per structure; the error must stay evaluate's
    inst, candidates = _bad_candidates()
    candidate = candidates[which]
    A = next(enumerate_structures(signature_of(inst.phi), 1))
    with pytest.raises(CraigError) as want:
        evaluate(A, candidate)
    monkeypatch.setattr(interpolation, "enumerate_shared_formulas",
                        lambda *args: iter([candidate]))
    with pytest.raises(type(want.value), match=re.escape(str(want.value))):
        search_interpolant(inst.phi, inst.psi, 7, 20000)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=0, ensure_ascii=False) + "\n",
                      encoding="utf-8")
