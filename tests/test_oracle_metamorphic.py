"""Metamorphic oracle test: regrouping the input sentences changes nothing.

The enumeration order depends only on the joint signature, and the pruned
enumeration checks the same top-level conjuncts however the sentences are
listed or grouped, so ``find_model`` must return the same first model for
the sentences, for the sentences reversed and for their conjunction.  The
sentence sets are those of the oracle golden.
"""

from __future__ import annotations

from craig.formulas import conj
from craig.models import find_model, structure_to_json
from test_oracle_golden import MAX_SIZE, sentence_sets


def _json(A):
    return None if A is None else structure_to_json(A)


def test_find_model_ignores_order_and_grouping():
    for name, phis in sentence_sets().items():
        want = _json(find_model(phis, MAX_SIZE))
        assert _json(find_model(list(reversed(phis)), MAX_SIZE)) == want, name
        assert _json(find_model([conj(phis)], MAX_SIZE)) == want, name
