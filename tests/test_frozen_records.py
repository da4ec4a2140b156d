"""Every formula node, term and record refuses every write.

The nodes, ``SignatureReport`` and the tableau records are declared with
``formulas.frozen_record``, and the terms are immutable by hand; all of them
raise ``FrozenInstanceError`` with the dataclass's own text on assigning or
deleting any name, a field or not.  The decorator's generated methods raised
``TypeError`` for a name that is not a field, since they name the class from
before ``slots=True`` rebuilt it.  Copying and pickling are as before; a
``SignatureReport`` pickles its key views as tuples and gets them back as
views in the same order.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from dataclasses import FrozenInstanceError

import pytest

from craig.formulas import (
    TOP, And, Atom, Const, Exists, Forall, Not, Or, SignatureReport, Top, Var,
    signature_of,
)
from craig.parser import parse
from craig.tableau import (
    Closure, Conj, Disj, ExistsRule, ForallRule, LabeledSentence, Root,
)

P_X = Atom("P", (Var("x"), Const("a")))
LS = LabeledSentence(Forall(("x",), P_X), "L")
RECORDS = [
    P_X, TOP, And((P_X, TOP)), Or((TOP, P_X)), Not(P_X), Exists(("x",), P_X),
    Forall(("x", "y"), P_X), Var("x"), Const("a"),
    signature_of(parse("forall x. R(x, a) | !Q(b)"), P_X),
    LS, Root(), Conj(LS), Disj(LS), ExistsRule(LS, ("c0", "c1")), ForallRule(LS, "c0"),
    Closure(("clash", LS, LabeledSentence(Not(P_X), "R"))),
]


def test_the_records_cover_every_node_term_and_tableau_record():
    kinds = {type(r) for r in RECORDS}
    assert {Atom, Top, And, Or, Not, Exists, Forall, Var, Const, SignatureReport} <= kinds
    assert {Root, Conj, Disj, ExistsRule, ForallRule, Closure, LabeledSentence} <= kinds


def names(record) -> list:
    if isinstance(record, (Var, Const)):
        return ["name"]
    return [f.name for f in dataclasses.fields(record)]


@pytest.mark.parametrize("record", RECORDS, ids=[type(r).__name__ for r in RECORDS])
def test_every_record_refuses_every_write(record):
    fields = names(record)
    before = [getattr(record, name) for name in fields]
    for name in fields + ["x", "extra"]:
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, TOP)
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert [getattr(record, name) for name in fields] == before
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    loaded = pickle.loads(pickle.dumps(record))
    assert type(loaded) is type(record) and loaded == record
    if type(record) is SignatureReport:  # its arities are a dict: no report hashes
        for view in ("constants", "free_vars"):  # keys views, in their order
            assert list(getattr(loaded, view)) == list(getattr(record, view))
            assert type(getattr(loaded, view)) is type({}.keys())
        return
    assert hash(loaded) == hash(record)
