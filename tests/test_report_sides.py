"""Signature reports built through slot setters, and the side reports that
``propagate`` hands on.

``SignatureReport`` sets its fields in a hand-written ``__init__`` through
the slots' own setters; ``old.SignatureReport`` below is the dataclass it was, kept
verbatim, so the two must agree on fields, construction, ``==``, ``repr``
and ``symbols()``.  ``propagate`` keeps the reports of the root's L and R
inputs as ``AnnotatedTableau.sides``; Craig extraction and Robinson
separation take their allowed symbols from them instead of walking their
inputs again.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import FrozenInstanceError, dataclass

import pytest

from craig.corpus import corpus
from craig.formulas import Not, SignatureReport, conj, signature_of
from craig.interpolation import craig_interpolant, propagate
from craig.parser import parse
from craig.tableau import Closed, labeled, prove

from test_substitution_program import BUDGET, problems


class old:
    @dataclass(frozen=True)
    class SignatureReport:
        """Symbols of a formula: occurrence sets, polarities and free variables.
        ``constants`` and ``free_vars`` are ``dict.keys()`` views: sets that list
        each name once, in order of first occurrence (preorder, arguments left to
        right)."""

        relations: frozenset
        arities: dict
        constants: object  # dict keys view, first-occurrence order
        relsig_pos: frozenset
        relsig_neg: frozenset
        free_vars: object  # dict keys view, first-occurrence order

        def symbols(self) -> frozenset:
            return self.relations.union(self.constants)


FIELDS = ("relations", "arities", "constants", "relsig_pos", "relsig_neg", "free_vars")


def report_texts() -> list:
    return ["true", "P", "R(a, b) & !S(a)", "forall x. T(x, y) | !!Q(x)",
            "exists x y. R(x, y) -> R(y, c)"]


def both(text: str) -> tuple:
    """The new report of text's formula, and the old class built from its fields."""
    new = signature_of(parse(text))
    return new, old.SignatureReport(*(getattr(new, name) for name in FIELDS))


# ---------------------------------------------------------------- the record

def test_fields_and_match_args_are_as_before():
    assert tuple(f.name for f in dataclasses.fields(SignatureReport)) == FIELDS
    assert SignatureReport.__match_args__ == old.SignatureReport.__match_args__ == FIELDS
    assert SignatureReport.__slots__ == FIELDS


@pytest.mark.parametrize("text", report_texts())
def test_reports_behave_as_before(text):
    new, ref = both(text)
    assert not hasattr(new, "__dict__")
    assert repr(new) == repr(ref).replace("old.", "", 1)
    assert new.symbols() == ref.symbols()
    values = [getattr(new, name) for name in FIELDS]
    positional = SignatureReport(*values)
    keywords = SignatureReport(**dict(zip(FIELDS, values)))
    mixed = SignatureReport(*values[:3], **dict(zip(FIELDS[3:], values[3:])))
    for made in (positional, keywords, mixed):
        assert made == new and not made != new
        assert [getattr(made, name) for name in FIELDS] == values
        assert repr(made) == repr(new)
    assert new == signature_of(parse(text))
    assert new != SignatureReport(*values[:-1], {"z": None}.keys())
    assert new.__eq__(ref) is NotImplemented  # another class, as before
    with pytest.raises(TypeError):
        hash(new)  # unhashable: its arities are a dict, as before


@pytest.mark.parametrize("name", FIELDS)
def test_reports_are_immutable(name):
    new, ref = both("R(a, b) & !S(a)")
    for report in (new, ref):
        with pytest.raises(FrozenInstanceError):
            setattr(report, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(report, name)


@pytest.mark.parametrize("make", [
    lambda cls: cls(), lambda cls: cls(*range(5)), lambda cls: cls(*range(7)),
    lambda cls: cls(*range(6), relations=0), lambda cls: cls(*range(5), free=0),
])
def test_bad_arguments_raise_type_error_as_before(make):
    for cls in (SignatureReport, old.SignatureReport):
        with pytest.raises(TypeError):
            make(cls)


# ---------------------------------------------------------------- the sides

def proved_pairs() -> list:
    """(L sentences, R sentences, annotated tableau) of every closed corpus
    instance, Pelletier problem and chain: each one sentence a side as in
    Craig extraction, and for the problems also every sentence apart, as in
    Robinson separation."""
    pairs = [([inst.phi], [Not(inst.psi)]) for inst in corpus(42, 500)]
    for left, right in problems():
        pairs.append(([conj(left)], [Not(conj(right))]))
        pairs.append((left, [Not(r) for r in right]))
    out = []
    for left, right in pairs:
        outcome = prove(labeled(left, right), BUDGET)
        if isinstance(outcome, Closed):
            out.append((left, right, propagate(outcome.tableau)))
    return out


def test_the_sides_have_the_symbols_of_the_inputs():
    pairs = proved_pairs()
    assert len(pairs) > 540
    for left, right, annotated in pairs:
        l_side, r_side = annotated.sides
        l_sig, r_sig = signature_of(*left), signature_of(*right)
        assert l_side.symbols() & r_side.symbols() == l_sig.symbols() & r_sig.symbols()
        for side, sig in ((l_side, l_sig), (r_side, r_sig)):
            assert side.symbols() == sig.symbols()
            assert side.arities == sig.arities


def craig_modules() -> list:
    return [importlib.import_module(f"craig.{name}") for name in (
        "access", "cli", "corpus", "definability", "formulas", "fragments",
        "interpolation", "models", "parser", "tableau", "theory")]


def test_craig_interpolant_walks_signatures_six_times(monkeypatch):
    # propagate's two sides, certify's theta and the three proofs' input
    # checks; phi and psi are not walked again
    calls = []
    real = signature_of

    def counting(*phis):
        calls.append(phis)
        return real(*phis)

    for module in craig_modules():
        if hasattr(module, "signature_of"):
            monkeypatch.setattr(module, "signature_of", counting)
    for inst in corpus(42, 50):
        del calls[:]
        craig_interpolant(inst.phi, inst.psi, BUDGET)
        assert len(calls) == 6, inst.index
