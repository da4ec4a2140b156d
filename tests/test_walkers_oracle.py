"""The atom-rewriting helpers checked against the finite-model oracle.

Every subformula of ``corpus(42, 200)`` with a free variable x is rewritten
by ``substitute_constant``, ``abstract_constant`` and ``rename_relations``
and evaluated in every structure of size <= 2 that interprets its symbols,
under every assignment of its other free variables.
"""

from __future__ import annotations

import itertools

from craig.corpus import corpus
from craig.definability import rename_relations
from craig.formulas import (
    abstract_constant, fresh_constant, free_vars, signature_of,
    substitute_constant, walk,
)
from craig.models import Structure, enumerate_structures, evaluate
from craig.parser import print_formula


def _open_subformulas() -> list:
    found = set()
    for inst in corpus(42, 200):
        found.update(f for f in walk(inst.phi) if free_vars(f))
        found.update(f for f in walk(inst.psi) if free_vars(f))
    return sorted(found, key=print_formula)


def _rotation(relations, arities) -> dict:
    """Each relation to the next of the same arity (sorted); a lone one is
    renamed to a new name, so every atom changes."""
    mapping = {}
    for k in sorted(set(arities[r] for r in relations)):
        names = sorted(r for r in relations if arities[r] == k)
        if len(names) == 1:
            mapping[names[0]] = names[0] + "2"
        else:
            mapping.update(zip(names, names[1:] + names[:1]))
    return mapping


def test_walkers_agree_with_oracle():
    cases = _open_subformulas()
    assert len(cases) > 50
    checks = 0
    for phi in cases:
        c = fresh_constant(signature_of(phi).constants)
        for x in sorted(free_vars(phi)):
            rest = sorted(free_vars(phi) - {x})
            ground = substitute_constant(phi, x, c)
            assert free_vars(ground) == set(rest)
            assert abstract_constant(ground, c, x) == phi
            sig = signature_of(ground)
            mapping = _rotation(sig.relations, sig.arities)
            renamed = rename_relations(phi, mapping)
            assert signature_of(renamed).relations == {mapping[r] for r in sig.relations}
            for n in (1, 2):
                for A in enumerate_structures(sig, n):
                    B = Structure(n, {mapping[r]: ts for r, ts in A.relations.items()},
                                  A.constants)
                    for values in itertools.product(range(n), repeat=len(rest)):
                        g = dict(zip(rest, values))
                        full = {**g, x: A.constants[c]}
                        truth = evaluate(A, phi, full)
                        assert evaluate(A, ground, g) == truth, (print_formula(phi), x, A)
                        assert evaluate(B, renamed, full) == truth, (print_formula(phi), A)
                        checks += 1
    assert checks > 2_000
