"""Seeded generator of valid implications for the acceptance corpus.

Each instance is built as phi := alpha & gamma and psi := alpha | delta with
alpha over a signature shared by both sides and gamma/delta over side-local
extensions, so validity holds by construction and is re-confirmed by the
prover in the acceptance suite.  Candidates whose joint signature would make
the exhaustive size-3 soundness sweep expensive are rejected and redrawn
deterministically, keeping the finite-model cross-check fast.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .formulas import And, Atom, Const, Exists, Forall, Not, Or, Var, signature_of, walk
from .models import count_structures


@dataclass(frozen=True)
class SignaturePool:
    relations: tuple        # (name, arity) pairs
    constants: tuple


SHARED = SignaturePool((("A", 1), ("B", 1), ("R", 2)), ("k",))
SHARED_SMALL = SignaturePool((("A", 1), ("B", 1)), ("k",))
LEFT_ONLY = SignaturePool((("G", 1),), ())
RIGHT_ONLY = SignaturePool((("D", 1),), ())

# joint-signature bound for one instance: keeps find_model's exhaustive
# size-<=3 sweep around a few milliseconds
MAX_SWEEP = 20_000


@dataclass(frozen=True)
class CorpusInstance:
    index: int
    alpha: object
    gamma: object
    delta: object
    phi: object
    psi: object


def _merge(a: SignaturePool, b: SignaturePool) -> SignaturePool:
    return SignaturePool(a.relations + b.relations, a.constants + b.constants)


def _random_term(rng: random.Random, scope: tuple, constants: tuple):
    options = [Var(v) for v in scope] + [Const(c) for c in constants]
    return options[rng.randrange(len(options))]


def _random_formula(rng: random.Random, pool: SignaturePool, depth: int,
                    scope: tuple = ()):
    kinds = ["atom", "not-atom"]
    if depth > 0:
        kinds += ["and", "or", "not", "exists", "forall"]
    kind = kinds[rng.randrange(len(kinds))]
    if kind in ("atom", "not-atom"):
        rel, arity = pool.relations[rng.randrange(len(pool.relations))]
        atom = Atom(rel, tuple(_random_term(rng, scope, pool.constants)
                               for _ in range(arity)))
        return Not(atom) if kind == "not-atom" else atom
    if kind == "not":
        return Not(_random_formula(rng, pool, depth - 1, scope))
    if kind in ("and", "or"):
        left = _random_formula(rng, pool, depth - 1, scope)
        right = _random_formula(rng, pool, depth - 1, scope)
        return And((left, right)) if kind == "and" else Or((left, right))
    v = f"v{len(scope)}"
    body = _random_formula(rng, pool, depth - 1, scope + (v,))
    return Exists((v,), body) if kind == "exists" else Forall((v,), body)


def formula_size(phi) -> int:
    return sum(1 for _ in walk(phi))


def _sweep_cost(phi, psi) -> int:
    sig = signature_of(phi, psi)
    return sum(count_structures(sig, n) for n in (1, 2, 3))


def generate_instance(index: int, seed: int, small: bool = False) -> CorpusInstance:
    """Deterministic instance #index for the given master seed."""
    shared = SHARED_SMALL if small else SHARED
    depth = 1 if small else 2
    for attempt in range(1000):
        # integer-mixed seed: tuple seeding hashes, which is not stable
        rng = random.Random(((seed * 1_000_003 + index) * 1_000_003 + attempt))
        alpha = _random_formula(rng, shared, depth)
        if small and formula_size(alpha) > 6:
            continue
        gamma = _random_formula(rng, _merge(shared, LEFT_ONLY), depth)
        delta = _random_formula(rng, _merge(shared, RIGHT_ONLY), depth)
        phi = And((alpha, gamma))
        psi = Or((alpha, delta))
        if _sweep_cost(phi, psi) > MAX_SWEEP:
            continue
        return CorpusInstance(index, alpha, gamma, delta, phi, psi)
    raise RuntimeError(f"no admissible corpus instance for index {index}")


def corpus(seed: int, count: int, small: bool = False):
    return [generate_instance(i, seed, small) for i in range(count)]
