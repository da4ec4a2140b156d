"""Constructive corollaries of interpolation: explicit Beth definitions,
Padoa counterexamples, Robinson separators and monotone rewriting.

All constructions follow the same pattern: build a valid implication whose
Craig interpolant has the wanted shape, extract it, then pass it and its
report to ``interpolation.certify``, which checks its signature (tau for
Beth, the input's sides' shared one for Robinson, the input's for monotone
rewriting) and re-proves the claims, each checked from reports already made.
Compactness steps are replaced by the finite theories these functions require.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    FormulaError, ImplicitDefinabilityRefuted, JointlyConsistent, NonSentenceError,
    NotValid,
)
from .formulas import (
    And, Atom, Const, Forall, Not, Or, Var, _abstract_constants, fresh_names,
    is_sentence, map_atoms, merge_reports, negated_report, signature_of, simplify,
    variable_names,
)
from .interpolation import _checked, certify, interpolant_from_labeled
from .models import Structure, satisfying_structures
from .tableau import labeled


@dataclass(frozen=True)
class Theory:
    """A finite list of sentences."""

    sentences: tuple
    name: str = ""

    def __post_init__(self):
        try:
            object.__setattr__(self, "sentences", tuple(self.sentences))
        except TypeError:
            raise FormulaError(f"theory sentences must be a collection of sentences, "
                               f"found {self.sentences!r}") from None
        for s in self.sentences:
            if not is_sentence(s):
                raise NonSentenceError(f"theory member has free variables: {s!r}")

    def signature(self):
        return signature_of(*self.sentences)


def rename_relations(phi, mapping: dict):
    """Uniformly substitute relation symbols by other relation symbols."""
    return map_atoms(phi, lambda a, _bound: Atom(mapping[a.rel], a.args)
                     if a.rel in mapping else a)


def _primed_map(names, taken) -> dict:
    out = {}
    used = set(taken)
    for name in sorted(names):
        primed = name + "'"
        while primed in used:
            primed += "'"
        used.add(primed)
        out[name] = primed
    return out


def _copy_bicond(rel: str, primed: str, arity: int):
    """∀x⃗(S x⃗ <-> S' x⃗), quantifier-free when S is 0-ary."""
    args = tuple(Var(f"x{i}") for i in range(arity))
    a, b = Atom(rel, args), Atom(primed, args)
    body = And((Or((Not(a), b)), Or((Not(b), a))))
    if arity == 0:
        return body
    return Forall(tuple(v.name for v in args), body)


@dataclass(frozen=True)
class Definition:
    """Explicit definition phi(x1..xn); variables are positional."""

    formula: object
    variables: tuple


def padoa_counterexample(sigma: Theory, relation: str, tau, max_size: int):
    """Two models of the theory agreeing on tau but not on the relation.

    Deterministic: one satisfying_structures call enumerates the models of
    the theory, smallest domain first; each is compared against the first
    model seen with its domain size and tau-reduct, and the first pair
    found is returned.
    """
    tau = sorted(tau)
    sig = sigma.signature()
    _check_beth_inputs(sig, relation, tau)
    seen: dict = {}
    for A in satisfying_structures(sig, range(1, max_size + 1), sigma.sentences):
        key = (A.domain_size, tuple((t, tuple(sorted(A.relations[t]))) for t in tau))
        first = seen.get(key)
        if first is None:
            seen[key] = A
        elif first.relations[relation] != A.relations[relation]:
            return (first, A)
    return None


def _check_beth_inputs(sig, relation: str, tau):
    if sig.constants:
        raise FormulaError("Beth constructions require a relational theory "
                           f"(constants found: {sorted(sig.constants)})")
    if relation not in sig.relations:
        raise FormulaError(f"relation {relation} does not occur in the theory")
    missing = sorted(set(tau) - sig.relations)
    if missing:
        raise FormulaError(f"tau relations not in the theory: {missing}")


def explicit_definition(sigma: Theory, relation: str, tau, budget: int,
                        max_counterexample_size: int = 3) -> Definition:
    """Synthesize phi(x⃗) with sig(phi) ⊆ tau and Σ ⊨ ∀x⃗(R x⃗ <-> phi(x⃗)).

    A Padoa counterexample search runs first; finding a pair refutes implicit
    definability and no definition can exist.  The tuple is frozen as fresh
    constants for the tableau, the interpolant of the primed-copy implication
    is extracted, and the constants are abstracted back to variables.  The
    biconditional is re-proved at the frozen tuple before returning.  A
    countermodel of the primed-copy implication is a Padoa pair too: its
    unprimed reduct and its primed copy renamed back.
    """
    tau = sorted(tau)
    sig = sigma.signature()
    pair = padoa_counterexample(sigma, relation, tau, max_counterexample_size)
    if pair is not None:
        raise ImplicitDefinabilityRefuted(
            f"{relation} is not implicitly defined by {tau} "
            f"(counterexample pair of size {pair[0].domain_size})", *pair)

    primed = _primed_map(sig.relations, sig.relations)
    sigma_primed = [rename_relations(s, primed) for s in sigma.sentences]
    arity = sig.arities[relation]
    frozen = tuple(itertools.islice(fresh_names("c", sig.constants), arity))
    args = tuple(Const(c) for c in frozen)

    head = Atom(relation, args)
    left = [*sigma.sentences, head]
    right = [*sigma_primed,
             *(_copy_bicond(t, primed[t], sig.arities[t]) for t in tau),
             Not(Atom(primed[relation], args))]
    try:
        theta, _ = interpolant_from_labeled(labeled(left, right), budget)
    except NotValid as e:
        n, rels = e.structure.domain_size, e.structure.relations
        raise ImplicitDefinabilityRefuted(
            f"{relation} is not implicitly defined by {tau} "
            f"(counterexample pair of size {n} read off a countermodel)",
            Structure(n, {r: rels[r] for r in sig.relations}),
            Structure(n, {r: rels[primed[r]] for r in sig.relations})) from e
    theta = simplify(theta)  # raw nesting scales with the proof, not the content

    variables = tuple(itertools.islice(fresh_names("x", variable_names(theta)), arity))
    phi = _abstract_constants(theta, dict(zip(frozen, variables)))  # fresh: no occurs check

    # the biconditional, re-proved at the frozen tuple: theta is phi(c⃗)
    report, head_report = signature_of(theta), signature_of(head)
    certify(phi, tau, [
        ("R -> definition", _checked(left, [Not(theta)], merge_reports(sig, head_report),
                                     negated_report(report))),
        ("definition -> R", _checked([*sigma.sentences, theta], [Not(head)],
                                     merge_reports(sig, report),
                                     negated_report(head_report)))],
        budget, signature_of(phi))
    return Definition(phi, variables)


def robinson_separator(sigma1: Theory, sigma2: Theory, budget: int):
    """Sentence phi over the shared signature with Σ1 ⊨ phi and Σ2 ⊨ ¬phi."""
    try:
        theta, annotated = interpolant_from_labeled(
            labeled(sigma1.sentences, sigma2.sentences), budget)
    except NotValid as e:
        raise JointlyConsistent("the theories admit a common model",
                                *e.witnesses) from e
    theta = simplify(theta)
    left, right = annotated.tableau.inputs.sides  # Σ1 is labeled L and Σ2 R
    report = signature_of(theta)
    return certify(theta, left.symbols() & right.symbols(), [
        ("sigma1 |= phi", _checked(sigma1.sentences, [Not(theta)], left,
                                   negated_report(report))),
        ("sigma2 |= !phi", _checked(sigma2.sentences, [theta], right, report))],
        budget, report)


def monotone_rewrite(phi, relation: str, budget: int, arity: int | None = None):
    """Rewrite phi without negative occurrences of the relation.

    Extracts a Lyndon interpolant of phi -> (∀x⃗(R x⃗ -> R' x⃗) -> phi[R/R'])
    and re-proves equivalence with phi.  NotValid carries a finite
    countermodel of that implication (phi holds, R ⊆ R', phi[R/R'] fails),
    which shows phi is not monotone in R; NotProvedWithinBudget means the
    budget ran out.  FormulaError if the relation is not a str, or the arity
    not an int (a bool is not), negative or not the relation's in phi.
    """
    sig = signature_of(phi)
    if type(relation) is not str:
        raise FormulaError(f"relation must be a relation name, got {relation!r}")
    if arity is not None and (type(arity) is not int or arity < 0):
        raise FormulaError(f"arity of {relation} must be non-negative, got {arity}")
    if relation in sig.relations:
        if arity not in (None, sig.arities[relation]):
            raise FormulaError(f"relation {relation} has arity {sig.arities[relation]} "
                               f"in the sentence, not {arity}")
        arity = sig.arities[relation]
    elif arity is None:
        raise FormulaError(f"relation {relation} does not occur in the sentence; "
                           "pass its arity explicitly")
    primed = _primed_map([relation], sig.relations)[relation]
    args = tuple(Var(f"x{i}") for i in range(arity))
    guard = Or((Not(Atom(relation, args)), Atom(primed, args)))
    if arity:
        guard = Forall(tuple(v.name for v in args), guard)
    renamed = rename_relations(phi, {relation: primed})

    try:
        theta, _ = interpolant_from_labeled(labeled([phi], [guard, Not(renamed)]), budget)
    except NotValid as e:
        raise NotValid(f"the sentence is not monotone in {relation} "
                       f"(countermodel with {primed} for the enlarged {relation})",
                       *e.witnesses) from e
    theta = simplify(theta)
    report = signature_of(theta)
    if relation in report.relsig_neg:
        raise FormulaError("internal error: rewrite kept a negative occurrence")
    return certify(theta, sig.symbols(), [
        ("phi -> theta", _checked([phi], [Not(theta)], sig, negated_report(report))),
        ("theta -> phi", _checked([theta], [Not(phi)], report, negated_report(sig)))],
        budget, report)
