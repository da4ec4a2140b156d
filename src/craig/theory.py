"""Weak and strong Craig interpolation under a finite background theory, and
the (sigma, tau)-splittability decision that powers the strong form."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormulaError, NonSentenceError, NotSplittable
from .formulas import Not, merge_reports, negated_report, signature_of, simplify
from .definability import Theory
from .interpolation import _checked, certify, interpolant_from_labeled
from .tableau import labeled


@dataclass(frozen=True)
class SplitResult:
    sigma1: Theory
    sigma2: Theory


def split_theory(sigma: Theory, sigma_sig, tau_sig):
    """Decompose Σ into Σ1 ∪ Σ2 with (sig(Σ1)∪σ) ∩ (sig(Σ2)∪τ) ⊆ σ∩τ.

    Per-symbol constraints solved by union-find: sentences sharing a symbol
    outside σ∩τ are co-located, a σ∖τ symbol forces side 1, a τ∖σ symbol
    side 2; a component forced both ways means no split exists.  Unconstrained
    components default to Σ1.  Returns None when no split exists.
    """
    sigma_sig = frozenset(sigma_sig)
    tau_sig = frozenset(tau_sig)
    shared = sigma_sig & tau_sig
    sentences = sigma.sentences
    symbol_sets = [signature_of(s).symbols() for s in sentences]

    parent = list(range(len(sentences)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int):
        parent[find(i)] = find(j)

    owners: dict = {}
    for i, syms in enumerate(symbol_sets):
        for s in sorted(syms - shared):
            if s in owners:
                union(i, owners[s])
            else:
                owners[s] = i

    forced: dict = {}
    for i, syms in enumerate(symbol_sets):
        root = find(i)
        want = None
        if syms & (sigma_sig - tau_sig):
            want = 1
        if syms & (tau_sig - sigma_sig):
            if want == 1:
                return None
            want = 2
        if want is not None:
            if forced.setdefault(root, want) != want:
                return None

    part1, part2 = [], []
    for i, s in enumerate(sentences):
        side = forced.get(find(i), 1)
        (part1 if side == 1 else part2).append(s)
    result = SplitResult(Theory(tuple(part1), sigma.name and sigma.name + ".1"),
                         Theory(tuple(part2), sigma.name and sigma.name + ".2"))
    sig1 = result.sigma1.signature().symbols()
    sig2 = result.sigma2.signature().symbols()
    if ((sig1 | sigma_sig) & (sig2 | tau_sig)) - shared:
        raise FormulaError("internal error: split violates its invariant")
    return result


def weak_interpolant(sigma: Theory, phi, psi, budget: int):
    """θ with Σ ⊨ phi→θ, Σ ⊨ θ→psi, sig(θ) ⊆ (sig(phi)∩sig(psi)) ∪ sig(Σ)."""
    theta, annotated = interpolant_from_labeled(
        labeled([*sigma.sentences, phi], [Not(psi)]), budget)
    (left, right), theory = annotated.tableau.inputs.sides, sigma.signature()
    # (phi ∩ psi) ∪ Σ is ((Σ ∪ phi) ∩ psi) ∪ Σ: the sides' common symbols and Σ's
    allowed = (left.symbols() & right.symbols()) | theory.symbols()
    return _certified(simplify(theta), allowed, sigma, phi, psi, (theory, left, right),
                      budget)


def strong_interpolant(sigma: Theory, phi, psi, budget: int):
    """θ as above but with sig(θ) ⊆ sig(phi) ∩ sig(psi); needs a split."""
    sig_phi, sig_psi = signature_of(phi), signature_of(psi)
    if sig_phi.free_vars or sig_psi.free_vars:  # checked before the split decides
        raise NonSentenceError("theory interpolation expects sentences")
    split = split_theory(sigma, sig_phi.symbols(), sig_psi.symbols())
    if split is None:
        raise NotSplittable(
            "the theory is not (sig(phi), sig(psi))-splittable")
    inputs = labeled([*split.sigma1.sentences, phi], [*split.sigma2.sentences, Not(psi)])
    theta = simplify(interpolant_from_labeled(inputs, budget)[0])
    theory = sigma.signature()
    return _certified(theta, sig_phi.symbols() & sig_psi.symbols(), sigma, phi, psi,
                      (theory, merge_reports(theory, sig_phi), negated_report(sig_psi)),
                      budget)


def _certified(theta, allowed, sigma: Theory, phi, psi, reports, budget: int):
    """certify for both forms: Σ, phi ⊨ θ and Σ, θ ⊨ psi, re-proved from the
    reports of Σ, of Σ with phi and of ¬psi."""
    theory, left, right = reports
    report = signature_of(theta)
    return certify(theta, allowed, [
        ("Sigma, phi |= theta", _checked([*sigma.sentences, phi], [Not(theta)], left,
                                         negated_report(report))),
        ("Sigma, theta |= psi", _checked([*sigma.sentences, theta], [Not(psi)],
                                         merge_reports(theory, report), right))],
        budget, report)
