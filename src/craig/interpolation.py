"""Interpolant propagation over closed tableaux, end-to-end Craig extraction,
verification, Lyndon checking and brute-force interpolant search.

Propagation follows the proof-text case analysis.  Leaves: ⊥^L gives ⊥, ⊥^R
gives ⊤; a clash α^L/¬α^R gives α, α^R/¬α^L gives ¬α, a same-side clash gives
⊥ (both L) or ⊤ (both R).  Inner nodes: ∧ and ∃ pass the child interpolant
up; ∨ joins children with ∨ when the premise is L-labeled and with ∧ when
R-labeled; a ∀ instantiated with c existentially quantifies c away when c
does not occur in any R-labeled sentence at or above the node, universally
when it does not occur in any L-labeled one, and passes through unchanged
otherwise (in particular when c occurs on neither side, where it cannot
occur in the child interpolant at all).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (FormulaError, NonSentenceError, NotProvedWithinBudget, NotValid,
                     OpenTableauError)
from .formulas import (
    BOTTOM, TOP, And, Atom, Const, Exists, Forall, Not, Or, Var,
    _abstract_constants, fresh_names, negated_report, signature_of,
    variable_names,
)
from .models import (
    Structure, _check_evaluable, _compile, count_structures, satisfying_structures,
)
from .tableau import (
    ClosedTableau, Closure, Conj, Disj, ExistsRule, ForallRule, ProverInput,
    Satisfiable, Unknown, check_budget, check_input, labeled, prove, refute,
)


@dataclass
class AnnotatedTableau:
    tableau: ClosedTableau
    interpolants: dict  # node id -> formula

    def root_interpolant(self):
        return self.interpolants[self.tableau.root.id]


def _leaf_interpolant(evidence: tuple):
    if evidence[0] == "bottom":
        return BOTTOM if evidence[1].label == "L" else TOP
    _, pos, neg = evidence
    if pos.label == "L" and neg.label == "R":
        return pos.formula
    if pos.label == "R" and neg.label == "L":
        return neg.formula  # ¬α
    return BOTTOM if pos.label == "L" else TOP


def _quantifier_case(theta, c: str, l_consts: frozenset, r_consts: frozenset):
    in_l, in_r = c in l_consts, c in r_consts
    if in_l == in_r:
        # on both sides c is shared and may stay; on neither, the signature
        # invariant already keeps c out of theta
        return theta
    x = next(fresh_names("x", variable_names(theta)))
    body = _abstract_constants(theta, {c: x})  # x is fresh: no occurs check
    return Exists((x,), body) if not in_r else Forall((x,), body)


def _instance_uses_constant(rule: ForallRule, instance) -> bool:
    """Whether a ∀ step's instance contains the step's constant: exactly when
    its body differs from the premise's, since a vacuous step's instance is
    the premise's body itself (an instance of a longer block is a ∀ over the
    rest of the block)."""
    f = rule.premise.formula
    return (instance.body if len(f.vars) > 1 else instance) != f.body


def propagate(tableau: ClosedTableau) -> AnnotatedTableau:
    """Annotate every node of a closed tableau with its interpolant.

    Iterative (deep single-child chains are routine): one top-down pass
    accumulates the constants occurring in L/R sentences at or above each
    node, then a bottom-up pass applies the propagation cases.  The root's
    constants are those of the sides of tableau.inputs; below it they are
    read off the rules, with no walk: an ∃ node adds its witnesses, and a ∀
    node its constant when the instance uses it.  A conjunct, a disjunct or
    an instance has no other constant its premise above lacks.  Siblings
    share their parent's sets, so they stay frozensets.
    """
    interpolants: dict = {}
    consts: dict = {}
    order: list = []
    l_consts, r_consts = (frozenset(side.constants) for side in tableau.inputs.sides)
    stack = [(tableau.root, l_consts, r_consts)]
    while stack:
        node, l_consts, r_consts = stack.pop()
        rule = node.rule
        if isinstance(rule, ExistsRule):
            names = rule.constants
        elif isinstance(rule, ForallRule):
            used = _instance_uses_constant(rule, node.intro.formula)
            names = (rule.constant,) if used else ()
        else:
            names = ()
        if names:
            if rule.premise.label == "L":
                l_consts = l_consts.union(names)
            else:
                r_consts = r_consts.union(names)
        consts[node.id] = (l_consts, r_consts)
        order.append(node)
        below = node.below
        if type(below) is tuple:
            stack.extend((ch, l_consts, r_consts) for ch in below)
        elif below is not None:
            stack.append((below, l_consts, r_consts))

    for node in reversed(order):
        below = node.below
        if below is None:
            if not isinstance(node.rule, Closure):
                raise OpenTableauError("tableau has an open branch; cannot propagate")
            theta = _leaf_interpolant(node.rule.evidence)
        elif type(below) is not tuple:
            child = below
            theta = interpolants[child.id]
            if isinstance(child.rule, ForallRule):
                l_consts, r_consts = consts[node.id]
                theta = _quantifier_case(theta, child.rule.constant, l_consts, r_consts)
            elif not isinstance(child.rule, (Conj, ExistsRule, Closure)):
                raise FormulaError(f"unexpected single-child rule {child.rule!r}")
        else:
            thetas = []
            premise = None
            for child in below:
                if not isinstance(child.rule, Disj):
                    raise FormulaError(f"unexpected branching rule {child.rule!r}")
                premise = child.rule.premise
                thetas.append(interpolants[child.id])
            theta = Or(tuple(thetas)) if premise.label == "L" else And(tuple(thetas))
        interpolants[node.id] = theta
    return AnnotatedTableau(tableau, interpolants)


def interpolant_from_labeled(inputs, budget: int):
    """Prove the labeled set (raw, or a ProverInput) unsatisfiable and
    extract the root interpolant: (theta, annotated tableau).  Raises
    NotValid with the countermodel or NotProvedWithinBudget."""
    annotated = propagate(refute(inputs, budget))
    return annotated.root_interpolant(), annotated


@dataclass(frozen=True)
class Verdict:
    kind: str  # one of the four constants below
    details: str = ""
    structure: Structure | None = None  # the countermodel of NOT_ENTAILED

    VERIFIED = "verified"
    SIGNATURE_VIOLATION = "signature-violation"
    NOT_ENTAILED = "not-entailed"
    ENTAILMENT_UNKNOWN = "entailment-unknown"

    def __bool__(self) -> bool:
        return self.kind == Verdict.VERIFIED


def entails(phi, psi, budget: int):
    """Tableau check of phi ⊨ psi for sentences: the prover outcome for the
    set {phi, ¬psi}."""
    return prove(labeled([phi], [Not(psi)]), budget)


def _checked(left, right, ra, rb) -> ProverInput:
    """check_input of labeled(left, right) from the parts' reports ra and rb.
    Labels play no role in the search: a claim proves as if all were L."""
    return check_input(labeled(left, right), (ra, rb))


def certify(theta, allowed, claims, budget: int, report):
    """Every construction's post-condition check; returns theta.  A symbol
    of theta's report outside allowed, or a (name, ProverInput) claim whose
    sentences have a model, is a FormulaError (an internal error); a claim
    the tableau does not refute within budget is NotProvedWithinBudget."""
    leaked = sorted(report.symbols() - set(allowed))
    if leaked:
        raise FormulaError(f"internal error: {', '.join(leaked)} outside the signature")
    for name, inputs in claims:
        try:
            refute(inputs, budget)
        except NotValid as e:
            raise FormulaError(f"internal error: {name} has a countermodel") from e
        except NotProvedWithinBudget as e:
            raise NotProvedWithinBudget(f"could not re-prove {name}: {e}",
                                        e.budget_spent) from e
    return theta


def verify_interpolant(phi, psi, theta, budget: int) -> Verdict:
    """Exact syntactic signature checks plus two tableau entailment checks
    (sentences only: the prover rejects an open input), from the three
    reports.  A relation is its name and arity: one name used with another
    arity is not shared."""
    sig_phi, sig_psi, sig_theta = signature_of(phi), signature_of(psi), signature_of(theta)
    bad_rels = sorted(r for r, _ in sig_theta.arities.items()
                      - (sig_phi.arities.items() & sig_psi.arities.items()))
    if bad_rels:
        return Verdict(Verdict.SIGNATURE_VIOLATION,
                       f"relations not shared: {', '.join(bad_rels)}")
    bad_consts = sorted(sig_theta.constants - (sig_phi.constants & sig_psi.constants))
    if bad_consts:
        return Verdict(Verdict.SIGNATURE_VIOLATION,
                       f"constants not shared: {', '.join(bad_consts)}")
    check_budget(budget)  # before the merges, as prove orders its checks
    for name, a, b, ra, rb in (("phi -> theta", phi, theta, sig_phi, sig_theta),
                               ("theta -> psi", theta, psi, sig_theta, sig_psi)):
        outcome = prove(_checked([a], [Not(b)], ra, negated_report(rb)), budget)
        if isinstance(outcome, Unknown):
            return Verdict(Verdict.ENTAILMENT_UNKNOWN,
                           f"budget exhausted proving {name}")
        if isinstance(outcome, Satisfiable):
            return Verdict(Verdict.NOT_ENTAILED, f"countermodel found for {name}",
                           outcome.structure)
    return Verdict(Verdict.VERIFIED)


def craig_interpolant(phi, psi, budget: int):
    """Craig interpolant for ⊨ phi -> psi via {nnf(phi)^L, nnf(¬psi)^R}.

    The result is emitted un-simplified and passes certify before being
    returned.
    """
    return _verified_interpolant(phi, psi, budget)[0]


def _verified_interpolant(phi, psi, budget: int):
    """craig_interpolant's work: (theta, the annotated tableau it was read off).
    phi, ¬psi and theta are walked once each: the three proofs' inputs, and
    the sides propagate reads, are built from those reports."""
    not_psi = Not(psi)  # one node for both proofs: its NNF is computed once
    theta, annotated = interpolant_from_labeled(labeled([phi], [not_psi]), budget)
    left, right = annotated.tableau.inputs.sides
    report = signature_of(theta)
    certify(theta, left.symbols() & right.symbols(),
            [("phi -> theta", _checked([phi], [Not(theta)], left, negated_report(report))),
             ("theta -> psi", _checked([theta], [not_psi], report, right))],
            budget, report)
    return theta, annotated


def lyndon_check(phi, psi, theta) -> bool:
    """Polarity inclusions of the Lyndon refinement (constants exempt).  A
    relation is its name and arity, as in verify_interpolant."""
    p, q, t = signature_of(phi), signature_of(psi), signature_of(theta)
    return (t.relsig_pos <= (p.relsig_pos & q.relsig_pos)
            and t.relsig_neg <= (p.relsig_neg & q.relsig_neg)
            and t.arities.items() <= (p.arities.items() & q.arities.items()))


# ---------------------------------------------------------------- search

_VAR_POOL = ("x0", "x1")  # the variables candidates may bind, outermost first


def enumerate_shared_formulas(relations: dict, constants: list, max_size: int):
    """Closed formulas over the given signature, each once (no (size, scope)
    list repeats), by size then construction order.  Negation is applied to
    atoms (and top) only; quantifier depth is bounded by the variable pool."""
    rel_names = sorted(relations)
    consts = sorted(constants)
    memo: dict = {}

    def atoms(scope: tuple) -> list:
        terms = [Var(v) for v in scope] + [Const(c) for c in consts]
        out = []
        for r in rel_names:
            for args in itertools.product(terms, repeat=relations[r]):
                out.append(Atom(r, args))
        return out

    def build(size: int, scope: tuple) -> list:
        key = (size, scope)
        if key in memo:
            return memo[key]
        out: list = []
        if size == 1:
            out.append(TOP)
            out.extend(atoms(scope))
        if size == 2:
            out.append(BOTTOM)
            out.extend(Not(a) for a in atoms(scope))
        if size >= 3:
            for left_size in range(1, size - 1):
                for f in build(left_size, scope):
                    for g in build(size - 1 - left_size, scope):
                        out.append(And((f, g)))
                        out.append(Or((f, g)))
        if size >= 2 and len(scope) < len(_VAR_POOL):
            v = _VAR_POOL[len(scope)]
            for f in build(size - 1, scope + (v,)):
                out.append(Exists((v,), f))
                out.append(Forall((v,), f))
        memo[key] = out
        return out

    for size in range(1, max_size + 1):
        yield from build(size, ())


_SCREEN_CAP = 300_000  # max structures worth enumerating for the model screen


def search_interpolant(phi, psi, max_size: int, budget: int,
                       screen_size: int = 3):
    """Brute-force enumeration over the shared signature.

    Candidates are screened against all structures of size <= screen_size
    (models of phi must satisfy the candidate; no countermodel of psi may)
    and survivors are confirmed with verify_interpolant.  Returns the first
    verified candidate in canonical order, or None.  Raises
    NotProvedWithinBudget at the first survivor whose verification runs out
    of budget: a later verified candidate would not be the first.
    """
    sig_phi, sig_psi = signature_of(phi), signature_of(psi)
    if sig_phi.free_vars or sig_psi.free_vars:  # checked before the screens run
        raise NonSentenceError("interpolant search expects sentences")
    arities = signature_of(phi, psi).arities  # raises on an arity clash
    shared_rels = {r: arities[r] for r in sorted(sig_phi.relations & sig_psi.relations)}
    shared_consts = sorted(sig_phi.constants & sig_psi.constants)

    def screen(sentence, sig):
        # the count grows with the size, so the largest size decides
        if screen_size >= 1 and count_structures(sig, screen_size) > _SCREEN_CAP:
            return None
        return list(satisfying_structures(sig, range(1, screen_size + 1), [sentence]))

    phi_models = screen(phi, sig_phi)
    psi_antimodels = screen(Not(psi), sig_psi)

    for theta in enumerate_shared_formulas(shared_rels, shared_consts, max_size):
        # evaluate's checks, once per candidate: every screen structure of
        # one list interprets exactly the symbols of its side.  Compiling
        # raises nothing, so the checks still raise first.
        report, holds = signature_of(theta), _compile(theta)
        if phi_models:
            _check_evaluable(report, sig_phi.arities, sig_phi.constants)
            if not all(holds(A, {}) for A in phi_models):
                continue
        if psi_antimodels:
            _check_evaluable(report, sig_psi.arities, sig_psi.constants)
            if any(holds(A, {}) for A in psi_antimodels):
                continue
        verdict = verify_interpolant(phi, psi, theta, budget)
        if verdict:
            return theta
        if verdict.kind == Verdict.ENTAILMENT_UNKNOWN:
            raise NotProvedWithinBudget(
                f"a screened candidate was neither verified nor refuted: "
                f"{verdict.details}")
    return None
