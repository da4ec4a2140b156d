"""Labeled semantic tableaux: budgeted proof search, closure detection and
Herbrand model extraction from saturated branches.

The calculus has four expansion rules (conjunction, disjunction, existential
with fresh constants, universal instantiation) and two closure rules (bottom
on the branch, or a literal clash).  Inputs are NNF sentences labeled L or R;
the labels ride along for interpolant propagation and play no role in the
search itself.

Expansion strategy.  Each branch keeps a deterministic agenda with four
tiers: (1) conjunctions and ∀-instantiations in FIFO order; (2) disjunctions
that can make progress — one with a disjunct already on the branch is
satisfied and skipped, one with a disjunct whose clash partner is on the
branch fires (that child closes immediately); (3) existentials in FIFO
order — split-descended witnesses first, then input-descended ones, then
∀-instantiation-descended ones (the only kind that can regenerate without
bound); (4) blind case splits, oldest first.  All fired rules are the vanilla
calculus rules, so soundness, model extraction and interpolant propagation
are unaffected; the ordering only controls which closed tableau is found.
∀-instantiation uses the oldest branch constant not yet tried for that
formula and re-enters the queue; a ∀ on a constant-free branch waits for
pending existentials and otherwise seeds one fresh constant (domains are
non-empty).  Multi-variable ∀ blocks peel one variable per application; ∃
blocks instantiate in one application.

The budget counts rule applications (created tableau nodes, closures
included).  No completeness promise is made within a finite budget.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    BranchNotSaturatedError, FormulaError, NonSentenceError, NotNNFError,
)
from .formulas import (
    BOTTOM, And, Atom, Const, Exists, Forall, Or,
    complement_literal, free_vars, is_literal, is_nnf, is_sentence,
    substitute_constant, walk,
)
from .models import Structure, evaluate, merged_signature


@dataclass(frozen=True)
class LabeledSentence:
    formula: object
    label: str  # "L" or "R"

    def __post_init__(self):
        if self.label not in ("L", "R"):
            raise FormulaError(f"label must be L or R, got {self.label!r}")


# ---------------------------------------------------------------- rules

@dataclass(frozen=True)
class Root:
    pass


@dataclass(frozen=True)
class Conj:
    premise: LabeledSentence


@dataclass(frozen=True)
class Disj:
    premise: LabeledSentence


@dataclass(frozen=True)
class ExistsRule:
    premise: LabeledSentence
    constants: tuple


@dataclass(frozen=True)
class ForallRule:
    premise: LabeledSentence
    constant: str


@dataclass(frozen=True)
class Closure:
    """Evidence is ("bottom", ls) or ("clash", positive_ls, negative_ls)."""
    evidence: tuple


@dataclass
class Node:
    id: int
    parent: "Node | None"
    introduced: tuple  # of LabeledSentence
    rule: object
    children: list = field(default_factory=list)


@dataclass
class ClosedTableau:
    root: Node
    inputs: tuple
    rule_applications: int

    def leaves(self) -> list:
        out = []
        stack = [self.root]
        while stack:
            n = stack.pop()
            if not n.children:
                out.append(n)
            stack.extend(reversed(n.children))
        return out

    def branch_count(self) -> int:
        return len(self.leaves())


@dataclass
class Branch:
    """Sentences of one branch, in introduction order, plus its constants."""
    sentences: tuple  # of LabeledSentence
    constants: tuple  # of constant names, oldest first

    @classmethod
    def from_sentences(cls, sentences) -> "Branch":
        ls = tuple(s if isinstance(s, LabeledSentence) else LabeledSentence(s, "L")
                   for s in sentences)
        consts: list = []
        seen: set = set()
        for s in ls:
            for c in _constants_in_order(s.formula):
                if c not in seen:
                    seen.add(c)
                    consts.append(c)
        return cls(ls, tuple(consts))


@dataclass(frozen=True)
class Closed:
    tableau: ClosedTableau


@dataclass(frozen=True)
class Satisfiable:
    structure: Structure
    branch: Branch


@dataclass(frozen=True)
class Unknown:
    budget_spent: int


Outcome = Closed | Satisfiable | Unknown


def _constants_in_order(phi) -> list:
    out, seen = [], set()
    for f in walk(phi):
        if isinstance(f, Atom):
            for t in f.args:
                if isinstance(t, Const) and t.name not in seen:
                    seen.add(t.name)
                    out.append(t.name)
    return out


# ---------------------------------------------------------------- agenda items

@dataclass
class _AlphaItem:
    ls: LabeledSentence
    kind: str  # "and" | "forall"
    next_const: int = 0  # forall only: index into branch constants

    def clone(self):
        return _AlphaItem(self.ls, self.kind, self.next_const)


_OPEN, _CLOSING, _DEAD = 0, 1, 2


@dataclass
class _BetaItem:
    ls: LabeledSentence
    state: int = _OPEN

    def clone(self):
        return _BetaItem(self.ls, self.state)


class _BranchState:
    """Mutable search state of one open branch."""

    __slots__ = ("node", "formulas", "constants", "const_set", "alpha",
                 "exists_queues", "beta_closing", "beta_open", "promote",
                 "evidence")

    def __init__(self):
        self.node: Node = None
        self.formulas: dict = {}   # formula -> LabeledSentence (first label wins)
        self.constants: list = []
        self.const_set: set = set()
        self.alpha: deque = deque()
        # 0: split-descended, 1: input/structural, 2: ∀-instantiation-descended
        self.exists_queues: tuple = (deque(), deque(), deque())
        self.beta_closing: deque = deque()
        self.beta_open: deque = deque()
        self.promote: dict = {}    # literal formula -> [beta items it would close]
        self.evidence = None

    def clone(self) -> "_BranchState":
        b = _BranchState.__new__(_BranchState)
        b.node = self.node
        b.formulas = dict(self.formulas)
        b.constants = list(self.constants)
        b.const_set = set(self.const_set)
        b.alpha = deque(it.clone() for it in self.alpha)
        b.exists_queues = tuple(deque(q) for q in self.exists_queues)
        copies: dict = {}

        def copy_of(item):
            new = copies.get(id(item))
            if new is None:
                new = copies[id(item)] = item.clone()
            return new

        b.beta_closing = deque(copy_of(it) for it in self.beta_closing
                               if it.state != _DEAD)
        b.beta_open = deque(copy_of(it) for it in self.beta_open
                            if it.state != _DEAD)
        b.promote = {}
        for key, items in self.promote.items():
            live = [copy_of(it) for it in items if it.state == _OPEN]
            if live:
                b.promote[key] = live
        b.evidence = self.evidence
        return b

    # -- sentence introduction ------------------------------------------

    def add(self, ls: LabeledSentence, origin: int = 1) -> bool:
        """Record a sentence; returns False if already present (regularity).

        origin ranks any existential it enqueues: 0 for split-descended,
        1 for structural, 2 for ∀-instantiation-descended.
        """
        f = ls.formula
        if f in self.formulas:
            return False
        self.formulas[f] = ls
        for c in _constants_in_order(f):
            if c not in self.const_set:
                self.const_set.add(c)
                self.constants.append(c)
        if self.evidence is None:
            if f == BOTTOM:
                self.evidence = ("bottom", ls)
            elif is_literal(f):
                comp = complement_literal(f)
                partner = self.formulas.get(comp)
                if partner is not None:
                    if isinstance(f, Atom):
                        self.evidence = ("clash", ls, partner)
                    else:
                        self.evidence = ("clash", partner, ls)
        # promotion: this formula may be the clash partner some disjunct waits for
        for item in self.promote.pop(f, []):
            if item.state == _OPEN:
                item.state = _CLOSING
                self.beta_closing.append(item)
        if isinstance(f, And):
            self.alpha.append(_AlphaItem(ls, "and"))
        elif isinstance(f, Or):
            item = _BetaItem(ls)
            for g in f.items:
                if g == BOTTOM:
                    item.state = _CLOSING
                    continue
                comp = complement_literal(g)
                if comp is not None:
                    if comp in self.formulas:
                        item.state = _CLOSING
                    else:
                        self.promote.setdefault(comp, []).append(item)
            if item.state == _CLOSING:
                self.beta_closing.append(item)
            else:
                self.beta_open.append(item)
        elif isinstance(f, Exists):
            self.exists_queues[origin].append(ls)
        elif isinstance(f, Forall):
            self.alpha.append(_AlphaItem(ls, "forall"))
        return True

    # -- agenda ----------------------------------------------------------

    def next_alpha(self):
        for _ in range(len(self.alpha)):
            item = self.alpha[0]
            if item.kind == "and":
                self.alpha.popleft()
                return item
            if item.next_const < len(self.constants) or (
                    not self.constants and not any(self.exists_queues)):
                self.alpha.popleft()
                return item
            self.alpha.rotate(-1)  # dormant forall: look past it
        return None

    def _pop_beta(self, queue: deque, want: int):
        while queue:
            item = queue.popleft()
            if item.state != want:
                continue
            if any(g in self.formulas for g in item.ls.formula.items):
                item.state = _DEAD  # some disjunct already holds: satisfied
                continue
            item.state = _DEAD
            return item
        return None

    def next_closing_beta(self):
        return self._pop_beta(self.beta_closing, _CLOSING)

    def next_open_beta(self):
        return self._pop_beta(self.beta_open, _OPEN)

    def next_exists(self):
        for queue in self.exists_queues:
            if queue:
                return queue.popleft()
        return None


class _Prover:
    def __init__(self, inputs, budget: int):
        self.inputs = tuple(inputs)
        self.budget = budget
        self.applications = 0
        self.next_id = 0
        avoid = set()
        for ls in inputs:
            avoid.update(_constants_in_order(ls.formula))
        self.avoid = avoid
        self.fresh_index = 0

    def fresh(self) -> str:
        while f"c{self.fresh_index}" in self.avoid:
            self.fresh_index += 1
        name = f"c{self.fresh_index}"
        self.fresh_index += 1
        return name

    def new_node(self, parent, introduced, rule) -> Node:
        node = Node(self.next_id, parent, tuple(introduced), rule)
        self.next_id += 1
        if parent is not None:
            parent.children.append(node)
        return node

    def run(self):
        root = Node(self.next_id, None, self.inputs, Root())
        self.next_id += 1
        branch = _BranchState()
        branch.node = root
        for ls in self.inputs:
            branch.add(ls)
        stack = [branch]
        while stack:
            branch = stack.pop()
            verdict = self.work(branch, stack)
            if verdict == "budget":
                return Unknown(self.applications)
            if isinstance(verdict, Satisfiable):
                return verdict
        return Closed(ClosedTableau(root, self.inputs, self.applications))

    def work(self, branch: _BranchState, stack: list):
        """Expand one branch until it closes, saturates, splits or budget ends."""
        while True:
            if branch.evidence is not None:
                if self.applications >= self.budget:
                    return "budget"
                self.applications += 1
                self.new_node(branch.node, (), Closure(branch.evidence))
                return "closed"
            if self.applications >= self.budget:
                return "budget"
            item = branch.next_alpha()
            if item is not None:
                self.fire_alpha(branch, item)
                continue
            beta = branch.next_closing_beta()
            if beta is not None:
                self.applications += 1
                self.fire_beta(branch, beta, stack)
                return "split"
            ex = branch.next_exists()
            if ex is not None:
                self.fire_exists(branch, ex)
                continue
            beta = branch.next_open_beta()
            if beta is not None:
                self.applications += 1
                self.fire_beta(branch, beta, stack)
                return "split"
            return self.saturate(branch)

    def fire_exists(self, branch: _BranchState, ls: LabeledSentence):
        f = ls.formula
        used = free_vars(f.body)  # vacuous block variables mint no constants
        mapping = {v: self.fresh() for v in f.vars if v in used}
        body = f.body
        for v, c in mapping.items():
            body = substitute_constant(body, v, c)
        gls = LabeledSentence(body, ls.label)
        self.applications += 1
        branch.node = self.new_node(branch.node, (gls,),
                                    ExistsRule(ls, tuple(mapping.values())))
        branch.add(gls)

    def fire_alpha(self, branch: _BranchState, item: _AlphaItem):
        ls = item.ls
        f = ls.formula
        if item.kind == "and":
            intro = [LabeledSentence(g, ls.label) for g in f.items
                     if g not in branch.formulas]
            if intro:
                self.applications += 1
                branch.node = self.new_node(branch.node, intro, Conj(ls))
                for gls in intro:
                    branch.add(gls)
            return
        # forall: peel the first block variable with one constant
        if not branch.constants:
            c = self.fresh()
            branch.const_set.add(c)
            branch.constants.append(c)
            item.next_const = 0
        c = branch.constants[item.next_const]
        item.next_const += 1
        peeled = substitute_constant(f.body, f.vars[0], c)
        if len(f.vars) > 1:
            peeled = Forall(f.vars[1:], peeled)
        if peeled not in branch.formulas:
            gls = LabeledSentence(peeled, ls.label)
            self.applications += 1
            branch.node = self.new_node(branch.node, (gls,), ForallRule(ls, c))
            branch.add(gls, origin=2)
        branch.alpha.append(item)  # await further constants

    def fire_beta(self, branch: _BranchState, item: _BetaItem, stack: list):
        ls = item.ls
        children = []
        for g in ls.formula.items:
            child = branch.clone()
            gls = LabeledSentence(g, ls.label)
            node = self.new_node(branch.node, (gls,), Disj(ls))
            child.node = node
            child.add(gls, origin=0)
            children.append(child)
        stack.extend(reversed(children))

    def saturate(self, branch: _BranchState):
        model_branch = Branch(tuple(branch.formulas.values()), tuple(branch.constants))
        structure = saturated_branch_model(model_branch)
        for ls in self.inputs:
            if not evaluate(structure, ls.formula):
                raise FormulaError(
                    "internal error: extracted model fails an input sentence")
        return Satisfiable(structure, model_branch)


def prove(inputs, budget: int):
    """Run the tableau on labeled NNF sentences.

    Returns Closed (the input set is unsatisfiable), Satisfiable (with a
    verified finite model) or Unknown (budget exhausted).
    """
    if budget <= 0:
        raise FormulaError("budget must be positive")
    norm = []
    for s in inputs:
        ls = s if isinstance(s, LabeledSentence) else LabeledSentence(s, "L")
        if not is_sentence(ls.formula):
            raise NonSentenceError(f"free variables in input: {ls.formula!r}")
        if not is_nnf(ls.formula):
            raise NotNNFError(f"input not in NNF: {ls.formula!r}")
        norm.append(ls)
    return _Prover(norm, budget).run()


# ---------------------------------------------------------------- models

def _hintikka_violation(branch: Branch):
    present = {ls.formula for ls in branch.sentences}
    consts = branch.constants
    if BOTTOM in present:
        return "branch is closed by bottom"
    for f in present:
        if is_literal(f):
            comp = complement_literal(f)
            if comp in present:
                return f"branch is closed by a clash on {f!r}"
    for f in present:
        if isinstance(f, And):
            for g in f.items:
                if g not in present:
                    return f"conjunct {g!r} not expanded"
        elif isinstance(f, Or):
            if not any(g in present for g in f.items):
                return f"no disjunct of {f!r} on the branch"
        elif isinstance(f, Exists):
            if not _exists_witnessed(f, present, consts):
                return f"no witness for {f!r}"
        elif isinstance(f, Forall):
            if not consts:
                return f"{f!r} never instantiated"
            for c in consts:
                peeled = substitute_constant(f.body, f.vars[0], c)
                if len(f.vars) > 1:
                    peeled = Forall(f.vars[1:], peeled)
                if peeled not in present:
                    return f"{f!r} not instantiated with {c}"
    return None


def _exists_witnessed(f: Exists, present: set, consts) -> bool:
    for values in itertools.product(consts, repeat=len(f.vars)):
        body = f.body
        for v, c in zip(f.vars, values):
            body = substitute_constant(body, v, c)
        if body in present:
            return True
    return False


def saturated_branch_model(branch: Branch) -> Structure:
    """Herbrand structure over the branch constants of a saturated open branch."""
    problem = _hintikka_violation(branch)
    if problem is not None:
        raise BranchNotSaturatedError(problem)
    consts = list(branch.constants)
    if not consts:
        domain = 1
        index = {}
    else:
        domain = len(consts)
        index = {c: i for i, c in enumerate(consts)}
    sig = merged_signature([ls.formula for ls in branch.sentences])
    relations = {r: set() for r in sig.relations}
    for ls in branch.sentences:
        f = ls.formula
        if isinstance(f, Atom):
            relations[f.rel].add(tuple(index[t.name] for t in f.args))
    structure = Structure(domain,
                          {r: frozenset(ts) for r, ts in relations.items()},
                          {c: index[c] for c in consts})
    for ls in branch.sentences:
        if not evaluate(structure, ls.formula):
            raise BranchNotSaturatedError(
                f"Herbrand structure fails branch sentence {ls.formula!r}")
    return structure


# ---------------------------------------------------------------- trace

def render_trace(tableau: ClosedTableau, interpolants: dict | None = None) -> str:
    """Indented text mirroring the shape of a closed tableau.

    One line per introduced sentence with its label and rule; branch points
    indent their subtrees.  With ``interpolants`` (node id -> formula), each
    node gets a ``[interpolant ...]`` line.
    """
    from .parser import print_formula

    lines: list = []

    def rule_tag(rule) -> str:
        if isinstance(rule, Root):
            return "input"
        if isinstance(rule, Conj):
            return "and"
        if isinstance(rule, Disj):
            return "or"
        if isinstance(rule, ExistsRule):
            return "exists " + ", ".join(rule.constants)
        if isinstance(rule, ForallRule):
            return f"forall {rule.constant}"
        return "closure"

    stack = [(tableau.root, 0)]
    while stack:
        node, depth = stack.pop()
        pad = "  " * depth
        if isinstance(node.rule, Closure):
            ev = node.rule.evidence
            if ev[0] == "bottom":
                ls = ev[1]
                lines.append(f"{pad}x  bottom: {print_formula(ls.formula)} ^{ls.label}")
            else:
                _, pos, neg = ev
                lines.append(
                    f"{pad}x  clash: {print_formula(pos.formula)} ^{pos.label}"
                    f" / {print_formula(neg.formula)} ^{neg.label}")
        else:
            tag = rule_tag(node.rule)
            for ls in node.introduced:
                lines.append(f"{pad}* {print_formula(ls.formula)} ^{ls.label}  [{tag}]")
        if interpolants is not None and node.id in interpolants:
            lines.append(f"{pad}  [interpolant {print_formula(interpolants[node.id])}]")
        child_depth = depth + 1 if len(node.children) > 1 else depth
        stack.extend((ch, child_depth) for ch in reversed(node.children))

    return "\n".join(lines) + "\n"
