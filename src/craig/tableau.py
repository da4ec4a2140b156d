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
bound); (4) blind case splits, oldest first.  The disjunction queues hold
the sentences themselves: a disjunction joins tier (2) for a clash partner
already there and again each time one arrives, so it may wait more than
once.  A split one has a disjunct on every child branch, so it is skipped
wherever else it waits.  All fired rules are the vanilla calculus rules, so
soundness, model extraction and interpolant propagation are unaffected; the
ordering only controls which closed tableau is found.
∀-instantiation uses the oldest branch constant not yet tried for that
formula and re-enters the queue; a ∀ on a constant-free branch waits for
pending existentials and otherwise seeds one fresh constant (domains are
non-empty).  A ∀ that has tried every branch constant is dormant: it keeps
its place in tier (1) but waits off the scan, since a second queue holds
only the tier-(1) items that can fire, in the same order.  When a constant
arrives (an ∃ instance's, or a seeded one) every dormant ∀ wakes, in order.
When an item fires, the dormant items before it move to the back of tier
(1) in order, just as a scan past them would leave them.  Multi-variable ∀
blocks peel one variable per application; ∃ blocks instantiate in one
application.  Each ∀ instance comes from its formula's substitution program
(``formulas.compile_substitution``), compiled once per proof, at the
formula's first instantiation, and shared by every branch: an instance
rebuilds only the path from the body's root to the variable's occurrences
and reuses every other subtree; terms are interned, so all instances share
one ``Const`` per constant name.

Constants.  The ∀ rule tries a branch's constants oldest first.  Only inputs
and ∃ instances bring new ones: the inputs' constants join first, in order of
first occurrence, then each ∃ instance's fresh constants in the order their
variables first occur in the body (a ∀ on a constant-free branch registers
the constant it seeds itself).  Conjuncts, disjuncts and ∀ instances use only
constants already on the branch, so adding them registers nothing.

Search state.  One mutable branch state serves the whole depth-first
search.  A split creates every child node at once, in disjunct order, leaves
a choice point (trail mark, child node, disjunct) for each child after the
first, and goes straight on into the first.  While a choice point is open,
every change to the branch state logs its inverse on an undo trail, a flat
list on which each entry is the inverse's arguments followed by an int
opcode; when a branch closes, the latest choice point is popped, the trail
is undone down to its mark and the next child is entered.  Nothing before
the lowest open choice point is ever undone, so the trail is None, and
nothing is logged, until the first split and again once the last pending
child is entered.  Search order, node ids and fresh constants are those of a
search that copied the branch at every split.  No part of the proof state
refers back to what holds it (a node names its children, not its parent,
and no trail entry names the branch state), so a finished proof is freed by
reference counting alone, without the cyclic collector.

The budget counts rule applications: one per ∧, ∀ or ∃ step that adds a
node, one per closure, and one per split, however many children the split
creates.  No completeness promise is made within a finite budget.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    BranchNotSaturatedError, FormulaError, NonSentenceError, NotNNFError,
    NotProvedWithinBudget, NotValid,
)
from .formulas import (
    BOTTOM, And, Atom, Const, Exists, Forall, Not, Or, Top, _slot_setters,
    SignatureReport, compile_substitution, fresh_names, frozen_record, is_nnf,
    is_sentence, merge_reports, signature_of, to_nnf,
)
from .models import Structure, evaluate


# A LabeledSentence is made per introduced sentence, so its __init__ sets the
# slots directly, with no per-field object.__setattr__ and no __post_init__
# call for the label check: the generated __init__ with a __post_init__ cost
# pelletier-prove 3.1 % of its items per kref (median of 8 alternating pairs
# of runs, behind in 7).  frozen_record still supplies ==, hash, repr,
# immutability and pickling.
@frozen_record(init=False)
class LabeledSentence:
    formula: object
    label: str  # "L" or "R"

    def __init__(self, formula, label):
        if label not in ("L", "R"):
            raise FormulaError(f"label must be L or R, got {label!r}")
        _SET_FORMULA(self, formula)
        _SET_LABEL(self, label)


_SET_FORMULA, _SET_LABEL = _slot_setters(LabeledSentence)


def labeled(left, right) -> list:
    """Prover input for refuting left ∪ right: the NNF of each left sentence
    labeled L, then the NNF of each right sentence labeled R, in order."""
    return [LabeledSentence(to_nnf(s), label)
            for label, part in (("L", left), ("R", right)) for s in part]


# ---------------------------------------------------------------- rules

@frozen_record
class Root:
    pass


@frozen_record
class Conj:
    premise: LabeledSentence


@frozen_record
class Disj:
    premise: LabeledSentence


@frozen_record
class ExistsRule:
    premise: LabeledSentence
    constants: tuple


@frozen_record
class ForallRule:
    premise: LabeledSentence
    constant: str


@frozen_record
class Closure:
    """Evidence is ("bottom", ls) or ("clash", positive_ls, negative_ls)."""
    evidence: tuple


@dataclass(slots=True)
class Node:
    id: int
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
        return cls(ls, tuple(signature_of(*(s.formula for s in ls)).constants))


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


# ---------------------------------------------------------------- agenda items

@dataclass(eq=False, slots=True)  # compared by identity: alpha.index finds this very item
class _AlphaItem:
    ls: LabeledSentence  # an ∧ or a ∀
    next_const: int = 0  # ∀ only: index into branch constants


# undo-trail opcodes; an entry is the inverse's arguments, then its opcode:
# (seq, _POP) undoes an append, (queue, x, _APPENDLEFT) a popleft, (container,
# key, _DELITEM) an insertion, (container, key, value, _SETITEM) a removal,
# (obj, name, value, _SETATTR) an agenda item's assignment, (name, value,
# _RESTORE) one of the branch state's own and (k, _ROTATE) alpha's rotate(-k)
_POP, _APPENDLEFT, _DELITEM, _SETITEM, _SETATTR, _RESTORE, _ROTATE = range(7)


class _BranchState:
    """Search state of the branch being expanded, shared by every branch.

    ``choices`` holds the open choice points (trail mark, child node,
    disjunct), the latest on top.  While one is open, every mutation pushes
    its inverse onto ``trail``, a flat list: the inverse's arguments, then
    its opcode.  ``undo_to(mark)`` pops an opcode, then its arguments, and
    applies the inverse, newest first, until the trail is back to ``mark``
    entries.  No entry names the branch state itself (its own attributes are
    restored by name), so the trail makes no reference cycle.  With no choice
    point open ``trail`` is None and nothing is logged.
    """

    __slots__ = ("node", "formulas", "constants", "alpha", "ready",
                 "exists_queues", "beta_closing", "beta_open", "promote",
                 "evidence", "trail", "choices")

    def __init__(self):
        self.node: Node = None
        self.formulas: dict = {}   # formula -> LabeledSentence (first label wins)
        self.constants: list = []
        self.alpha: deque = deque()
        # with constants on the branch: alpha's items that can fire, in alpha's
        # order (every ∧ and each ∀ with a constant left to try); else empty
        self.ready: deque = deque()
        # 0: split-descended, 1: input/structural, 2: ∀-instantiation-descended
        self.exists_queues: tuple = (deque(), deque(), deque())
        self.beta_closing: deque = deque()
        self.beta_open: deque = deque()
        self.promote: dict = {}    # literal formula -> [disjunctions it would close]
        self.evidence = None
        self.trail: list | None = None
        self.choices: list = []

    # -- choice points and the trail --------------------------------------

    def split(self, children: list):
        """Open a choice point for every (node, disjunct) after the first and
        enter the first."""
        if self.trail is None:
            self.trail = []
        mark = len(self.trail)
        self.choices.extend((mark, node, gls) for node, gls in reversed(children[1:]))
        self.enter(*children[0])

    def backtrack(self) -> bool:
        """Resume the latest choice point; False when none is left."""
        if not self.choices:
            return False
        mark, node, gls = self.choices.pop()
        self.undo_to(mark)
        if not self.choices:
            self.trail = None  # nothing before this point is ever undone
        self.enter(node, gls)
        return True

    def enter(self, node: Node, gls: LabeledSentence):
        self.node = node
        self.add(gls, origin=0)

    def undo_to(self, mark: int):
        trail = self.trail
        pop = trail.pop
        while len(trail) > mark:
            op = pop()
            if op == _POP:
                pop().pop()
            elif op == _APPENDLEFT:
                x = pop()
                pop().appendleft(x)
            elif op == _DELITEM:
                key = pop()
                del pop()[key]
            elif op == _SETATTR:
                value, name = pop(), pop()
                setattr(pop(), name, value)
            elif op == _SETITEM:
                value, key = pop(), pop()
                pop()[key] = value
            elif op == _RESTORE:
                value = pop()
                setattr(self, pop(), value)
            else:
                self.alpha.rotate(pop())

    def assign(self, obj, name: str, value):
        """Set an agenda item's attribute."""
        if self.trail is not None:
            self.trail += (obj, name, getattr(obj, name), _SETATTR)
        setattr(obj, name, value)

    def assign_own(self, name: str, value):
        """Set one of the branch state's own attributes."""
        if self.trail is not None:
            self.trail += (name, getattr(self, name), _RESTORE)
        setattr(self, name, value)

    def push(self, seq, x):
        """Append x to a list or deque."""
        seq.append(x)
        if self.trail is not None:
            self.trail += (seq, _POP)

    def popleft(self, queue: deque):
        x = queue.popleft()
        if self.trail is not None:
            self.trail += (queue, x, _APPENDLEFT)
        return x

    # -- sentence introduction ------------------------------------------

    def add(self, ls: LabeledSentence, origin: int = 1) -> bool:
        """Record a sentence; returns False if already present (regularity).
        Its constants must already be on the branch.

        origin ranks any existential it enqueues: 0 for split-descended,
        1 for structural, 2 for ∀-instantiation-descended.
        """
        f = ls.formula
        formulas = self.formulas
        if f in formulas:
            return False
        trail, promote = self.trail, self.promote
        formulas[f] = ls
        if trail is not None:
            trail += (formulas, f, _DELITEM)
        kind = type(f)  # exact types: one dispatch per sentence (inputs are NNF)
        if kind is Atom or kind is Not:
            if self.evidence is None:
                if kind is Not and type(f.sub) is Top:
                    self.assign_own("evidence", ("bottom", ls))
                else:
                    partner = formulas.get(Not(f) if kind is Atom else f.sub)
                    if partner is not None:
                        pair = (ls, partner) if kind is Atom else (partner, ls)
                        self.assign_own("evidence", ("clash", *pair))
            # promotion: this literal may be the clash partner some disjunct waits for
            waiting = promote.pop(f, None) if promote else None
            if waiting is not None:
                if trail is not None:
                    trail += (promote, f, waiting, _SETITEM)
                for waiting_ls in waiting:
                    self.push(self.beta_closing, waiting_ls)
        elif kind is And or kind is Forall:
            self.push_alpha(_AlphaItem(ls))
        elif kind is Or:
            closing = False
            for g in f.items:
                if type(g) is Atom:
                    comp = Not(g)
                elif type(g) is Not:
                    comp = g.sub
                    if type(comp) is Top:  # ⊥: this disjunct closes at once
                        closing = True
                        continue
                else:
                    continue
                if comp in formulas:
                    closing = True
                elif comp in promote:
                    self.push(promote[comp], ls)
                else:
                    promote[comp] = [ls]
                    if trail is not None:
                        trail += (promote, comp, _DELITEM)
            self.push(self.beta_closing if closing else self.beta_open, ls)
        elif kind is Exists:
            self.push(self.exists_queues[origin], ls)
        return True

    def push_alpha(self, item: _AlphaItem):
        """Append an item to alpha, and to ready if it can fire."""
        self.push(self.alpha, item)
        if item.next_const < len(self.constants):  # an ∧ item's next_const is 0
            self.push(self.ready, item)

    def add_constants(self, names):
        """Put new constants on the branch: every ∀ item gets one to try, so
        all of alpha becomes ready."""
        for c in names:
            self.push(self.constants, c)
        self.assign_own("ready", deque(self.alpha))

    # -- agenda ----------------------------------------------------------

    def next_alpha(self):
        """Pop alpha's first item that can fire.  The dormant ∀ items before it
        (no constant left to try) rotate to the back, in order, as if
        scanned past; with constants on the branch, ready names the item."""
        alpha = self.alpha
        if self.constants:
            if not self.ready:
                return None
            item = self.popleft(self.ready)
            k = alpha.index(item)
        else:  # only ∧ items can fire, and ∀ items once no ∃ is pending
            fire_all = not any(self.exists_queues)
            k = next((k for k, item in enumerate(alpha)
                      if fire_all or type(item.ls.formula) is And), None)
            if k is None:
                return None
        if k:
            alpha.rotate(-k)
            if self.trail is not None:
                self.trail += (k, _ROTATE)
        return self.popleft(alpha)

    def next_beta(self, queue: deque):
        """Pop the queue's first disjunction with no disjunct on the branch."""
        formulas = self.formulas
        while queue:
            ls = self.popleft(queue)
            if not any(g in formulas for g in ls.formula.items):
                return ls
        return None

    def next_exists(self):
        for queue in self.exists_queues:
            if queue:
                return self.popleft(queue)
        return None


class _Prover:
    def __init__(self, inputs, budget: int, constants):
        self.inputs = tuple(inputs)
        self.budget = budget
        self.applications = 0
        self.next_id = 0
        self.avoid = constants  # the inputs' constants, in first-occurrence order
        self.fresh = fresh_names("c", constants)  # one supply: no branch reuses a name
        # ∀ formula -> the compiled substitution of its first block variable;
        # a cache for this proof, shared by every branch, so never on the trail
        self.programs: dict = {}

    def new_node(self, parent: Node, introduced, rule) -> Node:
        node = Node(self.next_id, tuple(introduced), rule)
        self.next_id += 1
        parent.children.append(node)
        return node

    def run(self):
        root = Node(self.next_id, self.inputs, Root())
        self.next_id += 1
        branch = _BranchState()
        branch.node = root
        branch.constants.extend(self.avoid)  # no choice point yet: nothing to undo
        for ls in self.inputs:
            branch.add(ls)
        while True:
            outcome = self.work(branch)
            if outcome is not None:
                return outcome
            if not branch.backtrack():
                return Closed(ClosedTableau(root, self.inputs, self.applications))

    def work(self, branch: _BranchState):
        """Expand the current branch until it closes (None), saturates or the
        budget ends."""
        while True:
            if self.applications >= self.budget:
                return Unknown(self.applications)
            if branch.evidence is not None:
                self.applications += 1
                self.new_node(branch.node, (), Closure(branch.evidence))
                return None
            item = branch.next_alpha()
            if item is not None:
                self.fire_alpha(branch, item)
                continue
            beta = branch.next_beta(branch.beta_closing)
            if beta is not None:
                self.fire_beta(branch, beta)
                continue
            ex = branch.next_exists()
            if ex is not None:
                self.fire_exists(branch, ex)
                continue
            beta = branch.next_beta(branch.beta_open)
            if beta is not None:
                self.fire_beta(branch, beta)
                continue
            return self.saturate(branch)

    def fire_exists(self, branch: _BranchState, ls: LabeledSentence):
        f = ls.formula
        program = compile_substitution(f.body, f.vars)
        used = program.vars  # vacuous block variables mint no constants
        mapping = {v: next(self.fresh) for v in f.vars if v in used}
        names = [mapping[v] for v in used]  # in the order the body uses them
        gls = LabeledSentence(program.run(tuple(map(Const, names))), ls.label)
        self.applications += 1
        branch.node = self.new_node(branch.node, (gls,),
                                    ExistsRule(ls, tuple(mapping.values())))
        if names:
            branch.add_constants(names)
        branch.add(gls)

    def fire_alpha(self, branch: _BranchState, item: _AlphaItem):
        ls = item.ls
        f = ls.formula
        if type(f) is And:
            intro = [LabeledSentence(g, ls.label) for g in f.items
                     if g not in branch.formulas]
            if intro:
                self.applications += 1
                branch.node = self.new_node(branch.node, intro, Conj(ls))
                for gls in intro:
                    branch.add(gls)
            return
        # forall: peel the first block variable with one constant
        if not branch.constants:  # so no constant was tried: next_const is 0
            branch.add_constants((next(self.fresh),))
        c = branch.constants[item.next_const]
        branch.assign(item, "next_const", item.next_const + 1)
        program = self.programs.get(f)
        if program is None:
            program = self.programs[f] = compile_substitution(f.body, f.vars[:1])
        peeled = _instantiate_first(f, (Const(c),), program)
        if peeled not in branch.formulas:
            gls = LabeledSentence(peeled, ls.label)
            self.applications += 1
            branch.node = self.new_node(branch.node, (gls,), ForallRule(ls, c))
            branch.add(gls, origin=2)
        branch.push_alpha(item)  # await further constants

    def fire_beta(self, branch: _BranchState, ls: LabeledSentence):
        """Split: every child node is made now, in disjunct order; the search
        goes on into the first and the others wait as choice points."""
        self.applications += 1
        children = []
        for g in ls.formula.items:
            gls = LabeledSentence(g, ls.label)
            children.append((self.new_node(branch.node, (gls,), Disj(ls)), gls))
        branch.split(children)

    def saturate(self, branch: _BranchState):
        """The model of a saturated branch.  saturated_branch_model checks it
        on every branch sentence, and the inputs are all on the branch."""
        model_branch = Branch(tuple(branch.formulas.values()), tuple(branch.constants))
        return Satisfiable(saturated_branch_model(model_branch), model_branch)


def check_budget(budget):
    """A budget that is not a positive int (a bool is not) raises FormulaError."""
    if type(budget) is not int or budget <= 0:
        raise FormulaError(f"budget must be a positive int, got {budget!r}")


@frozen_record
class ProverInput:
    """A checked prover input: labeled NNF sentences and their joint report.
    ``sides`` are the reports of its L and of its R sentences where the
    check walked them apart (check_sides), else None.  Made only by the
    input check (check_input, check_sides); prove trusts it, since formulas
    are immutable.  Iterating it yields the sentences."""

    sentences: tuple  # of LabeledSentence
    report: SignatureReport
    sides: tuple | None = None

    def __iter__(self):
        return iter(self.sentences)


def check_input(inputs, report=None, sides=None) -> ProverInput:
    """The input check of prove; a bare formula is labeled L.  Without a
    report the inputs are walked first, and a relation used with two
    arities raises FormulaError; a given report is trusted as the inputs'
    joint one (an NNF has its sentence's report; see negated_report), and
    given sides as the reports of its L and of its R inputs.  Then, input
    by input, an open one raises NonSentenceError (a FormulaError) and one
    not in NNF raises NotNNFError."""
    norm = tuple([s if isinstance(s, LabeledSentence) else LabeledSentence(s, "L")
                  for s in inputs])
    if report is None:
        report = signature_of(*[ls.formula for ls in norm])  # raises on an arity clash
    for ls in norm:
        if report.free_vars and not is_sentence(ls.formula):
            raise NonSentenceError(f"free variables in input: {ls.formula!r}")
        if not is_nnf(ls.formula):
            raise NotNNFError(f"input not in NNF: {ls.formula!r}")
    return ProverInput(norm, report, sides)


def check_sides(left: list, right: list) -> ProverInput:
    """check_input(left + right) for an L part and an R part (lists of
    LabeledSentence), with one walk per part: the input's sides are the two
    parts' reports.  The errors and their order are the joint check's: when
    a part's walk raises, the joint walk raises its error, and a clash
    across the parts raises from the merge."""
    joint = (*left, *right)
    try:
        sides = (signature_of(*[ls.formula for ls in left]),
                 signature_of(*[ls.formula for ls in right]))
    except FormulaError:
        check_input(joint)
        raise
    return check_input(joint, merge_reports(*sides), sides)


def prove(inputs, budget: int):
    """Run the tableau on labeled NNF sentences.

    Returns Closed (the input set is unsatisfiable), Satisfiable (with a
    verified finite model) or Unknown (budget exhausted).  inputs are raw
    (labeled sentences or bare formulas, labeled L), which check_input
    checks, or a ProverInput, which the check already made and prove
    trusts; every proving entry point takes one or the other.  The errors
    come in this order: a budget that is not a positive int (a bool is not)
    raises FormulaError; then, for raw inputs, a relation used with two
    arities raises FormulaError, and after it, input by input, an open one
    raises NonSentenceError (a FormulaError) and one not in NNF raises
    NotNNFError.  A caller that checks its inputs itself checks the budget
    first too (check_budget), so its errors come in the same order.
    """
    check_budget(budget)
    if not isinstance(inputs, ProverInput):
        inputs = check_input(inputs)
    return _Prover(inputs.sentences, budget, inputs.report.constants).run()


def refute(inputs, budget: int) -> ClosedTableau:
    """prove for callers that need the closed tableau: raise NotValid with the
    countermodel, or NotProvedWithinBudget."""
    outcome = prove(inputs, budget)
    if isinstance(outcome, Satisfiable):
        raise NotValid("the input set is satisfiable", outcome.structure)
    if isinstance(outcome, Unknown):
        raise NotProvedWithinBudget(
            f"budget exhausted after {outcome.budget_spent} rule applications",
            outcome.budget_spent)
    return outcome.tableau


# ---------------------------------------------------------------- models

def _hintikka_violation(branch: Branch):
    present = {ls.formula for ls in branch.sentences}
    consts = branch.constants
    if BOTTOM in present:
        return "branch is closed by bottom"
    for f in present:
        if type(f) is Atom and Not(f) in present:
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
            program = compile_substitution(f.body, f.vars[:1])
            for c in consts:
                if _instantiate_first(f, (Const(c),), program) not in present:
                    return f"{f!r} not instantiated with {c}"
    return None


def _exists_witnessed(f: Exists, present: set, consts) -> bool:
    program = compile_substitution(f.body, f.vars)
    # only the variables the body uses range over the constants: a vacuous
    # one changes nothing in the instance, and a body that uses none is its
    # own one instance, on a branch with no constants too
    for values in itertools.product(map(Const, consts), repeat=len(program.vars)):
        if program.run(values) in present:
            return True
    return False


def _instantiate_first(f: Forall, args: tuple, program):
    """f with its first block variable instantiated to the constant in args,
    a 1-tuple (Const,); the rest of the block stays a ∀.  program is
    compile_substitution(f.body, f.vars[:1])."""
    body = program.run(args)
    return Forall(f.vars[1:], body) if len(f.vars) > 1 else body


def saturated_branch_model(branch: Branch) -> Structure:
    """Herbrand structure over the branch constants of a saturated open branch."""
    problem = _hintikka_violation(branch)
    if problem is not None:
        raise BranchNotSaturatedError(problem)
    index = {c: i for i, c in enumerate(branch.constants)}
    sig = signature_of(*(ls.formula for ls in branch.sentences))
    relations = {r: set() for r in sig.relations}
    for ls in branch.sentences:
        f = ls.formula
        if isinstance(f, Atom):
            relations[f.rel].add(tuple(index[t.name] for t in f.args))
    structure = Structure(max(len(index), 1), relations, index)  # non-empty domain
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
        return f"forall {rule.constant}"  # a ForallRule: closures never get here

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
