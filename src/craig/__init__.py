"""First-order tableau proving with constructive Craig/Lyndon interpolation,
Beth definability, Robinson separators, theory-relative interpolants, and
access-method/fragment analyzers over an equality-free, function-free core."""

from __future__ import annotations

import sys

# The parser recurses once per negation, twice per parenthesis and three
# times per quantifier, to_nnf once or twice per ∧/∨/∃/∀ level, evaluate and
# models._compile (and the closures it builds) once per level, and ==
# between two distinct, equal trees twice per ∃/∀ and three times per ∧/∨
# level.  At the default limit of 1,000, craig_interpolant on the
# implication chain of length 500 raises RecursionError (in to_nnf of its
# raw interpolant, during verification); parse stops at about 987 nested
# negations, 493 nested parentheses and 329 nested quantifiers (19,987,
# 9,993 and 6,662), and == at 498 nested quantifiers and 332 conjunctions.
# Hashing (done at construction), == and to_nnf on a negation chain, to_nnf
# on a node it has seen, and the other walkers of formulas.py, print_formula,
# canonical_rename, bind_patt and classify (all but its one to_nnf) run flat.
# tests/test_deep_nesting.py pins depths that only the raise makes reachable:
# each of its in-process cases fails without it.
if sys.getrecursionlimit() < 20000:
    sys.setrecursionlimit(20000)

from .errors import (
    BranchNotSaturatedError, CraigError, FormulaError, ImplicitDefinabilityRefuted,
    JointlyConsistent, MissingSymbolError, NonSentenceError, NotNNFError,
    NotProvedWithinBudget, NotSplittable, NotValid, OpenTableauError, ParseError,
    PartialAssignmentError, Refuted, UnknownFragmentError,
)
from .formulas import (
    BOTTOM, TOP, And, Atom, Const, Exists, Forall, Not, Or, Top, Var,
    abstract_constant, conj, disj, fresh_constant, free_vars, implies,
    is_nnf, is_sentence, signature_of, simplify, substitute_constant, to_nnf,
)
from .parser import ProblemFile, parse, parse_problem, print_formula
from .models import (
    Structure, count_structures, enumerate_structures, evaluate, find_model,
    isomorphic_pair, satisfying_structures, structure_from_json,
    structure_to_json, substructure,
)
from .tableau import (
    Branch, Closed, ClosedTableau, LabeledSentence, Outcome, Satisfiable,
    Unknown, labeled, prove, refute, render_trace, saturated_branch_model,
)
from .interpolation import (
    AnnotatedTableau, Verdict, craig_interpolant, entails, lyndon_check,
    propagate, search_interpolant, verify_interpolant,
)
from .definability import (
    Definition, Theory, explicit_definition, monotone_rewrite,
    padoa_counterexample, robinson_separator,
)
from .theory import SplitResult, split_theory, strong_interpolant, weak_interpolant
from .access import (
    AccessMethod, BindPattResult, accessible_part, am_leq, bind_patt,
    check_access_determinacy, is_bounded, upward_closure,
)
from .fragments import FragmentReport, cip_status, classify
