"""First-order tableau proving with constructive Craig/Lyndon interpolation,
Beth definability, Robinson separators, theory-relative interpolants, and
access-method/fragment analyzers over an equality-free, function-free core."""

from __future__ import annotations

import sys

# Some walkers still recurse once or more per nesting level, so the limit is
# raised: tests/test_deep_nesting.py pins depths that only the raise makes
# reachable, and each of its in-process cases fails without it.  README's
# "Nesting depth" note is the one list of those walkers and their depths.
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
