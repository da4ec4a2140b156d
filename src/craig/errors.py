"""Exception taxonomy shared across the package.

Refuted is the base of every negative verdict and carries its witness structures.
"""

from __future__ import annotations


class CraigError(Exception):
    """Base class for all errors raised by this package."""


class FormulaError(CraigError):
    """Ill-formed formula (arity mismatch, bad quantifier block, ...)."""


class ParseError(CraigError):
    """Unparsable input; ``str(e)`` is ``line:column: reason`` when located
    (``line: reason`` without a column)."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.reason = message
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}" if column else f"{line}: {message}"
        super().__init__(message)


class MissingSymbolError(CraigError):
    """Formula mentions a symbol the structure does not interpret."""


class PartialAssignmentError(CraigError):
    """Assignment does not cover every free variable."""


class NonSentenceError(FormulaError):
    """Operation requires sentences (no free variables)."""


class NotNNFError(CraigError):
    """Tableau input must be in negation normal form."""


class BranchNotSaturatedError(CraigError):
    """Model extraction requires a fully expanded open branch."""


class OpenTableauError(CraigError):
    """Interpolant propagation requires a closed tableau."""


class NotProvedWithinBudget(CraigError):
    """No verdict within the rule-application budget."""

    def __init__(self, message: str, budget_spent: int = 0):
        self.budget_spent = budget_spent
        super().__init__(message)


class Refuted(CraigError):
    """A negative verdict the program reached, with the structures that show it."""

    verdict = "refuted"

    def __init__(self, message: str, *witnesses):
        self.witnesses = witnesses
        self.structure = witnesses[0] if witnesses else None
        super().__init__(message)


class NotValid(Refuted):
    """A finite countermodel to the claimed implication was found."""

    verdict = "not valid"


class JointlyConsistent(Refuted):
    """The two theories admit a common model; no separator exists."""

    verdict = "jointly consistent"


class ImplicitDefinabilityRefuted(Refuted):
    """A Padoa pair witnesses that no explicit definition exists."""

    verdict = "not implicitly defined"
    pair = property(lambda self: self.witnesses)


class NotSplittable(Refuted):
    """Theory admits no (sigma, tau)-splitting."""

    verdict = "not splittable"


class UnknownFragmentError(CraigError):
    """cip_status was asked about a fragment outside the table."""
