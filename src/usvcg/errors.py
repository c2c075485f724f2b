"""Semantic exception hierarchy for the budgeting engine.

Public functions raise these instead of bare ValueError so callers can
distinguish contract violations (bad inputs) from numerical trouble
(divergence, non-convergence) and from protocol misuse.
"""

from __future__ import annotations


class UsvcgError(Exception):
    """Base class for every error raised by this package."""


class DomainError(UsvcgError, ValueError):
    """An argument lies outside a curve's or decision's admissible domain."""


class RangeError(UsvcgError, ValueError):
    """A requested inverse value is not attained by the function."""


class EmptyProfile(UsvcgError, ValueError):
    """An operation that needs agents received an empty profile."""


class InfeasibleBallot(UsvcgError, ValueError):
    """A reported budget decision cannot be inverted into a type."""


class NoPendingQuestion(UsvcgError, LookupError):
    """A follow-up answer was supplied for a good with no open question."""


class IncompleteSession(UsvcgError, RuntimeError):
    """Type extraction was requested while follow-up questions are open."""


class ConvergenceError(UsvcgError, ArithmeticError):
    """An iterative routine hit its iteration cap; inputs are likely malformed."""


class TaxDivergence(UsvcgError, ArithmeticError):
    """The optimal tax exceeds the search cap; the conditional slope is still
    positive at a tax offset of 1e12, a fixed cap (diverging tax)."""


class ResolutionTooCoarse(UsvcgError, ValueError):
    """The brute-force grid was requested with too few points per axis."""


class NonUniqueOptimum(UsvcgError, RuntimeError):
    """Multiple optima were detected where a unique one is required."""


class BoundaryTarget(UsvcgError, ValueError):
    """A phantom target allocation sits on the simplex boundary."""


class PivotUndefined(UsvcgError, ValueError):
    """A pivot term was requested for a single-agent profile."""


class SchemaError(UsvcgError, ValueError):
    """An input file does not match the documented JSON layout."""


class RegularityWarning(UserWarning):
    """Finite-difference Jacobians disagree across step halving, hinting
    that the optimum may not be a regular (differentiable) maximum."""
