"""Exception types shared across the package, and the default budgets.

The budgets live here, beside the errors their overrun raises, so that the
CLI can build its parser without importing the layers that enforce them.
"""

#: Default ceiling on the number of global assignments enumerated.
GLOBAL_LIMIT = 2**24
#: Default ceiling on backtracking nodes in sheaf_check.
NODE_BUDGET = 10**8
#: Default ceiling on simplex pivots before giving up.
PIVOT_BUDGET = 10**6
#: Default ceiling on coboundary matrix entries (rows x cols).
MATRIX_LIMIT = 10**8
#: Default ceiling on the time steps of one dynamics run.
STEP_BUDGET = 10**7


class SheafkitError(Exception):
    """Base class for every error raised by sheafkit."""


class DuplicateObservable(SheafkitError):
    """Two observables in a scenario share an id."""


class UnknownObservable(SheafkitError):
    """A context or proposition references an observable the scenario lacks."""


class DominatedContext(SheafkitError):
    """A cover context is contained in another, violating maximality."""


class InvalidScenario(SheafkitError):
    """A scenario violates a structural invariant not covered by a finer error."""


class EmptyCover(SheafkitError):
    """A scenario was given no cover contexts."""


class SizeLimitExceeded(SheafkitError):
    """A combinatorial enumeration would exceed its configured budget."""


class NotASubcontext(SheafkitError):
    """A restriction target is not contained in the source context."""


class EmptySupport(SheafkitError):
    """A context has no section above the support threshold."""


class InvalidModel(SheafkitError):
    """An empirical model violates a table invariant (domain, sign, or sum)."""


class OutcomeOutOfRange(SheafkitError):
    """An outcome value is not within an observable's arity."""


class IncompatibleModel(SheafkitError):
    """An empirical model's marginals disagree on a context overlap.

    ``violations`` holds every
    :class:`~sheafkit.presheaf.CompatibilityViolation` found, so callers can
    list them all.
    """

    def __init__(self, message: str, violations) -> None:
        super().__init__(message)
        self.violations = violations


class SolverBudgetExceeded(SheafkitError):
    """The linear-programming solver exceeded its pivot budget."""


class StabilityViolation(SheafkitError):
    """A dynamics time step exceeds the configured stability bound."""


class DensityCollapse(SheafkitError):
    """The density floor activated over too large a grid fraction in one step."""


class NonMonotoneMap(SheafkitError):
    """A user-supplied sigma-to-lambda table is not monotone non-decreasing."""


class ParseError(SheafkitError):
    """A scenario/model file or proposition string failed to parse."""
