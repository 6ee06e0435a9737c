"""Exception types shared across the library, and its one work meter."""


class InvolutiveError(Exception):
    """Base class for all errors raised by this library."""


class MismatchedVariableCount(InvolutiveError):
    """Operands live over different numbers of variables."""


class NotDivisible(InvolutiveError):
    """Exact term division was requested but does not exist."""


class NotInIdeal(InvolutiveError):
    """The term does not belong to the generated semigroup ideal."""


class WitnessError(InvolutiveError):
    """A negative verdict; ``witness`` is the failing pair that shows it, if known."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotComplete(WitnessError):
    """The term set is not complete; ``witness`` is a failing (term, variable) pair."""


class NotStablyComplete(WitnessError):
    """The term set is not stably complete; ``witness`` is a failing (term, variable) pair."""


class DegreeCapExceeded(InvolutiveError):
    """Completion hit the degree safety cap; ``partial`` holds the set built so far."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NotQuasiStable(WitnessError):
    """The ideal is not quasi-stable; ``witness`` is a failing (generator, variable) pair."""


class TailInIdeal(InvolutiveError):
    """A tail term of a marked polynomial lies inside the monomial ideal."""


class DegreeMismatch(InvolutiveError):
    """A tail term does not have the same degree as its head."""


class HeadNotInM(InvolutiveError):
    """A marked polynomial is marked on a term outside the division basis."""


class NonHomogeneousInput(InvolutiveError):
    """The reduction input mixes terms of different degrees."""


class MissingAssignment(InvolutiveError):
    """A parameter value required for specialization was not supplied."""


# The most units of work a computation does before it refuses with
# WorkBudgetExceeded: listed terms, multiples and parameters, star-search
# nodes, the terms and multiples the oracle enumerates, the terms and
# variables of a fresh completeness scan for each round of a completion (a
# bound: its worklist probes only the pairs an addition may uncover, so the
# charge and its estimates stay those of a rescan), the divisibility
# tests that minimalise generators, the terms a reduction scans, the terms
# and coefficient words the cycle detector keeps, or the coefficient products
# of the scheme's normal forms.
# At a few microseconds each, a computation within it stays within seconds.
# Only :func:`_charge` reads it.
_WORK_BUDGET = 200_000


class WorkBudgetExceeded(InvolutiveError):
    """A computation would exceed the library's work budget; ``estimate``
    counts the work it was about to do, ``budget`` the most allowed."""

    def __init__(self, message, estimate, budget):
        super().__init__(message)
        self.estimate = estimate
        self.budget = budget


def _charge(spent: int, what: str, *args) -> None:
    """The one work meter: raise :class:`WorkBudgetExceeded` once ``spent``
    units pass the budget.  ``what.format(*args)`` says what the computation
    needs; it is formatted only on refusal, so a hot loop builds no message."""
    if spent > _WORK_BUDGET:
        raise WorkBudgetExceeded(
            f"{what.format(*args)}, past the budget of {_WORK_BUDGET}", spent, _WORK_BUDGET
        )
