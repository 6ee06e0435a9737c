"""Exception types shared across the library."""

from typing import NoReturn


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
# nodes, the terms and multiples the oracle enumerates, the table entries a
# completion rebuilds, or the terms and coefficient words the cycle detector
# keeps.  At a few microseconds each, a computation within it stays within
# seconds.
_WORK_BUDGET = 200_000


class WorkBudgetExceeded(InvolutiveError):
    """A computation would exceed the library's work budget; ``estimate``
    counts the work it was about to do, ``budget`` the most allowed."""

    def __init__(self, message, estimate, budget):
        super().__init__(message)
        self.estimate = estimate
        self.budget = budget


def _refuse_past_budget(what: str, estimate: int, budget: int) -> NoReturn:
    """Raise :class:`WorkBudgetExceeded` for a computation past ``budget``;
    ``what`` says what it needs, counting ``estimate`` units.  The caller
    compares the two itself, so a hot loop builds no message."""
    raise WorkBudgetExceeded(f"{what}, past the budget of {budget}", estimate, budget)
