"""Janet and Pommaret multiplicative variables, completeness, star decomposition.

All functions are pure; witnesses are returned on negative verdicts so callers
can surface actionable diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import le
from typing import Mapping, Optional

from .errors import (
    DegreeCapExceeded,
    MismatchedVariableCount,
    NotComplete,
    NotInIdeal,
    NotInSet,
)
from .terms import Term, TermSet, variable

JANET = "janet"
POMMARET = "pommaret"


def _janet_table(M: TermSet) -> dict[Term, frozenset[int]]:
    """Janet multiplicative variables of every term of ``M``, one pass per variable.

    x_j is multiplicative for tau iff tau has the largest x_j exponent among
    the terms of M that agree with tau in every exponent above position j.
    Equal variable sets are shared between terms, which keeps an assignment
    (and the index built from it) small.
    """
    mult: dict[Term, list[int]] = {t: [] for t in M}
    for j in range(1, M.n + 1):
        top: dict[tuple[int, ...], int] = {}
        for t in M:
            e = t.exponents
            if top.get(e[j:], -1) < e[j - 1]:
                top[e[j:]] = e[j - 1]
        for t, vars_ in mult.items():
            e = t.exponents
            if e[j - 1] == top[e[j:]]:
                vars_.append(j)
    shared: dict[frozenset[int], frozenset[int]] = {}
    table = {}
    for t, vars_ in mult.items():
        fs = frozenset(vars_)
        table[t] = shared.setdefault(fs, fs)
    return table


def janet_multiplicative_vars(M: TermSet, tau: Term) -> frozenset[int]:
    """Janet-multiplicative variables of ``tau`` relative to the set ``M``.

    x_j is multiplicative for tau = x^a unless M contains a term that agrees
    with tau in every exponent above position j and has a strictly larger
    exponent at j (exponents below j are unconstrained).
    """
    if tau not in M:
        raise NotInSet(f"{tau} is not in the set")
    return _janet_table(M)[tau]


def pommaret_multiplicative_vars(tau: Term) -> frozenset[int]:
    """Variables x_j with x_j <= min(tau); all of them for the constant term."""
    m = tau.min_index
    if m is None:
        return frozenset(range(1, tau.nvars + 1))
    return frozenset(range(1, m + 1))


def _check_nvars(n: int, gamma: Term) -> None:
    if gamma.nvars != n:
        raise MismatchedVariableCount(f"{n} variables vs {gamma.nvars}")


# One (positions, table) pair per set of non-multiplicative positions: the
# table maps the exponents at those positions to the terms that have them.
_CoverIndex = list[tuple[list[int], dict[tuple[int, ...], list[Term]]]]


@dataclass(frozen=True)
class StarFactorization:
    """gamma = head * cofactor with the cofactor made of multiplicative variables."""

    head: Term
    cofactor: Term


@dataclass(frozen=True, eq=False)
class DivisionAssignment:
    """One multiplicative-variable set per term of a fixed TermSet.

    The assignment answers every cover question about its own basis: which
    terms' involutive cones hold a term (:meth:`cover`), whether the cones
    cover the ideal (``_uncovered``) and whether two of them nest
    (``_nested``).
    """

    flavor: str
    basis: TermSet
    mult: Mapping[Term, frozenset[int]]

    @classmethod
    def janet(cls, M: TermSet) -> "DivisionAssignment":
        return cls(JANET, M, _janet_table(M))

    @classmethod
    def pommaret(cls, M: TermSet) -> "DivisionAssignment":
        return cls(POMMARET, M, {t: pommaret_multiplicative_vars(t) for t in M})

    @cached_property
    def _cover_index(self) -> _CoverIndex:
        """The basis grouped by non-multiplicative positions.

        tau covers gamma (gamma lies in the involutive cone of tau) exactly
        when gamma agrees with tau at every non-multiplicative position of tau
        and tau <= gamma elsewhere, so a lookup is one probe per group.
        """
        groups: dict[frozenset[int], list[Term]] = {}
        for tau in self.basis:
            groups.setdefault(self.mult[tau], []).append(tau)
        index: _CoverIndex = []
        for vars_, members in groups.items():
            fixed = [i for i in range(self.basis.n) if i + 1 not in vars_]
            table: dict[tuple[int, ...], list[Term]] = {}
            for tau in members:
                table.setdefault(tuple([tau.exponents[i] for i in fixed]), []).append(tau)
            index.append((fixed, table))
        return index

    def _heads(self, exps: tuple[int, ...]) -> list[Term]:
        """The basis terms whose involutive cone contains the exponent vector exps."""
        return [
            tau
            for fixed, table in self._cover_index
            for tau in table.get(tuple([exps[i] for i in fixed]), ())
            if all(map(le, tau.exponents, exps))
        ]

    def cover(self, gamma: Term) -> Optional[StarFactorization]:
        """gamma as the lex-greatest covering head times its cofactor; None
        when no involutive cone holds gamma.  Over a complete basis that means
        gamma lies outside the ideal."""
        _check_nvars(self.basis.n, gamma)
        heads = self._heads(gamma.exponents)
        if not heads:
            return None
        head = max(heads, key=lambda t: t.lex_key)
        return StarFactorization(head, gamma / head)

    @cached_property
    def _uncovered(self) -> Optional[tuple[Term, int]]:
        """The completeness witness of the basis: the first (tau, j) in
        canonical order with x_j * tau in no involutive cone, None when the
        basis is complete."""
        for tau in self.basis:
            e = tau.exponents
            vars_ = self.mult[tau]
            for j in range(1, self.basis.n + 1):
                if j not in vars_ and not self._heads(e[: j - 1] + (e[j - 1] + 1,) + e[j:]):
                    return tau, j
        return None

    @cached_property
    def _nested(self) -> Optional[tuple[Term, Term]]:
        """The first basis term in canonical order that lies in the cone of
        another, with that other term; None when the cones are disjoint."""
        for tau in self.basis:
            outer = [s for s in self._heads(tau.exponents) if s != tau]
            if outer:
                return tau, outer[0]
        return None


def _own_assignment(M: TermSet, assignment: Optional[DivisionAssignment]) -> DivisionAssignment:
    """The assignment of M: the given one, which must belong to M, or Janet's."""
    if assignment is None:
        return DivisionAssignment.janet(M)
    if M is not assignment.basis and M != assignment.basis:
        raise ValueError("the assignment belongs to another set of terms")
    return assignment


def offspring_contains(
    M: TermSet, tau: Term, gamma: Term, assignment: Optional[DivisionAssignment] = None
) -> bool:
    """True iff gamma is tau times a product of multiplicative variables of tau."""
    if tau not in M:
        raise NotInSet(f"{tau} is not in the set")
    assignment = _own_assignment(M, assignment)
    _check_nvars(M.n, gamma)
    return tau in assignment._heads(gamma.exponents)


def star_decompose(
    M: TermSet, gamma: Term, assignment: Optional[DivisionAssignment] = None
) -> StarFactorization:
    """Factorization gamma = tau * eta with gamma in the offspring of tau.

    The head is the lex-greatest element of M whose involutive cone contains
    gamma; for a Janet assignment the cones are disjoint, so it is the only
    one.  ``assignment`` must be M's own (Janet by default).  A gamma in no
    cone raises NotInIdeal when it lies outside the ideal, and otherwise
    NotComplete with the completeness witness of M.
    """
    assignment = _own_assignment(M, assignment)
    fact = assignment.cover(gamma)
    if fact is not None:
        return fact
    if not M.generates(gamma):
        raise NotInIdeal(f"{gamma} is not in the generated ideal")
    raise NotComplete(
        f"{gamma} has no star factorization; the set is not complete",
        witness=assignment._uncovered,
    )


def is_complete(
    M: TermSet, assignment: Optional[DivisionAssignment] = None
) -> tuple[bool, Optional[tuple[Term, int]]]:
    """Completeness test; on failure returns a witness (term, variable index).

    Only the products x_j * tau for non-multiplicative x_j need checking:
    coverage of the whole semigroup ideal follows from the offspring
    partition property.  ``assignment`` must be M's own (Janet by default).
    """
    witness = _own_assignment(M, assignment)._uncovered
    return witness is None, witness


def is_stably_complete(
    M: TermSet, assignment: Optional[DivisionAssignment] = None
) -> tuple[bool, Optional[tuple[Term, int]]]:
    """Complete, and Janet multiplicative variables agree with the Pommaret ones.

    Both concern M alone: a Janet ``assignment`` of M is reused, another flavour
    gives way to M's Janet assignment."""
    assignment = _own_assignment(M, assignment)
    if assignment.flavor != JANET:
        assignment = DivisionAssignment.janet(M)
    ok, witness = is_complete(M, assignment)
    if not ok:
        return False, witness
    for tau in M:
        mismatch = assignment.mult[tau] ^ pommaret_multiplicative_vars(tau)
        if mismatch:
            return False, (tau, min(mismatch))
    return True, None


def janet_complete(M: TermSet, degree_cap: int) -> TermSet:
    """Enlarge M until it is complete, adding non-multiplicative products.

    Terms are processed in canonical (degree, lex) order and the first
    uncovered product x_j * tau is adjoined, then the scan restarts with the
    recomputed multiplicative structure.  Completion of a finite set always
    terminates; ``degree_cap`` is a safety valve and exceeding it raises
    DegreeCapExceeded carrying the partial set.
    """
    if len(M) == 0:
        raise ValueError("cannot complete an empty set")
    current = M
    while True:
        witness = DivisionAssignment.janet(current)._uncovered
        if witness is None:
            return current
        tau, j = witness
        addition = tau * variable(current.n, j)
        if addition.degree > degree_cap:
            raise DegreeCapExceeded(
                f"completion needs degree {addition.degree} > cap {degree_cap}",
                partial=current,
            )
        current = TermSet(current.terms + (addition,), current.n)
