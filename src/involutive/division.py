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


def pommaret_multiplicative_vars(tau: Term, n: Optional[int] = None) -> frozenset[int]:
    """Variables x_j with x_j <= min(tau); all of them for the constant term."""
    if n is None:
        n = tau.nvars
    m = tau.min_index
    if m is None:
        return frozenset(range(1, n + 1))
    return frozenset(range(1, m + 1))


@dataclass(frozen=True, eq=False)
class DivisionAssignment:
    """One multiplicative-variable set per term of a fixed TermSet."""

    flavor: str
    basis: TermSet
    mult: Mapping[Term, frozenset[int]]

    @classmethod
    def janet(cls, M: TermSet) -> "DivisionAssignment":
        return cls(JANET, M, _janet_table(M))

    @classmethod
    def pommaret(cls, M: TermSet) -> "DivisionAssignment":
        return cls(POMMARET, M, {t: pommaret_multiplicative_vars(t, M.n) for t in M})

    @cached_property
    def _cover_index(self) -> _CoverIndex:
        return _index_terms(self.basis, self.mult)

    @cached_property
    def _uncovered(self) -> Optional[tuple[Term, int]]:
        """The completeness witness of the basis, None when it is complete."""
        return _first_uncovered(self.basis, self.mult, self._cover_index)


@dataclass(frozen=True)
class StarFactorization:
    """gamma = head * cofactor with the cofactor made of multiplicative variables."""

    head: Term
    cofactor: Term


# One (positions, table) pair per set of non-multiplicative positions: the
# table maps the exponents at those positions to the terms that have them.
_CoverIndex = list[tuple[list[int], dict[tuple[int, ...], list[Term]]]]


def _index_terms(M: TermSet, mult: Mapping[Term, frozenset[int]]) -> _CoverIndex:
    """Group the terms of M by their non-multiplicative positions.

    tau covers gamma (gamma lies in the involutive cone of tau) exactly when
    gamma agrees with tau at every non-multiplicative position of tau and
    tau <= gamma elsewhere, so a lookup is one probe per group.
    """
    groups: dict[frozenset[int], list[Term]] = {}
    for tau in M:
        groups.setdefault(mult[tau], []).append(tau)
    index: _CoverIndex = []
    for vars_, members in groups.items():
        fixed = [i for i in range(M.n) if i + 1 not in vars_]
        table: dict[tuple[int, ...], list[Term]] = {}
        for tau in members:
            table.setdefault(tuple([tau.exponents[i] for i in fixed]), []).append(tau)
        index.append((fixed, table))
    return index


def _is_basis_of(M: TermSet, assignment: DivisionAssignment) -> bool:
    return M is assignment.basis or M == assignment.basis


def _cover_index_for(M: TermSet, assignment: DivisionAssignment) -> _CoverIndex:
    """The assignment's own index, or one over M when M is not its basis."""
    if _is_basis_of(M, assignment):
        return assignment._cover_index
    return _index_terms(M, assignment.mult)


def _covering(index: _CoverIndex, exps: tuple[int, ...]) -> list[Term]:
    """The indexed terms whose involutive cone contains the exponent vector exps."""
    return [
        tau
        for fixed, table in index
        for tau in table.get(tuple([exps[i] for i in fixed]), ())
        if all(map(le, tau.exponents, exps))
    ]


def _first_uncovered(
    M: TermSet, mult: Mapping[Term, frozenset[int]], index: _CoverIndex
) -> Optional[tuple[Term, int]]:
    """First (tau, j) in canonical order with x_j * tau in no involutive cone."""
    for tau in M:
        e = tau.exponents
        vars_ = mult[tau]
        for j in range(1, M.n + 1):
            if j not in vars_ and not _covering(index, e[: j - 1] + (e[j - 1] + 1,) + e[j:]):
                return tau, j
    return None


def _check_nvars(n: int, gamma: Term) -> None:
    if gamma.nvars != n:
        raise MismatchedVariableCount(f"{n} variables vs {gamma.nvars}")


def offspring_contains(
    M: TermSet, tau: Term, gamma: Term, assignment: Optional[DivisionAssignment] = None
) -> bool:
    """True iff gamma is tau times a product of multiplicative variables of tau."""
    if tau not in M:
        raise NotInSet(f"{tau} is not in the set")
    mult = assignment.mult[tau] if assignment else janet_multiplicative_vars(M, tau)
    _check_nvars(tau.nvars, gamma)
    return all(
        a == b or (a < b and j in mult)
        for j, (a, b) in enumerate(zip(tau.exponents, gamma.exponents), 1)
    )


def star_decompose(
    M: TermSet,
    gamma: Term,
    assignment: Optional[DivisionAssignment] = None,
    *,
    check_complete: bool = False,
) -> StarFactorization:
    """Factorization gamma = tau * eta with gamma in the offspring of tau.

    The head is the lex-greatest element of M whose involutive cone contains
    gamma; for a Janet assignment the cones are disjoint, so it is the only
    one.  Pass ``check_complete=False`` (the default) to trust the caller that
    M is complete and skip the completeness check on every call.
    """
    if assignment is None:
        assignment = DivisionAssignment.janet(M)
    if check_complete:
        ok, witness = is_complete(M, assignment)
        if not ok:
            raise NotComplete("the set is not complete", witness=witness)
    if len(M):
        _check_nvars(M.n, gamma)
    heads = _covering(_cover_index_for(M, assignment), gamma.exponents)
    if heads:
        head = max(heads, key=lambda t: t.lex_key)
        return StarFactorization(head, gamma / head)
    if not M.generates(gamma):
        raise NotInIdeal(f"{gamma} is not in the generated ideal")
    raise NotComplete(
        f"{gamma} has no star factorization; the set is not complete",
        witness=None,
    )


def is_complete(
    M: TermSet, assignment: Optional[DivisionAssignment] = None
) -> tuple[bool, Optional[tuple[Term, int]]]:
    """Completeness test; on failure returns a witness (term, variable index).

    Only the products x_j * tau for non-multiplicative x_j need checking:
    coverage of the whole semigroup ideal follows from the offspring
    partition property.
    """
    if assignment is None:
        assignment = DivisionAssignment.janet(M)
    if _is_basis_of(M, assignment):
        witness = assignment._uncovered
    else:
        witness = _first_uncovered(M, assignment.mult, _index_terms(M, assignment.mult))
    return witness is None, witness


def is_stably_complete(
    M: TermSet, assignment: Optional[DivisionAssignment] = None
) -> tuple[bool, Optional[tuple[Term, int]]]:
    """Complete, and Janet multiplicative variables agree with the Pommaret ones."""
    if assignment is None:
        assignment = DivisionAssignment.janet(M)
    ok, witness = is_complete(M, assignment)
    if not ok:
        return False, witness
    for tau in M:
        pommaret = pommaret_multiplicative_vars(tau, M.n)
        mismatch = assignment.mult[tau] ^ pommaret
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
