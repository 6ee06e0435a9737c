"""Marked polynomials and sets, the star-constrained reduction, the marked
basis criterion and an independent linear-algebra oracle, which eliminates
the same sparse term-to-coefficient maps to row echelon form.

Coefficients are exact rationals (``fractions.Fraction``) in the concrete
case.  The generic sets of :mod:`scheme` carry integer-ring parameter
polynomials, which this module only stores and multiplies by terms: scheme
walks the same non-multiplicative prolongations f_head * x_j as the criterion
here, and reduces them through memoised normal forms instead of
:func:`reduce`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Mapping, Optional

from . import _linalg
from ._options import DEFAULT_STEP_CAP
from .division import DivisionAssignment, StarFactorization, is_complete, is_stably_complete
from .errors import (
    DegreeMismatch,
    HeadNotInM,
    MismatchedVariableCount,
    NonHomogeneousInput,
    NotComplete,
    NotStablyComplete,
    TailInIdeal,
)
from .terms import Term, TermSet, _monomials, terms_of_degree, variable

REDUCED = "reduced"
STEP_LIMIT = "step-limit"
CYCLE_DETECTED = "cycle-detected"


class MarkedPolynomial:
    """A monic homogeneous polynomial with a designated head term.

    The stored tail carries explicit signs: the polynomial is
    head + sum(coeff * term) over the tail.
    """

    __slots__ = ("head", "tail")

    def __init__(self, head: Term, tail: Mapping[Term, object]):
        self.head = head
        self.tail = {
            t: tail[t] for t in sorted(tail, key=lambda t: t.sort_key) if tail[t]
        }

    def polynomial(self) -> dict[Term, object]:
        """Full support mapping, head included with coefficient 1."""
        poly = {self.head: 1}
        poly.update(self.tail)
        return poly

    def times(self, eta: Term) -> dict[Term, object]:
        """The product of this polynomial by the term eta, as a mapping."""
        poly = {self.head * eta: 1}
        for t, c in self.tail.items():
            poly[t * eta] = c
        return poly

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MarkedPolynomial)
            and self.head == other.head
            and self.tail == other.tail
        )

    def __repr__(self) -> str:
        return f"MarkedPolynomial(head={self.head}, tail={self.tail})"


class MarkedSet:
    """Marked polynomials indexed by a complete division basis M.

    Construct through :func:`make_marked_set`, which validates the tails
    (the generic sets of :mod:`scheme` draw theirs from the escalier).
    Stable completeness of M is computed lazily and cached (the assignment
    caches the completeness verdict).  Star decompositions come from the
    Janet assignment of M itself and are memoized, since reduction revisits
    the same terms.
    """

    def __init__(self, basis: TermSet, polys: dict[Term, MarkedPolynomial]):
        self.basis = basis
        self.n = basis.n
        self.polys = polys
        self.assignment = DivisionAssignment.janet(basis)
        self._decompositions: dict[Term, Optional[StarFactorization]] = {}

    @cached_property
    def stable_completeness(self) -> tuple[bool, Optional[tuple[Term, int]]]:
        return is_stably_complete(self.basis, self.assignment)

    def _require_stably_complete(self, what: str) -> None:
        """Raise :class:`NotStablyComplete` unless M is stably complete; the
        message names ``what``, the computation that needs it."""
        ok, witness = self.stable_completeness
        if not ok:
            raise NotStablyComplete(f"{what} needs a stably complete basis", witness=witness)

    def contains(self, t: Term) -> bool:
        """Membership in the ideal generated by the heads, by a scan that is
        independent of the cover lookup behind :meth:`decompose`."""
        return self.basis.generates(t)

    def decompose(self, t: Term) -> Optional[StarFactorization]:
        """The star factorization of t, None when no cone of M holds t.

        Over a complete M (which reduction checks first) None means t lies
        outside the ideal.
        """
        if t not in self._decompositions:
            self._decompositions[t] = self.assignment.cover(t)
        return self._decompositions[t]

    def __iter__(self):
        return iter(self.polys.values())

    def __len__(self) -> int:
        return len(self.polys)


def make_marked_set(
    M: TermSet | Iterable[Term],
    tails: Optional[Mapping[Term, Mapping[Term, object]]] = None,
) -> MarkedSet:
    """Build and validate a marked set: one polynomial per element of M.

    Heads missing from ``tails`` get empty tails.  Tail terms must avoid the
    ideal generated by M and match their head's degree.
    """
    if not isinstance(M, TermSet):
        M = TermSet(M)
    tails = tails or {}
    for head in tails:
        if head not in M:
            raise HeadNotInM(f"{head} is not in the division basis")
    polys: dict[Term, MarkedPolynomial] = {}
    for head in M:
        tail = tails.get(head, {})
        clean: dict[Term, object] = {}
        for t, c in tail.items():
            if not c:
                continue
            if t.nvars != M.n:
                raise MismatchedVariableCount(f"tail term {t} has wrong variable count")
            if t.degree != head.degree:
                raise DegreeMismatch(
                    f"tail term {t} has degree {t.degree}, head {head} has {head.degree}"
                )
            if M.generates(t):
                raise TailInIdeal(f"tail term {t} lies in the ideal")
            clean[t] = c
        polys[head] = MarkedPolynomial(head, clean)
    return MarkedSet(M, polys)


@dataclass(frozen=True)
class ReductionStep:
    term: Term
    head: Term
    cofactor: Term
    coefficient: object


@dataclass
class ReductionTrace:
    steps: list[ReductionStep]
    result: dict[Term, object]
    status: str

    @property
    def is_zero(self) -> bool:
        return self.status == REDUCED and not self.result


def _subtract_scaled(work: dict, f: MarkedPolynomial, eta: Term, c) -> None:
    # work -= c * f * eta, dropping cancelled terms
    for t, a in f.times(eta).items():
        cur = work.get(t)
        val = c * a
        new = -val if cur is None else cur - val
        if new:
            work[t] = new
        else:
            work.pop(t, None)


def reduce(
    G: MarkedSet, h: Mapping[Term, object], *, step_cap: int = DEFAULT_STEP_CAP
) -> ReductionTrace:
    """Star-constrained reduction of a homogeneous polynomial against G.

    Each step picks a term gamma of the current support lying in the ideal,
    takes its star factorization gamma = head * cofactor and subtracts the
    matching multiple of the marked polynomial.  Among reducible terms the one
    with the lex-greatest cofactor is rewritten first (ties broken by the
    lex-greater term): every new reducible term then has a strictly smaller
    cofactor, which makes the process terminate whenever the basis is stably
    complete.  Over a merely complete basis the relation can loop, so repeated
    polynomial states are detected and reported as CYCLE_DETECTED, with
    ``step_cap`` as a final backstop.
    """
    if step_cap < 1:
        raise ValueError("step cap must be at least 1")
    work: dict[Term, object] = {}
    degrees = set()
    for t, c in h.items():
        if not c:
            continue
        if t.nvars != G.n:
            raise MismatchedVariableCount(f"{t} has {t.nvars} variables, expected {G.n}")
        degrees.add(t.degree)
        work[t] = c
    if len(degrees) > 1:
        raise NonHomogeneousInput(f"mixed degrees {sorted(degrees)}")
    ok, witness = is_complete(G.basis, G.assignment)
    if not ok:
        raise NotComplete("reduction needs a complete basis", witness=witness)
    track_states = not G.stable_completeness[0]
    seen = {frozenset(work.items())} if track_states else None
    steps: list[ReductionStep] = []
    status = REDUCED
    while True:
        best = None
        for t in work:
            fact = G.decompose(t)
            if fact is None:
                continue
            key = (fact.cofactor.lex_key, t.lex_key)
            if best is None or key > best[0]:
                best = (key, t, fact)
        if best is None:
            break
        if len(steps) >= step_cap:
            status = STEP_LIMIT
            break
        _, t, fact = best
        c = work[t]
        _subtract_scaled(work, G.polys[fact.head], fact.cofactor, c)
        steps.append(ReductionStep(t, fact.head, fact.cofactor, c))
        if track_states:
            state = frozenset(work.items())
            if state in seen:
                status = CYCLE_DETECTED
                break
            seen.add(state)
    result = {t: work[t] for t in sorted(work, key=lambda t: t.sort_key)}
    return ReductionTrace(steps, result, status)


def build_Gs(G: MarkedSet, s: int) -> list[tuple[Term, dict[Term, object]]]:
    """G^(s): the multiples f_head * eta with eta of degree s - deg head in the
    multiplicative variables x_1..x_m of the head, m = min(head) (n for the
    head 1), each paired with the term head * eta of J_s that it covers.

    Over a stably complete basis these cones are the Janet cones of M, which
    are disjoint and cover J_s, so every term of J_s appears once.  The eta
    of a cone are the first ``_monomials(e, m)`` degree-e terms in lex order,
    those free of x_{m+1}..x_n.  Entries are sorted by the covered term in
    lex order.
    """
    G._require_stably_complete("G^(s)")
    out = []
    for head in G.basis:
        e = s - head.degree
        if e < 0:
            break
        f = G.polys[head]
        for eta in islice(terms_of_degree(G.n, e), _monomials(e, head.min_index or G.n)):
            out.append((head * eta, f.times(eta)))
    out.sort(key=lambda entry: entry[0].lex_key)
    return out


@dataclass(frozen=True)
class CriterionCheck:
    head: Term
    variable: int
    trace: ReductionTrace

    @property
    def ok(self) -> bool:
        return self.trace.is_zero


@dataclass
class MarkedBasisResult:
    is_basis: bool
    checks: list[CriterionCheck] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.is_basis


def _prolongations(G: MarkedSet) -> Iterator[tuple[Term, int, dict[Term, object]]]:
    """Each non-multiplicative prolongation as (head, j, f_head * x_j), for x_j
    above min(head): heads in basis order, j ascending."""
    for head in G.basis:
        for j in range((head.min_index or G.n) + 1, G.n + 1):
            yield head, j, G.polys[head].times(variable(G.n, j))


def is_marked_basis(G: MarkedSet) -> MarkedBasisResult:
    """Criterion: every product f_head * x_j with x_j above min(head) reduces to 0.

    Requires the division basis to be stably complete (the star set of its
    ideal), over which the reduction is noetherian and the verdict exact: the
    rewritten keys (cofactor, term) strictly decrease, so no term of the
    product's degree is rewritten twice, and that count of terms is a step cap
    that cannot bind.  The returned certificate records one reduction trace
    per (head, variable) pair, in canonical order.
    """
    G._require_stably_complete("the criterion")
    checks = [
        CriterionCheck(head, j, reduce(G, h, step_cap=_monomials(head.degree + 1, G.n)))
        for head, j, h in _prolongations(G)
    ]
    return MarkedBasisResult(all(check.ok for check in checks), checks)


def oracle_check(G: MarkedSet, max_degree: int) -> bool:
    """Degree-by-degree linear-algebra verification of the basis property.

    For each degree s up to ``max_degree`` this checks, by exact sparse
    elimination to row echelon form, that the span of all monomial multiples
    of the marked polynomials equals the span of G^(s), and that G^(s)
    together with the escalier monomials fills the degree-s slice P_s with
    trivial intersection.  G^(s) is eliminated once per degree; the direct-sum
    rank extends a copy of its echelon form by the escalier unit rows.
    Independent of the reduction relation and of the cover lookup: G^(s)
    comes from the multiplicative cones and membership in the ideal is the
    linear scan of :meth:`MarkedSet.contains`, so the stable-completeness
    precondition is all the oracle shares with the criterion.
    ``max_degree`` must exceed the largest basis degree: the prolongations
    f_head * x_j of the top-degree polynomials live one degree higher, and
    below that bound a non-basis can pass.
    """
    top = G.basis.max_degree()
    if max_degree <= top:
        raise ValueError(
            f"degree bound {max_degree} does not exceed the largest basis degree {top}"
        )
    G._require_stably_complete("oracle")
    n = G.n
    for s in range(1, max_degree + 1):
        outside = [t for t in terms_of_degree(n, s) if not G.contains(t)]
        span = _linalg.rref([poly for _, poly in build_Gs(G, s)], {})
        # Every plain multiple must already lie in the span of the star multiples.
        for f in G.polys.values():
            if f.head.degree > s:
                continue
            for eta in terms_of_degree(n, s - f.head.degree):
                if not _linalg.in_rowspace(f.times(eta), span):
                    return False
        # Star multiples plus escalier monomials must give a direct sum filling P_s.
        combined = len(_linalg.rref([{t: 1} for t in outside], dict(span)))
        if combined != len(span) + len(outside) or combined != _monomials(s, n):
            return False
    return True
