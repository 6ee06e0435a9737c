"""Marked polynomials and sets, the star-constrained reduction, the marked
basis criterion and an independent linear-algebra oracle, which eliminates
the same sparse polynomials to row echelon form over the integers.

Inside, a polynomial maps lex keys to coefficients: a term's exponent tuple
with x_n first (``Term.lex_key``), so that tuple order is lex order and a
product of terms is ``tuple(map(add, a, b))``.  Inputs are converted once,
and what is returned is built back from its keys by ``Term._of_key``, with no
memo.  A marked set has one constructor, ``MarkedSet(basis, tails)``, which
makes its polynomials; :func:`make_marked_set` validates the tails before
calling it.  Coefficients are exact rationals (``fractions.Fraction``)
or ints in the concrete case.  The generic sets of :mod:`scheme` carry
integer-ring parameter polynomials, which this module only stores and
multiplies by terms: scheme walks the same non-multiplicative prolongations
f_head * x_j as the criterion here, and reduces them through memoised normal
forms instead of :func:`reduce`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import add, itemgetter
from typing import Iterable, Iterator, Mapping, Optional

from . import _linalg
from ._options import DEFAULT_STEP_CAP
from .division import DivisionAssignment, _cone_terms, is_complete, is_stably_complete
from .errors import (
    DegreeMismatch,
    HeadNotInM,
    MismatchedVariableCount,
    NonHomogeneousInput,
    NotComplete,
    NotStablyComplete,
    TailInIdeal,
    _charge,
)
from .terms import Term, TermSet, _escalier_keys, _lex_keys, _monomials, variable

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

    The one constructor takes M and a ``{head: {term: coefficient}}`` map of
    tails (a head missing from it gets an empty tail) and makes one marked
    polynomial per element of M, in basis order.  It checks nothing:
    :func:`make_marked_set` validates the tails first, and the generic sets
    of :mod:`scheme` draw theirs from the escalier.  Stable completeness of M
    is computed lazily and cached (the assignment caches the completeness
    verdict).  Star decompositions come from the Janet assignment of M itself
    and are memoized, since reduction revisits the same terms.  What is
    returned is built from lex keys by ``Term._of_key``.
    """

    def __init__(self, basis: TermSet, tails: Mapping[Term, Mapping[Term, object]]):
        self.basis = basis
        self.n = basis.n
        self.polys = {head: MarkedPolynomial(head, tails.get(head, {})) for head in basis}
        self.assignment = DivisionAssignment.janet(basis)
        self._decompositions: dict[tuple, Optional[tuple[tuple, tuple]]] = {}

    @cached_property
    def stable_completeness(self) -> tuple[bool, Optional[tuple[Term, int]]]:
        return is_stably_complete(self.basis, self.assignment)

    @cached_property
    def _keyed(self) -> dict[tuple, list[tuple[tuple, object]]]:
        """Each polynomial under its head's key, as (key, coefficient) pairs:
        the head first with the int coefficient 1, then the tail in order."""
        out = {}
        for head, f in self.polys.items():
            keys = [t.lex_key for t in (head, *f.tail)]
            out[keys[0]] = list(zip(keys, (1, *f.tail.values())))
        return out

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

    def decompose(self, k: tuple) -> Optional[tuple[tuple, tuple]]:
        """The star factorization of the term with lex key k as the keys
        (head, cofactor), with the lex-greatest covering head; None when no
        cone of M holds the term: the assignment's cover lookup, memoized.

        Over a complete M (which reduction checks first) None means the term
        lies outside the ideal.
        """
        try:
            return self._decompositions[k]
        except KeyError:
            fact = self._decompositions[k] = self.assignment._cover(k)
            return fact

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
    for head in M:
        for t, c in tails.get(head, {}).items():
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
    return MarkedSet(M, tails)


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


def _times(f: Iterable[tuple[tuple, object]], eta: tuple) -> dict[tuple, object]:
    """The product of a keyed polynomial by the term with lex key eta."""
    return {tuple(map(add, k, eta)): c for k, c in f}


def _terms_of(poly: Iterable[tuple[tuple, object]]) -> dict[Term, object]:
    """(key, coefficient) pairs as a ``{Term: coefficient}`` map."""
    return {Term._of_key(k): c for k, c in poly}


def _subtract_scaled(work: dict, f: list, eta: tuple, c) -> None:
    # work -= c * f * eta, dropping cancelled terms
    for k, a in _times(f, eta).items():
        cur = work.get(k)
        val = c * a
        new = -val if cur is None else cur - val
        if new:
            work[k] = new
        else:
            work.pop(k, None)


def _state_size(work: Mapping) -> int:
    """What the cycle detector pays to keep a state: its terms plus the
    64-bit words of its rational coefficients (a coefficient of any other
    type counts 1)."""
    size = len(work)
    for c in work.values():
        try:
            bits = c.numerator.bit_length() + c.denominator.bit_length()
        except AttributeError:
            bits = 1
        size += -(-bits // 64)
    return size


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
    ``step_cap`` as a final backstop.  Each step is charged to the work
    budget, and past it WorkBudgetExceeded is raised: over a stably complete
    basis a step pays the terms the next one scans, and over a merely complete
    one each kept state pays its size (:func:`_state_size`), which is at least
    its terms, since the coefficients can grow at every step.
    """
    if step_cap < 1:
        raise ValueError("step cap must be at least 1")
    work: dict[tuple, object] = {}
    degrees = set()
    for t, c in h.items():
        if not c:
            continue
        if t.nvars != G.n:
            raise MismatchedVariableCount(f"{t} has {t.nvars} variables, expected {G.n}")
        degrees.add(t.degree)
        work[t.lex_key] = c
    if len(degrees) > 1:
        raise NonHomogeneousInput(f"mixed degrees {sorted(degrees)}")
    ok, witness = is_complete(G.basis, G.assignment)
    if not ok:
        raise NotComplete("reduction needs a complete basis", witness=witness)
    track_states = not G.stable_completeness[0]
    seen = {frozenset(work.items())} if track_states else None
    spent = _state_size(work) if track_states else len(work)
    keyed, decompose = G._keyed, G.decompose
    steps: list[tuple] = []
    status = REDUCED
    while True:
        best = None
        for k in work:
            fact = decompose(k)
            if fact is None:
                continue
            key = (fact[1], k)
            if best is None or key > best:
                best, head = key, fact[0]
        if best is None:
            break
        if len(steps) >= step_cap:
            status = STEP_LIMIT
            break
        eta, k = best
        c = work[k]
        _subtract_scaled(work, keyed[head], eta, c)
        steps.append((k, head, eta, c))
        if track_states:
            state = frozenset(work.items())
            if state in seen:
                status = CYCLE_DETECTED
                break
            seen.add(state)
            spent += _state_size(work)
            what = "the cycle detector keeps {} states of {} terms and coefficient words"
            _charge(spent, what, len(seen), spent)
        else:
            spent += len(work)
            _charge(spent, "the reduction scans {} terms by step {}", spent, len(steps))
    term = Term._of_key
    # One degree throughout, so key order is sort_key order.
    return ReductionTrace(
        [ReductionStep(term(k), term(head), term(eta), c) for k, head, eta, c in steps],
        _terms_of((k, work[k]) for k in sorted(work)),
        status,
    )


def _star_multiples(G: MarkedSet, s: int) -> list[tuple[tuple, dict[tuple, object]]]:
    """G^(s) on lex keys, as :func:`build_Gs` lists it."""
    out = []
    for head, vars_ in G.assignment.mult.items():
        e = s - head.degree
        if e < 0:
            break
        f = G._keyed[head.lex_key]
        for eta in islice(_lex_keys(G.n, e), _monomials(e, len(vars_))):
            poly = _times(f, eta)
            out.append((next(iter(poly)), poly))  # the head's product comes first
    out.sort(key=itemgetter(0))
    return out


def build_Gs(G: MarkedSet, s: int) -> list[tuple[Term, dict[Term, object]]]:
    """G^(s): the multiples f_head * eta with eta of degree s - deg head in the
    multiplicative variables x_1..x_m of the head, m = min(head) (n for the
    head 1), each paired with the term head * eta of J_s that it covers.

    Over a stably complete basis these cones are the Janet cones of M, which
    are disjoint and cover J_s, so every term of J_s appears once.  The eta
    of a cone are the first ``_monomials(e, m)`` degree-e terms in lex order,
    those free of x_{m+1}..x_n.  Entries are sorted by the covered term in
    lex order.  The multiples are counted first, and past the work budget
    WorkBudgetExceeded is raised before any is listed.
    """
    G._require_stably_complete("G^(s)")
    work = _cone_terms(G.assignment.mult.items(), s)
    _charge(work, "G^(s) at degree {} has {} multiples", s, work)
    return [(Term._of_key(k), _terms_of(poly.items())) for k, poly in _star_multiples(G, s)]


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


def _prolongations(G: MarkedSet) -> Iterator[tuple[Term, int, dict[tuple, object]]]:
    """Each non-multiplicative prolongation as (head, j, f_head * x_j) on lex
    keys, in canonical order; over a stably complete basis, x_j above min(head)."""
    for head, j in G.assignment._nonmultiplicative():
        yield head, j, _times(G._keyed[head.lex_key], variable(G.n, j).lex_key)


def is_marked_basis(G: MarkedSet) -> MarkedBasisResult:
    """Criterion: every product f_head * x_j with x_j above min(head) reduces to 0.

    Requires the division basis to be stably complete (the star set of its
    ideal), over which the reduction is noetherian and the verdict exact: the
    rewritten keys (cofactor, term) strictly decrease, so no term of the
    product's degree is rewritten twice, and that count of terms is a step cap
    that cannot bind; the work budget still meters each reduction.  The
    returned certificate records one reduction trace per (head, variable)
    pair, in canonical order.
    """
    G._require_stably_complete("the criterion")
    checks = [
        CriterionCheck(
            head, j, reduce(G, _terms_of(h.items()), step_cap=_monomials(head.degree + 1, G.n))
        )
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
    comes from the cones of the Janet assignment, which over the stably
    complete basis are the Pommaret cones, and the escalier monomials from the
    linear membership scan of the heads' lex keys in :mod:`terms`, so the
    stable-completeness precondition is all the oracle shares with the
    criterion.
    ``max_degree`` must exceed the largest basis degree: the prolongations
    f_head * x_j of the top-degree polynomials live one degree higher, and
    below that bound a non-basis can pass.  The terms of P_s and the plain
    multiples enumerated up to the bound are counted first, in closed form
    (the terms of degree at most D in n variables are the degree-D terms in
    n + 1), and past the work budget WorkBudgetExceeded is raised before any
    degree is checked.
    """
    top = G.basis.max_degree()
    if max_degree <= top:
        raise ValueError(
            f"degree bound {max_degree} does not exceed the largest basis degree {top}"
        )
    G._require_stably_complete("oracle")
    n = G.n
    work = _monomials(max_degree, n + 1) + sum(
        _monomials(max_degree - head.degree, n + 1) for head in G.basis
    )
    _charge(work, "the oracle needs {} terms and multiples up to degree {}", work, max_degree)
    for s in range(1, max_degree + 1):
        outside = _escalier_keys(G.basis, s)
        span = _linalg.rref([poly for _, poly in _star_multiples(G, s)], {})
        # Every plain multiple must already lie in the span of the star multiples.
        for head in G.basis:
            if head.degree > s:
                break
            f = G._keyed[head.lex_key]
            for eta in _lex_keys(n, s - head.degree):
                if not _linalg.in_rowspace(_times(f, eta), span):
                    return False
        # Star multiples plus escalier monomials must give a direct sum filling P_s.
        combined = len(_linalg.rref([{k: 1} for k in outside], dict(span)))
        if combined != len(span) + len(outside) or combined != _monomials(s, n):
            return False
    return True
