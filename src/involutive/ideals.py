"""Monomial ideals: star set, stability hierarchy, Pommaret basis, Hilbert
function via multiplicative-variable counting, sigma invariants and the
involutive degree test.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import le
from typing import Iterable, Iterator, Optional

from ._options import ESCALIER, IDEAL_SLICE, SIGMA_MODES
from .division import (
    JANET,
    DivisionAssignment,
    is_complete,
    is_stably_complete,
)
from .errors import MismatchedVariableCount, NotComplete, NotQuasiStable
from .terms import Term, TermSet, _monomials, terms_of_degree


class MonomialIdeal:
    """A monomial ideal held by its minimal generating set.

    ``_fit_index[j - 1]`` indexes the generators by their x_j exponent for
    the fit-power test: a sorted list of the distinct exponents and, in
    parallel, the groups of generators carrying each, every exponent tuple
    with its j-th slot dropped.  It is built once here and is not part of
    the ideal's value.
    """

    __slots__ = ("generators", "n", "_fit_index")

    def __init__(self, generators: Iterable[Term] | TermSet, n: Optional[int] = None):
        if isinstance(generators, TermSet):
            if n is not None and n != generators.n:
                raise MismatchedVariableCount(
                    f"term set has {generators.n} variables, expected {n}"
                )
            terms = list(generators)
            n = generators.n
        else:
            terms = [t if isinstance(t, Term) else Term(t) for t in generators]
            if n is None and terms:
                n = terms[0].nvars
        if n is None:
            raise ValueError("variable count required for the zero ideal")
        minimal = []
        for t in sorted(set(terms), key=lambda t: t.sort_key):
            if not any(g.divides(t) for g in minimal):
                minimal.append(t)
        self.generators = TermSet(minimal, n)
        self.n = n
        self._fit_index = tuple(_exponent_groups(minimal, j) for j in range(n))

    def contains(self, t: Term) -> bool:
        if t.nvars != self.n:
            raise MismatchedVariableCount(f"{t} has {t.nvars} variables, expected {self.n}")
        return self.generators.generates(t)

    @property
    def is_zero(self) -> bool:
        return len(self.generators) == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialIdeal) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.generators!r})"


def _exponent_groups(gens: list[Term], k: int) -> tuple[list[int], list[list[tuple]]]:
    """The generators grouped by their exponent in slot k, in ascending order of
    it: (sorted exponents, groups of the generators' tuples without slot k)."""
    groups: dict[int, list[tuple]] = {}
    for g in gens:
        e = g.exponents
        groups.setdefault(e[k], []).append(e[:k] + e[k + 1 :])
    keys = sorted(groups)
    return keys, [groups[key] for key in keys]


def escalier_slice(J: MonomialIdeal, d: int) -> list[Term]:
    """All degree-d terms outside J, in lex order."""
    return [t for t in terms_of_degree(J.n, d) if not J.contains(t)]


def _bump(e: tuple, j: int, by: int = 1) -> tuple:
    """The exponents of x_j^by * e for an exponent tuple e (j is 1-based)."""
    return e[: j - 1] + (e[j - 1] + by,) + e[j:]


def _star_terms(J: MonomialIdeal, D: int) -> tuple[TermSet, bool]:
    """Star terms of J of degree <= D, and whether J has a star term past D.

    A star term gamma with m = min(gamma) factors as g * eta with g a minimal
    generator, min(g) = m and eta in x_{m+1}..x_n: the generator dividing
    gamma cannot divide gamma/x_m, so it carries all of gamma's x_m.  For a
    fixed g, the eta with (g/x_m) * eta outside J are closed under division,
    so a depth-first search over eta in non-decreasing variable order can
    stop a branch as soon as the predecessor enters J.  By the same closure,
    a star term past D is a generator of degree > D or implies one at D+1,
    a child of a degree-D survivor.  As pred lies outside J, pred * x_j is in
    J iff x_j fits pred at power 1.  The search runs on exponent tuples;
    only the star terms found become Terms, through the returned TermSet.
    """
    if J.is_zero:
        raise ValueError("the zero ideal has no star set")
    n = J.n
    found: set[tuple] = set()
    beyond = False
    for g in J.generators:
        m = g.min_index
        if g.degree > D:
            beyond = True
            continue
        if m is None:  # J is the unit ideal, whose only star term is 1
            found.add(g.exponents)
            continue
        # (star term, its predecessor, index of the smallest variable to add, degree)
        stack = [(g.exponents, _bump(g.exponents, m, -1), m + 1, g.degree)]
        while stack:
            gamma, pred, lo, d = stack.pop()
            found.add(gamma)
            if d == D:
                beyond = beyond or any(_fit_power(J, pred, j) != 1 for j in range(lo, n + 1))
                continue
            for j in range(lo, n + 1):
                if _fit_power(J, pred, j) != 1:
                    stack.append((_bump(gamma, j), _bump(pred, j), j, d + 1))
    return TermSet(found, n), beyond


@dataclass(frozen=True)
class StabilityWitness:
    generator: Term
    variable: int
    divisor_variable: Optional[int] = None


@dataclass(frozen=True)
class StabilityReport:
    strongly_stable: bool
    stable: bool
    quasi_stable: bool
    strongly_stable_witness: Optional[StabilityWitness] = None
    stable_witness: Optional[StabilityWitness] = None
    quasi_stable_witness: Optional[StabilityWitness] = None


def _fit_power(J: MonomialIdeal, b: tuple, j: int) -> Optional[int]:
    """Smallest t with x_j^t * b in J for an exponent tuple b outside J, or None.

    Some generator must fit under b in every exponent but the j-th.  One
    with an x_j exponent of at most b_j would divide b, so the search walks
    J's x_j index from the first exponent above b_j upwards and the first
    group holding a fitting generator gives t = exponent - b_j >= 1.
    """
    keys, groups = J._fit_index[j - 1]
    bj = b[j - 1]
    rest = b[: j - 1] + b[j:]
    for k in range(bisect_right(keys, bj), len(keys)):
        for e in groups[k]:
            if all(map(le, e, rest)):
                return keys[k] - bj
    return None


def _moves(J: MonomialIdeal, strongly: bool) -> Iterator[tuple[Term, int, int, Optional[int]]]:
    """(g, i, j, fit power of x_j over g/x_i) for the moves g/x_i * x_j in
    canonical order: x_i divides the minimal generator g, i = min(g) unless
    ``strongly``, and j > i.  g/x_i lies outside J because g is minimal, so
    the move stays in J iff its fit power is 1."""
    for g in J.generators:
        k = g.min_index
        if k is None:
            continue
        e = g.exponents
        for i in range(k, J.n + 1 if strongly else k + 1):
            if e[i - 1] == 0:
                continue
            base = _bump(e, i, -1)
            for j in range(i + 1, J.n + 1):
                yield g, i, j, _fit_power(J, base, j)


def classify(J: MonomialIdeal) -> StabilityReport:
    """Stability hierarchy of J, decided on the minimal generators alone.

    One walk of the moves g/x_i * x_j answers all three levels: J is
    strongly stable iff every move stays in J, stable iff every move with
    i = min(g) does, and quasi-stable iff every such move has some fit
    power.  Each witness is the first failing move in (g, i, j) order.
    """
    sw = stw = qw = None
    for g, i, j, t in _moves(J, strongly=True):
        if t == 1:
            continue
        sw = sw or StabilityWitness(g, j, i)
        if i == g.min_index:
            stw = stw or StabilityWitness(g, j, i)
            if t is None:
                qw = StabilityWitness(g, j, i)
                break
    strongly, stable, quasi = sw is None, stw is None, qw is None
    if (strongly and not stable) or (stable and not quasi):
        raise AssertionError(
            f"stability hierarchy violated: strongly={strongly}, stable={stable}, quasi={quasi}"
        )
    return StabilityReport(strongly, stable, quasi, sw, stw, qw)


def _uniform_quasi_stable_exponent(J: MonomialIdeal) -> int:
    """Smallest t >= 1 with x_j^t * g/min(g) in J for every generator g, x_j > min(g).

    This is the largest fit power over the moves with i = min(g), which
    avoids an unbounded exponent search.  Raises NotQuasiStable with the
    first (g, j) in canonical order that has no fit power.
    """
    top = 1
    for g, _, j, t in _moves(J, strongly=False):
        if t is None:
            raise NotQuasiStable(
                f"no power of x_{j} pushes {g}/min back into the ideal",
                witness=(g, j),
            )
        top = max(top, t)
    return top


def pommaret_termination_degree(J: MonomialIdeal) -> int:
    """Degree d with the star set contained in degrees < d (quasi-stable J only)."""
    a = J.generators.max_degree()
    t = _uniform_quasi_stable_exponent(J)
    return a + t * J.n


def star_set(J: MonomialIdeal, degree_bound: int) -> tuple[TermSet, bool]:
    """Terms of J whose min-variable predecessor escapes J, up to degree_bound.

    Each star term is a minimal generator g times a term in the variables
    above min(g), and for fixed g those cofactors are closed under division;
    the search walks them and prunes a branch once its predecessor lies in J.
    The returned flag reports whether the truncation is exhaustive: it is
    computed, never assumed, and requires degree_bound at or past the
    termination bound of a quasi-stable J and no star term of degree
    degree_bound + 1.  By the division closure that last condition rules out
    star terms of every higher degree, and it always fails when J is not
    quasi-stable, since then the star set is infinite.
    """
    terms, beyond = _star_terms(J, degree_bound)
    exhaustive = not beyond and degree_bound >= pommaret_termination_degree(J) - 1
    return terms, exhaustive


def pommaret_basis(J: MonomialIdeal) -> TermSet:
    """The finite star set of a quasi-stable ideal (its Pommaret basis)."""
    try:
        d = pommaret_termination_degree(J)
    except NotQuasiStable as exc:
        raise NotQuasiStable(
            "the ideal is not quasi-stable, its star set is infinite",
            witness=exc.witness,
        ) from None
    basis, beyond = _star_terms(J, d - 1)
    if beyond:
        raise AssertionError("star set failed to stabilize below the proven bound")
    ok, witness = is_stably_complete(basis)
    if not ok:
        raise AssertionError(f"star set is not stably complete, witness {witness}")
    return basis


def regularity(J: MonomialIdeal) -> int:
    """Maximal degree in the Pommaret basis (quasi-stable J only)."""
    return pommaret_basis(J).max_degree()


def hilbert_function(
    M: TermSet, k: int, assignment: Optional[DivisionAssignment] = None
) -> int:
    """dim of the degree-k slice of P/(M) counted through offspring sizes.

    Requires M complete for ``assignment``, which must be M's own (Janet by
    default) and have disjoint cones, as Janet's always do.  The offspring of
    tau holds tau times the degree-(k - deg tau) terms in its multiplicative
    variables: just tau when it has none.
    """
    if assignment is None:
        assignment = DivisionAssignment.janet(M)
    ok, witness = is_complete(M, assignment)
    if not ok:
        raise NotComplete("Hilbert formula needs a complete set", witness=witness)
    if assignment.flavor != JANET and assignment._nested:
        tau, outer = assignment._nested
        raise ValueError(f"{tau} lies in the cone of {outer}: cones must be disjoint")
    if k < 0:
        raise ValueError("degree must be non-negative")
    return _monomials(k, M.n) - sum(
        _monomials(k - tau.degree, len(assignment.mult[tau])) for tau in M
    )


@dataclass(frozen=True)
class SigmaProfile:
    degree: int
    mode: str
    counts: tuple[int, ...]


def _sigma_counts(J: MonomialIdeal, degrees: tuple[int, ...], mode: str) -> list[list[int]]:
    """sigma^(p) for each p in ``degrees``, from one star search to the largest.

    Each degree-p term of J is uniquely gamma * eta with gamma a star term of
    degree <= p, m = min(gamma) (n for the term 1) and eta of degree
    e = p - deg gamma in x_1..x_m: gamma lands in sigma_m when e = 0, and an
    eta with minimal variable x_v is x_v times a degree-(e-1) term in x_v..x_m.
    """
    if min(degrees) < 1:
        raise ValueError("sigma invariants are defined for degree >= 1")
    if mode not in SIGMA_MODES:
        raise ValueError(f"mode must be one of {SIGMA_MODES}")
    n = J.n
    stars = () if J.is_zero else _star_terms(J, max(degrees))[0]
    profiles = []
    for p in degrees:
        counts = [0] * n
        for gamma in stars:
            m = gamma.min_index or n
            e = p - gamma.degree
            if e == 0:
                counts[m - 1] += 1
            for v in range(1, m + 1):
                counts[v - 1] += _monomials(e - 1, m - v + 1)
        if mode == ESCALIER:
            counts = [_monomials(p - 1, n - i + 1) - c for i, c in enumerate(counts, 1)]
        profiles.append(counts)
    return profiles


def sigma_profile(J: MonomialIdeal, p: int, mode: str = IDEAL_SLICE) -> SigmaProfile:
    """Counts of degree-p terms by minimal variable, over N(J) or over J."""
    return SigmaProfile(p, mode, tuple(_sigma_counts(J, (p,), mode)[0]))


def sigma_totals(J: MonomialIdeal, p: int, mode: str = IDEAL_SLICE) -> tuple[int, int]:
    """(sum(sigma^(p+1)), sum(i * sigma^(p)_i)): the two sides of the involutive test."""
    sp, sp1 = _sigma_counts(J, (p, p + 1), mode)
    return sum(sp1), sum(i * c for i, c in enumerate(sp, start=1))


def involutive_test(J: MonomialIdeal, p: int, mode: str = IDEAL_SLICE) -> bool:
    """Whether sum(sigma^(p+1)) equals sum(i * sigma^(p)_i) in the chosen mode."""
    next_degree_total, weighted_total = sigma_totals(J, p, mode)
    return next_degree_total == weighted_total
