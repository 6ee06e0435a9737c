"""Monomial ideals: star set, stability hierarchy, Pommaret basis, Hilbert
function via multiplicative-variable counting, sigma invariants and the
involutive degree test.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter, le
from typing import Iterable, Iterator, Optional

from ._options import ESCALIER, IDEAL_SLICE, SIGMA_MODES
from .division import (
    DivisionAssignment,
    _cone_terms,
    _own_assignment,
    is_complete,
    is_stably_complete,
)
from .errors import NotComplete, NotQuasiStable, _charge
from .terms import Term, TermSet, _bump, _escalier_keys, _monomials


class MonomialIdeal:
    """A monomial ideal held by its minimal generating set.

    ``_fit_index[i]`` indexes the generators by slot i of their lex keys (x_j
    at i = n - j) for the fit-power test: a sorted list of the distinct
    exponents and, in parallel, the groups of generators carrying each, every
    key with slot i dropped, as the keys of an insertion-ordered dict so that
    a group is both scanned in order and probed for an exact fit.  It is
    built once here and is not part of the ideal's value.
    """

    __slots__ = ("generators", "n", "_fit_index")

    def __init__(self, generators: Iterable[Term] | TermSet, n: Optional[int] = None):
        given = TermSet(generators, n)
        n = given.n
        # A divisor of t other than t itself has a lower degree, and the set
        # drops repeats, so each degree's candidates are tested against the
        # minimal generators of lower degrees alone; those tests are charged
        # before they are done.
        minimal: list[Term] = []
        tests = 0
        for d, group in groupby(given, attrgetter("degree")):
            group, lower = list(group), TermSet(minimal, n)
            tests += len(group) * len(lower)
            what = "minimalising the generators takes {} divisibility tests by degree {}"
            _charge(tests, what, tests, d)
            minimal += [t for t in group if not lower.generates(t)]
        self.generators = TermSet(minimal, n)
        self.n = n
        self._fit_index = tuple(_exponent_groups(minimal, i) for i in range(n))

    def contains(self, t: Term) -> bool:
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


def _exponent_groups(gens: list[Term], i: int) -> tuple[list[int], list[dict[tuple, None]]]:
    """The generators grouped by slot i of their lex keys, in ascending order
    of it: (sorted exponents, groups of the generators' keys without slot i).
    Each group is a dict keyed by those tuples in generator order, so one
    lookup tells whether a given tuple is among them."""
    groups: dict[int, dict[tuple, None]] = {}
    for g in gens:
        k = g.lex_key
        groups.setdefault(k[i], {})[k[:i] + k[i + 1 :]] = None
    keys = sorted(groups)
    return keys, [groups[key] for key in keys]


def escalier_slice(J: MonomialIdeal, d: int) -> list[Term]:
    """All degree-d terms outside J, in lex order.  The degree-d terms it
    scans are counted first, and past the work budget WorkBudgetExceeded is
    raised before any is listed."""
    work = _monomials(d, J.n)
    _charge(work, "the degree-{} slice has {} terms to scan", d, work)
    return list(map(Term._of_key, _escalier_keys(J.generators, d)))


def _star_terms(J: MonomialIdeal, D: int) -> tuple[dict[tuple, int], bool]:
    """The star terms of J of degree <= D as {lex key: min index, n for 1},
    and whether J has a star term past D.

    A star term gamma with m = min(gamma) factors as g * eta with g a minimal
    generator, min(g) = m and eta in x_{m+1}..x_n: the generator dividing
    gamma cannot divide gamma/x_m, so it carries all of gamma's x_m.  For a
    fixed g, the eta with (g/x_m) * eta outside J are closed under division,
    so a depth-first search over eta in non-decreasing variable order can
    stop a branch as soon as the predecessor enters J.  By the same closure,
    a star term past D is a generator of degree > D or implies one at D+1,
    a child of a degree-D survivor.  As pred lies outside J, pred * x_j is in
    J iff x_j fits pred at power 1.  The search runs on lex keys, x_j at
    slot n - j, and returns each with its m: a caller that lists the star
    terms makes them Terms, one that only counts cones reads (m, degree).
    Past the work budget of visited nodes it raises WorkBudgetExceeded with
    the nodes visited so far: the star set of a non-quasi-stable ideal is
    infinite, so its size is not known before the search.
    """
    if J.is_zero:
        raise ValueError("the zero ideal has no star set")
    n = J.n
    found: dict[tuple, int] = {}
    beyond = False
    nodes = 0
    for g in J.generators:
        m = g.min_index
        if g.degree > D:
            beyond = True
            continue
        if m is None:  # J is the unit ideal, whose only star term is 1
            found[g.lex_key] = n
            continue
        # (star term, its predecessor, highest slot of a variable to add, degree)
        stack = [(g.lex_key, _bump(g.lex_key, n - m, -1), n - m - 1, g.degree)]
        while stack:
            gamma, pred, top, d = stack.pop()
            nodes += 1
            _charge(nodes, "the star search visited {} terms by degree {}", nodes, D)
            found[gamma] = m
            if d == D:
                beyond = beyond or any(_fit_power(J, pred, i) != 1 for i in range(top + 1))
                continue
            for i in range(top + 1):
                if _fit_power(J, pred, i) != 1:
                    stack.append((_bump(gamma, i), _bump(pred, i), i, d + 1))
    return found, beyond


@dataclass(frozen=True)
class StabilityWitness:
    generator: Term
    variable: int
    divisor_variable: int


@dataclass(frozen=True)
class StabilityReport:
    strongly_stable: bool
    stable: bool
    quasi_stable: bool
    strongly_stable_witness: Optional[StabilityWitness] = None
    stable_witness: Optional[StabilityWitness] = None
    quasi_stable_witness: Optional[StabilityWitness] = None


def _fit_power(J: MonomialIdeal, b: tuple, i: int) -> Optional[int]:
    """Smallest t with x_j^t * b in J for a lex key b outside J, or None (i = n - j).

    Some generator must fit under b in every slot but i.  One with an x_j
    exponent of at most b[i] would divide b, so the search walks J's index of
    slot i from the first exponent above b[i] upwards and the first group
    holding a fitting generator gives t = exponent - b[i] >= 1.  That first
    group is probed first for a generator equal to b off slot i, the usual
    case in an ideal generated in one degree; only a miss scans.
    """
    keys, groups = J._fit_index[i]
    rest = b[:i] + b[i + 1 :]
    first = bisect_right(keys, b[i])
    if first < len(keys) and rest in groups[first]:
        return keys[first] - b[i]
    for at in range(first, len(keys)):
        for e in groups[at]:
            if all(map(le, e, rest)):
                return keys[at] - b[i]
    return None


def _moves(J: MonomialIdeal, strongly: bool) -> Iterator[tuple[Term, int, int, Optional[int]]]:
    """(g, i, j, fit power of x_j over g/x_i) for the moves g/x_i * x_j in
    canonical order: x_i divides the minimal generator g, i = min(g) unless
    ``strongly``, and j > i.  g/x_i lies outside J because g is minimal, so
    the move stays in J iff its fit power is 1."""
    for g in J.generators:
        m = g.min_index
        if m is None:
            continue
        k, n = g.lex_key, J.n
        for i in range(m, n + 1 if strongly else m + 1):
            if k[n - i] == 0:
                continue
            base = _bump(k, n - i, -1)
            for j in range(i + 1, n + 1):
                yield g, i, j, _fit_power(J, base, n - j)


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


def pommaret_termination_degree(J: MonomialIdeal) -> int:
    """Degree d with the star set contained in degrees < d (quasi-stable J only).

    d = a + t * n, with a the largest generator degree and t the smallest
    t >= 1 with x_j^t * g/min(g) in J for every generator g, x_j > min(g):
    the largest fit power over the moves with i = min(g), which avoids an
    unbounded exponent search.  Raises NotQuasiStable with the first (g, j)
    in canonical order that has no fit power.
    """
    t = 1
    for g, _, j, power in _moves(J, strongly=False):
        if power is None:
            raise NotQuasiStable(
                "the ideal is not quasi-stable, its star set is infinite", witness=(g, j)
            )
        t = max(t, power)
    return J.generators.max_degree() + t * J.n


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
    found, beyond = _star_terms(J, degree_bound)
    exhaustive = not beyond and degree_bound >= pommaret_termination_degree(J) - 1
    return TermSet(map(Term._of_key, found), J.n), exhaustive


def pommaret_basis(J: MonomialIdeal) -> TermSet:
    """The finite star set of a quasi-stable ideal (its Pommaret basis)."""
    found, beyond = _star_terms(J, pommaret_termination_degree(J) - 1)
    if beyond:
        raise AssertionError("star set failed to stabilize below the proven bound")
    basis = TermSet(map(Term._of_key, found), J.n)
    ok, witness = is_stably_complete(basis)
    if not ok:
        raise AssertionError(f"star set is not stably complete, witness {witness}")
    return basis


def hilbert_function(
    M: TermSet, k: int, assignment: Optional[DivisionAssignment] = None
) -> int:
    """dim of the degree-k slice of P/(M) counted through offspring sizes.

    Requires M complete for ``assignment``, which must be M's own (Janet by
    default) and have disjoint cones, as Janet's always do.  The offspring of
    tau holds tau times the degree-(k - deg tau) terms in its multiplicative
    variables: just tau when it has none.
    """
    if k < 0:
        raise ValueError("degree must be non-negative")
    assignment = _own_assignment(M, assignment)
    ok, witness = is_complete(M, assignment)
    if not ok:
        raise NotComplete("Hilbert formula needs a complete set", witness=witness)
    if assignment._nested:
        tau, outer = assignment._nested
        raise ValueError(f"{tau} lies in the cone of {outer}: cones must be disjoint")
    return _monomials(k, M.n) - _cone_terms(assignment.mult.items(), k)


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
    The star terms stay lex keys (x_j at slot n - j): only (m, degree) is read.
    """
    if min(degrees) < 1:
        raise ValueError("sigma invariants are defined for degree >= 1")
    if mode not in SIGMA_MODES:
        raise ValueError(f"mode must be one of {SIGMA_MODES}")
    n = J.n
    stars = {} if J.is_zero else _star_terms(J, max(degrees))[0]
    cones = [(m, sum(k)) for k, m in stars.items()]
    profiles = []
    for p in degrees:
        counts = [0] * n
        for m, deg in cones:
            e = p - deg
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
