"""Monomial ideals: star set, stability hierarchy, Pommaret basis, Hilbert
function via multiplicative-variable counting, sigma invariants and the
involutive degree test.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Optional

from .division import (
    DivisionAssignment,
    is_complete,
    is_stably_complete,
)
from .errors import MismatchedVariableCount, NotComplete, NotQuasiStable
from .terms import Term, TermSet, terms_of_degree, variable

ESCALIER = "escalier"
IDEAL_SLICE = "ideal-slice"
_MODES = (ESCALIER, IDEAL_SLICE)


class MonomialIdeal:
    """A monomial ideal held by its minimal generating set."""

    __slots__ = ("generators", "n")

    def __init__(self, generators: Iterable[Term] | TermSet, n: Optional[int] = None):
        if isinstance(generators, TermSet):
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

    def contains(self, t: Term) -> bool:
        if t.nvars != self.n:
            raise MismatchedVariableCount(f"{t} has {t.nvars} variables, expected {self.n}")
        return any(g.divides(t) for g in self.generators)

    @property
    def is_zero(self) -> bool:
        return len(self.generators) == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialIdeal) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"MonomialIdeal({self.generators!r})"


def membership(J: MonomialIdeal, t: Term) -> bool:
    return J.contains(t)


def ideal_slice(J: MonomialIdeal, d: int) -> list[Term]:
    """All degree-d terms inside J, in lex order."""
    return [t for t in terms_of_degree(J.n, d) if J.contains(t)]


def escalier_slice(J: MonomialIdeal, d: int) -> list[Term]:
    """All degree-d terms outside J, in lex order."""
    return [t for t in terms_of_degree(J.n, d) if not J.contains(t)]


def _star_terms(J: MonomialIdeal, D: int) -> tuple[TermSet, bool]:
    """Star terms of J of degree <= D, and whether J has a star term past D.

    A star term gamma with m = min(gamma) factors as g * eta with g a minimal
    generator, min(g) = m and eta in x_{m+1}..x_n: the generator dividing
    gamma cannot divide gamma/x_m, so it carries all of gamma's x_m.  For a
    fixed g, the eta with (g/x_m) * eta outside J are closed under division,
    so a depth-first search over eta in non-decreasing variable order can
    stop a branch as soon as the predecessor enters J.  By the same closure,
    a star term past D is a generator of degree > D or implies one at D+1,
    a child of a degree-D survivor.
    """
    if J.is_zero:
        raise ValueError("the zero ideal has no star set")
    n = J.n
    xs = [variable(n, j) for j in range(1, n + 1)]
    found: set[Term] = set()
    beyond = False
    for g in J.generators:
        m = g.min_index
        if m is None:
            continue
        if g.degree > D:
            beyond = True
            continue
        # (star term, its predecessor, index of the smallest variable to add)
        stack = [(g, g.predecessor(m), m + 1)]
        while stack:
            gamma, pred, lo = stack.pop()
            found.add(gamma)
            if gamma.degree == D:
                beyond = beyond or any(
                    not J.contains(pred * xs[j - 1]) for j in range(lo, n + 1)
                )
                continue
            for j in range(lo, n + 1):
                child_pred = pred * xs[j - 1]
                if not J.contains(child_pred):
                    stack.append((gamma * xs[j - 1], child_pred, j))
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


def classify(J: MonomialIdeal) -> StabilityReport:
    """Stability hierarchy of J, decided on the minimal generators alone.

    Quasi-stability avoids the unbounded exponent search: x_j^t * g/min(g)
    lands in J for some t iff some generator fits under g/min(g) in every
    exponent except the j-th.
    """
    strongly, stable, quasi = True, True, True
    sw = stw = qw = None
    n = J.n
    gens = list(J.generators)
    for g in gens:
        k = g.min_index
        if k is None:
            continue
        base = g.predecessor(k)
        for j in range(k + 1, n + 1):
            if stable and not J.contains(base * variable(n, j)):
                stable = False
                stw = StabilityWitness(g, j, k)
            if quasi and not any(
                all(
                    gamma.exponents[i] <= base.exponents[i]
                    for i in range(n)
                    if i != j - 1
                )
                for gamma in gens
            ):
                quasi = False
                qw = StabilityWitness(g, j, k)
        if strongly:
            for i in range(1, n + 1):
                if g.exponents[i - 1] == 0:
                    continue
                swap_base = g.predecessor(i)
                for j in range(i + 1, n + 1):
                    if not J.contains(swap_base * variable(n, j)):
                        strongly = False
                        sw = StabilityWitness(g, j, i)
                        break
                if not strongly:
                    break
    if (strongly and not stable) or (stable and not quasi):
        raise AssertionError(
            f"stability hierarchy violated: strongly={strongly}, stable={stable}, quasi={quasi}"
        )
    return StabilityReport(strongly, stable, quasi, sw, stw, qw)


def _uniform_quasi_stable_exponent(J: MonomialIdeal) -> int:
    """Smallest t >= 1 with x_j^t * g/min(g) in J for every generator g, x_j > min(g)."""
    t = 1
    gens = list(J.generators)
    for g in gens:
        k = g.min_index
        if k is None:
            continue
        base = g.predecessor(k)
        for j in range(k + 1, J.n + 1):
            needed = [
                max(0, gamma.exponents[j - 1] - base.exponents[j - 1])
                for gamma in gens
                if all(
                    gamma.exponents[i] <= base.exponents[i]
                    for i in range(J.n)
                    if i != j - 1
                )
            ]
            if not needed:
                raise NotQuasiStable(
                    f"no power of x_{j} pushes {g}/min back into the ideal",
                    witness=(g, j),
                )
            t = max(t, min(needed))
    return t


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

    Requires M complete for ``assignment`` (Janet by default).  The ambient
    count is C(k+n-1, n-1) = dim P_k; binomials with a negative numerator or
    denominator contribute 0.
    """
    if assignment is None:
        assignment = DivisionAssignment.janet(M)
    ok, witness = is_complete(M, assignment)
    if not ok:
        raise NotComplete("Hilbert formula needs a complete set", witness=witness)
    if k < 0:
        raise ValueError("degree must be non-negative")
    n = M.n
    total = comb(k + n - 1, n - 1)
    for tau in M:
        if tau.degree > k:
            continue
        s = len(assignment.mult[tau])
        if s == 0:
            # An offspring with no multiplicative variables is the singleton
            # {tau}: it contributes exactly at its own degree (C(-1,-1) = 1
            # in the extended convention), which the plain negative-entry
            # rule would drop.
            total -= 1 if k == tau.degree else 0
            continue
        if k - tau.degree + s - 1 < 0:
            continue
        total -= comb(k - tau.degree + s - 1, s - 1)
    return total


@dataclass(frozen=True)
class SigmaProfile:
    degree: int
    mode: str
    counts: tuple[int, ...]


def sigma_profile(J: MonomialIdeal, p: int, mode: str = IDEAL_SLICE) -> SigmaProfile:
    """Counts of degree-p terms by minimal variable, over N(J) or over J."""
    if p < 1:
        raise ValueError("sigma invariants are defined for degree >= 1")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    slice_ = escalier_slice(J, p) if mode == ESCALIER else ideal_slice(J, p)
    counts = [0] * J.n
    for t in slice_:
        counts[t.min_index - 1] += 1
    return SigmaProfile(p, mode, tuple(counts))


def involutive_test(J: MonomialIdeal, p: int, mode: str = IDEAL_SLICE) -> bool:
    """Whether sum(sigma^(p+1)) equals sum(i * sigma^(p)_i) in the chosen mode."""
    sp = sigma_profile(J, p, mode)
    sp1 = sigma_profile(J, p + 1, mode)
    return sum(sp1.counts) == sum(i * c for i, c in enumerate(sp.counts, start=1))
