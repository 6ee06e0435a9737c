"""Defining equations of the marked scheme of a quasi-stable monomial ideal.

The generic marked set carries one integer-ring parameter per (generator,
escalier term) pair; reducing its non-multiplicative prolongations is
fraction-free because heads are monic, so the equations come out with integer
coefficients and evaluation commutes with any rational specialization.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, groupby, takewhile
from math import lcm
from operator import add
from typing import Iterable, Iterator, Mapping, Optional

from .division import _cone_terms, pommaret_multiplicative_vars
from .errors import MissingAssignment, _charge
from .ideals import MonomialIdeal, escalier_slice, pommaret_basis
from .marked import MarkedSet, _prolongations, _terms_of
from .terms import Term, TermSet, _monomials


@dataclass(frozen=True)
class ParamVar:
    """The coefficient parameter of tail term ``term`` in generator ``index`` (1-based)."""

    index: int
    term: Term

    @property
    def name(self) -> str:
        exps = ",".join(str(e) for e in self.term.exponents)
        return f"C[{self.index}][{exps}]"

    @property
    def sort_key(self) -> tuple:
        return (self.index, self.term.lex_key)

    def __hash__(self) -> int:
        # The dataclass hash of (index, term) would call Term.__hash__ as well.
        return hash((self.index, self.term.lex_key))

    def __repr__(self) -> str:
        return self.name


class ParamPolynomial:
    """Sparse integer polynomial in the scheme parameters.

    ``params`` is a table of distinct parameters in ``ParamVar.sort_key``
    order, shared by every polynomial of one generic marked set.  A monomial
    is the sorted tuple of its parameters' positions in that table (with
    multiplicity), so hashing and sorting stay on tuples of small ints; zero
    coefficients are never stored.  Polynomials over two tables combine over
    their sorted union, and a parameter is decoded only to print or hash.
    """

    __slots__ = ("coeffs", "params")

    def __init__(self, coeffs: Optional[Mapping[tuple, int]] = None, params: tuple = ()):
        self.coeffs = {m: c for m, c in (coeffs or {}).items() if c}
        self.params = params
        if not params and self.coeffs.keys() - {()}:
            raise ValueError("a monomial needs the parameter table that it indexes")

    @classmethod
    def _of_coeffs(cls, coeffs: dict, params: tuple) -> "ParamPolynomial":
        """The polynomial with the zero-free coefficient map ``coeffs`` over the
        table ``params``, which the library made: not checked, and not copied."""
        p = cls.__new__(cls)
        p.coeffs = coeffs
        p.params = params
        return p

    @classmethod
    def constant(cls, c: int) -> "ParamPolynomial":
        return cls({(): int(c)})

    @classmethod
    def variable(cls, pv: ParamVar) -> "ParamPolynomial":
        return cls({(0,): 1}, (pv,))

    @staticmethod
    def _coerce(other) -> "ParamPolynomial":
        if isinstance(other, ParamPolynomial):
            return other
        if isinstance(other, int):
            return ParamPolynomial.constant(other)
        return NotImplemented

    def _aligned(self, other: "ParamPolynomial") -> tuple[dict, dict, tuple]:
        """The coefficient maps of self and other over one table, and the table:
        either one's own when both share it or the other is a constant (an
        empty table), their sorted union otherwise."""
        a, b = self.params, other.params
        if a is b or not b:
            return self.coeffs, other.coeffs, a
        if not a:
            return self.coeffs, other.coeffs, b
        table = _union(a, b)
        return _moved(self.coeffs, a, table), _moved(other.coeffs, b, table), table

    def _combine(self, other, sign: int):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        mine, theirs, table = self._aligned(other)
        out = dict(mine)
        for m, c in theirs.items():
            out[m] = out.get(m, 0) + sign * c
        return ParamPolynomial(out, table)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "ParamPolynomial":
        return ParamPolynomial({m: -c for m, c in self.coeffs.items()}, self.params)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        mine, theirs, table = self._aligned(other)
        out: dict = {}
        for m1, c1 in mine.items():
            for m2, c2 in theirs.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + c1 * c2
        return ParamPolynomial(out, table)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        mine, theirs, _ = self._aligned(other)
        return mine == theirs

    def __hash__(self) -> int:
        # A constant (zero included) equals its int, so it hashes like it;
        # any other polynomial hashes its monomials decoded, as equal
        # polynomials over two tables must hash alike.
        if self.coeffs.keys() <= {()}:
            return hash(self.coeffs.get((), 0))
        params = self.params
        return hash(
            frozenset((tuple(params[i].sort_key for i in m), c) for m, c in self.coeffs.items())
        )

    def evaluate(self, values: Mapping[ParamVar, Fraction]) -> Fraction:
        return _evaluate([self], values)[0]

    def monomials(self) -> Iterator[tuple[list[tuple[ParamVar, int]], int]]:
        """Each monomial as its (parameter, power) factors and its coefficient,
        in output order: by degree, then by the parameters' indices and terms."""
        params = self.params
        for m in sorted(self.coeffs, key=lambda m: (len(m), m)):
            yield [(params[i], len(list(run))) for i, run in groupby(m)], self.coeffs[m]

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for factors, c in self.monomials():
            body = "*".join(pv.name if e == 1 else f"{pv.name}^{e}" for pv, e in factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"ParamPolynomial({self})"


def _union(a: tuple, b: tuple) -> tuple:
    """The sorted union of two parameter tables: ``a`` itself when it already
    holds every parameter of ``b``."""
    merged = {*a, *b}
    if len(merged) == len(a):
        return a
    return tuple(sorted(merged, key=lambda pv: (pv.index, pv.term.lex_key)))


def _moved(coeffs: dict, table: tuple, onto: tuple) -> dict:
    """A coefficient map over ``table`` as positions in ``onto``, a sorted
    table that holds every parameter of ``table``.  Both are sorted, so each
    monomial stays sorted."""
    if table is onto or not table:
        return coeffs
    at = {pv: i for i, pv in enumerate(onto)}
    new = [at[pv] for pv in table]
    return {tuple([new[i] for i in m]): c for m, c in coeffs.items()}


def _evaluate(polys: Iterable[ParamPolynomial], values: Mapping) -> list[Fraction]:
    """Each polynomial at the point, in integers: over the common denominator L
    of the values, sum(c * prod(L * a_i) * L^(K - deg m)) / L^K at top degree K.
    The point is read as {position: L * value}, once for each run of
    polynomials over one parameter table."""
    L = lcm(*(v.denominator for v in values.values()))
    table: Optional[tuple] = None
    point: dict[int, int] = {}
    out = []
    for p in polys:
        if p.params is not table:
            table = p.params
            point = {}
            for i, pv in enumerate(table):
                v = values.get(pv)
                if v is not None:
                    point[i] = v.numerator * (L // v.denominator)
        top = max(map(len, p.coeffs), default=0)
        total = 0
        try:
            for m, c in p.coeffs.items():
                for i in m:
                    c *= point[i]
                total += c * L ** (top - len(m))
        except KeyError as exc:
            raise MissingAssignment(f"no value for {table[exc.args[0]].name}") from None
        out.append(Fraction(total, L**top))
    return out


@dataclass
class GenericMarkedSet:
    """Marked set on the Pommaret basis with one parameter per tail slot.

    ``params`` lists the parameters in ``ParamVar.sort_key`` order, and every
    tail coefficient is a ``ParamPolynomial`` over that one table."""

    ideal: MonomialIdeal
    basis: TermSet
    params: tuple[ParamVar, ...]
    tails: dict[Term, dict[Term, ParamPolynomial]]

    def marked_set(self) -> MarkedSet:
        # Tails drawn from the escalier pass make_marked_set's checks by
        # construction, so this set and its specialisations skip them.
        return MarkedSet(self.basis, self.tails)


def _generic_work(basis: TermSet) -> int:
    """What the generic marked set on the Pommaret basis costs to list: its
    parameters, one per head and escalier term of the head's degree, plus the
    degree slices scanned for those escalier terms.  The basis is stably
    complete, so its Pommaret cones are disjoint and cover J: the escalier
    terms of degree d are the degree-d slice less the degree-d terms of each
    cone tau * x_1..x_min(tau).

    The count runs up the head degrees and is charged once per degree, so
    past the budget WorkBudgetExceeded is raised with a lower bound and the
    count's own cost stays bounded too."""
    n = basis.n
    work = 0
    for d, k in sorted(Counter(head.degree for head in basis).items()):
        # The basis is in degree order, so the count stops at the heads counted.
        cones = takewhile(lambda tau: tau.degree <= d, basis)
        inside = _cone_terms(((tau, pommaret_multiplicative_vars(tau)) for tau in cones), d)
        work += k * (_monomials(d, n) - inside) + _monomials(d, n)
        _charge(work, "the generic marked set needs at least {} parameters and slice terms", work)
    return work


def generic_marked_set(J: MonomialIdeal) -> GenericMarkedSet:
    """One generic polynomial per star-set element, tails spanning the escalier.

    The work is counted first: past a fixed budget, WorkBudgetExceeded is
    raised with the estimate before anything is enumerated."""
    basis = pommaret_basis(J)
    _generic_work(basis)
    escalier: dict[int, list[Term]] = {}
    slices = []
    for head in basis:
        if head.degree not in escalier:
            escalier[head.degree] = escalier_slice(J, head.degree)
        slices.append(escalier[head.degree])
    # Heads come by index and each escalier slice in lex order, so the
    # parameters come in sort_key order: one table for every tail.
    params = tuple(
        ParamVar(i, beta) for i, betas in enumerate(slices, start=1) for beta in betas
    )
    position = count()
    tails = {
        head: {beta: ParamPolynomial({(next(position),): 1}, params) for beta in betas}
        for head, betas in zip(basis, slices)
    }
    return GenericMarkedSet(J, basis, params, tails)


def prolongation_residues(
    gm: GenericMarkedSet,
) -> list[tuple[Term, int, dict[Term, ParamPolynomial]]]:
    """Reduced non-multiplicative prolongations of the generic set: what
    :func:`marked.reduce` leaves of each f_head * x_j, from normal forms
    computed once per call.

    The prolongations come in the order of the criterion's walk in
    :mod:`marked`, and each residue maps its nonzero coefficients by term in
    ``sort_key`` order, every coefficient over one table: the generic set's,
    grown only by a parameter that a tail names outside it.  The coefficient
    products are charged to the work budget before they are made, and past it
    WorkBudgetExceeded is raised with the units charged so far.
    """
    G = gm.marked_set()
    table = gm.params
    for f in G._keyed.values():
        for _, c in f[1:]:
            params = ParamPolynomial._coerce(c).params
            if params is not table:
                table = _union(table, params)

    def coefficient(c) -> dict:
        p = ParamPolynomial._coerce(c)
        return _moved(p.coeffs, p.params, table)

    # Each tail negated once, under its head's key, as multipliers; every term a lex key.
    neg_tails = {
        k: [(b, _multiplier(coefficient(-c))) for b, c in f[1:]] for k, f in G._keyed.items()
    }
    # NF(gamma), the size (terms, factors) of each of its coefficients, and
    # what a product by a constant and by one parameter charges.
    memo: dict[tuple, tuple[dict, list[tuple[int, int]], int, int]] = {}
    spent = 0

    def add_normal_form(out: dict, gamma: tuple, multiplier: tuple) -> None:
        """out += coeff * NF(gamma) over coefficient maps, with NF(gamma) kept in
        ``memo`` and coeff given by :func:`_multiplier`.

        Over a stably complete basis reduction is noetherian and every term of
        J is one head * eta, so the reduced form is linear: NF(t) = t outside J
        and NF(head * eta) = -sum(c_beta * NF(beta * eta)) over the head's tail.
        """
        nonlocal spent
        entry = memo.get(gamma)
        if entry is None:
            fact = G.decompose(gamma)
            if fact is None:
                nf = {gamma: {(): 1}}
            else:
                head, eta = fact
                nf = {}
                for beta, c in neg_tails[head]:
                    add_normal_form(nf, tuple(map(add, beta, eta)), c)
            sizes = [(len(p), sum(map(len, p))) for p in nf.values()]
            by_constant = sum(a + b // 8 for a, b in sizes)
            by_parameter = sum(a + (a + b) // 8 for a, b in sizes)
            entry = memo[gamma] = nf, sizes, by_constant, by_parameter
        nf, sizes, by_constant, by_parameter = entry
        pairs, k, factors = multiplier
        # One unit per coefficient product, plus one per 8 parameter factors
        # that the products with each coefficient of the normal form write.
        if k > 1 or factors > 1:
            spent += sum(k * a + (a * factors + k * b) // 8 for a, b in sizes)
        else:
            spent += by_parameter if factors else by_constant
        _charge(spent, "the normal forms need {} units of coefficient products", spent)
        # out[t] += coeff * p over the terms t of NF(gamma).  Monomials are
        # sorted tuples of table positions, so a product joins its factors when
        # one ends before the other starts (always so for a constant, or one
        # parameter times one) and sorts them otherwise; cancelled monomials
        # stay as zeros.  The constant 1 copies p to a term not yet in out.
        unit = pairs == (((), 1),)
        for t, p in nf.items():
            acc = out.get(t)
            if acc is None:
                if unit:
                    out[t] = dict(p)
                    continue
                acc = out[t] = {}
            for m1, c1 in pairs:
                for m2, c2 in p.items():
                    if not m1 or not m2 or m1[-1] <= m2[0]:
                        m = m1 + m2
                    elif m2[-1] <= m1[0]:
                        m = m2 + m1
                    else:
                        m = tuple(sorted(m1 + m2))
                    acc[m] = acc.get(m, 0) + c1 * c2

    out = []
    for head, j, h in _prolongations(G):
        acc: dict[tuple, dict] = {}
        for t, c in h.items():
            add_normal_form(acc, t, _multiplier(coefficient(c)))
        # One degree throughout, so key order is sort_key order.  Cancelled
        # monomials stay as zeros in acc: each map that holds one drops them
        # once, and a map left empty is a zero coefficient, which no residue maps.
        residue = []
        for t in sorted(acc):
            coeffs = acc[t]
            if 0 in coeffs.values():
                coeffs = {m: c for m, c in coeffs.items() if c}
            if coeffs:
                residue.append((t, ParamPolynomial._of_coeffs(coeffs, table)))
        out.append((head, j, _terms_of(residue)))
    return out


def _multiplier(coeffs: Mapping[tuple, int]) -> tuple[tuple, int, int]:
    """A coefficient map as a multiplier of normal forms: its (monomial,
    coefficient) pairs, its number k of terms and its parameter factors."""
    return tuple(coeffs.items()), len(coeffs), sum(map(len, coeffs))


@dataclass
class SchemeEquations:
    generic: GenericMarkedSet
    equations: list[ParamPolynomial]


def scheme_equations(J: MonomialIdeal) -> SchemeEquations:
    """Coefficient equations cutting the marked scheme out of parameter space.

    Each residue of a non-multiplicative prolongation is supported on the
    escalier; their parameter-polynomial coefficients, deduplicated and kept
    in prolongation order, form the defining equations. An empty list means
    every specialization of the generic set is a marked basis.
    """
    gm = generic_marked_set(J)
    equations: list[ParamPolynomial] = []
    # Every residue is over one table, so equal coefficients have equal maps:
    # bucketed by the maps' hash and compared exactly within a bucket.  The
    # frozenset hashed for each map is dropped at once, not kept as a key.
    buckets: dict[int, list[dict]] = {}
    for _, _, residue in prolongation_residues(gm):
        for p in residue.values():
            bucket = buckets.setdefault(hash(frozenset(p.coeffs.items())), [])
            if p.coeffs not in bucket:
                bucket.append(p.coeffs)
                equations.append(p)
    return SchemeEquations(gm, equations)


def specialize(
    gm: GenericMarkedSet, values: Mapping[ParamVar, Fraction]
) -> MarkedSet:
    """Evaluate every parameter to a rational, producing a concrete marked set."""
    evaluated = iter(_evaluate([p for tail in gm.tails.values() for p in tail.values()], values))
    tails = {head: {t: next(evaluated) for t in tail} for head, tail in gm.tails.items()}
    return MarkedSet(gm.basis, tails)  # escalier tails, as in marked_set


def evaluate_equations(
    eqs: SchemeEquations, values: Mapping[ParamVar, Fraction]
) -> list[Fraction]:
    return _evaluate(eqs.equations, values)
