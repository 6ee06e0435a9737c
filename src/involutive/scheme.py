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
from itertools import groupby
from math import lcm
from typing import Iterable, Iterator, Mapping, Optional

from .division import DivisionAssignment
from .errors import MissingAssignment, WorkBudgetExceeded
from .ideals import MonomialIdeal, escalier_slice, hilbert_function, pommaret_basis
from .marked import MarkedPolynomial, MarkedSet, _prolongations
from .terms import Term, TermSet, _monomials

# The most parameters plus escalier-slice terms generic_marked_set will list:
# at about 7 microseconds each, the listing stays within a few seconds.
_WORK_BUDGET = 200_000


@dataclass(frozen=True)
class ParamVar:
    """The coefficient parameter of tail term ``term`` in generator ``index`` (1-based)."""

    index: int
    term: Term

    @classmethod
    def of_key(cls, key: tuple) -> "ParamVar":
        return cls(key[0], Term(key[1][::-1]))

    @property
    def name(self) -> str:
        exps = ",".join(str(e) for e in self.term.exponents)
        return f"C[{self.index}][{exps}]"

    @property
    def sort_key(self) -> tuple:
        return (self.index, self.term.lex_key)

    def __repr__(self) -> str:
        return self.name


def _add_product(out: dict, a: Mapping, b: Mapping) -> dict:
    """out += a * b over coefficient maps; cancelled monomials stay as zeros."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(sorted(m1 + m2)) if m1 and m2 else m1 or m2
            out[m] = out.get(m, 0) + c1 * c2
    return out


class ParamPolynomial:
    """Sparse integer polynomial in the scheme parameters.

    A monomial is the sorted tuple of its parameters' ``ParamVar.sort_key``
    (with multiplicity), so hashing and sorting stay on plain tuples; zero
    coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Mapping[tuple[tuple, ...], int]] = None):
        self.coeffs = {m: c for m, c in (coeffs or {}).items() if c}

    @classmethod
    def constant(cls, c: int) -> "ParamPolynomial":
        return cls({(): int(c)})

    @classmethod
    def variable(cls, pv: ParamVar) -> "ParamPolynomial":
        return cls({(pv.sort_key,): 1})

    @staticmethod
    def _coerce(other) -> "ParamPolynomial":
        if isinstance(other, ParamPolynomial):
            return other
        if isinstance(other, int):
            return ParamPolynomial.constant(other)
        return NotImplemented

    def _combine(self, other, sign: int):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + sign * c
        return ParamPolynomial(out)

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
        return ParamPolynomial({m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ParamPolynomial(_add_product({}, self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # A constant (zero included) equals its int, so it hashes like it.
        if self.coeffs.keys() <= {()}:
            return hash(self.coeffs.get((), 0))
        return hash(frozenset(self.coeffs.items()))

    def evaluate(self, values: Mapping[ParamVar, Fraction]) -> Fraction:
        return _evaluate([self], values)[0]

    def monomials(self) -> Iterator[tuple[list[tuple[ParamVar, int]], int]]:
        """Each monomial as its (parameter, power) factors and its coefficient,
        in output order: by degree, then by the parameters' indices and terms."""
        for m in sorted(self.coeffs, key=lambda m: (len(m), m)):
            yield [(ParamVar.of_key(k), len(list(run))) for k, run in groupby(m)], self.coeffs[m]

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


def _evaluate(polys: Iterable[ParamPolynomial], values: Mapping) -> list[Fraction]:
    """Each polynomial at the point, in integers: over the common denominator L
    of the values, sum(c * prod(L * a_i) * L^(K - deg m)) / L^K at top degree K."""
    L = lcm(*(v.denominator for v in values.values()))
    point = {pv.sort_key: v.numerator * (L // v.denominator) for pv, v in values.items()}
    out = []
    for p in polys:
        top = max(map(len, p.coeffs), default=0)
        total = 0
        try:
            for m, c in p.coeffs.items():
                for key in m:
                    c *= point[key]
                total += c * L ** (top - len(m))
        except KeyError as exc:
            raise MissingAssignment(f"no value for {ParamVar.of_key(exc.args[0]).name}") from None
        out.append(Fraction(total, L**top))
    return out


@dataclass
class GenericMarkedSet:
    """Marked set on the Pommaret basis with one parameter per tail slot."""

    ideal: MonomialIdeal
    basis: TermSet
    params: tuple[ParamVar, ...]
    tails: dict[Term, dict[Term, ParamPolynomial]]

    def marked_set(self) -> MarkedSet:
        return _escalier_marked_set(self.basis, self.tails)


def _escalier_marked_set(basis: TermSet, tails: Mapping[Term, Mapping]) -> MarkedSet:
    # Tails drawn from the escalier pass make_marked_set's checks by construction.
    return MarkedSet(basis, {head: MarkedPolynomial(head, tail) for head, tail in tails.items()})


def _generic_work(basis: TermSet) -> int:
    """What the generic marked set on the Pommaret basis costs to list: its
    parameters, one per head and escalier term of the head's degree, which
    the Hilbert function counts over the disjoint Pommaret cones, plus the
    degree slices scanned for those escalier terms.

    The count runs up the head degrees and stops once past the budget, so
    its own cost stays bounded too; the total is then a lower bound."""
    pommaret = DivisionAssignment.pommaret(basis)
    work = 0
    for d, k in sorted(Counter(head.degree for head in basis).items()):
        work += k * hilbert_function(basis, d, pommaret) + _monomials(d, basis.n)
        if work > _WORK_BUDGET:
            break
    return work


def generic_marked_set(J: MonomialIdeal) -> GenericMarkedSet:
    """One generic polynomial per star-set element, tails spanning the escalier.

    The work is counted first: past a fixed budget, WorkBudgetExceeded is
    raised with the estimate before anything is enumerated."""
    basis = pommaret_basis(J)
    work = _generic_work(basis)
    if work > _WORK_BUDGET:
        raise WorkBudgetExceeded(
            f"the generic marked set needs at least {work} parameters and slice terms, "
            f"past the budget of {_WORK_BUDGET}",
            estimate=work,
            budget=_WORK_BUDGET,
        )
    params: list[ParamVar] = []
    tails: dict[Term, dict[Term, ParamPolynomial]] = {}
    escalier_cache: dict[int, list[Term]] = {}
    for i, head in enumerate(basis, start=1):
        d = head.degree
        if d not in escalier_cache:
            escalier_cache[d] = escalier_slice(J, d)
        tail: dict[Term, ParamPolynomial] = {}
        for beta in escalier_cache[d]:
            pv = ParamVar(i, beta)
            params.append(pv)
            tail[beta] = ParamPolynomial.variable(pv)
        tails[head] = tail
    return GenericMarkedSet(J, basis, tuple(params), tails)


def _add_normal_form(G: MarkedSet, memo: dict, out: dict, gamma: Term, coeff: Mapping) -> None:
    """out += coeff * NF(gamma) over coefficient maps, with NF(gamma) kept in ``memo``.

    Over a stably complete basis reduction is noetherian and every term of J
    is one head * eta, so the reduced form is linear: NF(t) = t outside J and
    NF(head * eta) = -sum(c_beta * NF(beta * eta)) over the head's tail.
    """
    nf = memo.get(gamma)
    if nf is None:
        fact = G.decompose(gamma)
        if fact is None:
            nf = {gamma: {(): 1}}
        else:
            nf = {}
            for beta, c in G.polys[fact.head].tail.items():
                _add_normal_form(G, memo, nf, beta * fact.cofactor, (-c).coeffs)
        memo[gamma] = nf
    for t, p in nf.items():
        _add_product(out.setdefault(t, {}), coeff, p)


def prolongation_residues(
    gm: GenericMarkedSet,
) -> list[tuple[Term, int, dict[Term, ParamPolynomial]]]:
    """Reduced non-multiplicative prolongations of the generic set: what
    :func:`marked.reduce` leaves of each f_head * x_j, from normal forms
    computed once per call.

    The prolongations come in the order of the criterion's walk in
    :mod:`marked`, and each residue maps its nonzero coefficients by term in
    ``sort_key`` order.
    """
    G = gm.marked_set()
    memo: dict[Term, dict] = {}
    out = []
    for head, j, h in _prolongations(G):
        acc: dict[Term, dict] = {}
        for t, c in h.items():
            _add_normal_form(G, memo, acc, t, ParamPolynomial._coerce(c).coeffs)
        residue = ((t, ParamPolynomial(acc[t])) for t in sorted(acc, key=lambda t: t.sort_key))
        out.append((head, j, {t: p for t, p in residue if p}))
    return out


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
    seen: set[ParamPolynomial] = set()
    for _, _, residue in prolongation_residues(gm):
        for p in residue.values():
            if p not in seen:
                seen.add(p)
                equations.append(p)
    return SchemeEquations(gm, equations)


def specialize(
    gm: GenericMarkedSet, values: Mapping[ParamVar, Fraction]
) -> MarkedSet:
    """Evaluate every parameter to a rational, producing a concrete marked set."""
    evaluated = iter(_evaluate([p for tail in gm.tails.values() for p in tail.values()], values))
    tails = {head: {t: next(evaluated) for t in tail} for head, tail in gm.tails.items()}
    return _escalier_marked_set(gm.basis, tails)


def evaluate_equations(
    eqs: SchemeEquations, values: Mapping[ParamVar, Fraction]
) -> list[Fraction]:
    return _evaluate(eqs.equations, values)
