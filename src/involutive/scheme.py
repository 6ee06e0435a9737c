"""Defining equations of the marked scheme of a quasi-stable monomial ideal.

The generic marked set carries one integer-ring parameter per (generator,
escalier term) pair; reducing its non-multiplicative prolongations is
fraction-free because heads are monic, so the equations come out with integer
coefficients and evaluation commutes with any rational specialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Iterator, Mapping, Optional

from .errors import MissingAssignment
from .ideals import MonomialIdeal, escalier_slice, pommaret_basis
from .marked import REDUCED, MarkedSet, criterion_checks, make_marked_set
from .terms import Term, TermSet


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

    def __repr__(self) -> str:
        return self.name


def _mono_key(mono: tuple[ParamVar, ...]) -> tuple:
    return (len(mono), tuple(pv.sort_key for pv in mono))


class ParamPolynomial:
    """Sparse integer polynomial in the scheme parameters.

    Monomials are sorted tuples of ParamVar (with multiplicity); zero
    coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Mapping[tuple[ParamVar, ...], int]] = None):
        self.coeffs = {m: c for m, c in (coeffs or {}).items() if c}

    @classmethod
    def constant(cls, c: int) -> "ParamPolynomial":
        return cls({(): int(c)})

    @classmethod
    def variable(cls, pv: ParamVar) -> "ParamPolynomial":
        return cls({(pv,): 1})

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
        out: dict[tuple[ParamVar, ...], int] = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(sorted(m1 + m2, key=lambda pv: pv.sort_key))
                out[m] = out.get(m, 0) + c1 * c2
        return ParamPolynomial(out)

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
        total = Fraction(0)
        for m, c in self.coeffs.items():
            prod = Fraction(c)
            for pv in m:
                if pv not in values:
                    raise MissingAssignment(f"no value for {pv.name}")
                prod *= values[pv]
            total += prod
        return total

    def monomials(self) -> Iterator[tuple[list[tuple[ParamVar, int]], int]]:
        """Each monomial as its (parameter, power) factors and its coefficient,
        in output order: by degree, then by the parameters' indices and terms."""
        for m in sorted(self.coeffs, key=_mono_key):
            yield [(pv, len(list(run))) for pv, run in groupby(m)], self.coeffs[m]

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


@dataclass
class GenericMarkedSet:
    """Marked set on the Pommaret basis with one parameter per tail slot."""

    ideal: MonomialIdeal
    basis: TermSet
    params: tuple[ParamVar, ...]
    tails: dict[Term, dict[Term, ParamPolynomial]]

    def marked_set(self) -> MarkedSet:
        return make_marked_set(self.basis, self.tails)


def generic_marked_set(J: MonomialIdeal) -> GenericMarkedSet:
    """One generic polynomial per star-set element, tails spanning the escalier."""
    basis = pommaret_basis(J)
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


def prolongation_residues(
    gm: GenericMarkedSet,
) -> list[tuple[Term, int, dict[Term, ParamPolynomial]]]:
    """Reduced non-multiplicative prolongations of the generic set, in canonical order."""
    out = []
    for check in criterion_checks(gm.marked_set()):
        if check.trace.status != REDUCED:
            raise AssertionError(
                f"prolongation of {check.head} by x_{check.variable} did not reduce: "
                f"{check.trace.status}"
            )
        out.append((check.head, check.variable, check.trace.result))
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
        for t in sorted(residue, key=lambda t: t.sort_key):
            p = residue[t]
            if p and p not in seen:
                seen.add(p)
                equations.append(p)
    return SchemeEquations(gm, equations)


def specialize(
    gm: GenericMarkedSet, values: Mapping[ParamVar, Fraction]
) -> MarkedSet:
    """Evaluate every parameter to a rational, producing a concrete marked set."""
    for pv in gm.params:
        if pv not in values:
            raise MissingAssignment(f"no value for {pv.name}")
    tails: dict[Term, dict[Term, Fraction]] = {}
    for head, tail in gm.tails.items():
        tails[head] = {t: p.evaluate(values) for t, p in tail.items()}
    return make_marked_set(gm.basis, tails)


def evaluate_equations(
    eqs: SchemeEquations, values: Mapping[ParamVar, Fraction]
) -> list[Fraction]:
    return [p.evaluate(values) for p in eqs.equations]
