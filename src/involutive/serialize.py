"""JSON interchange for terms, ideals, marked sets, traces and scheme output.

Each value format is written once: the emitters build plain dict/list
structures and leave their ``Fraction`` and ``ParamPolynomial``
coefficients in place (an int coefficient as the equal ``Fraction``, so that
it prints as text too).  :func:`dumps` is the one place that prints numbers:
it turns those coefficients into their text and prints integers of any size,
and it pins the byte format (sorted keys, two-space indent, trailing newline)
so reports round-trip byte-identically.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING, Mapping, Optional

from .errors import InvolutiveError
from .terms import Term, TermSet

if TYPE_CHECKING:
    # Annotations only: a command loads just the layers its parse and emit
    # functions call, and those import them where they are called.
    from fractions import Fraction

    from .division import DivisionAssignment
    from .ideals import MonomialIdeal, StabilityWitness
    from .marked import MarkedBasisResult, MarkedSet, ReductionTrace, _OracleFailure
    from .scheme import GenericMarkedSet, ParamPolynomial, ParamVar, SchemeEquations


class InputFormatError(InvolutiveError):
    """The JSON input does not match the expected document shape."""


@contextmanager
def _any_int_size():
    """Lift the interpreter's int-to-decimal digit limit (4300 by default)
    while emitting.

    The limit guards parsing; a result value may grow past it from valid
    input, so it is lifted for output conversions alone.  The limit is
    process-wide, so a thread parsing at the same time would not be held to
    it.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# Past this many bits an int prints faster through _decimal_text than through
# str, which is quadratic in the digit count before Python 3.12.
_QUADRATIC_STR_BITS = 1 << 16


def _decimal_text(n: int) -> str:
    """``str(n)`` in subquadratic time: n is split into halves of its bits,
    each half converted to a ``Decimal`` by recursion and the two joined by
    one exact multiplication by a memoised power of 2.  This follows CPython
    3.12's ``_pylong.int_to_decimal_string`` (Tim Peters); the decimal
    module multiplies large numbers in subquadratic time."""
    from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Decimal, Inexact, localcontext

    powers: dict[int, Decimal] = {}

    def power(w: int) -> Decimal:  # 2**w
        result = powers.get(w)
        if result is None:
            if w <= 128:
                result = Decimal(2) ** w
            elif w - 1 in powers:
                result = powers[w - 1] * 2
            else:
                # w2 first: when w is odd, the larger half w2 + 1 then doubles it
                w2 = w >> 1
                result = power(w2) * power(w - w2)
            powers[w] = result
        return result

    def convert(m: int, w: int) -> Decimal:  # m < 2**w
        if w <= 128:
            return Decimal(m)
        w2 = w >> 1
        hi = m >> w2
        return convert(m - (hi << w2), w2) + convert(hi, w - w2) * power(w2)

    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = MAX_PREC, MAX_EMAX, MIN_EMIN
        ctx.traps[Inexact] = True
        m = abs(n)
        text = str(convert(m, m.bit_length()))
    return "-" + text if n < 0 else text


def _int_text(n: int) -> str:
    """``str(n)``, through :func:`_decimal_text` where str is quadratic."""
    if sys.version_info < (3, 12) and n.bit_length() > _QUADRATIC_STR_BITS:
        return _decimal_text(n)
    return str(n)


def _number_text(value) -> str:
    """The ``json.dumps`` hook for what JSON cannot hold: a ``Fraction`` or a
    ``ParamPolynomial`` coefficient prints as its ``str``, and any other
    object raises TypeError.  A huge numerator or denominator prints in
    subquadratic time."""
    from fractions import Fraction

    if isinstance(value, Fraction):
        numerator = _int_text(value.numerator)
        if value.denominator == 1:
            return numerator
        return f"{numerator}/{_int_text(value.denominator)}"
    # Only the scheme reports hold other coefficients: a command that never
    # loads scheme does not load it here.
    from .scheme import ParamPolynomial

    if isinstance(value, ParamPolynomial):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _coeff(c):
    """A polynomial coefficient for :func:`dumps` to print as text.  An int
    (the 1 on a head) becomes the equal ``Fraction``, which prints the same;
    JSON would print the int as a number."""
    if isinstance(c, int):
        from fractions import Fraction

        return Fraction(c)
    return c


def dumps(obj) -> str:
    """The report text; counts and coefficients print in full at any size."""
    with _any_int_size():
        return json.dumps(obj, indent=2, sort_keys=True, default=_number_text) + "\n"


def parse_coeff(s) -> Fraction:
    from fractions import Fraction

    try:
        if isinstance(s, bool):
            raise ValueError
        if isinstance(s, int):
            return Fraction(s)
        # Fraction("1e<k>") builds 10**k: refuse |k| past the default int digit limit.
        _, e, exponent = str(s).lower().partition("e")
        if e and abs(int(exponent)) > 4300:
            raise InputFormatError(f"coefficient {s!r} has a decimal exponent beyond 4300")
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"bad coefficient {s!r}") from exc


def term_json(t: Term) -> list[int]:
    return list(t.exponents)


def parse_term(data, n: Optional[int] = None) -> Term:
    if not isinstance(data, list) or not all(
        isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in data
    ):
        raise InputFormatError(f"a term must be a list of non-negative integers, got {data!r}")
    if n is not None and len(data) != n:
        raise InputFormatError(f"term {data!r} must have {n} exponents")
    return Term(data)


def _require_vars(data) -> int:
    if not isinstance(data, dict):
        raise InputFormatError("document must be a JSON object")
    n = data.get("vars")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputFormatError('"vars" must be a positive integer')
    return n


def termset_json(M: TermSet) -> dict:
    return {"vars": M.n, "terms": [term_json(t) for t in M]}


def parse_termset(data) -> TermSet:
    n = _require_vars(data)
    terms = data.get("terms")
    if not isinstance(terms, list) or not terms:
        raise InputFormatError('"terms" must be a non-empty list')
    return TermSet([parse_term(t, n) for t in terms], n)


def ideal_json(J: MonomialIdeal) -> dict:
    return {"vars": J.n, "generators": [term_json(t) for t in J.generators]}


def parse_ideal(data) -> MonomialIdeal:
    from .ideals import MonomialIdeal

    n = _require_vars(data)
    gens = data.get("generators")
    if not isinstance(gens, list) or not gens:
        raise InputFormatError('"generators" must be a non-empty list')
    return MonomialIdeal([parse_term(t, n) for t in gens], n)


def assignment_json(assignment: DivisionAssignment) -> list[dict]:
    return [{"term": term_json(t), "mult": sorted(vars_)} for t, vars_ in assignment.mult.items()]


def poly_json(poly: Mapping[Term, object]) -> list[dict]:
    # Every producer (marked tails, reduction results, residues) keeps sort_key order.
    return [{"term": term_json(t), "coeff": _coeff(c)} for t, c in poly.items()]


def parse_poly(data, n: int) -> dict[Term, Fraction]:
    if not isinstance(data, list):
        raise InputFormatError("a polynomial must be a list of term/coeff entries")
    out: dict[Term, Fraction] = {}
    for entry in data:
        if not isinstance(entry, dict) or "term" not in entry or "coeff" not in entry:
            raise InputFormatError(f"bad polynomial entry {entry!r}")
        t = parse_term(entry["term"], n)
        c = parse_coeff(entry["coeff"])
        if c:
            out[t] = out.get(t, 0) + c
    return {t: c for t, c in out.items() if c}


def marked_set_json(G: MarkedSet) -> dict:
    return {
        "vars": G.n,
        "polynomials": [
            {
                "head": term_json(head),
                "tail": poly_json(G.polys[head].tail),
            }
            for head in G.basis
        ],
    }


def parse_marked_set(data) -> MarkedSet:
    from .marked import make_marked_set

    n = _require_vars(data)
    entries = data.get("polynomials")
    if not isinstance(entries, list) or not entries:
        raise InputFormatError('"polynomials" must be a non-empty list')
    heads = []
    tails = {}
    for entry in entries:
        if not isinstance(entry, dict) or "head" not in entry:
            raise InputFormatError(f"bad marked polynomial entry {entry!r}")
        head = parse_term(entry["head"], n)
        if head in tails:
            raise InputFormatError(f"head {entry['head']!r} is marked twice")
        heads.append(head)
        tails[head] = parse_poly(entry.get("tail", []), n)
    return make_marked_set(TermSet(heads, n), tails)


def witness_json(witness) -> Optional[dict]:
    if witness is None:
        return None
    term, j = witness
    return {"term": term_json(term), "variable": j}


def stability_witness_json(w: Optional[StabilityWitness]) -> Optional[dict]:
    if w is None:
        return None
    return {
        "generator": term_json(w.generator),
        "variable": w.variable,
        "divisor_variable": w.divisor_variable,
    }


def oracle_witness_json(w: _OracleFailure) -> dict:
    """The degree where the oracle failed, with the plain multiple outside
    the span of G^(s) as its head and multiplier, or else the ranks of the
    direct-sum test against the size of the slice."""
    if w.multiple is not None:
        head, multiplier = w.multiple
        return {"degree": w.degree, "head": term_json(head), "multiplier": term_json(multiplier)}
    star, escalier, combined, slice_terms = w.ranks
    return {
        "degree": w.degree,
        "star_rank": star,
        "escalier_rank": escalier,
        "sum_rank": combined,
        "slice_terms": slice_terms,
    }


def trace_json(trace: ReductionTrace, include_steps: bool) -> dict:
    out = {
        "status": trace.status,
        "result": poly_json(trace.result),
        "step_count": len(trace.steps),
    }
    if include_steps:
        out["steps"] = [
            {
                "term": term_json(s.term),
                "head": term_json(s.head),
                "cofactor": term_json(s.cofactor),
                "coefficient": _coeff(s.coefficient),
            }
            for s in trace.steps
        ]
    return out


def basis_result_json(result: MarkedBasisResult, include_traces: bool) -> dict:
    return {
        "is_basis": result.is_basis,
        "checks": [
            {
                "head": term_json(c.head),
                "variable": c.variable,
                "zero": c.ok,
                **(
                    {"trace": trace_json(c.trace, True)}
                    if include_traces
                    else {"residue": poly_json(c.trace.result)}
                ),
            }
            for c in result.checks
        ],
    }


def param_poly_json(p: ParamPolynomial) -> dict:
    return {
        "monomials": [
            {"vars": {pv.name: e for pv, e in factors}, "coeff": c}
            for factors, c in p.monomials()
        ]
    }


def scheme_json(result: SchemeEquations) -> dict:
    return {
        "ideal": ideal_json(result.generic.ideal),
        "parameters": [pv.name for pv in result.generic.params],
        "generic_set": marked_set_json(result.generic.marked_set()),
        "equations": [param_poly_json(p) for p in result.equations],
        "text": result.equations,
    }


def parse_assignment(gm: GenericMarkedSet, data) -> dict[ParamVar, Fraction]:
    if not isinstance(data, dict):
        raise InputFormatError('"assignment" must be an object of parameter values')
    by_name = {pv.name: pv for pv in gm.params}
    values: dict[ParamVar, Fraction] = {}
    for name, raw in data.items():
        if name not in by_name:
            raise InputFormatError(f"unknown parameter {name!r}")
        values[by_name[name]] = parse_coeff(raw)
    return values
