"""Exact sparse row echelon form over the integers, for the linear-algebra oracle.

Rows are ``{key: coefficient}`` maps with integer coefficients; the oracle
keys them by ``Term.lex_key``, so the largest key is the lex-greatest term.
A row with rational coefficients is scaled to an integer row once, by the
caller, through :func:`_integer_row`: the oracle scales each marked
polynomial once, and every multiple of it by a term is then a shift of its
keys, an integer row already.  An echelon form is a dict from pivot key to
row, each row a primitive integer row (its coefficients share no factor)
whose largest key is its pivot.  A row is cleared fraction-free as
p * row - a * pivot, so no ``Fraction`` is made; after each step that scales
it, the row is divided by its content again, so its coefficients grow no
faster than the rational ones would.
"""

from __future__ import annotations

from math import gcd, lcm


def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of its coefficients."""
    g = gcd(*row.values())
    return {k: c // g for k, c in row.items()} if g > 1 else row


def _integer_row(poly) -> dict:
    """A row with integer or rational coefficients as a primitive integer row:
    its zeros dropped, scaled by the lcm of the denominators and divided by
    the gcd of the numerators, so a rational multiple of the row it was given."""
    row = {k: c for k, c in poly.items() if c}
    den = lcm(*(c.denominator for c in row.values()))
    return _primitive({k: c.numerator * (den // c.denominator) for k, c in row.items()})


def _clear(poly: dict, pivots: dict) -> dict:
    """An integer row less multiples of the pivot rows, cleared from its
    largest key down: what is left is empty or has a largest key that is no
    pivot.  The row given is left as it was."""
    row = dict(poly)
    while row:
        lead = max(row)
        pivot = pivots.get(lead)
        if pivot is None:
            break
        a, p = row[lead], pivot[lead]
        g = gcd(a, p)
        a, p = a // g, p // g
        if p != 1:
            row = {k: p * c for k, c in row.items()}
        for k, b in pivot.items():
            v = row.get(k, 0) - a * b
            if v:
                row[k] = v
            else:
                del row[k]
        if p != 1:
            row = _primitive(row)
    return row


def rref(rows: list, pivots: dict) -> dict:
    """Extend the echelon form ``pivots`` by the integer ``rows`` in place and
    return it; ``len(pivots)`` grows by the rank the rows add."""
    for poly in rows:
        row = _clear(poly, pivots)
        if row:
            pivots[max(row)] = _primitive(row)
    return pivots


def in_rowspace(poly: dict, pivots: dict) -> bool:
    """Whether the integer row poly lies in the row space of the echelon form ``pivots``."""
    return not _clear(poly, pivots)
