"""Exact sparse row echelon form over the rationals, for the linear-algebra oracle.

Rows are ``{Term: coefficient}`` maps, the form that marked polynomials and
their multiples already take. An echelon form is a dict from pivot term to
row, each row normalised to 1 on its pivot: its largest term in lex order.
"""

from __future__ import annotations

from fractions import Fraction


def _clear(poly, pivots: dict) -> dict:
    """poly less multiples of the pivot rows, cleared from its largest term
    down: what is left is empty or has a largest term that is no pivot."""
    row = {t: Fraction(c) for t, c in poly.items() if c}
    while row:
        lead = max(row, key=lambda t: t.lex_key)
        pivot = pivots.get(lead)
        if pivot is None:
            break
        c = row[lead]
        for t, a in pivot.items():
            v = row.get(t, 0) - c * a
            if v:
                row[t] = v
            else:
                del row[t]
    return row


def rref(rows: list, pivots: dict) -> dict:
    """Extend the echelon form ``pivots`` by ``rows`` in place and return it;
    ``len(pivots)`` grows by the rank the rows add."""
    for poly in rows:
        row = _clear(poly, pivots)
        if row:
            lead = max(row, key=lambda t: t.lex_key)
            pivots[lead] = {t: c / row[lead] for t, c in row.items()}
    return pivots


def in_rowspace(poly, pivots: dict) -> bool:
    """Whether poly lies in the row space of the echelon form ``pivots``."""
    return not _clear(poly, pivots)
