"""Exact row reduction over the rationals, used by the linear-algebra oracle."""

from __future__ import annotations

from fractions import Fraction


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][col]
        # Zero entries are kept as they are: rows are mostly zeros, and
        # skipping them saves most of the Fraction arithmetic.
        mat[r] = [v * inv if v else v for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                factor = mat[i][col]
                mat[i] = [a - factor * b if b else a for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank(rows: list[list[Fraction]]) -> int:
    return len(rref(rows)[0])


def in_rowspace(
    vec: list[Fraction], basis: list[list[Fraction]], pivots: list[int]
) -> bool:
    """Whether vec lies in the row space of an RREF basis: its residual after
    subtracting the projection is zero."""
    for row, col in zip(basis, pivots):
        factor = vec[col]
        if factor:
            vec = [a - factor * b if b else a for a, b in zip(vec, row)]
    return not any(vec)
