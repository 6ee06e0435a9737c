"""Terms (monomials) over a fixed ordered variable set x_1 < x_2 < ... < x_n.

A term is stored as its exponent vector; slot k (0-based) holds the exponent
of x_{k+1}.  Variable indices in the public API are 1-based.
"""

from __future__ import annotations

from math import comb
from operator import index, le
from typing import Iterable, Iterator, Optional

from .errors import MismatchedVariableCount, NotDivisible


class Term:
    """Immutable monomial with exact divisibility and lex comparison support."""

    __slots__ = ("exponents", "degree")

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(map(index, exponents))
        if not exps:
            raise ValueError("a term needs at least one variable")
        if min(exps) < 0:
            raise ValueError(f"negative exponent in {exps!r}")
        self.exponents = exps
        self.degree = sum(exps)

    @property
    def nvars(self) -> int:
        return len(self.exponents)

    @property
    def min_index(self) -> Optional[int]:
        """1-based index of the smallest variable dividing the term, None for 1."""
        for i, e in enumerate(self.exponents):
            if e:
                return i + 1
        return None

    @property
    def lex_key(self) -> tuple:
        # Lex scans from x_n down to x_1, so the reversed vector compares directly.
        return self.exponents[::-1]

    @property
    def sort_key(self) -> tuple:
        """Canonical (degree, lex) ordering key."""
        return (self.degree, self.exponents[::-1])

    def _check(self, other: "Term") -> None:
        if len(self.exponents) != len(other.exponents):
            raise MismatchedVariableCount(
                f"{len(self.exponents)} variables vs {len(other.exponents)}"
            )

    def __mul__(self, other: "Term") -> "Term":
        self._check(other)
        return Term(a + b for a, b in zip(self.exponents, other.exponents))

    def divides(self, other: "Term") -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __truediv__(self, other: "Term") -> "Term":
        self._check(other)
        if not other.divides(self):
            raise NotDivisible(f"{other} does not divide {self}")
        return Term(a - b for a, b in zip(self.exponents, other.exponents))

    def predecessor(self, j: int) -> "Term":
        """Divide out one power of x_j (j is 1-based)."""
        if not 1 <= j <= len(self.exponents):
            raise ValueError(f"variable index {j} out of range")
        if self.exponents[j - 1] == 0:
            raise NotDivisible(f"x_{j} does not divide {self}")
        exps = list(self.exponents)
        exps[j - 1] -= 1
        return Term(exps)

    def __eq__(self, other) -> bool:
        return isinstance(other, Term) and self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash(self.exponents)

    def __repr__(self) -> str:
        return f"Term({list(self.exponents)!r})"

    def __str__(self) -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts) if parts else "1"


def variable(n: int, j: int) -> Term:
    """The term x_j in n variables (j is 1-based)."""
    if not 1 <= j <= n:
        raise ValueError(f"variable index {j} out of range for n={n}")
    return Term(1 if i == j - 1 else 0 for i in range(n))


def _lex_keys(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """The lex keys (``Term.lex_key``, x_n first) of all degree-d terms in n
    variables, in increasing order."""
    if n == 1:
        if d >= 0:
            yield (d,)
        return
    for e in range(d + 1):  # exponent of x_n, smallest first
        for rest in _lex_keys(n - 1, d - e):
            yield (e,) + rest


def terms_of_degree(n: int, d: int) -> Iterator[Term]:
    """All degree-d terms in n variables, in increasing lex order."""
    for key in _lex_keys(n, d):
        yield Term(key[::-1])


def _monomials(d: int, n: int) -> int:
    """The number of degree-d terms in n variables, the length of
    ``terms_of_degree(n, d)``: 0 for d < 0, 1 for d = 0."""
    if d < 0:
        return 0
    return comb(d + n - 1, d) if d + n else 1


class TermSet:
    """A finite set of distinct terms in canonical (degree, then lex) order.

    ``_member_keys`` holds the members' lex keys for the membership scan,
    listed on its first use; it is not part of the set's value."""

    __slots__ = ("terms", "n", "_members", "_member_keys")

    def __init__(self, terms: Iterable[Term], n: Optional[int] = None):
        seen = {}
        for t in terms:
            if not isinstance(t, Term):
                t = Term(t)
            if n is None:
                n = t.nvars
            elif t.nvars != n:
                raise MismatchedVariableCount(
                    f"term {t} has {t.nvars} variables, expected {n}"
                )
            seen[t] = None
        if n is None:
            raise ValueError("cannot infer variable count from an empty set")
        self.n = n
        self.terms = tuple(sorted(seen, key=lambda t: t.sort_key))
        self._members = frozenset(self.terms)
        self._member_keys = None

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __contains__(self, t) -> bool:
        return t in self._members

    def generates(self, t: Term) -> bool:
        """Membership of t in the monomial ideal generated by the set."""
        if t.nvars != self.n:
            raise MismatchedVariableCount(f"{self.n} variables vs {t.nvars}")
        return self._generates_key(t.lex_key)

    def _generates_key(self, k: tuple) -> bool:
        """:meth:`generates` for the term with lex key k in the set's variables:
        whether some member's key is at most k slot by slot."""
        keys = self._member_keys
        if keys is None:
            keys = self._member_keys = [t.lex_key for t in self.terms]
        return any(all(map(le, g, k)) for g in keys)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TermSet)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, self.terms))

    def __repr__(self) -> str:
        return f"TermSet([{', '.join(str(t) for t in self.terms)}], n={self.n})"

    def max_degree(self) -> int:
        return max((t.degree for t in self.terms), default=0)


def _escalier_keys(M: TermSet, d: int) -> list[tuple]:
    """The lex keys of the degree-d terms outside the ideal that M generates,
    in increasing order."""
    return [k for k in _lex_keys(M.n, d) if not M._generates_key(k)]
