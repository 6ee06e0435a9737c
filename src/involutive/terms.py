"""Terms (monomials) over a fixed ordered variable set x_1 < x_2 < ... < x_n.

A term stores its lex key, the exponents with x_n first (x_j at slot n - j),
so tuple order is lex order; ``exponents`` is the public x_1-first view.
Variable indices in the public API are 1-based.
"""

from __future__ import annotations

from math import comb
from operator import add, attrgetter, index, le, sub
from typing import Iterable, Iterator, Optional

from .errors import MismatchedVariableCount, NotDivisible


class Term:
    """Immutable monomial with exact divisibility and lex comparison support."""

    __slots__ = ("lex_key", "degree")

    def __init__(self, exponents: Iterable[int]):
        exps = tuple(map(index, exponents))
        if not exps:
            raise ValueError("a term needs at least one variable")
        if min(exps) < 0:
            raise ValueError(f"negative exponent in {exps!r}")
        self.lex_key = exps[::-1]
        self.degree = sum(exps)

    @classmethod
    def _of_key(cls, key: tuple) -> "Term":
        """The term with lex key ``key``, which the library made: not checked."""
        t = cls.__new__(cls)
        t.lex_key = key
        t.degree = sum(key)
        return t

    @property
    def exponents(self) -> tuple:
        """The exponent vector, x_1 first."""
        return self.lex_key[::-1]

    @property
    def nvars(self) -> int:
        return len(self.lex_key)

    @property
    def min_index(self) -> Optional[int]:
        """1-based index of the smallest variable dividing the term, None for 1."""
        for j, e in enumerate(reversed(self.lex_key), 1):
            if e:
                return j
        return None

    @property
    def sort_key(self) -> tuple:
        """Canonical (degree, lex) ordering key."""
        return (self.degree, self.lex_key)

    def _check(self, other: "Term") -> None:
        if len(self.lex_key) != len(other.lex_key):
            raise MismatchedVariableCount(
                f"{len(self.lex_key)} variables vs {len(other.lex_key)}"
            )

    def __mul__(self, other: "Term") -> "Term":
        self._check(other)
        return Term._of_key(tuple(map(add, self.lex_key, other.lex_key)))

    def divides(self, other: "Term") -> bool:
        self._check(other)
        return all(map(le, self.lex_key, other.lex_key))

    def __truediv__(self, other: "Term") -> "Term":
        self._check(other)
        if not other.divides(self):
            raise NotDivisible(f"{other} does not divide {self}")
        return Term._of_key(tuple(map(sub, self.lex_key, other.lex_key)))

    def predecessor(self, j: int) -> "Term":
        """Divide out one power of x_j (j is 1-based)."""
        k = self.lex_key
        if not 1 <= j <= len(k):
            raise ValueError(f"variable index {j} out of range")
        i = len(k) - j  # x_j sits at slot n - j
        if k[i] == 0:
            raise NotDivisible(f"x_{j} does not divide {self}")
        return Term._of_key(_bump(k, i, -1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Term) and self.lex_key == other.lex_key

    def __hash__(self) -> int:
        return hash(self.lex_key)

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


def _bump(k: tuple, i: int, by: int = 1) -> tuple:
    """The lex key k with ``by`` added at slot i: x_j^by times the term, i = n - j."""
    return k[:i] + (k[i] + by,) + k[i + 1 :]


def variable(n: int, j: int) -> Term:
    """The term x_j in n variables (j is 1-based)."""
    if not 1 <= j <= n:
        raise ValueError(f"variable index {j} out of range for n={n}")
    return Term._of_key(tuple(1 if s == n - j else 0 for s in range(n)))


def _lex_keys(n: int, d: int) -> Iterator[tuple[int, ...]]:
    """The lex keys of all degree-d terms in n variables, in increasing order."""
    if n == 1:
        if d >= 0:
            yield (d,)
        return
    for e in range(d + 1):  # exponent of x_n, smallest first
        for rest in _lex_keys(n - 1, d - e):
            yield (e,) + rest


def terms_of_degree(n: int, d: int) -> Iterator[Term]:
    """All degree-d terms in n variables, in increasing lex order."""
    return map(Term._of_key, _lex_keys(n, d))


def _monomials(d: int, n: int) -> int:
    """The number of degree-d terms in n variables, the length of
    ``terms_of_degree(n, d)``: 0 for d < 0, 1 for d = 0."""
    if d < 0:
        return 0
    return comb(d + n - 1, d) if d + n else 1


_sort_key = attrgetter("sort_key")


class TermSet:
    """A finite set of distinct terms in canonical (degree, then lex) order,
    with the dict that deduplicated them kept for the ``in`` test.  Membership
    in the ideal they generate scans the members' stored lex keys.

    ``_janet`` is the set's Janet assignment when ``janet_complete`` returned
    the set, built on the tree the completion grew; None on every set built
    otherwise, which gets a fresh assignment on each request."""

    __slots__ = ("terms", "n", "_members", "_janet")

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
        self.terms = tuple(sorted(seen, key=_sort_key))
        self._members = seen
        self._janet = None

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
        return any(all(map(le, g.lex_key, k)) for g in self.terms)

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
