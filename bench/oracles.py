"""Brute-force helpers on raw exponent tuples, independent of the library.

They serve two purposes: generating seeded inputs without calling into
``involutive``, and cross-checking library answers after a batch.  Variable
indices follow the library: slot k (0-based) is the exponent of x_{k+1}, and
x_1 < x_2 < ... < x_n.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def exp_tuples(n, d):
    """All exponent tuples of length n summing to d."""
    for bars in itertools.combinations(range(d + n - 1), n - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(d + n - 2 - prev)
        yield tuple(parts)


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def in_ideal(gens, t):
    return any(divides(g, t) for g in gens)


def canonical_order(t):
    """(degree, lex) key matching the library's canonical term order."""
    return (sum(t), t[::-1])


def minimal(gens):
    out = []
    for t in sorted(set(gens), key=canonical_order):
        if not in_ideal(out, t):
            out.append(t)
    return out


def escalier_count(gens, n, k):
    """Number of degree-k terms outside the ideal generated by ``gens``."""
    return sum(1 for t in exp_tuples(n, k) if not in_ideal(gens, t))


def janet_mult(members, tau):
    """Janet multiplicative variables (1-based) straight from the definition."""
    n = len(tau)
    return {
        j
        for j in range(1, n + 1)
        if not any(
            other[j:] == tau[j:] and other[j - 1] > tau[j - 1] for other in members
        )
    }


def is_janet_complete(members):
    """Every non-multiplicative prolongation lies in some Janet offspring."""
    members = list(members)
    mult = {tau: janet_mult(members, tau) for tau in members}

    def covered(gamma):
        return any(
            divides(tau, gamma)
            and all(g == t or (i + 1) in mult[tau] for i, (t, g) in enumerate(zip(tau, gamma)))
            for tau in members
        )

    for tau in members:
        for j in range(1, len(tau) + 1):
            if j in mult[tau]:
                continue
            prod = tuple(e + (i == j - 1) for i, e in enumerate(tau))
            if not covered(prod):
                return False
    return True


def quasi_stable_exponent(gens, n):
    """Smallest uniform t with x_j^t * g/min(g) in J, or None if J is not quasi-stable.

    Decided on the minimal generators: x_j^t * base lands in J for some t iff
    a generator fits under base in every exponent except the j-th.
    """
    t = 1
    for g in gens:
        k = next((i for i, e in enumerate(g) if e), None)
        if k is None:
            continue
        base = list(g)
        base[k] -= 1
        for j in range(k + 1, n):
            needed = [
                max(0, c[j] - base[j])
                for c in gens
                if all(c[i] <= base[i] for i in range(n) if i != j)
            ]
            if not needed:
                return None
            t = max(t, min(needed))
    return t


def random_term(rng, n, d):
    exps = [0] * n
    for _ in range(d):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def random_quasi_stable(rng, n, extra, max_deg, termination, ngens):
    """Minimal generators of a seeded quasi-stable ideal with a fixed cost profile.

    Squares of x_2..x_n make every such ideal quasi-stable; ``extra`` random
    terms of degree 2..max_deg vary its shape.  Draws are rejected until the
    termination degree a + t*n and the number of minimal generators match the
    requested values, which pins the size of the dense degree scan.
    """
    powers = [tuple(2 if i == j else 0 for i in range(n)) for j in range(1, n)]
    while True:
        gens = minimal(powers + [random_term(rng, n, rng.randint(2, max_deg)) for _ in range(extra)])
        t = quasi_stable_exponent(gens, n)
        a = max(sum(g) for g in gens)
        if len(gens) == ngens and a + t * n == termination:
            return gens


def random_not_quasi_stable(rng, n, ngens, max_deg):
    """Minimal generators of a seeded ideal that fails quasi-stability."""
    while True:
        gens = minimal([random_term(rng, n, rng.randint(1, max_deg)) for _ in range(ngens)])
        if quasi_stable_exponent(gens, n) is None:
            return gens


def random_term_set(rng, n, size, max_deg):
    terms = set()
    while len(terms) < size:
        terms.add(random_term(rng, n, rng.randint(1, max_deg)))
    return sorted(terms, key=canonical_order)


def random_rational(rng, zero_chance=0.0):
    if rng.random() < zero_chance:
        return Fraction(0)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))
