"""Shared test utilities: independent brute-force oracles (working on raw
exponent tuples, not on the library's code paths) and seeded random input
generators."""

from __future__ import annotations

import itertools
from fractions import Fraction

from involutive import MonomialIdeal, Term, classify, escalier_slice, pommaret_basis


# ---------------------------------------------------------------- raw tuples

def exp_tuples(n, d):
    """All exponent tuples of length n summing to d, via stars and bars."""
    for bars in itertools.combinations(range(d + n - 1), n - 1):
        prev = -1
        parts = []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(d + n - 1 - prev - 1)
        yield tuple(parts)


def tuple_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def tuple_in_ideal(gens, t):
    return any(tuple_divides(g, t) for g in gens)


def escalier_count(gens, n, k):
    """|N(J)_k| by direct enumeration."""
    return sum(1 for t in exp_tuples(n, k) if not tuple_in_ideal(gens, t))


def brute_mult_vars(members, tau):
    """Janet multiplicative variables straight from the defining condition."""
    n = len(tau)
    mult = set()
    for j in range(1, n + 1):
        if not any(
            other[j:] == tau[j:] and other[j - 1] > tau[j - 1] for other in members
        ):
            mult.add(j)
    return mult


def brute_pommaret_vars(tau):
    """Pommaret multiplicative variables: x_1..x_min(tau), all for the constant."""
    m = next((i + 1 for i, e in enumerate(tau) if e), len(tau))
    return set(range(1, m + 1))


def tuple_covers(tau, mult, gamma):
    """gamma lies in the involutive cone of tau with multiplicative set mult."""
    return tuple_divides(tau, gamma) and all(
        g == t or (i + 1) in mult for i, (t, g) in enumerate(zip(tau, gamma))
    )


def brute_offspring_member(members, tau, gamma):
    return tuple_covers(tau, brute_mult_vars(members, tau), gamma)


def canonical_order(members):
    """Sort exponent tuples by degree, then lex from x_n down to x_1."""
    return sorted(members, key=lambda t: (sum(t), t[::-1]))


def brute_is_complete(members, mult):
    """The scanning completeness test: the first (tau, j) in canonical order
    whose prolongation x_j * tau lies in no cone, or None."""
    for tau in canonical_order(members):
        for j in range(1, len(tau) + 1):
            if j in mult[tau]:
                continue
            prod = tau[: j - 1] + (tau[j - 1] + 1,) + tau[j:]
            if not any(tuple_covers(other, mult[other], prod) for other in members):
                return tau, j
    return None


def brute_star_decompose(members, mult, gamma):
    """(head, cofactor) with the lex-greatest covering head, or the name of
    the error: NotInIdeal when nothing divides gamma, else NotComplete."""
    heads = [tau for tau in members if tuple_covers(tau, mult[tau], gamma)]
    if heads:
        head = max(heads, key=lambda t: t[::-1])
        return head, tuple(g - h for g, h in zip(gamma, head))
    if any(tuple_divides(tau, gamma) for tau in members):
        return "NotComplete"
    return "NotInIdeal"


def brute_janet_complete(members, degree_cap):
    """Dense Janet completion: recompute every multiplicative set, adjoin the
    first uncovered prolongation, repeat.  Returns (terms, capped) where
    capped means the next addition would pass degree_cap."""
    current = set(members)
    while True:
        mult = {tau: brute_mult_vars(current, tau) for tau in current}
        witness = brute_is_complete(current, mult)
        if witness is None:
            return current, False
        tau, j = witness
        prod = tau[: j - 1] + (tau[j - 1] + 1,) + tau[j:]
        if sum(prod) > degree_cap:
            return current, True
        current.add(prod)


def brute_star_set(gens, n, top):
    """Star terms of degree 1..top by a dense scan: in the ideal, with the
    predecessor by the minimal variable outside it."""
    found = set()
    for d in range(1, top + 1):
        for t in exp_tuples(n, d):
            if not tuple_in_ideal(gens, t):
                continue
            k = next(i for i, e in enumerate(t) if e)
            pred = t[:k] + (t[k] - 1,) + t[k + 1:]
            if not tuple_in_ideal(gens, pred):
                found.add(t)
    return found


def divisor_tuples(gamma):
    return itertools.product(*(range(e + 1) for e in gamma))


# --------------------------------------------------------- small polynomials

def pmul(poly, term):
    return {t * term: c for t, c in poly.items()}


def pscale(poly, c):
    return {t: c * v for t, v in poly.items()} if c else {}


def padd(a, b):
    out = dict(a)
    for t, c in b.items():
        new = out.get(t, 0) + c
        if new:
            out[t] = new
        else:
            out.pop(t, None)
    return out


def psub(a, b):
    return padd(a, {t: -c for t, c in b.items()})


# ------------------------------------------------------------ linear solving

def solve_coords(rows, target):
    """Exact solution c of sum(c_i * rows_i) = target, or None if inconsistent."""
    m = len(rows)
    ncols = len(target)
    aug = [[Fraction(rows[i][c]) for i in range(m)] + [Fraction(target[c])] for c in range(ncols)]
    r = 0
    pivots = []
    for col in range(m):
        pr = next((i for i in range(r, ncols) if aug[i][col]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = Fraction(1) / aug[r][col]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(ncols):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, ncols):
        if aug[i][m]:
            return None
    coords = [Fraction(0)] * m
    for row_idx, col in enumerate(pivots):
        coords[col] = aug[row_idx][m]
    return coords


# --------------------------------------------------------------- random data

def random_term_of_degree(rng, n, d):
    exps = [0] * n
    for _ in range(d):
        exps[rng.randrange(n)] += 1
    return Term(exps)


def random_ideal(rng, max_vars=4, max_gens=6, max_deg=6, force_vars=None):
    n = force_vars if force_vars else rng.randint(2, max_vars)
    gens = [
        random_term_of_degree(rng, n, rng.randint(1, max_deg))
        for _ in range(rng.randint(1, max_gens))
    ]
    return MonomialIdeal(gens, n)


def random_quasi_stable(rng, max_vars=3, max_reg=5, max_gens=4, max_deg=4, force_vars=None):
    while True:
        J = random_ideal(
            rng,
            max_vars=max_vars,
            max_gens=max_gens,
            max_deg=max_deg,
            force_vars=force_vars,
        )
        if J.generators.max_degree() == 0:
            continue
        if not classify(J).quasi_stable:
            continue
        basis = pommaret_basis(J)
        if basis.max_degree() > max_reg:
            continue
        return J, basis


def random_tails(rng, J, basis, density=0.5):
    tails = {}
    for head in basis:
        tail = {}
        for beta in escalier_slice(J, head.degree):
            if rng.random() < density:
                tail[beta] = Fraction(
                    rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 2])
                )
        if tail:
            tails[head] = tail
    return tails


def random_assignment(rng, params, zero_chance=0.3):
    return {
        pv: Fraction(0)
        if rng.random() < zero_chance
        else Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
        for pv in params
    }
