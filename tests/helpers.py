"""Shared test utilities: independent brute-force oracles (working on raw
exponent tuples, not on the library's code paths), the dense linear algebra
that checks the library's sparse oracle, and seeded random input
generators."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from involutive import (
    CYCLE_DETECTED,
    REDUCED,
    STEP_LIMIT,
    InvolutiveError,
    MonomialIdeal,
    ParamPolynomial,
    ReductionStep,
    ReductionTrace,
    Term,
    classify,
    escalier_slice,
    make_marked_set,
    pommaret_basis,
    terms_of_degree,
    variable,
)


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


def brute_escalier(gens, n, d):
    """The degree-d exponent tuples outside the ideal, in lex order (the
    exponent of x_n compared first), by a divisibility scan of each."""
    outside = [t for t in exp_tuples(n, d) if not tuple_in_ideal(gens, t)]
    return sorted(outside, key=lambda t: t[::-1])


def ideal_count(gens, n, k):
    """|J_k|: all degree-k terms but the enumerated escalier."""
    return comb(k + n - 1, n - 1) - escalier_count(gens, n, k)


def brute_sigma(gens, n, p, mode):
    """Degree-p terms of J (of N(J) in mode "escalier") counted by minimal
    variable, by direct enumeration."""
    counts = [0] * n
    for t in exp_tuples(n, p):
        if tuple_in_ideal(gens, t) != (mode == "escalier"):
            counts[next(i for i, e in enumerate(t) if e)] += 1
    return tuple(counts)


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


def brute_is_stably_complete(members):
    """(verdict, witness) of stable completeness from the definitions: the
    Janet completeness witness first, else the first member in canonical
    order whose Janet and Pommaret variables differ, with the least variable
    where they do."""
    mult = {tau: brute_mult_vars(members, tau) for tau in members}
    witness = brute_is_complete(members, mult)
    if witness is not None:
        return False, witness
    for tau in canonical_order(members):
        mismatch = mult[tau] ^ brute_pommaret_vars(tau)
        if mismatch:
            return False, (tau, min(mismatch))
    return True, None


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


def brute_build_Gs(G, s):
    """G^(s) of a marked set by a probe of the whole degree-s slice: each term
    of the ideal, in lex order, with the multiple f_head * cofactor of its
    Pommaret cover.  Raises ValueError when a term of the ideal lies in no
    Pommaret cone, which a stably complete basis rules out."""
    members = [head.exponents for head in G.basis]
    mult = {tau: brute_pommaret_vars(tau) for tau in members}
    out = []
    for gamma in sorted(exp_tuples(G.n, s), key=lambda e: e[::-1]):
        found = brute_star_decompose(members, mult, gamma)
        if found == "NotComplete":
            raise ValueError(f"{gamma} lies in no Pommaret cone")
        if found != "NotInIdeal":
            head, cofactor = found
            out.append((Term(gamma), G.polys[Term(head)].times(Term(cofactor))))
    return out


def reference_reduce(G, h, step_cap):
    """The star-constrained reduction on ``{Term: coefficient}`` maps, with
    the star factorizations of the assignment's own cover lookup: the slow
    reference for the library's lex-key ``reduce``.  It rewrites the term
    with the lex-greatest (cofactor, term) first, detects repeated states
    over a basis that is not stably complete and stops at ``step_cap``;
    nothing is charged to the work budget."""
    work = {t: c for t, c in h.items() if c}
    track_states = not G.stable_completeness[0]
    seen = {frozenset(work.items())}
    steps = []
    status = REDUCED
    while True:
        best = None
        for t in work:
            fact = G.assignment.cover(t)
            if fact is None:
                continue
            key = (fact.cofactor.lex_key, t.lex_key)
            if best is None or key > best[0]:
                best = (key, t, fact)
        if best is None:
            break
        if len(steps) >= step_cap:
            status = STEP_LIMIT
            break
        _, t, fact = best
        c = work[t]
        for u, a in G.polys[fact.head].times(fact.cofactor).items():
            cur = work.get(u)
            val = c * a
            new = -val if cur is None else cur - val
            if new:
                work[u] = new
            else:
                work.pop(u, None)
        steps.append(ReductionStep(t, fact.head, fact.cofactor, c))
        if track_states:
            state = frozenset(work.items())
            if state in seen:
                status = CYCLE_DETECTED
                break
            seen.add(state)
    result = {t: work[t] for t in sorted(work, key=lambda t: t.sort_key)}
    return ReductionTrace(steps, result, status)


def reference_prolongation_residues(gm):
    """The residues of ``prolongation_residues`` made one coefficient product
    at a time on ``{Term: ...}`` maps, with memoised normal forms over the
    star factorizations of the assignment's cover lookup, and the work units
    those products charge: one per product of parameter monomials, plus one
    per 8 parameter factors that each product of two coefficient maps
    writes.  Returns (residues, units); nothing is charged to the budget."""
    G = gm.marked_set()
    memo = {}
    units = 0
    # Positions over the generic set's parameters and any others that a
    # hand-built tail names, sorted by (generator, lex key) as the library's
    # tables are; each coefficient read through its monomials.
    named = {pv for f in G.polys.values() for c in f.tail.values() for pv in parameters_of(c)}
    table = tuple(sorted({*gm.params, *named}, key=lambda pv: (pv.index, pv.term.lex_key)))
    at = {pv: i for i, pv in enumerate(table)}

    def positions(c):
        return {
            tuple(sorted(at[pv] for pv, e in factors for _ in range(e))): k
            for factors, k in ParamPolynomial._coerce(c).monomials()
        }

    def add_product(out, a, b):
        # out += a * b over coefficient maps; cancelled monomials stay as zeros
        nonlocal units
        units += len(a) * len(b) + sum(len(m1) + len(m2) for m1 in a for m2 in b) // 8
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, 0) + c1 * c2

    def add_normal_form(out, gamma, coeffs):
        # NF(t) = t outside J, NF(head * eta) = -sum(c_beta * NF(beta * eta))
        nf = memo.get(gamma)
        if nf is None:
            fact = G.assignment.cover(gamma)
            if fact is None:
                nf = {gamma: {(): 1}}
            else:
                nf = {}
                for beta, c in G.polys[fact.head].tail.items():
                    add_normal_form(nf, beta * fact.cofactor, positions(-c))
            memo[gamma] = nf
        for t, p in nf.items():
            add_product(out.setdefault(t, {}), coeffs, p)

    residues = []
    for head in G.basis:
        for j in range((head.min_index or G.n) + 1, G.n + 1):
            acc = {}
            for t, c in G.polys[head].times(variable(G.n, j)).items():
                add_normal_form(acc, t, positions(c))
            residue = {
                t: ParamPolynomial(acc[t], table) for t in sorted(acc, key=lambda t: t.sort_key)
            }
            residues.append((head, j, {t: p for t, p in residue.items() if p}))
    return residues, units


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


def brute_fit_power(gens, base, j):
    """The smallest t <= the maximal generator degree with x_j^t * base in
    the ideal, or None."""
    top = max(sum(g) for g in gens)
    for t in range(top + 1):
        if tuple_in_ideal(gens, base[: j - 1] + (base[j - 1] + t,) + base[j:]):
            return t
    return None


def brute_quasi_stable_fits(gens, n):
    """(g, j, brute_fit_power of x_j over g/x_min(g)) for every generator g
    and every j above min(g), in canonical order.  The ideal is quasi-stable
    iff no power is None, and the first None gives its witness (g, j)."""
    fits = []
    for g in canonical_order(gens):
        k = next((i for i, e in enumerate(g) if e), None)
        if k is None:
            continue
        base = g[:k] + (g[k] - 1,) + g[k + 1:]
        for j in range(k + 2, n + 1):
            fits.append((g, j, brute_fit_power(gens, base, j)))
    return fits


def brute_stability_witnesses(gens, n):
    """The first failing move g/x_i * x_j (x_i dividing g, j > i) of each
    kind, scanning (g, i, j) in canonical order: the stable witness is the
    first failure with i = min(g), the strongly stable one the first failure
    of all.  Each is (g, j, i), or None when no such move leaves the ideal."""
    stable = strongly = None
    for g in canonical_order(gens):
        support = [i + 1 for i, e in enumerate(g) if e]
        for i in support:
            for j in range(i + 1, n + 1):
                moved = list(g)
                moved[i - 1] -= 1
                moved[j - 1] += 1
                if tuple_in_ideal(gens, tuple(moved)):
                    continue
                if strongly is None:
                    strongly = (g, j, i)
                if stable is None and i == support[0]:
                    stable = (g, j, i)
    return stable, strongly


def stable_closure(gens, n):
    """gens together with everything the moves g/x_min(g) * x_j reach: the
    generators of a stable ideal, often not a strongly stable one."""
    found = set(gens)
    todo = list(found)
    while todo:
        g = todo.pop()
        k = next((i for i, e in enumerate(g) if e), None)
        if k is None:
            continue
        for j in range(k + 1, n):
            moved = list(g)
            moved[k] -= 1
            moved[j] += 1
            moved = tuple(moved)
            if moved not in found:
                found.add(moved)
                todo.append(moved)
    return found


def antichains(n, top):
    """The minimal generating sets of every monomial ideal in n variables
    other than 0 and (1) whose minimal generators have degree <= top: the
    non-empty antichains under divisibility of exponent tuples of degree 1 to
    top.  Each is a list in canonical order, built by taking or skipping each
    tuple in turn, lowest degree first, so a tuple is taken only when nothing
    taken divides it."""
    pool = canonical_order(t for d in range(1, top + 1) for t in exp_tuples(n, d))

    def extend(chosen, start):
        for at in range(start, len(pool)):
            if not tuple_in_ideal(chosen, pool[at]):
                chosen.append(pool[at])
                yield list(chosen)
                yield from extend(chosen, at + 1)
                chosen.pop()

    return extend([], 0)


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


# ------------------------------------------------- keyed parameter polynomials
#
# The parameter polynomial as it was before positions: a plain map from
# monomials to nonzero ints, each monomial the sorted tuple of its
# parameters' ParamVar.sort_key with multiplicity.  Sums are padd and psub.

def keyed_poly(p):
    """A ParamPolynomial or an int as a keyed map, read off its table directly."""
    if isinstance(p, int):
        return {(): p} if p else {}
    return {tuple(sorted(p.params[i].sort_key for i in m)): c for m, c in p.coeffs.items()}


def parameters_of(p):
    """The parameters that occur in a ParamPolynomial's monomials."""
    return {p.params[i] for m in p.coeffs for i in m}


def keyed_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def keyed_hash(a):
    """A constant hashes as its int, anything else as its set of items."""
    if a.keys() <= {()}:
        return hash(a.get((), 0))
    return hash(frozenset(a.items()))


def keyed_monomials(a, by_key):
    """(factors, coefficient) by degree, then key order; each factor a
    (parameter, power) pair, the parameter looked up by its sort_key."""
    out = []
    for m in sorted(a, key=lambda m: (len(m), m)):
        powers = {}
        for k in m:
            powers[k] = powers.get(k, 0) + 1
        out.append(([(by_key[k], e) for k, e in powers.items()], a[m]))
    return out


def keyed_str(a, by_key):
    if not a:
        return "0"
    text = ""
    for factors, c in keyed_monomials(a, by_key):
        body = "*".join(pv.name + (f"^{e}" if e > 1 else "") for pv, e in factors)
        sign = "-" if c < 0 else "+"
        magnitude = str(abs(c)) if abs(c) != 1 or not body else ""
        word = "*".join(w for w in (magnitude, body) if w)
        text += f" {sign} {word}"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


def keyed_evaluate(a, values, by_key):
    """The keyed map at a point, one Fraction product at a time."""
    total = Fraction(0)
    for m, c in a.items():
        product = Fraction(c)
        for k in m:
            product *= values[by_key[k]]
        total += product
    return total


# ----------------------------------------- Groebner bases and points on Mf(J)

def degrevlex_key(e):
    """Degrevlex with x_n > ... > x_1 on exponent tuples: by degree, then the
    term with the smaller exponent of x_1 (of x_2 on a tie, ...) is greater."""
    return sum(e), tuple(-x for x in e)


def leading(f):
    return max(f, key=degrevlex_key)


def shift(f, q):
    """f times the term with exponent tuple q."""
    return {tuple(a + b for a, b in zip(e, q)): c for e, c in f.items()}


def remainder(f, basis):
    """The remainder of f on division by ``basis``, a dict from leading
    exponent tuple to monic polynomial: no term of it has a leading term of
    the basis as a divisor."""
    f, rest = dict(f), {}
    while f:
        m = leading(f)
        c = f.pop(m)
        lead = next((g for g in basis if tuple_divides(g, m)), None)
        if lead is None:
            rest[m] = c
            continue
        q = tuple(a - b for a, b in zip(m, lead))
        f = psub(f, pscale(shift({e: v for e, v in basis[lead].items() if e != lead}, q), c))
    return rest


def groebner_basis(polys):
    """The reduced Groebner basis in degrevlex of the ideal generated by
    ``polys`` (dicts from exponent tuples to Fractions), as a dict from
    leading exponent tuple to monic polynomial: Buchberger's algorithm,
    skipping pairs with coprime leading terms (the product criterion), then
    interreduced."""
    basis, pairs = {}, []

    def adjoin(f):
        h = remainder(f, basis)
        if h:
            lead = leading(h)
            pairs.extend((g, lead) for g in basis)
            basis[lead] = pscale(h, 1 / Fraction(h[lead]))

    for f in polys:
        adjoin(f)
    while pairs:
        a, b = pairs.pop()
        if any(x and y for x, y in zip(a, b)):
            top = tuple(map(max, a, b))
            adjoin(psub(shift(basis[a], [x - y for x, y in zip(top, a)]),
                        shift(basis[b], [x - y for x, y in zip(top, b)])))
    minimal = {
        lead: f for lead, f in basis.items()
        if not any(g != lead and tuple_divides(g, lead) for g in basis)
    }
    return {
        lead: padd({lead: Fraction(1)}, remainder(psub(f, {lead: 1}), minimal))
        for lead, f in minimal.items()
    }


def initial_ideal(gb, n):
    return MonomialIdeal([Term(lead) for lead in gb], n)


def marked_point(gb, n):
    """The J-marked basis {h - NF_I(h) : h in F(J)} of the ideal I with
    reduced Groebner basis ``gb``, for a quasi-stable J = in(I).  N(J) is a
    basis of P/I (Macaulay), so I is a point of Mf(J)."""
    basis = pommaret_basis(initial_ideal(gb, n))
    tails = {
        h: {Term(e): -c for e, c in remainder({h.exponents: Fraction(1)}, gb).items()}
        for h in basis
    }
    return make_marked_set(basis, tails)


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


def dense_rref(rows):
    """Reduced row echelon form of dense Fraction rows: (nonzero rows, pivot
    column indices)."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    pivots = []
    r = 0
    for col in range(len(mat[0])):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = Fraction(1) / mat[r][col]
        # Rows are mostly zeros: skipping them saves most of the arithmetic.
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


def dense_rank(rows):
    return len(dense_rref(rows)[0])


def dense_in_rowspace(vec, basis, pivots):
    """Whether vec lies in the row space of a dense_rref basis."""
    for row, col in zip(basis, pivots):
        factor = vec[col]
        if factor:
            vec = [a - factor * b if b else a for a, b in zip(vec, row)]
    return not any(vec)


def dense_vector(poly, cols):
    """A term-to-coefficient map as a dense Fraction row over the terms cols."""
    return [Fraction(poly.get(t, 0)) for t in cols]


def dense_oracle_check(G, max_degree):
    """The oracle's two checks on dense rows over each whole degree slice:
    every plain multiple lies in the span of G^(s), and G^(s) with the
    escalier unit rows fills the slice as a direct sum.  G^(s) comes from
    :func:`brute_build_Gs`, not from the library."""
    for s in range(1, max_degree + 1):
        cols = list(terms_of_degree(G.n, s))
        star_rows = [dense_vector(poly, cols) for _, poly in brute_build_Gs(G, s)]
        basis, pivots = dense_rref(star_rows)
        for f in G:
            if f.head.degree > s:
                continue
            for eta in terms_of_degree(G.n, s - f.head.degree):
                if not dense_in_rowspace(dense_vector(f.times(eta), cols), basis, pivots):
                    return False
        unit_rows = [dense_vector({t: 1}, cols) for t in cols if not G.contains(t)]
        combined = dense_rank(star_rows + unit_rows)
        if combined != len(basis) + len(unit_rows) or combined != len(cols):
            return False
    return True


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


def brute_evaluate(poly, values):
    """A parameter polynomial at a point, one Fraction product at a time."""
    total = Fraction(0)
    for factors, c in poly.monomials():
        product = Fraction(c)
        for pv, e in factors:
            product *= values[pv] ** e
        total += product
    return total


def outcome(call):
    """What ``call()`` returns, or the type of the library error or
    ValueError that it raises."""
    try:
        return call()
    except (InvolutiveError, ValueError) as exc:
        return type(exc)
