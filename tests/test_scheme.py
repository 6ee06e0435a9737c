import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from involutive import (
    DivisionAssignment,
    MissingAssignment,
    WorkBudgetExceeded,
    MonomialIdeal,
    NotQuasiStable,
    ParamPolynomial,
    ParamVar,
    Term,
    classify,
    escalier_slice,
    evaluate_equations,
    generic_marked_set,
    is_marked_basis,
    make_marked_set,
    oracle_check,
    prolongation_residues,
    reduce,
    scheme_equations,
    specialize,
    terms_of_degree,
    variable,
)
from involutive import errors, scheme
from involutive.scheme import GenericMarkedSet
from helpers import (
    brute_evaluate,
    exp_tuples,
    groebner_basis,
    initial_ideal,
    keyed_evaluate,
    keyed_hash,
    keyed_monomials,
    keyed_mul,
    keyed_poly,
    keyed_str,
    marked_point,
    padd,
    psub,
    random_assignment,
    random_quasi_stable,
    reference_prolongation_residues,
    stable_closure,
)


def t(*exps):
    return Term(exps)


TWO_PARAMS = MonomialIdeal([t(2, 0), t(1, 1), t(0, 3)])
MARKED_EXAMPLE = MonomialIdeal([t(3, 0), t(1, 1), t(0, 3)])
THREE_POINTS = MonomialIdeal([t(0, 2, 0), t(0, 1, 1), t(0, 0, 2)])


def test_generic_marked_set_two_params():
    gm = generic_marked_set(TWO_PARAMS)
    assert [h.exponents for h in gm.basis] == [(2, 0), (1, 1), (1, 2), (0, 3)]
    assert [pv.name for pv in gm.params] == ["C[1][0,2]", "C[2][0,2]"]
    assert list(gm.tails[t(2, 0)]) == [t(0, 2)]
    assert not gm.tails[t(1, 2)]
    assert not gm.tails[t(0, 3)]


def test_generic_marked_set_no_params():
    gm = generic_marked_set(MonomialIdeal([t(1, 0), t(0, 1)]))
    assert gm.params == ()
    assert scheme_equations(MonomialIdeal([t(1, 0), t(0, 1)])).equations == []


def test_generic_marked_set_tail_enumeration():
    gm = generic_marked_set(MARKED_EXAMPLE)
    assert [pv.name for pv in gm.params] == ["C[1][2,0]", "C[1][0,2]"]
    assert list(gm.tails[t(1, 1)]) == [t(2, 0), t(0, 2)]


def test_generic_marked_set_requires_quasi_stable():
    with pytest.raises(NotQuasiStable):
        generic_marked_set(MonomialIdeal([t(0, 1, 0)], 3))


def test_scheme_equations_empty_for_two_param_family():
    result = scheme_equations(TWO_PARAMS)
    assert result.equations == []
    assert len(result.generic.params) == 2


def test_scheme_equations_empty_for_marked_example():
    result = scheme_equations(MARKED_EXAMPLE)
    assert result.equations == []


def test_three_points_scheme_is_nontrivial():
    result = scheme_equations(THREE_POINTS)
    assert len(result.generic.params) == 9
    assert len(result.equations) == 6
    assert all(p for p in result.equations)
    # a hand-checked coefficient: the x^2*y entry of the first prolongation residue
    names = {pv.name: pv for pv in result.generic.params}
    var = ParamPolynomial.variable
    expected = (
        var(names["C[2][1,1,0]"]) * var(names["C[2][1,0,1]"])
        - var(names["C[2][2,0,0]"])
        - var(names["C[1][1,0,1]"]) * var(names["C[3][1,1,0]"])
    )
    assert any(eq == expected for eq in result.equations)


def test_scheme_equations_deterministic():
    a = scheme_equations(THREE_POINTS)
    b = scheme_equations(THREE_POINTS)
    assert a.equations == b.equations
    assert [str(p) for p in a.equations] == [str(p) for p in b.equations]


def test_specialize_zero_point_gives_monomial_basis():
    gm = generic_marked_set(THREE_POINTS)
    G = specialize(gm, {pv: Fraction(0) for pv in gm.params})
    assert all(not p.tail for p in G)
    assert is_marked_basis(G).is_basis


def test_specialize_reference_point_is_a_basis():
    result = scheme_equations(MARKED_EXAMPLE)
    values = {pv: Fraction(-1) for pv in result.generic.params}
    assert all(v == 0 for v in evaluate_equations(result, values))
    G = specialize(result.generic, values)
    assert G.polys[t(1, 1)].tail == {t(2, 0): Fraction(-1), t(0, 2): Fraction(-1)}
    assert is_marked_basis(G).is_basis


def test_specialize_requires_total_assignment():
    gm = generic_marked_set(MARKED_EXAMPLE)
    with pytest.raises(MissingAssignment):
        specialize(gm, {gm.params[0]: Fraction(1)})


def test_vanishing_of_equations_characterizes_bases():
    result = scheme_equations(THREE_POINTS)
    rng = random.Random(73)
    seen_zero = seen_nonzero = 0
    for _ in range(60):
        values = random_assignment(rng, result.generic.params, zero_chance=0.5)
        vanishes = all(v == 0 for v in evaluate_equations(result, values))
        G = specialize(result.generic, values)
        assert vanishes == is_marked_basis(G).is_basis
        if vanishes:
            seen_zero += 1
        else:
            seen_nonzero += 1
    assert seen_zero and seen_nonzero


def test_oracle_agrees_on_scheme_points():
    result = scheme_equations(THREE_POINTS)
    rng = random.Random(79)
    reg = result.generic.basis.max_degree()
    for _ in range(10):
        values = random_assignment(rng, result.generic.params, zero_chance=0.5)
        G = specialize(result.generic, values)
        assert is_marked_basis(G).is_basis == oracle_check(G, reg + 1)


def test_specialize_then_reduce_commutes_with_evaluation():
    gm = generic_marked_set(THREE_POINTS)
    residues = prolongation_residues(gm)
    rng = random.Random(83)
    for _ in range(8):
        values = random_assignment(rng, gm.params)
        G = specialize(gm, values)
        for head, j, residue in residues:
            h = G.polys[head].times(variable(gm.basis.n, j))
            concrete = reduce(G, h)
            assert concrete.status == "reduced"
            evaluated = {
                term: poly.evaluate(values)
                for term, poly in residue.items()
                if poly.evaluate(values)
            }
            assert evaluated == concrete.result


def same_marked_set(G, H):
    return G.basis == H.basis and list(G.polys.items()) == list(H.polys.items())


def test_generic_sets_equal_validated_ones():
    # the generic and specialized sets skip make_marked_set's checks, which
    # their escalier-drawn tails pass by construction
    rng = random.Random(97)
    ideals = [THREE_POINTS, MARKED_EXAMPLE, upper_power(4, 3)]
    ideals += [random_quasi_stable(rng, max_vars=4, max_reg=4)[0] for _ in range(12)]
    for J in ideals:
        gm = generic_marked_set(J)
        assert same_marked_set(gm.marked_set(), make_marked_set(gm.basis, gm.tails))
        values = random_assignment(rng, gm.params, zero_chance=0.5)
        evaluated = {
            head: {t: brute_evaluate(p, values) for t, p in tail.items()}
            for head, tail in gm.tails.items()
        }
        assert same_marked_set(specialize(gm, values), make_marked_set(gm.basis, evaluated))


def test_param_polynomial_arithmetic():
    gm = generic_marked_set(MARKED_EXAMPLE)
    a, b = (ParamPolynomial.variable(pv) for pv in gm.params)
    p = (a + b) * (a - b)
    q = a * a - b * b
    assert p == q
    assert p - q == ParamPolynomial()
    assert not (p - q)
    assert (2 * a) - a - a == 0
    values = {gm.params[0]: Fraction(3), gm.params[1]: Fraction(1, 2)}
    assert p.evaluate(values) == Fraction(9) - Fraction(1, 4)
    assert str(a * a * b * -2) == "-2*C[1][2,0]^2*C[1][0,2]"
    # monomials are positions in a table: without one, only constants
    with pytest.raises(ValueError):
        ParamPolynomial({(0,): 1})
    assert ParamPolynomial({(): 2, (0,): 0}) == 2


def test_equal_param_polynomials_hash_equal():
    gm = generic_marked_set(THREE_POINTS)
    a, b, c = (ParamPolynomial.variable(pv) for pv in gm.params[:3])
    p = a * b - c * 3 + 1
    q = 1 + (-3) * c + b * a
    r = -(c * 3 - a * b) + (a - a) + 1
    assert p == q == r
    assert p.coeffs.keys() == q.coeffs.keys() and list(p.coeffs) != list(q.coeffs)
    assert hash(p) == hash(q) == hash(r)
    assert len({p, q, r, p - q}) == 2
    # a constant equals its int, zero included, so the two hash alike
    for c in (3, -1, 0):
        assert len({ParamPolynomial.constant(c), c}) == 1
    assert len({p - q, 0}) == 1


def test_param_polynomial_integer_coefficients():
    result = scheme_equations(THREE_POINTS)
    for eq in result.equations:
        assert all(isinstance(c, int) for c in eq.coeffs.values())


def test_generic_tails_share_one_sorted_table():
    # heads by index and each escalier slice in lex order: the parameters
    # come sorted, and every tail is one position of that one table
    rng = random.Random(109)
    ideals = [THREE_POINTS, MARKED_EXAMPLE, upper_power(4, 3)]
    ideals += [random_quasi_stable(rng, max_vars=4)[0] for _ in range(12)]
    for J in ideals:
        gm = generic_marked_set(J)
        assert list(gm.params) == sorted(gm.params, key=lambda pv: (pv.index, pv.term.lex_key))
        tails = [p for tail in gm.tails.values() for p in tail.values()]
        assert all(p.params is gm.params for p in tails)
        assert [p.coeffs for p in tails] == [{(i,): 1} for i in range(len(gm.params))]


def operand(data, tables):
    """A polynomial over one of ``tables`` (an int for the empty one): up to
    three monomials of degree at most 2 with coefficients in -3..3, zeros
    included, or a variable() singleton."""
    table = data.draw(st.sampled_from(tables))
    if not table:
        return data.draw(st.integers(-3, 3))
    if data.draw(st.integers(0, 4)) == 0:
        return ParamPolynomial.variable(data.draw(st.sampled_from(table)))
    monomial = st.lists(st.integers(0, len(table) - 1), max_size=2).map(lambda m: tuple(sorted(m)))
    return ParamPolynomial(data.draw(st.dictionaries(monomial, st.integers(-3, 3), max_size=3)), table)


def over(a, table):
    """The keyed map ``a`` as a ParamPolynomial over ``table``."""
    at = {pv.sort_key: i for i, pv in enumerate(table)}
    return ParamPolynomial({tuple(sorted(at[k] for k in m)): c for m, c in a.items()}, table)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_param_polynomials_match_the_keyed_oracle(data):
    # positions over shared tables against the sort_key-keyed maps they
    # stand for: the generic set's table, an equal table that is not the
    # same object, sub-tables, variable() singletons and ints
    gm = generic_marked_set(data.draw(st.sampled_from([THREE_POINTS, MARKED_EXAMPLE])))
    twin = generic_marked_set(gm.ideal).params
    assert twin == gm.params and twin is not gm.params
    by_key = {pv.sort_key: pv for pv in gm.params}
    order = lambda pv: (pv.index, pv.term.lex_key)  # noqa: E731
    subsets = st.sets(st.sampled_from(gm.params), min_size=1)
    subtables = [tuple(sorted(data.draw(subsets), key=order)) for _ in range(2)]
    tables = [(), gm.params, twin, *subtables]
    p, q = operand(data, tables), operand(data, tables)
    if isinstance(p, int) and isinstance(q, int):
        p = ParamPolynomial.constant(p)
    kp, kq = keyed_poly(p), keyed_poly(q)
    assert keyed_poly(p + q) == padd(kp, kq)
    assert keyed_poly(p - q) == psub(kp, kq)
    assert keyed_poly(p * q) == keyed_mul(kp, kq)
    assert keyed_poly(-p) == psub({}, kp)
    assert (p == q) == (kp == kq) and (p != q) == (kp != kq)
    for r in (p, q, p + q, p * q):
        if isinstance(r, int):
            continue
        kr = keyed_poly(r)
        assert str(r) == keyed_str(kr, by_key)
        assert list(r.monomials()) == keyed_monomials(kr, by_key)
        assert hash(r) == keyed_hash(kr)
        # the same polynomial over the generic table and over its twin
        for table in (gm.params, twin):
            same = over(kr, table)
            assert same == r and r == same and hash(same) == hash(r) and str(same) == str(r)
        rng = random.Random(data.draw(st.integers(0, 99)))
        values = random_assignment(rng, gm.params, zero_chance=0.2)
        assert r.evaluate(values) == keyed_evaluate(kr, values, by_key)
        used = {by_key[k] for m in kr for k in m}
        if used:
            missing = data.draw(st.sampled_from(sorted(used, key=order)))
            with pytest.raises(MissingAssignment) as exc:
                r.evaluate({pv: v for pv, v in values.items() if pv != missing})
            assert str(exc.value) == f"no value for {missing.name}"


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_scheme_equations_keep_the_first_of_equal_coefficients(data):
    # the equations are the residues' coefficients once each, in first
    # occurrence order, as dict.fromkeys keeps them; hand-built tails, and
    # above all tails that are all one parameter, repeat equations
    n = data.draw(st.integers(2, 3))
    if data.draw(st.booleans()):
        J = upper_power(n, data.draw(st.integers(1, 4)))
    else:
        J = draw_quasi_stable(data, n)
    gm = generic_marked_set(J)
    kind = data.draw(st.sampled_from(["generic", "hand-built", "one parameter"]))
    if kind == "hand-built":
        gm = GenericMarkedSet(J, gm.basis, gm.params, hand_built_tails(data, gm))
    elif kind == "one parameter" and gm.params:
        one = ParamPolynomial.variable(data.draw(st.sampled_from(gm.params)))
        tails = {head: {beta: one for beta in tail} for head, tail in gm.tails.items()}
        gm = GenericMarkedSet(J, gm.basis, gm.params, tails)
    residues, _ = reference_prolongation_residues(gm)
    coefficients = [p for _, _, residue in residues for p in residue.values()]
    expected = list(dict.fromkeys(coefficients))
    if len(expected) < len(coefficients):
        event("equal coefficients repeat")
    with patch.object(scheme, "generic_marked_set", lambda ideal: gm):
        got = scheme_equations(J).equations
    assert got == expected
    assert [str(p) for p in got] == [str(p) for p in expected]


def upper_power(n, d):
    """(x2, ..., xn)^d in n variables: strongly stable, every tail is in x1."""
    return MonomialIdeal([Term((0,) + e) for e in exp_tuples(n - 1, d)], n)


def draw_quasi_stable(data, n):
    """A quasi-stable ideal in n variables: each generator a multiset of 1..4
    variables (1..3 in 4 variables), the stable closure when a draw is not."""
    term = st.lists(st.integers(1, n), min_size=1, max_size=4 if n < 4 else 3)
    drawn = data.draw(st.lists(term, min_size=1, max_size=4))
    gens = [tuple(vs.count(i) for i in range(1, n + 1)) for vs in drawn]
    J = MonomialIdeal([Term(g) for g in gens], n)
    if not classify(J).quasi_stable:
        J = MonomialIdeal([Term(g) for g in stable_closure(gens, n)], n)
    return J


def translated_point(gm, shifts):
    """The point of Mf(J) given by the basis f_h = h(x1, x2 + c2*x1, ..., xn + cn*x1).

    Each h is a generator of (x2..xn)^d, so every other term of the expansion
    carries x1 and lies in the escalier: f_h is a marked polynomial on h, and
    the f_h generate the translate of J, which has J's Hilbert function."""
    n = gm.basis.n
    pv_at = {(pv.index, pv.term): pv for pv in gm.params}
    values = {pv: Fraction(0) for pv in gm.params}
    for i, head in enumerate(gm.basis, start=1):
        poly = {(head.exponents[0],) + (0,) * (n - 1): Fraction(1)}
        for k in range(1, n):
            for _ in range(head.exponents[k]):
                grown = {}
                for e, c in poly.items():
                    for step, factor in ((k, 1), (0, shifts[k])):
                        moved = e[:step] + (e[step] + 1,) + e[step + 1:]
                        grown[moved] = grown.get(moved, 0) + c * factor
                poly = grown
        for e, c in poly.items():
            if e != head.exponents:
                values[pv_at[i, Term(e)]] = c
    return values


def verdicts(eqs, values):
    G = specialize(eqs.generic, values)
    reg = eqs.generic.basis.max_degree()
    return (
        is_marked_basis(G).is_basis,
        oracle_check(G, reg + 1),
        all(v == 0 for v in evaluate_equations(eqs, values)),
    )


@pytest.mark.parametrize(
    "n, d, zero_chances, shifted",
    # (zero chances of the random points, number of shifted variables)
    [(4, 3, (0.3, 0.7, 0.95, 1.0), 3), (5, 3, (0.97, 1.0, 0.3), 2), (3, 4, (0.3, 0.8), 2)],
)
def test_criterion_oracle_and_equations_agree(n, d, zero_chances, shifted):
    eqs = scheme_equations(upper_power(n, d))
    rng = random.Random(89 + n)
    for zero_chance in zero_chances:
        values = random_assignment(rng, eqs.generic.params, zero_chance=zero_chance)
        assert len(set(verdicts(eqs, values))) == 1, zero_chance
    for _ in range(2):
        shifts = [0] * n
        for k in rng.sample(range(1, n), shifted):
            shifts[k] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2]))
        assert verdicts(eqs, translated_point(eqs.generic, shifts)) == (True, True, True)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_prolongation_residues_match_reduction(data):
    # memoised normal forms against step-by-step reduction, on (x2..xn)^d
    # and on random quasi-stable ideals (the stable closure when a draw is not)
    n = data.draw(st.integers(2, 4))
    if data.draw(st.booleans()):
        J = upper_power(n, data.draw(st.integers(1, 4 if n < 4 else 3)))
    else:
        J = draw_quasi_stable(data, n)
    gm = generic_marked_set(J)
    checks = is_marked_basis(gm.marked_set()).checks
    expected = [(c.head, c.variable, c.trace.result) for c in checks]
    got = prolongation_residues(gm)
    assert [(h, j, list(r.items())) for h, j, r in got] == [
        (h, j, list(r.items())) for h, j, r in expected
    ]


PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]


def evaluation_points(params, rng):
    """Zero, sparse, dense and negative points, and one whose denominators are
    the distinct primes 2..97."""
    yield {pv: Fraction(0) for pv in params}
    for zero_chance in (0.9, 0.0):
        yield random_assignment(rng, params, zero_chance=zero_chance)
    yield {pv: Fraction(-rng.randint(1, 5), rng.choice([1, 2, 3])) for pv in params}
    yield {pv: Fraction(rng.choice([-1, 1]), PRIMES[i % len(PRIMES)]) for i, pv in enumerate(params)}


@pytest.mark.parametrize("J", [THREE_POINTS, upper_power(4, 3), upper_power(3, 5)])
def test_evaluation_matches_fraction_arithmetic(J):
    eqs = scheme_equations(J)
    gm = eqs.generic
    for values in evaluation_points(gm.params, random.Random(101)):
        assert evaluate_equations(eqs, values) == [brute_evaluate(p, values) for p in eqs.equations]
        G = specialize(gm, values)
        for head, tail in gm.tails.items():
            expected = {t: brute_evaluate(p, values) for t, p in tail.items()}
            assert G.polys[head].tail == {t: c for t, c in expected.items() if c}
        for p in eqs.equations[:5]:
            assert p.evaluate(values) == brute_evaluate(p, values)


@pytest.mark.parametrize("J", [THREE_POINTS, TWO_PARAMS])
def test_missing_parameter_is_named(J):
    # every parameter of THREE_POINTS occurs in an equation, none of
    # TWO_PARAMS does: a point may omit those
    eqs = scheme_equations(J)
    values = random_assignment(random.Random(103), eqs.generic.params, zero_chance=0.0)
    used = {pv.name for p in eqs.equations for factors, _ in p.monomials() for pv, _ in factors}
    for pv in eqs.generic.params:
        partial = {q: v for q, v in values.items() if q != pv}
        with pytest.raises(MissingAssignment) as exc:
            specialize(eqs.generic, partial)
        assert str(exc.value) == f"no value for {pv.name}"
        if pv.name in used:
            with pytest.raises(MissingAssignment) as exc:
                evaluate_equations(eqs, partial)
            assert str(exc.value) == f"no value for {pv.name}"
        else:
            assert evaluate_equations(eqs, partial) == []


def test_param_var_hashing_stays_out_of_the_hot_paths(monkeypatch):
    # polynomials key parameters by their positions in one shared table:
    # scheme equations never hash a ParamVar, evaluation hashes each at most
    # once, to read the point, and none of the three reads a sort_key
    hashes, keys = [0], [0]
    original_hash, original_key = ParamVar.__hash__, ParamVar.sort_key.fget

    def counting_hash(self):
        hashes[0] += 1
        return original_hash(self)

    def counting_key(self):
        keys[0] += 1
        return original_key(self)

    monkeypatch.setattr(ParamVar, "__hash__", counting_hash)
    monkeypatch.setattr(ParamVar, "sort_key", property(counting_key))
    eqs = scheme_equations(upper_power(5, 3))
    assert (hashes[0], keys[0]) == (0, 0)
    values = random_assignment(random.Random(107), eqs.generic.params)
    for run in (lambda: evaluate_equations(eqs, values), lambda: specialize(eqs.generic, values)):
        hashes[0] = 0
        run()
        assert hashes[0] <= len(eqs.generic.params)
        assert keys[0] == 0
    # the counter is live: hashing a polynomial decodes its parameters
    hash(eqs.equations[0])
    assert keys[0] > 0


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(st.data())
def test_groebner_degenerations_are_points_of_the_marked_scheme(data):
    # For a homogeneous I with in(I) = J quasi-stable, N(J) is a basis of P/I,
    # so I lies on Mf(J): the true side of the criterion, the oracle and the
    # equations, at points that no other test draws
    n = 3
    forms = []
    for _ in range(data.draw(st.integers(2, 3))):
        degree = data.draw(st.integers(2, 3))
        support = data.draw(st.sets(st.sampled_from(list(exp_tuples(n, degree))), min_size=1))
        coeffs = st.integers(-3, 3).filter(bool)
        forms.append({e: Fraction(data.draw(coeffs)) for e in sorted(support)})
    gb = groebner_basis(forms)
    J = initial_ideal(gb, n)
    assume(classify(J).quasi_stable)
    G = marked_point(gb, n)
    assert is_marked_basis(G)
    assert oracle_check(G, G.basis.max_degree() + 1)
    eqs = scheme_equations(J)
    heads = eqs.generic.basis.terms
    point = {
        pv: G.polys[heads[pv.index - 1]].tail.get(pv.term, Fraction(0))
        for pv in eqs.generic.params
    }
    assert not any(evaluate_equations(eqs, point))
    assert specialize(eqs.generic, point).polys == G.polys
    # one coordinate moved off the point: the three verdicts still agree
    moved = next((pv for pv, value in point.items() if value), None)
    if moved is None:
        return
    point[moved] += 1
    H = specialize(eqs.generic, point)
    verdict = is_marked_basis(H).is_basis
    assert oracle_check(H, H.basis.max_degree() + 1) == verdict
    assert (not any(evaluate_equations(eqs, point))) == verdict


def test_generic_marked_set_counts_its_work_before_listing(monkeypatch):
    # The estimate is the parameters plus the degree slices scanned for them:
    # the exact budget lists the set, one less refuses it before any slice is
    # listed.
    rng = random.Random(211)
    ideals = [TWO_PARAMS, MARKED_EXAMPLE, THREE_POINTS, upper_power(4, 3)]
    ideals += [random_quasi_stable(rng)[0] for _ in range(20)]
    for J in ideals:
        gm = generic_marked_set(J)
        degrees = {head.degree for head in gm.basis}
        work = len(gm.params) + sum(len(list(terms_of_degree(J.n, d))) for d in degrees)
        monkeypatch.setattr(errors, "_WORK_BUDGET", work)
        assert generic_marked_set(J).params == gm.params
        monkeypatch.setattr(errors, "_WORK_BUDGET", work - 1)
        monkeypatch.setattr(scheme, "escalier_slice", None)
        with pytest.raises(WorkBudgetExceeded) as exc:
            generic_marked_set(J)
        assert (exc.value.estimate, exc.value.budget) == (work, work - 1)
        monkeypatch.undo()


def test_generic_work_counts_the_pommaret_cones_without_an_assignment(monkeypatch):
    # the parameters, one per head and escalier term of its degree, plus one
    # slice per head degree; no assignment is built to count them
    def refuse(basis):
        raise AssertionError("the basis is already known to be stably complete")

    monkeypatch.setattr(DivisionAssignment, "pommaret", refuse)
    rng = random.Random(223)
    for J in [TWO_PARAMS, MARKED_EXAMPLE, upper_power(4, 3)] + [
        random_quasi_stable(rng, max_vars=4)[0] for _ in range(20)
    ]:
        gm = generic_marked_set(J)
        degrees = {head.degree for head in gm.basis}
        expected = sum(len(escalier_slice(J, head.degree)) for head in gm.basis)
        expected += sum(len(list(terms_of_degree(J.n, d))) for d in degrees)
        assert scheme._generic_work(gm.basis) == expected


def test_prolongation_residues_charge_their_coefficient_products(monkeypatch):
    # one unit per product of parameter monomials, plus one per 8 parameter
    # factors that each product of two coefficient maps writes, counted by
    # the reference one product at a time: the exact budget lists the
    # residues, one unit less refuses with that estimate
    rng = random.Random(227)
    named = [TWO_PARAMS, MARKED_EXAMPLE, THREE_POINTS, upper_power(4, 3)]
    ideals = named + [random_quasi_stable(rng, max_vars=4)[0] for _ in range(12)]
    units, refused = [], []
    for J in ideals:
        monkeypatch.undo()
        gm = generic_marked_set(J)
        residues, work = reference_prolongation_residues(gm)
        monkeypatch.setattr(errors, "_WORK_BUDGET", work)
        assert prolongation_residues(gm) == residues
        units.append(work)
        if not residues:
            continue  # no prolongation to reduce, so nothing consults the meter
        monkeypatch.setattr(errors, "_WORK_BUDGET", work - 1)
        with pytest.raises(WorkBudgetExceeded) as exc:
            prolongation_residues(gm)
        assert (exc.value.estimate, exc.value.budget) == (work, work - 1)
        refused.append(J)
    # every named ideal is refused one unit short: the normal forms of the
    # two in two variables vanish, so the meter refuses them at no units
    assert refused[: len(named)] == named
    assert units[: len(named)] == [0, 0, 51, 2938]
    assert len(refused) > len(named)


def hand_built_tails(data, gm):
    """The generic tails with each coefficient kept, dropped, made a nonzero
    constant, made one parameter on its own one-entry table (one of the set's,
    or one of a generator that the set does not have), or made a sum of up to
    three monomials of degree at most 2 over the set's table with nonzero
    coefficients."""
    positions = range(len(gm.params))
    coeff = st.integers(-3, 3).filter(bool)
    kinds = st.sampled_from(["keep", "drop", "constant", "variable", "polynomial"])
    tails = {}
    for head, tail in gm.tails.items():
        tails[head] = {}
        for beta, p in tail.items():
            kind = data.draw(kinds)
            if kind == "keep":
                tails[head][beta] = p
            elif kind == "constant":
                tails[head][beta] = ParamPolynomial({(): data.draw(coeff)})
            elif kind == "variable":
                outside = ParamVar(len(gm.basis) + 1, beta)
                pv = data.draw(st.sampled_from(gm.params + (outside,)))
                tails[head][beta] = ParamPolynomial.variable(pv)
            elif kind == "polynomial":
                monomial = st.lists(st.sampled_from(positions), max_size=2).map(
                    lambda m: tuple(sorted(m))
                )
                monomials = data.draw(st.lists(monomial, min_size=1, max_size=3, unique=True))
                tails[head][beta] = ParamPolynomial(
                    {m: data.draw(coeff) for m in monomials}, gm.params
                )
    return tails


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.data())
def test_prolongation_residues_and_their_charge_match_the_reference(data):
    # the one accumulation loop against one product at a time: the residues,
    # and the exact budget that lists them, on random quasi-stable ideals in
    # up to 4 variables and on hand-built tails with constant and
    # multi-monomial coefficients
    n = data.draw(st.integers(2, 4))
    J = draw_quasi_stable(data, n)
    gm = generic_marked_set(J)
    if n < 4 and data.draw(st.booleans()):
        gm = GenericMarkedSet(J, gm.basis, gm.params, hand_built_tails(data, gm))
    residues, work = reference_prolongation_residues(gm)
    with patch.object(errors, "_WORK_BUDGET", work):
        assert prolongation_residues(gm) == residues
    # with no prolongation to reduce, nothing consults the meter
    assume(residues)
    with patch.object(errors, "_WORK_BUDGET", work - 1):
        with pytest.raises(WorkBudgetExceeded) as exc:
            prolongation_residues(gm)
    assert (exc.value.estimate, exc.value.budget) == (work, work - 1)
