import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involutive import (
    MissingAssignment,
    WorkBudgetExceeded,
    MonomialIdeal,
    NotQuasiStable,
    ParamPolynomial,
    ParamVar,
    Term,
    classify,
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
from involutive import scheme
from helpers import (
    brute_evaluate,
    exp_tuples,
    random_assignment,
    random_quasi_stable,
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


def upper_power(n, d):
    """(x2, ..., xn)^d in n variables: strongly stable, every tail is in x1."""
    return MonomialIdeal([Term((0,) + e) for e in exp_tuples(n - 1, d)], n)


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
        # each generator a multiset of 1..4 variables (1..3 in 4 variables)
        term = st.lists(st.integers(1, n), min_size=1, max_size=4 if n < 4 else 3)
        drawn = data.draw(st.lists(term, min_size=1, max_size=4))
        gens = [tuple(vs.count(i) for i in range(1, n + 1)) for vs in drawn]
        J = MonomialIdeal([Term(g) for g in gens], n)
        if not classify(J).quasi_stable:
            J = MonomialIdeal([Term(g) for g in stable_closure(gens, n)], n)
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
    # polynomials key parameters by plain tuples: scheme equations never hash
    # a ParamVar, and evaluation hashes each at most once, to read the point
    calls = [0]
    original = ParamVar.__hash__

    def counting(self):
        calls[0] += 1
        return original(self)

    monkeypatch.setattr(ParamVar, "__hash__", counting)
    eqs = scheme_equations(upper_power(5, 3))
    assert calls[0] == 0
    values = random_assignment(random.Random(107), eqs.generic.params)
    for run in (lambda: evaluate_equations(eqs, values), lambda: specialize(eqs.generic, values)):
        calls[0] = 0
        run()
        assert calls[0] <= len(eqs.generic.params)


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
        monkeypatch.setattr(scheme, "_WORK_BUDGET", work)
        assert generic_marked_set(J).params == gm.params
        monkeypatch.setattr(scheme, "_WORK_BUDGET", work - 1)
        monkeypatch.setattr(scheme, "escalier_slice", None)
        with pytest.raises(WorkBudgetExceeded) as exc:
            generic_marked_set(J)
        assert (exc.value.estimate, exc.value.budget) == (work, work - 1)
        monkeypatch.undo()
