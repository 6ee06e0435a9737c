import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involutive import (
    DegreeCapExceeded,
    DivisionAssignment,
    MismatchedVariableCount,
    NotComplete,
    NotInIdeal,
    NotInSet,
    Term,
    TermSet,
    is_complete,
    is_stably_complete,
    janet_complete,
    janet_multiplicative_vars,
    lex_compare,
    offspring_contains,
    pommaret_multiplicative_vars,
    star_decompose,
    terms_of_degree,
    variable,
)
from helpers import (
    brute_is_complete,
    brute_janet_complete,
    brute_mult_vars,
    brute_offspring_member,
    brute_pommaret_vars,
    brute_star_decompose,
    canonical_order,
    divisor_tuples,
    random_term_of_degree,
)


def t(*exps):
    return Term(exps)


def ts(*terms):
    return TermSet([Term(x) for x in terms])


MIXED = ts((3, 0, 0), (0, 3, 0), (4, 1, 1), (0, 0, 2))
M0 = ts((2, 0, 0), (1, 1, 0), (0, 0, 1))
PAIR = ts((2, 0), (1, 1))
TRIPLE = ts((2, 0), (1, 1), (0, 2))
BROKEN_TRIPLE = ts((2, 0), (1, 1), (0, 3))
CYCLE_SET = ts((1, 0, 1), (0, 1, 1), (0, 2, 0))


def m_i(i):
    return TermSet(
        [t(2, 0, 0), t(1, 1, 0), t(0, 0, 1)] + [t(0, j, 1) for j in range(1, i + 1)]
    )


def janet_table(M):
    return {tau: sorted(janet_multiplicative_vars(M, tau)) for tau in M}


def test_janet_mult_vars_three_var_example():
    assert janet_multiplicative_vars(MIXED, t(3, 0, 0)) == {1}


def test_janet_mult_vars_two_var_example():
    M = ts((2, 1), (1, 2))
    assert janet_multiplicative_vars(M, t(1, 2)) == {1, 2}
    # x1x2^2 blocks x2 for x1^2x2 once the third variable is gone
    assert janet_multiplicative_vars(M, t(2, 1)) == {1}


def test_janet_mult_vars_embedding_changes_table():
    # same two terms, one more ambient variable
    M = ts((2, 1, 0), (1, 2, 0))
    assert janet_multiplicative_vars(M, t(2, 1, 0)) == {1, 3}
    assert janet_multiplicative_vars(M, t(1, 2, 0)) == {1, 2, 3}


def test_singleton_has_all_variables_multiplicative():
    M = ts((2, 3, 1))
    assert janet_multiplicative_vars(M, t(2, 3, 1)) == {1, 2, 3}
    ok, witness = is_complete(M)
    assert ok and witness is None


def test_janet_mult_vars_requires_membership():
    with pytest.raises(NotInSet):
        janet_multiplicative_vars(M0, t(9, 9, 9))


def test_m0_table():
    assert janet_table(M0) == {
        t(2, 0, 0): [1],
        t(1, 1, 0): [1, 2],
        t(0, 0, 1): [1, 2, 3],
    }


@pytest.mark.parametrize("i", [1, 2, 3])
def test_mi_tables(i):
    M = m_i(i)
    expected = {
        t(2, 0, 0): [1],
        t(1, 1, 0): [1, 2],
        t(0, 0, 1): [1, 3],
    }
    for j in range(1, i):
        expected[t(0, j, 1)] = [1, 3]
    expected[t(0, i, 1)] = [1, 2, 3]
    assert janet_table(M) == expected
    ok, _ = is_complete(M)
    assert ok


def test_janet_mult_matches_brute_force_on_random_sets():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 4)
        members = TermSet(
            [random_term_of_degree(rng, n, rng.randint(0, 4)) for _ in range(rng.randint(1, 7))]
        )
        raw = [x.exponents for x in members]
        for tau in members:
            assert janet_multiplicative_vars(members, tau) == brute_mult_vars(
                raw, tau.exponents
            )


def test_pommaret_mult_vars():
    assert pommaret_multiplicative_vars(t(1, 2)) == {1}
    assert pommaret_multiplicative_vars(t(0, 3, 0)) == {1, 2}
    assert pommaret_multiplicative_vars(Term([0, 0]), 2) == {1, 2}


def test_offspring_membership():
    assert offspring_contains(M0, t(1, 1, 0), t(2, 1, 0))
    assert offspring_contains(M0, t(1, 1, 0), t(1, 1, 0))
    assert not offspring_contains(M0, t(2, 0, 0), t(2, 1, 0))


def test_offspring_only_contains_its_root_from_the_set():
    for M in (MIXED, M0, m_i(2), PAIR, TRIPLE, CYCLE_SET):
        for tau in M:
            for sigma in M:
                assert offspring_contains(M, tau, sigma) == (tau == sigma)


def test_star_decompose_examples():
    fact = star_decompose(M0, t(1, 1, 1))
    assert (fact.head, fact.cofactor) == (t(0, 0, 1), t(1, 1, 0))
    fact = star_decompose(M0, t(1, 1, 0))
    assert (fact.head, fact.cofactor) == (t(1, 1, 0), Term([0, 0, 0]))
    fact = star_decompose(TRIPLE, t(3, 1))
    assert (fact.head, fact.cofactor) == (t(1, 1), t(2, 0))


def test_star_decompose_unique_by_enumeration():
    # every coverable term has exactly one covering offspring
    raw = [x.exponents for x in TRIPLE]
    for d in range(2, 7):
        for gamma in terms_of_degree(2, d):
            owners = [
                tau for tau in raw if brute_offspring_member(raw, tau, gamma.exponents)
            ]
            if owners:
                fact = star_decompose(TRIPLE, gamma)
                assert [fact.head.exponents] == owners


def test_star_decompose_errors():
    with pytest.raises(NotInIdeal):
        star_decompose(M0, t(0, 5, 0))
    incomplete = ts((1, 0), (0, 2))
    with pytest.raises(NotComplete):
        star_decompose(incomplete, t(1, 1))
    with pytest.raises(NotComplete):
        star_decompose(incomplete, t(1, 3), check_complete=True)


def test_is_complete_examples():
    assert is_complete(M0) == (True, None)
    assert is_complete(ts((1, 0), (0, 2))) == (False, (t(1, 0), 2))
    assert is_complete(BROKEN_TRIPLE) == (False, (t(1, 1), 2))
    assert is_complete(PAIR) == (True, None)
    assert is_complete(CYCLE_SET) == (True, None)


def test_is_stably_complete_examples():
    assert is_stably_complete(TRIPLE) == (True, None)
    ok, witness = is_stably_complete(PAIR)
    assert not ok and witness == (t(1, 1), 2)
    ok, witness = is_stably_complete(M0)
    assert not ok and witness == (t(1, 1, 0), 2)


def test_janet_complete_fixed_points():
    assert janet_complete(M0, 10) == M0
    singleton = ts((2, 3))
    assert janet_complete(singleton, 10) == singleton
    completed = janet_complete(BROKEN_TRIPLE, 10)
    assert completed == ts((2, 0), (1, 1), (1, 2), (0, 3))


def test_janet_complete_adds_mixed_product():
    assert janet_complete(ts((1, 0), (0, 2)), 10) == ts((1, 0), (1, 1), (0, 2))


def test_janet_complete_idempotent_and_ideal_preserving():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 3)
        M = TermSet(
            [random_term_of_degree(rng, n, rng.randint(1, 4)) for _ in range(rng.randint(1, 5))]
        )
        completed = janet_complete(M, 40)
        assert is_complete(completed)[0]
        assert janet_complete(completed, 40) == completed
        # same semigroup ideal: every new term is a multiple of an original one
        for extra in completed:
            assert any(orig.divides(extra) for orig in M)


def test_janet_complete_degree_cap():
    with pytest.raises(DegreeCapExceeded) as info:
        janet_complete(ts((1, 0), (0, 2)), 1)
    assert info.value.partial is not None


def test_partition_property_on_examples():
    for M in (M0, m_i(1), m_i(3), PAIR, TRIPLE, CYCLE_SET):
        raw = [x.exponents for x in M]
        top = M.max_degree() + 2
        for d in range(1, top + 1):
            for gamma in terms_of_degree(M.n, d):
                owners = [
                    tau
                    for tau in raw
                    if brute_offspring_member(raw, tau, gamma.exponents)
                ]
                in_ideal = any(
                    all(a <= b for a, b in zip(tau, gamma.exponents)) for tau in raw
                )
                assert len(owners) == (1 if in_ideal else 0)


def test_offsprings_pairwise_disjoint_even_when_incomplete():
    rng = random.Random(37)
    for _ in range(30):
        n = rng.randint(2, 3)
        M = TermSet(
            [random_term_of_degree(rng, n, rng.randint(0, 4)) for _ in range(rng.randint(2, 6))]
        )
        raw = [x.exponents for x in M]
        for d in range(0, M.max_degree() + 3):
            for gamma in terms_of_degree(n, d):
                owners = [
                    tau
                    for tau in raw
                    if brute_offspring_member(raw, tau, gamma.exponents)
                ]
                assert len(owners) <= 1


def test_lower_lex_lemma_on_random_sets():
    # x_j not multiplicative and x_j*tau in off(tau') forces tau <lex tau';
    # when additionally x_j <= min(tau), the product itself belongs to the set.
    rng = random.Random(41)
    sets = [MIXED, M0, m_i(2), PAIR, TRIPLE, BROKEN_TRIPLE, CYCLE_SET]
    for _ in range(40):
        n = rng.randint(2, 3)
        sets.append(
            TermSet(
                [random_term_of_degree(rng, n, rng.randint(0, 4)) for _ in range(rng.randint(1, 6))]
            )
        )
    for M in sets:
        assignment = DivisionAssignment.janet(M)
        for tau in M:
            for j in range(1, M.n + 1):
                if j in assignment.mult[tau]:
                    continue
                prod = tau * variable(M.n, j)
                for other in M:
                    if offspring_contains(M, other, prod, assignment):
                        assert lex_compare(tau, other) == -1
                        if tau.min_index is not None and j <= tau.min_index:
                            assert prod == other and other in M


def test_smaller_cofactor_lemma_on_stably_complete_sets():
    # gamma = head * eta with a non-ideal divisor sigma forces the other cofactor higher
    for M in (TRIPLE, ts((3, 0), (1, 1), (1, 2), (0, 3))):
        raw = [x.exponents for x in M]
        for d in range(2, M.max_degree() + 3):
            for gamma in terms_of_degree(M.n, d):
                if not any(all(a <= b for a, b in zip(tau, gamma.exponents)) for tau in raw):
                    continue
                fact = star_decompose(M, gamma)
                for sigma_exps in divisor_tuples(gamma.exponents):
                    sigma = Term(sigma_exps)
                    if any(all(a <= b for a, b in zip(tau, sigma_exps)) for tau in raw):
                        continue
                    eta_prime = gamma / sigma
                    assert lex_compare(eta_prime, fact.cofactor) == 1


# ------------------------------------------- the cover index against brute force

PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@st.composite
def term_sets(draw, max_vars=5, max_exp=3, max_size=7):
    """(members, probes): a set of exponent tuples in 1..max_vars variables
    and a few terms to decompose, some of them multiples of members."""
    n = draw(st.integers(1, max_vars))
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    members = draw(st.lists(exps, min_size=1, max_size=max_size, unique=True))
    probes = draw(st.lists(exps, min_size=1, max_size=6))
    probes += [tuple(a + b for a, b in zip(m, p)) for m, p in zip(members, probes)]
    return members, probes


def tuples_of(M):
    return [t.exponents for t in M]


def star_outcome(M, gamma, assignment):
    try:
        fact = star_decompose(M, Term(gamma), assignment)
    except (NotInIdeal, NotComplete) as exc:
        return type(exc).__name__
    assert fact.head * fact.cofactor == Term(gamma)
    return fact.head.exponents, fact.cofactor.exponents


def check_against_brute_force(members, probes, assignment, mult):
    """is_complete and star_decompose over ``members`` (a subset of the
    assignment's basis, or all of it) agree with the scanning oracles."""
    M = TermSet([Term(m) for m in members])
    expected = brute_is_complete(members, mult)
    assert is_complete(M, assignment) == (
        (True, None) if expected is None else (False, (Term(expected[0]), expected[1]))
    )
    for gamma in probes:
        assert star_outcome(M, gamma, assignment) == brute_star_decompose(members, mult, gamma)


@PROPERTY
@given(term_sets(), st.data())
def test_cover_index_matches_brute_force(drawn, data):
    members, probes = drawn
    M = TermSet([Term(m) for m in members])
    ordered = canonical_order(members)
    subset = ordered[: data.draw(st.integers(1, len(ordered)))]
    for assignment, rule in (
        (DivisionAssignment.janet(M), lambda t: brute_mult_vars(members, t)),
        (DivisionAssignment.pommaret(M), brute_pommaret_vars),
    ):
        mult = {m: rule(m) for m in members}
        assert {t.exponents: set(v) for t, v in assignment.mult.items()} == mult
        check_against_brute_force(members, probes, assignment, mult)
        check_against_brute_force(subset, probes, assignment, mult)


@PROPERTY
@given(term_sets(max_vars=4, max_exp=2, max_size=5), st.integers(0, 3))
def test_janet_complete_matches_the_dense_oracle(drawn, slack):
    members, probes = drawn
    M = TermSet([Term(m) for m in members])
    cap = max(sum(m) for m in members) + slack
    expected, capped = brute_janet_complete(members, cap)
    if capped:
        with pytest.raises(DegreeCapExceeded) as info:
            janet_complete(M, cap)
        assert set(tuples_of(info.value.partial)) == expected
        return
    completed = janet_complete(M, cap)
    assert tuples_of(completed) == canonical_order(expected)
    # the completion is complete, and its decompositions agree too
    assignment = DivisionAssignment.janet(completed)
    assert is_complete(completed, assignment) == (True, None)
    mult = {m: brute_mult_vars(expected, m) for m in expected}
    check_against_brute_force(sorted(expected), probes, assignment, mult)


def test_star_decompose_takes_the_lex_greatest_of_nested_pommaret_cones():
    # x1 and x1^2 both have x1 as their only Pommaret variable: the cone of
    # x1^2 sits inside that of x1, and the lex-greatest head wins.
    M = ts((1, 0), (2, 0))
    assignment = DivisionAssignment.pommaret(M)
    fact = star_decompose(M, t(3, 0), assignment)
    assert (fact.head, fact.cofactor) == (t(2, 0), t(1, 0))
    fact = star_decompose(M, t(1, 0), assignment)
    assert (fact.head, fact.cofactor) == (t(1, 0), t(0, 0))
    with pytest.raises(NotComplete):
        star_decompose(M, t(2, 1), assignment)
    with pytest.raises(NotInIdeal):
        star_decompose(M, t(0, 4), assignment)
    assert is_complete(M, assignment) == (False, (t(1, 0), 2))


def test_lookups_range_over_a_subset_of_the_assignment_basis():
    # M0 = {x1^2, x1x2, x3} is complete; without x3 the cone of x3 is gone
    assignment = DivisionAssignment.janet(M0)
    sub = ts((2, 0, 0), (1, 1, 0))
    assert star_decompose(M0, t(0, 0, 1), assignment).head == t(0, 0, 1)
    with pytest.raises(NotInIdeal):
        star_decompose(sub, t(0, 0, 1), assignment)
    assert star_decompose(M0, t(1, 1, 1), assignment).head == t(0, 0, 1)
    with pytest.raises(NotComplete):
        star_decompose(sub, t(1, 1, 1), assignment)
    fact = star_decompose(sub, t(3, 1, 0), assignment)
    assert (fact.head, fact.cofactor) == (t(1, 1, 0), t(2, 0, 0))
    assert is_complete(M0, assignment) == (True, None)
    assert is_complete(sub, assignment) == (False, (t(2, 0, 0), 3))


def test_mismatched_variable_counts_are_rejected():
    with pytest.raises(MismatchedVariableCount):
        star_decompose(M0, t(1, 1))
    with pytest.raises(MismatchedVariableCount):
        offspring_contains(M0, t(1, 1, 0), t(1, 1))
