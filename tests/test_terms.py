import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from involutive import (
    MismatchedVariableCount,
    NotDivisible,
    Term,
    TermSet,
    terms_of_degree,
    variable,
)
from involutive.terms import _monomials
from helpers import exp_tuples, random_term_of_degree


def t(*exps):
    return Term(exps)


def test_divides_examples():
    assert t(1, 0).divides(t(1, 1))
    assert Term([0] * 3).divides(t(4, 0, 7))
    assert not t(0, 3, 0).divides(t(4, 1, 1))


def test_divides_rejects_mismatched_lengths():
    with pytest.raises(MismatchedVariableCount):
        t(1, 0).divides(t(1, 0, 0))


def test_extremal_vars():
    assert t(1, 2).min_index == 1
    assert t(0, 0, 2).min_index == 3
    assert Term([0] * 3).min_index is None


def test_predecessor():
    assert t(1, 1).predecessor(1) == t(0, 1)
    assert t(2, 0, 1).predecessor(3) == t(2, 0, 0)
    with pytest.raises(NotDivisible):
        t(0, 1).predecessor(1)


def test_predecessor_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        term = random_term_of_degree(rng, n, rng.randint(1, 8))
        j = term.min_index
        assert term.predecessor(j) * variable(n, j) == term


def test_lex_compare_examples():
    # lex scans from x_n down to x_1, which lex_key compares directly
    assert t(1, 2).lex_key > t(2, 1).lex_key
    assert t(3, 1, 2).lex_key == t(3, 1, 2).lex_key
    # y^k < x*y^k in two variables
    assert t(0, 4).lex_key < t(1, 4).lex_key


def test_lex_compare_is_multiplicative_total_order():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        s = random_term_of_degree(rng, n, rng.randint(0, 6))
        u = random_term_of_degree(rng, n, rng.randint(0, 6))
        v = random_term_of_degree(rng, n, rng.randint(0, 4))
        assert (s.lex_key < u.lex_key) == ((s * v).lex_key < (u * v).lex_key)
        if s.lex_key == u.lex_key:
            assert s == u


def test_mutual_division_forces_equality():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 4)
        s = random_term_of_degree(rng, n, rng.randint(0, 5))
        u = random_term_of_degree(rng, n, rng.randint(0, 5))
        if s.divides(u) and u.divides(s):
            assert s == u


def test_exact_division():
    assert t(3, 1) / t(1, 0) == t(2, 1)
    with pytest.raises(NotDivisible):
        t(1, 0) / t(0, 1)


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        Term([1, -1])


@pytest.mark.parametrize("exponents", [[1.5, 2], ["3", 1], [2, 1.0]])
def test_non_integer_exponents_rejected(exponents):
    with pytest.raises(TypeError):
        Term(exponents)


def test_integer_exponents_accepted():
    assert Term([True, 2]) == t(1, 2)
    assert Term(e for e in (0, 3)).degree == 3


def test_degree_cached():
    term = t(2, 0, 5)
    assert term.degree == 7
    assert term.nvars == 3


def test_terms_of_degree_enumeration():
    for n in (1, 2, 3, 4):
        for d in (0, 1, 3, 5):
            listed = list(terms_of_degree(n, d))
            assert {x.exponents for x in listed} == set(exp_tuples(n, d))
            keys = [x.lex_key for x in listed]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def test_terms_of_degree_has_the_counted_length():
    # _monomials is the enumeration's length, 0 below degree 0 in any number
    # of variables, one variable included
    for n in range(1, 5):
        for d in range(-3, 7):
            assert len(list(terms_of_degree(n, d))) == _monomials(d, n)


def test_termset_canonical_order_and_dedup():
    M = TermSet([t(0, 3), t(1, 1), t(2, 0), t(1, 1)])
    assert [x.exponents for x in M] == [(2, 0), (1, 1), (0, 3)]
    assert len(M) == 3
    assert t(1, 1) in M
    assert t(5, 5) not in M


def test_termset_rejects_mixed_sizes():
    with pytest.raises(MismatchedVariableCount):
        TermSet([t(1, 0), t(1, 0, 0)])


def test_termset_empty_needs_explicit_n():
    with pytest.raises(ValueError):
        TermSet([])
    assert len(TermSet([], n=3)) == 0


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_a_term_has_two_views_of_one_exponent_vector(data):
    # the stored lex key (x_n first) and the x_1-first exponents: every
    # operation on keys agrees with the same operation on exponents
    n = data.draw(st.integers(1, 6))
    vectors = st.lists(st.integers(0, 5), min_size=n, max_size=n)
    e, f = data.draw(vectors), data.draw(vectors)
    a, b = Term(e), Term(f)
    assert a.exponents == tuple(e)
    assert a.lex_key == tuple(e)[::-1]
    k = tuple(e)[::-1]
    made = Term._of_key(k)
    assert made == a and hash(made) == hash(a) and made.degree == a.degree == sum(e)
    assert made.exponents == tuple(e)
    assert a.min_index == next((i for i, x in enumerate(e, 1) if x), None)
    assert a.sort_key == (sum(e), tuple(e)[::-1])
    assert (a * b).exponents == tuple(x + y for x, y in zip(e, f))
    assert (a * b).degree == sum(e) + sum(f)
    assert (a * b) / b == a and ((a * b) / a).exponents == tuple(f)
    assert a.divides(b) == all(x <= y for x, y in zip(e, f))
    if a.divides(b):
        assert (b / a).exponents == tuple(y - x for x, y in zip(e, f))
        assert (b / a).degree == sum(f) - sum(e)
