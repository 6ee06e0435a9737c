import random
from bisect import insort

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from involutive import (
    DegreeCapExceeded,
    DivisionAssignment,
    MismatchedVariableCount,
    MonomialIdeal,
    NotComplete,
    NotInIdeal,
    REDUCED,
    Term,
    TermSet,
    WorkBudgetExceeded,
    hilbert_function,
    is_complete,
    is_stably_complete,
    janet_complete,
    make_marked_set,
    pommaret_basis,
    pommaret_multiplicative_vars,
    reduce,
    star_decompose,
    terms_of_degree,
    variable,
)
from involutive import division, errors
from involutive.division import (
    _Worklist,
    _cone_terms,
    _janet_head,
    _janet_insert,
    _janet_tree,
    _janet_vars,
    _keys_below,
    _nonmultiplicative,
    _pommaret_head,
)
from involutive.terms import _bump
from helpers import (
    brute_is_complete,
    brute_is_stably_complete,
    brute_janet_complete,
    brute_mult_vars,
    brute_offspring_member,
    brute_pommaret_vars,
    brute_star_decompose,
    canonical_order,
    divisor_tuples,
    exp_tuples,
    outcome,
    random_term_of_degree,
    stable_closure,
    tuple_covers,
    tuple_in_ideal,
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
    return {tau: sorted(v) for tau, v in DivisionAssignment.janet(M).mult.items()}


def janet_vars(M, tau):
    return DivisionAssignment.janet(M).mult[tau]


def test_janet_mult_vars_three_var_example():
    assert janet_vars(MIXED, t(3, 0, 0)) == {1}


def test_janet_mult_vars_two_var_example():
    M = ts((2, 1), (1, 2))
    assert janet_vars(M, t(1, 2)) == {1, 2}
    # x1x2^2 blocks x2 for x1^2x2 once the third variable is gone
    assert janet_vars(M, t(2, 1)) == {1}


def test_janet_mult_vars_embedding_changes_table():
    # same two terms, one more ambient variable
    M = ts((2, 1, 0), (1, 2, 0))
    assert janet_vars(M, t(2, 1, 0)) == {1, 3}
    assert janet_vars(M, t(1, 2, 0)) == {1, 2, 3}


def test_singleton_has_all_variables_multiplicative():
    M = ts((2, 3, 1))
    assert janet_vars(M, t(2, 3, 1)) == {1, 2, 3}
    ok, witness = is_complete(M)
    assert ok and witness is None


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
            assert janet_vars(members, tau) == brute_mult_vars(
                raw, tau.exponents
            )


def test_pommaret_mult_vars():
    assert pommaret_multiplicative_vars(t(1, 2)) == {1}
    assert pommaret_multiplicative_vars(t(0, 3, 0)) == {1, 2}
    assert pommaret_multiplicative_vars(Term([0, 0])) == {1, 2}


def test_offspring_membership():
    # Janet cones are disjoint, so gamma lies in the offspring of tau exactly
    # when tau is the head that covers gamma
    raw = tuples_of(M0)
    cover = DivisionAssignment.janet(M0).cover
    assert cover(t(2, 1, 0)).head == t(1, 1, 0)
    assert cover(t(1, 1, 0)).head == t(1, 1, 0)
    assert brute_offspring_member(raw, (1, 1, 0), (2, 1, 0))
    assert not brute_offspring_member(raw, (2, 0, 0), (2, 1, 0))


def test_offspring_only_contains_its_root_from_the_set():
    for M in (MIXED, M0, m_i(2), PAIR, TRIPLE, CYCLE_SET):
        raw = tuples_of(M)
        assignment = DivisionAssignment.janet(M)
        for sigma in M:
            fact = assignment.cover(sigma)
            assert (fact.head, fact.cofactor) == (sigma, Term([0] * M.n))
            for tau in raw:
                assert brute_offspring_member(raw, tau, sigma.exponents) == (tau == sigma.exponents)


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
    # x1*x2 lies in the ideal but in no cone; the error names the first
    # uncovered prolongation, as is_complete does
    with pytest.raises(NotComplete) as info:
        star_decompose(incomplete, t(1, 1))
    assert info.value.witness == (t(1, 0), 2) == is_complete(incomplete)[1]


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
    # a property of the set: the Janet and Pommaret variables of {x1, x1^2}
    # differ at x1 whichever assignment of the set is passed
    for M in (ts((1,), (2,)), ts((1, 0), (2, 0), (0, 1))):
        for assignment in (None, DivisionAssignment.pommaret(M)):
            assert is_stably_complete(M, assignment) == (False, (M.terms[0], 1))


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


def test_janet_complete_charges_each_rebuild(monkeypatch):
    # (x1, x2^2) needs one addition: the scans over 2, then 3 terms in 2
    # variables, each charged the terms times the variables
    M = ts((1, 0), (0, 2))
    monkeypatch.setattr(errors, "_WORK_BUDGET", 10)
    assert len(janet_complete(M, 10)) == 3
    monkeypatch.setattr(errors, "_WORK_BUDGET", 9)
    with pytest.raises(WorkBudgetExceeded) as info:
        janet_complete(M, 10)
    assert (info.value.estimate, info.value.budget) == (10, 9)


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
        raw = tuples_of(M)
        assignment = DivisionAssignment.janet(M)
        for tau in M:
            for j in range(1, M.n + 1):
                if j in assignment.mult[tau]:
                    continue
                prod = tau * variable(M.n, j)
                for other in M:
                    if brute_offspring_member(raw, other.exponents, prod.exponents):
                        assert tau.lex_key < other.lex_key
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
                    assert eta_prime.lex_key > fact.cofactor.lex_key


# --------------------------------------------- the Janet tree against brute force

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
    """is_complete and star_decompose over ``members`` (the assignment's
    basis) agree with the scanning oracles."""
    M = TermSet([Term(m) for m in members])
    expected = brute_is_complete(members, mult)
    assert is_complete(M, assignment) == (
        (True, None) if expected is None else (False, (Term(expected[0]), expected[1]))
    )
    for gamma in probes:
        assert star_outcome(M, gamma, assignment) == brute_star_decompose(members, mult, gamma)


@PROPERTY
@given(term_sets(), st.data())
def test_assignment_lookups_match_brute_force(drawn, data):
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
        if len(subset) < len(members):
            # lookups answer for the assignment's own basis only
            sub = TermSet([Term(m) for m in subset], M.n)
            with pytest.raises(ValueError):
                is_complete(sub, assignment)
            with pytest.raises(ValueError):
                star_decompose(sub, Term(probes[0]), assignment)


def brute_cover(members, mult, gamma):
    """The (head, cofactor) of gamma's lex-greatest covering head, or None."""
    found = brute_star_decompose(members, mult, gamma)
    return None if isinstance(found, str) else found


def brute_nested(members, mult):
    """Each member in canonical order with the members whose cones hold it."""
    return {
        tau: [o for o in members if o != tau and tuple_covers(o, mult[o], tau)]
        for tau in canonical_order(members)
    }


def check_nested(nested, outers):
    inner = next((tau for tau, found in outers.items() if found), None)
    if inner is None:
        assert nested is None
    else:
        assert nested[0].exponents == inner
        assert nested[1].exponents == max(outers[inner], key=lambda e: e[::-1])


@PROPERTY
@given(term_sets())
def test_tree_descents_match_brute_force(drawn):
    # one descent of the Janet tree finds the lex-greatest covering head; a
    # Janet cover has at most one head, which the descent's one path relies
    # on; _nested is the first member in canonical order inside another
    # member's cone, with the lex-greatest such member
    members, probes = drawn
    M = TermSet([Term(m) for m in members])
    for assignment, rule, disjoint in (
        (DivisionAssignment.janet(M), lambda t: brute_mult_vars(members, t), True),
        (DivisionAssignment.pommaret(M), brute_pommaret_vars, False),
    ):
        mult = {m: rule(m) for m in members}
        for gamma in probes + members:
            fact = assignment._cover(gamma[::-1])
            expected = brute_cover(members, mult, gamma)
            assert fact == (None if expected is None else (expected[0][::-1], expected[1][::-1]))
            heads = [m for m in members if tuple_covers(m, mult[m], gamma)]
            assert not disjoint or len(heads) <= 1
        check_nested(assignment._nested, brute_nested(members, mult))


@settings(PROPERTY, max_examples=300)
@given(term_sets(max_vars=5, max_exp=2, max_size=12))
def test_janet_tree_answers_where_prefixes_collide(drawn):
    # exponents of at most 2 make members share prefixes at every depth: the
    # variables read off the largest children, both descents over the
    # members, their prolongations and predecessors and the nested Pommaret
    # cones all agree with the definitions, and stable completeness is the
    # Pommaret characterisation: disjoint cones that hold every prolongation
    members, probes = drawn
    M = TermSet([Term(m) for m in members])
    n, tree = M.n, _janet_tree(M)
    janet = {m: brute_mult_vars(members, m) for m in members}
    pommaret = {m: brute_pommaret_vars(m) for m in members}
    assert {m: set(_janet_vars(tree, m[::-1])) for m in members} == janet
    moved = [
        m[: j - 1] + (m[j - 1] + step,) + m[j:]
        for m in members
        for j in range(1, n + 1)
        for step in (1, -1)
        if m[j - 1] + step >= 0
    ]
    for gamma in probes + members + moved:
        for descent, mult in ((_janet_head, janet), (_pommaret_head, pommaret)):
            expected = brute_cover(members, mult, gamma)
            head = descent(tree, gamma[::-1])
            assert head == (None if expected is None else expected[0][::-1])
    outers = brute_nested(members, pommaret)
    check_nested(DivisionAssignment.pommaret(M)._nested, outers)
    disjoint = not any(outers.values())
    event(f"Pommaret cones {'disjoint' if disjoint else 'nested'}")
    assert is_stably_complete(M)[0] == (disjoint and brute_is_complete(members, pommaret) is None)


@PROPERTY
@given(term_sets())
def test_mult_lists_the_terms_in_basis_order(drawn):
    # the completeness scan, the criterion's prolongations and the JSON
    # report walk mult.items() as the basis in order, so a constructor that
    # built mult from a set or in key order would move their witnesses
    members, _ = drawn
    M = TermSet([Term(m) for m in members])
    assert list(DivisionAssignment.janet(M).mult) == list(M)
    assert list(DivisionAssignment.pommaret(M).mult) == list(M)
    C = janet_complete(M, sum(max(col) for col in zip(*members)))
    assert list(C._janet.mult) == list(C)


@PROPERTY
@given(term_sets(max_vars=4, max_exp=2, max_size=5), st.integers(0, 5))
def test_nonmultiplicative_walk_and_cone_count_match_brute_force(drawn, d):
    # the walk is every (tau, j) with x_j not multiplicative for tau, in basis
    # order and then j ascending; the cone count is the degree-d terms of the
    # cones with multiplicity, and over a Janet completion, whose cones are
    # disjoint and cover the ideal, the degree-d terms they cover
    members, _ = drawn
    M = TermSet([Term(m) for m in members])
    n, degree_d = M.n, list(exp_tuples(M.n, d))
    for assignment, rule in (
        (DivisionAssignment.janet(M), lambda t: brute_mult_vars(members, t)),
        (DivisionAssignment.pommaret(M), brute_pommaret_vars),
    ):
        mult = {m: rule(m) for m in members}
        walk = [(tau.exponents, j) for tau, j in _nonmultiplicative(assignment.mult.items(), n)]
        assert walk == [
            (tau, j) for tau in canonical_order(members) for j in range(1, n + 1) if j not in mult[tau]
        ]
        assert _cone_terms(assignment.mult.items(), d) == sum(
            tuple_covers(tau, mult[tau], gamma) for tau in members for gamma in degree_d
        )
    lcm_degree = sum(max(col) for col in zip(*members))
    C = janet_complete(M, lcm_degree)
    completed = tuples_of(C)
    covered = [
        gamma
        for gamma in degree_d
        if any(brute_offspring_member(completed, tau, gamma) for tau in completed)
    ]
    assert covered == [gamma for gamma in degree_d if tuple_in_ideal(members, gamma)]
    assert _cone_terms(DivisionAssignment.janet(C).mult.items(), d) == len(covered)


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


def grow(terms, tree, vars_of, addition):
    """Insert the term ``addition`` into the sorted list ``terms`` at its
    place in canonical order, and its key into the Janet tree as the
    completion's worklist does; update the variables ``vars_of``, keyed by
    lex key, in place: the members below the displaced largest child lose
    one variable, and the addition gets the variables of its own descent."""
    insort(terms, addition, key=lambda t: t.sort_key)
    k = addition.lex_key
    lost = _janet_insert(tree, k)
    if lost is not None:
        below, x = lost
        event("an insertion took a variable from members")
        for key in _keys_below(below):
            vars_of[key] -= {x}
    vars_of[k] = _janet_vars(tree, k)


def check_same_tree(grown, fresh):
    """The two Janet trees agree node by node: the largest exponent, the
    children by exponent and the ends, which are in canonical order."""
    if type(fresh) is tuple:
        assert grown == fresh
        return
    assert (grown.top, grown.ends) == (fresh.top, fresh.ends)
    assert list(grown.ends) == sorted(grown.ends, key=lambda h: (sum(h), h))
    assert grown.kids.keys() == fresh.kids.keys()
    for e, kid in fresh.kids.items():
        check_same_tree(grown.kids[e], kid)


@settings(PROPERTY, max_examples=300)
@given(term_sets(max_vars=5, max_exp=3, max_size=8), st.data())
def test_janet_insertion_in_any_order_matches_a_fresh_tree(drawn, data):
    # inserting the keys one at a time, in any order, keeps every member's
    # variables those of the definition, and the tree is the one built afresh
    # from the members so far in canonical order: the same nodes, the same
    # ends in canonical order, and the same answers of both descents
    members, probes = drawn
    order = data.draw(st.permutations(members))
    n = len(members[0])
    terms, tree, vars_of = [], _janet_tree(TermSet([], n)), {}
    for count, m in enumerate(order, 1):
        grow(terms, tree, vars_of, Term(m))
        so_far = order[:count]
        assert {k[::-1]: set(v) for k, v in vars_of.items()} == {
            o: brute_mult_vars(so_far, o) for o in so_far
        }
        fresh = _janet_tree(TermSet([Term(o) for o in so_far], n))
        check_same_tree(tree, fresh)
        prolongations = [o[:j] + (o[j] + 1,) + o[j + 1 :] for o in so_far for j in range(n)]
        for gamma in probes + so_far + prolongations:
            for descent in (_janet_head, _pommaret_head):
                assert descent(tree, gamma[::-1]) == descent(fresh, gamma[::-1])


@settings(PROPERTY, max_examples=500)
@given(term_sets(max_vars=4, max_exp=3, max_size=7))
# the third round finds x3 * (x1*x2) in the cone of x1*x3, whose variables
# are x1, x2; adding x2^2*x3 takes x2 from x1*x3, so that pair is queued
# again, and it is the next round's witness
@example(([(0, 0, 2), (0, 2, 0), (1, 0, 0)], [(0, 0, 0)]))
def test_the_worklist_finds_the_witness_of_a_fresh_scan(drawn):
    # janet_complete's worklist, driven round by round as the completion
    # drives it.  Before each round every non-multiplicative pair of the
    # members is queued or recorded under a head whose cone holds it, once;
    # each witness is the first uncovered pair of a fresh assignment and of
    # the brute-force scan, and stays queued.  Final sets alone do not tell a
    # worklist that misses a pair to queue again from this one; the
    # witnesses do
    members, _ = drawn
    M = TermSet([Term(m) for m in members])
    n, terms, tree = M.n, list(M), _janet_tree(M)
    worklist, before = _Worklist(tree, terms, n), {}
    while True:
        current = TermSet(terms, n)
        fresh = DivisionAssignment.janet(current)
        mult = {t.exponents: set(vars_) for t, vars_ in fresh.mult.items()}
        queued = [(k, j) for _, k, j in worklist.queue]
        recorded = [(k, j) for pairs in worklist.covers.values() for _, k, j in pairs]
        assert sorted(queued + recorded) == sorted(
            (tau.lex_key, j) for tau, j in _nonmultiplicative(fresh.mult.items(), n)
        )
        for h, pairs in worklist.covers.items():
            for _, k, j in pairs:
                assert tuple_covers(h[::-1], mult[h[::-1]], _bump(k, n - j)[::-1])
        if any(mult[m] != vars_ for m, vars_ in before.items()):
            event("an addition demoted a member")
        witness = worklist.first_uncovered()
        brute = brute_is_complete(list(mult), mult)
        if witness is None:
            assert fresh._uncovered is None and brute is None
            return
        d, k, j = witness
        assert (Term._of_key(k), j) == fresh._uncovered
        assert (k[::-1], j) == brute and d == sum(k)
        assert worklist.queue[0] == witness
        heads = {h for h, pairs in worklist.covers.items() if pairs}
        before, k = mult, _bump(k, n - j)
        assert Term._of_key(k) not in current
        terms.append(Term._of_key(k))
        worklist.add(k)
        if heads - worklist.covers.keys():
            event("an addition queued again the pairs a demoted member covered")


@settings(PROPERTY, max_examples=300)
@given(term_sets(max_vars=4, max_exp=3, max_size=7), st.sampled_from([2, 4, 6, 9, 12]))
def test_a_completion_hands_over_the_assignment_of_a_fresh_tree(drawn, cap):
    # the Janet assignment that a completed set carries is the one built
    # afresh on a copy of the set: the same variables in the same order, the
    # same tree node by node and the same cover answers.  Its witness is left
    # to its own scan, which finds none, as the brute-force scan does; a
    # capped completion's partial set carries no assignment
    members, probes = drawn
    try:
        C = janet_complete(TermSet([Term(m) for m in members]), cap)
    except DegreeCapExceeded as exc:
        event("the cap stopped the completion")
        assert exc.partial._janet is None
        return
    handed = DivisionAssignment.janet(C)
    assert handed is C._janet and handed.basis is C
    fresh = DivisionAssignment.janet(TermSet(list(C), C.n))
    assert list(handed.mult.items()) == list(fresh.mult.items())
    check_same_tree(handed._head.args[0], fresh._head.args[0])
    assert "_uncovered" not in vars(handed)
    assert handed._uncovered is None and fresh._uncovered is None
    mult = {tau.exponents: set(vars_) for tau, vars_ in handed.mult.items()}
    assert brute_is_complete(list(mult), mult) is None
    n = C.n
    prolongations = [o[:j] + (o[j] + 1,) + o[j + 1 :] for o in mult for j in range(n)]
    for gamma in probes + list(mult) + prolongations:
        assert handed.cover(Term(gamma)) == fresh.cover(Term(gamma))


def test_a_completed_set_runs_one_completeness_scan(monkeypatch):
    # is_complete, the Janet assignment, star_decompose, hilbert_function and
    # a marked set on a completed set share the assignment its completion
    # handed over, so one fresh completeness scan answers them all.  A set a
    # caller builds gets a fresh assignment on each request, and a marked set
    # on it builds its own
    scans = []
    scan = division._first_uncovered

    def counting(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(division, "_first_uncovered", counting)
    C = janet_complete(BROKEN_TRIPLE, 10)
    assert is_complete(C) == (True, None)
    A = DivisionAssignment.janet(C)
    assert hilbert_function(C, 2, A) == 1  # x2^2 alone is outside the ideal
    assert star_decompose(C, t(3, 1), A) == star_decompose(C, t(3, 1))
    assert make_marked_set(C).assignment is A
    assert len(scans) == 1
    M = ts((2, 0), (1, 1), (1, 2), (0, 3))
    assert M == C and M._janet is None
    assert DivisionAssignment.janet(M) is not DivisionAssignment.janet(M)
    G = make_marked_set(M)
    assert G.assignment is not make_marked_set(M).assignment
    assert G.assignment.mult == A.mult
    assert M._janet is None


@st.composite
def stability_candidates(draw):
    """(kind, members): sets of exponent tuples on both sides of stable
    completeness.  Random small sets, some with the term 1; nested Pommaret
    cones tau and tau * u with u in x_1..x_min(tau), such as {x2, x1*x2};
    the star sets of quasi-stable ideals, stable closures or ideals holding
    a power of each of x_2..x_n; and those star sets with a term dropped or
    a multiple of a member added."""
    kind = draw(st.sampled_from(["random", "nested", "star", "star-dropped", "star-extended"]))
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 2)] * n)

    def nonzero(k):
        return st.tuples(*[st.integers(0, 2)] * k).map(lambda e: e if any(e) else (1,) + e[1:])

    if kind == "random":
        members = set(draw(st.lists(exps, min_size=1, max_size=6)))
        if draw(st.booleans()):
            members.add((0,) * n)
    elif kind == "nested":
        tau = draw(exps)
        m = max(brute_pommaret_vars(tau))
        u = draw(nonzero(m)) + (0,) * (n - m)
        others = draw(st.lists(exps, max_size=3))
        members = {tau, tuple(a + b for a, b in zip(tau, u)), *others}
    else:
        gens = draw(st.lists(nonzero(n), min_size=1, max_size=3))
        if draw(st.booleans()):
            gens = stable_closure(gens, n)
        else:
            gens += [tuple(draw(st.integers(1, 3)) if i == j else 0 for i in range(n))
                     for j in range(1, n)]
        J = MonomialIdeal([Term(g) for g in gens], n)
        members = set(tuples_of(pommaret_basis(J)))
        if kind == "star-dropped" and len(members) > 1:
            members.discard(draw(st.sampled_from(sorted(members))))
        elif kind == "star-extended":
            tau = draw(st.sampled_from(sorted(members)))
            u = draw(nonzero(n))
            members.add(tuple(a + b for a, b in zip(tau, u)))
    return kind, sorted(members)


@PROPERTY
@given(stability_candidates())
def test_stable_completeness_matches_the_definition(drawn):
    # the Pommaret cones are disjoint and complete exactly when the set is
    # stably complete; a negative verdict carries the Janet path's witness:
    # the first uncovered prolongation, else the first mismatch of Janet and
    # Pommaret variables
    kind, members = drawn
    M = TermSet([Term(m) for m in members])
    ok, witness = brute_is_stably_complete(members)
    event(f"{kind}: {'stably complete' if ok else 'not stably complete'}")
    pommaret = DivisionAssignment.pommaret(M)
    assert (pommaret._nested is None and pommaret._uncovered is None) == ok
    expected = (True, None) if ok else (False, (Term(witness[0]), witness[1]))
    assert is_stably_complete(M) == expected
    janet = DivisionAssignment.janet(M)
    assert is_stably_complete(M, janet) == expected
    assert is_stably_complete(M, DivisionAssignment.pommaret(M)) == expected
    complete, uncovered = is_complete(M, janet)
    assert not ok or complete
    assert complete or witness == (uncovered[0].exponents, uncovered[1])


@PROPERTY
@given(term_sets(max_vars=4, max_exp=2, max_size=5))
def test_marked_set_lookup_answers_membership_and_factorization(drawn):
    # over a Janet completion, the one cover lookup is None exactly outside
    # the ideal and otherwise gives the scanning oracle's factorization
    members, probes = drawn
    lcm_degree = sum(max(col) for col in zip(*members))
    C = janet_complete(TermSet([Term(m) for m in members]), lcm_degree)
    G = make_marked_set(C)
    completed = tuples_of(C)
    mult = {m: brute_mult_vars(completed, m) for m in completed}
    for gamma in probes + completed:
        # the lookup takes and gives lex keys, the exponents from x_n down
        fact = G.decompose(gamma[::-1])
        assert G.decompose(gamma[::-1]) is fact
        if not tuple_in_ideal(members, gamma):
            assert fact is None
        else:
            assert fact is not None
            expected = brute_star_decompose(completed, mult, gamma)
            assert (fact[0][::-1], fact[1][::-1]) == expected


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


def test_lookups_refuse_a_foreign_assignment():
    # M0 = {x1^2, x1x2, x3}; an assignment answers for its own basis only,
    # and an equal set built apart counts as that basis
    assignment = DivisionAssignment.janet(M0)
    sub = ts((2, 0, 0), (1, 1, 0))
    for other in (sub, m_i(1)):
        with pytest.raises(ValueError):
            star_decompose(other, t(3, 1, 0), assignment)
        with pytest.raises(ValueError):
            is_complete(other, assignment)
        with pytest.raises(ValueError):
            is_stably_complete(other, assignment)
        with pytest.raises(ValueError):
            hilbert_function(other, 2, assignment)
    same = ts((0, 0, 1), (1, 1, 0), (2, 0, 0))
    assert star_decompose(same, t(1, 1, 1), assignment).head == t(0, 0, 1)
    assert is_complete(same, assignment) == (True, None)


def test_mismatched_variable_counts_are_rejected():
    with pytest.raises(MismatchedVariableCount):
        star_decompose(M0, t(1, 1))
    with pytest.raises(MismatchedVariableCount):
        DivisionAssignment.janet(M0).cover(t(1, 1))


def test_cover_lookups_on_an_empty_basis_find_no_head():
    # the root of the empty Janet tree has no child, not even at its largest
    # exponent: the Janet lookup finds no head, as the Pommaret one does, so
    # a term lies outside the ideal and reduces to itself in no step
    empty, x1 = TermSet([], 2), t(1, 0)
    assert DivisionAssignment.janet(empty).cover(x1) is None
    assert DivisionAssignment.pommaret(empty).cover(x1) is None
    with pytest.raises(NotInIdeal):
        star_decompose(empty, x1)
    trace = reduce(make_marked_set(empty), {x1: 1})
    assert (trace.steps, trace.result, trace.status) == ([], {x1: 1}, REDUCED)


@pytest.mark.parametrize(
    "call, expected",
    [
        # stable completeness needs completeness first: its witness is the
        # completeness witness
        (lambda: is_stably_complete(ts((1, 0), (0, 2))), (False, (t(1, 0), 2))),
        (lambda: janet_complete(TermSet([], 2), 5), ValueError),
    ],
    ids=["stably-complete-of-an-incomplete-set", "completion-of-the-empty-set"],
)
def test_division_input_edge_cases(call, expected):
    assert outcome(call) == expected
