import random
from fractions import Fraction
from math import comb, gcd
from unittest.mock import patch

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from involutive import (
    CYCLE_DETECTED,
    REDUCED,
    DegreeMismatch,
    HeadNotInM,
    MismatchedVariableCount,
    MonomialIdeal,
    NonHomogeneousInput,
    NotComplete,
    NotStablyComplete,
    ParamPolynomial,
    TailInIdeal,
    Term,
    TermSet,
    WorkBudgetExceeded,
    MarkedPolynomial,
    build_Gs,
    escalier_slice,
    generic_marked_set,
    is_marked_basis,
    janet_complete,
    make_marked_set,
    oracle_check,
    pommaret_basis,
    prolongation_residues,
    reduce,
    terms_of_degree,
    variable,
)
from involutive import _linalg, errors, marked
from involutive.terms import _lex_keys
from helpers import (
    brute_build_Gs,
    dense_in_rowspace,
    dense_oracle_check,
    dense_rank,
    dense_rref,
    dense_vector,
    exp_tuples,
    ideal_count,
    outcome,
    padd,
    pmul,
    pscale,
    psub,
    random_quasi_stable,
    random_tails,
    reference_reduce,
    solve_coords,
    stable_closure,
)


def t(*exps):
    return Term(exps)


def fr(x):
    return Fraction(x)


EXAMPLE_F = TermSet([t(3, 0), t(1, 1), t(1, 2), t(0, 3)])
EXAMPLE_TAILS = {t(1, 1): {t(2, 0): fr(-1), t(0, 2): fr(-1)}}


def example_basis():
    return make_marked_set(EXAMPLE_F, EXAMPLE_TAILS)


def cycle_set():
    M = TermSet([t(1, 0, 1), t(0, 1, 1), t(0, 2, 0)])
    return make_marked_set(
        M,
        {
            t(1, 0, 1): {t(1, 1, 0): fr(-1)},
            t(0, 1, 1): {t(0, 0, 2): fr(-1)},
        },
    )


def test_make_marked_set_valid():
    G = example_basis()
    assert len(G) == 4
    assert G.polys[t(1, 1)].tail == {t(2, 0): fr(-1), t(0, 2): fr(-1)}
    assert G.polys[t(3, 0)].tail == {}


def test_make_marked_set_zero_tails():
    G = make_marked_set(EXAMPLE_F)
    assert all(not p.tail for p in G)


def test_make_marked_set_rejects_bad_tails():
    with pytest.raises(DegreeMismatch):
        make_marked_set(EXAMPLE_F, {t(1, 1): {t(2, 1): fr(1)}})
    with pytest.raises(TailInIdeal):
        make_marked_set(EXAMPLE_F, {t(0, 3): {t(2, 1): fr(1)}})
    with pytest.raises(HeadNotInM):
        make_marked_set(EXAMPLE_F, {t(2, 0): {t(0, 2): fr(1)}})


def test_reduce_leaves_escalier_supported_input_alone():
    G = example_basis()
    h = {t(2, 0): fr(3), t(0, 2): fr(-2)}
    trace = reduce(G, h)
    assert trace.status == REDUCED
    assert trace.steps == []
    assert trace.result == h


def test_reduce_prolongation_traces():
    G = example_basis()
    y = t(0, 1)
    # y * f_{x^3} rewrites through x^2 f_{xy}, then x f_{xy^2}, then x f_{x^3}
    trace = reduce(G, G.polys[t(3, 0)].times(y))
    assert trace.status == REDUCED and not trace.result
    used = [(s.head, s.cofactor) for s in trace.steps]
    assert used == [(t(1, 1), t(2, 0)), (t(1, 2), t(1, 0)), (t(3, 0), t(1, 0))]
    # y * f_{xy} rewrites through x f_{xy}, then f_{y^3}, then f_{x^3}
    trace = reduce(G, G.polys[t(1, 1)].times(y))
    assert trace.status == REDUCED and not trace.result
    used = [(s.head, s.cofactor) for s in trace.steps]
    assert used == [(t(1, 1), t(1, 0)), (t(0, 3), t(0, 0)), (t(3, 0), t(0, 0))]
    # y * f_{xy^2} is x f_{y^3}
    trace = reduce(G, G.polys[t(1, 2)].times(y))
    assert trace.status == REDUCED and not trace.result
    assert [(s.head, s.cofactor) for s in trace.steps] == [(t(0, 3), t(1, 0))]


def test_reduce_replay_reproduces_result():
    G = example_basis()
    rng = random.Random(59)
    for _ in range(20):
        d = rng.randint(2, 5)
        h = {}
        for term in terms_of_degree(2, d):
            if rng.random() < 0.4:
                h[term] = Fraction(rng.randint(-3, 3))
        h = {k: v for k, v in h.items() if v}
        trace = reduce(G, h)
        assert trace.status == REDUCED
        replayed = dict(h)
        for step in trace.steps:
            replayed = psub(
                replayed,
                pscale(pmul({step.head: 1, **G.polys[step.head].tail}, step.cofactor), step.coefficient),
            )
        assert replayed == trace.result
        assert all(not G.contains(term) for term in trace.result)


def test_reduce_detects_two_cycle():
    G = cycle_set()
    trace = reduce(G, {t(1, 0, 2): fr(1)})
    assert trace.status == CYCLE_DETECTED
    assert len(trace.steps) == 2
    assert [(s.head, s.cofactor) for s in trace.steps] == [
        (t(1, 0, 1), t(0, 0, 1)),
        (t(0, 1, 1), t(1, 0, 0)),
    ]


def test_the_cycle_detector_charges_the_states_it_keeps(monkeypatch):
    # the two-cycle keeps two states of one term with coefficient 1 before
    # it closes: one term and one coefficient word each
    G, h = cycle_set(), {t(1, 0, 2): fr(1)}
    monkeypatch.setattr(errors, "_WORK_BUDGET", 4)
    assert reduce(G, h).status == CYCLE_DETECTED
    monkeypatch.setattr(errors, "_WORK_BUDGET", 3)
    with pytest.raises(WorkBudgetExceeded) as info:
        reduce(G, h)
    assert (info.value.estimate, info.value.budget) == (4, 3)
    # over a stably complete basis no state is kept, and each step is charged
    # the terms the next scan reads: x1^3x2 has one, then two, one and none
    B = example_basis()
    h = B.polys[t(3, 0)].times(t(0, 1))
    monkeypatch.setattr(errors, "_WORK_BUDGET", 4)
    assert reduce(B, h).status == REDUCED
    monkeypatch.setattr(errors, "_WORK_BUDGET", 3)
    with pytest.raises(WorkBudgetExceeded) as info:
        reduce(B, h)
    assert (info.value.estimate, info.value.budget) == (4, 3)
    # 65 + 2 bits of a rational take two words; any other coefficient one
    state = {t(1, 0, 2): Fraction(2**64, 3), t(0, 1, 2): ParamPolynomial.constant(5)}
    assert marked._state_size(state) == 2 + 2 + 1


def test_reduce_rejects_mixed_degrees():
    G = example_basis()
    with pytest.raises(NonHomogeneousInput):
        reduce(G, {t(1, 1): fr(1), t(0, 3): fr(1)})


def test_reduce_step_cap():
    G = example_basis()
    h = G.polys[t(3, 0)].times(t(0, 1))  # needs three rewrites
    trace = reduce(G, h, step_cap=1)
    assert trace.status == "step-limit"
    assert len(trace.steps) == 1
    assert reduce(G, h, step_cap=3).status == REDUCED


def test_reduce_zero_input():
    trace = reduce(example_basis(), {})
    assert trace.status == REDUCED and trace.result == {} and trace.steps == []


def test_build_Gs_example():
    G = example_basis()
    entries = build_Gs(G, 3)
    assert [head.exponents for head, _ in entries] == [(3, 0), (2, 1), (1, 2), (0, 3)]
    for head, poly in entries:
        assert poly[head] == 1
    assert build_Gs(G, 1) == []
    gens = [f.exponents for f in EXAMPLE_F]
    for s in (2, 3, 4, 5):
        assert len(build_Gs(G, s)) == ideal_count(gens, G.n, s)


def test_build_Gs_counts_its_multiples_before_listing_them(monkeypatch):
    # (x1^3, x1x2, x1x2^2, x2^3) holds all 6 terms of degree 5
    G = example_basis()
    monkeypatch.setattr(errors, "_WORK_BUDGET", 6)
    assert len(build_Gs(G, 5)) == 6
    monkeypatch.setattr(errors, "_WORK_BUDGET", 5)
    with pytest.raises(WorkBudgetExceeded) as info:
        build_Gs(G, 5)
    assert (info.value.estimate, info.value.budget) == (6, 5)
    # at degree 10**6: one multiple of each head in x1 alone, and the
    # 10**6 - 2 of x2^3 in x1, x2; refused before one is listed
    monkeypatch.undo()
    with pytest.raises(WorkBudgetExceeded) as info:
        build_Gs(G, 10**6)
    assert info.value.estimate == 3 + 10**6 - 2


def test_is_marked_basis_on_the_mixed_tail_example():
    result = is_marked_basis(example_basis())
    assert result.is_basis
    assert [(c.head, c.variable) for c in result.checks] == [
        (t(1, 1), 2),
        (t(3, 0), 2),
        (t(1, 2), 2),
    ]
    assert all(c.ok for c in result.checks)


def test_is_marked_basis_zero_tails():
    assert is_marked_basis(make_marked_set(EXAMPLE_F)).is_basis


def test_is_marked_basis_needs_stably_complete_basis():
    with pytest.raises(NotStablyComplete):
        is_marked_basis(cycle_set())


def test_oracle_check_examples():
    assert oracle_check(example_basis(), 5)
    assert oracle_check(make_marked_set(EXAMPLE_F), 5)


def test_oracle_counts_its_work_before_the_first_degree(monkeypatch):
    # the terms of P_s and the plain multiples f * eta for every s <= 5
    G = example_basis()
    work = sum(
        len(list(terms_of_degree(2, s - e)))
        for s in range(6)
        for e in [0] + [head.degree for head in G.basis]
        if s >= e
    )
    monkeypatch.setattr(errors, "_WORK_BUDGET", work)
    assert oracle_check(G, 5)
    monkeypatch.setattr(errors, "_WORK_BUDGET", work - 1)
    monkeypatch.setattr(marked, "build_Gs", None)
    with pytest.raises(WorkBudgetExceeded) as info:
        oracle_check(G, 5)
    assert (info.value.estimate, info.value.budget) == (work, work - 1)


def test_oracle_and_criterion_agree_with_direct_sum_property():
    rng = random.Random(61)
    for _ in range(25):
        J, basis = random_quasi_stable(rng, max_reg=4)
        G = make_marked_set(basis, random_tails(rng, J, basis))
        reg = basis.max_degree()
        verdict = is_marked_basis(G).is_basis
        assert verdict == oracle_check(G, reg + 1)
        # the direct sum holds for every marked set, basis or not
        for s in range(1, reg + 2):
            cols = list(terms_of_degree(G.n, s))
            index = {term: i for i, term in enumerate(cols)}
            rows = []
            for _, poly in build_Gs(G, s):
                vec = [Fraction(0)] * len(cols)
                for term, c in poly.items():
                    vec[index[term]] = Fraction(c)
                rows.append(vec)
            outside = len(escalier_slice(J, s))
            assert dense_rank(rows) + outside == len(cols)


def test_nonzero_combinations_of_span_generators_touch_the_ideal():
    rng = random.Random(67)
    G = example_basis()
    for s in (3, 4, 5):
        entries = build_Gs(G, s)
        for _ in range(30):
            chosen = [e for e in entries if rng.random() < 0.6]
            if not chosen:
                continue
            combo = {}
            for _, poly in chosen:
                combo = padd(combo, pscale(poly, Fraction(rng.choice([-2, -1, 1, 2]))))
            assert combo
            assert any(G.contains(term) for term in combo)


def test_residue_matches_oracle_linear_solve():
    rng = random.Random(71)
    instances = [example_basis(), make_marked_set(EXAMPLE_F)]
    for _ in range(6):
        J, basis = random_quasi_stable(rng, max_reg=4)
        instances.append(make_marked_set(basis))  # zero tails: always a basis
    for G in instances:
        basis = G.basis
        assert is_marked_basis(G).is_basis
        s = min(basis.max_degree() + 1, 5)
        cols = list(terms_of_degree(G.n, s))
        index = {term: i for i, term in enumerate(cols)}
        star_rows = []
        for _, poly in build_Gs(G, s):
            vec = [Fraction(0)] * len(cols)
            for term, c in poly.items():
                vec[index[term]] = Fraction(c)
            star_rows.append(vec)
        outside = [term for term in cols if not G.contains(term)]
        unit_rows = []
        for term in outside:
            vec = [Fraction(0)] * len(cols)
            vec[index[term]] = Fraction(1)
            unit_rows.append(vec)
        h = {
            term: Fraction(rng.randint(-3, 3))
            for term in cols
            if rng.random() < 0.5
        }
        h = {k: v for k, v in h.items() if v}
        trace = reduce(G, h)
        assert trace.status == REDUCED
        target = [Fraction(h.get(term, 0)) for term in cols]
        coords = solve_coords(star_rows + unit_rows, target)
        assert coords is not None
        solved = {
            term: coords[len(star_rows) + i]
            for i, term in enumerate(outside)
            if coords[len(star_rows) + i]
        }
        assert solved == trace.result
        # h minus its residue lies in the span of the star multiples
        diff = psub(h, trace.result)
        vec = [Fraction(diff.get(term, 0)) for term in cols]
        basis_rows, pivots = dense_rref(star_rows)
        assert dense_in_rowspace(vec, basis_rows, pivots)


def test_failing_marked_set_has_nonzero_residue_certificate():
    # z*(yz + x^2) rewrites to -x^2*y, which nothing can cancel
    J = MonomialIdeal([t(0, 2, 0), t(0, 1, 1), t(0, 0, 2)])
    basis = pommaret_basis(J)
    G = make_marked_set(basis, {t(0, 1, 1): {t(2, 0, 0): fr(1)}})
    result = is_marked_basis(G)
    assert not result.is_basis
    bad = [c for c in result.checks if not c.ok]
    assert bad and all(c.trace.result for c in bad)
    assert not oracle_check(G, basis.max_degree() + 1)


NONZERO = [Fraction(c, d) for c in (1, -1, 2, -2) for d in (1, 2)]


def draw_marked_set(data):
    """A marked set on (x2..xn)^d or on the stable closure of drawn generators,
    with random tails on the escalier: bases and non-bases alike."""
    n = data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        d = data.draw(st.integers(1, 3))
        gens = [(0,) + e for e in exp_tuples(n - 1, d)] if n > 1 else [(d,)]
    else:
        # each generator a multiset of 1..3 variables
        term = st.lists(st.integers(1, n), min_size=1, max_size=3)
        drawn = data.draw(st.lists(term, min_size=1, max_size=3))
        gens = stable_closure([tuple(vs.count(i) for i in range(1, n + 1)) for vs in drawn], n)
    J = MonomialIdeal([Term(g) for g in gens], n)
    basis = pommaret_basis(J)
    slots = [(head, beta) for head in basis for beta in escalier_slice(J, head.degree)]
    coeff = st.sampled_from([Fraction(0)] + NONZERO)
    values = data.draw(st.lists(coeff, min_size=len(slots), max_size=len(slots)))
    tails = {head: {} for head in basis}
    for (head, beta), c in zip(slots, values):
        tails[head][beta] = c
    return make_marked_set(basis, tails)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_sparse_oracle_matches_the_dense_oracle(data):
    G = draw_marked_set(data)
    top = G.basis.max_degree() + data.draw(st.integers(1, 2))
    assert oracle_check(G, top) == dense_oracle_check(G, top)


def dense_slice(G, s, escalier):
    """The columns of P_s, the dense rows of G^(s) and the unit rows of the
    terms in ``escalier``."""
    cols = list(terms_of_degree(G.n, s))
    star = [dense_vector(poly, cols) for _, poly in brute_build_Gs(G, s)]
    return cols, star, [dense_vector({t: 1}, cols) for t in escalier]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_oracle_failure_names_a_multiple_outside_the_span(data):
    # the first failing degree, below which the dense oracle passes, with a
    # plain multiple that raises the dense rank of G^(s), or the ranks of the
    # direct-sum test as the dense elimination finds them; a basis reports none
    G = draw_marked_set(data)
    top = G.basis.max_degree() + data.draw(st.integers(1, 2))
    failure = marked._oracle_failure(G, top)
    assert (failure is None) == dense_oracle_check(G, top)
    if failure is None:
        return
    s = failure.degree
    assert dense_oracle_check(G, s - 1)
    escalier = [t for t in terms_of_degree(G.n, s) if not G.contains(t)]
    cols, star, units = dense_slice(G, s, escalier)
    if failure.multiple is None:
        ranks = (dense_rank(star), dense_rank(units), dense_rank(star + units), len(cols))
        assert failure.ranks == ranks
    else:
        head, eta = failure.multiple
        multiple = dense_vector(G.polys[head].times(eta), cols)
        assert dense_rank(star + [multiple]) == dense_rank(star) + 1


def test_oracle_failure_reports_the_ranks_of_a_faulty_escalier(monkeypatch):
    # over a stably complete basis every term of J_s reduces into the
    # escalier, so G^(s) and N(J)_s always fill P_s as a direct sum: only a
    # faulty escalier reaches the rank witness.  One that drops its last
    # term leaves P_s unfilled, and one that lists the whole slice meets
    # G^(s); the ranks are those of the rows the oracle was given
    G = example_basis()
    escalier = marked._escalier_keys
    for faulty in (lambda M, d: escalier(M, d)[:-1], lambda M, d: list(_lex_keys(M.n, d))):
        monkeypatch.setattr(marked, "_escalier_keys", faulty)
        failure = marked._oracle_failure(G, 5)
        assert failure.multiple is None
        s = failure.degree
        cols, star, units = dense_slice(G, s, map(Term._of_key, faulty(G.basis, s)))
        assert failure.ranks == (dense_rank(star), len(units), dense_rank(star + units), len(cols))
    monkeypatch.undo()
    assert marked._oracle_failure(G, 5) is None


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_build_Gs_lists_the_slice_probe(data):
    # the multiplicative cones give the same entries, in the same order, as a
    # probe of every slice term for its Pommaret cover
    G = draw_marked_set(data)
    for s in range(1, G.basis.max_degree() + 2):
        assert build_Gs(G, s) == brute_build_Gs(G, s)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.data())
def test_criterion_reductions_end_within_their_degree(data):
    # over a stably complete basis the rewritten (cofactor, term) keys strictly
    # decrease: no term is rewritten twice, so the degree's term count bounds
    # every trace and the criterion needs no step cap
    G = draw_marked_set(data)
    result = is_marked_basis(G)
    for check in result.checks:
        steps = check.trace.steps
        assert check.trace.status == REDUCED
        assert len({s.term for s in steps}) == len(steps)
        assert len(steps) <= comb(check.head.degree + G.n, G.n - 1)
    assert result.is_basis == oracle_check(G, G.basis.max_degree() + 1)


def draw_complete_marked_set(data):
    """A marked set on the Janet completion of drawn terms in 3 variables, with
    random tails outside its ideal: complete, and often not stably complete."""
    term = st.lists(st.integers(1, 3), min_size=1, max_size=3)
    drawn = data.draw(st.lists(term, min_size=1, max_size=3))
    M = janet_complete(TermSet([tuple(vs.count(i) for i in (1, 2, 3)) for vs in drawn]), 12)
    coeff = st.sampled_from([Fraction(0)] + NONZERO)
    tails = {}
    for head in M:
        outside = [g for g in terms_of_degree(3, head.degree) if not M.generates(g)]
        tails[head] = {g: data.draw(coeff) for g in outside}
    return make_marked_set(M, tails)


def in_sort_key_order(poly):
    return list(poly) == sorted(poly, key=lambda t: t.sort_key)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_tails_results_and_residues_come_in_sort_key_order(data):
    # poly_json emits these maps in their own order, so each producer must
    # keep its terms in (degree, lex) order whatever order it was given
    stably = data.draw(st.booleans())
    G = draw_marked_set(data) if stably else draw_complete_marked_set(data)
    for f in G:
        assert in_sort_key_order(f.tail)
        shuffled = dict(data.draw(st.permutations(list(f.tail.items()))))
        assert in_sort_key_order(MarkedPolynomial(f.head, shuffled).tail)
    d = data.draw(st.integers(0, G.basis.max_degree() + 1))
    slice_terms = list(terms_of_degree(G.n, d))
    support = data.draw(st.lists(st.sampled_from(slice_terms), min_size=1, unique=True))
    h = {g: data.draw(st.sampled_from(NONZERO)) for g in support}
    assert in_sort_key_order(reduce(G, h, step_cap=40).result)
    if stably:
        gm = generic_marked_set(MonomialIdeal(G.basis.terms, G.n))
        for _, _, residue in prolongation_residues(gm):
            assert in_sort_key_order(residue)


MIXED = NONZERO + [1, -1, 2, 3]


def draw_reduction(data):
    """A marked set and a polynomial to reduce, with int and Fraction
    coefficients: on a stably complete set (a prolongation or a drawn
    polynomial), on a complete one, or on the cycle basis with tails -c and
    -e, which returns x1*x3^2 to c*e times itself and so cycles when c*e = 1."""
    source = data.draw(st.sampled_from(("stable", "complete", "cycle")))
    if source == "cycle":
        c = data.draw(st.sampled_from(NONZERO))
        e = 1 / c if data.draw(st.booleans()) else data.draw(st.sampled_from(NONZERO))
        G = make_marked_set(
            cycle_set().basis, {t(1, 0, 1): {t(1, 1, 0): -c}, t(0, 1, 1): {t(0, 0, 2): -e}}
        )
        extra = data.draw(st.lists(st.sampled_from(list(terms_of_degree(3, 3))), unique=True))
        h = {g: data.draw(st.sampled_from(MIXED)) for g in [t(1, 0, 2), *extra]}
        return G, h
    G = draw_marked_set(data) if source == "stable" else draw_complete_marked_set(data)
    if source == "stable" and data.draw(st.booleans()):
        head = data.draw(st.sampled_from(G.basis.terms))
        return G, G.polys[head].times(variable(G.n, data.draw(st.integers(1, G.n))))
    d = data.draw(st.integers(0, G.basis.max_degree() + 1))
    slice_terms = list(terms_of_degree(G.n, d))
    support = data.draw(st.lists(st.sampled_from(slice_terms), min_size=1, unique=True))
    return G, {g: data.draw(st.sampled_from(MIXED)) for g in support}


def assert_same_trace(got, want):
    assert got.status == want.status
    assert [(s.term, s.head, s.cofactor) for s in got.steps] == [
        (s.term, s.head, s.cofactor) for s in want.steps
    ]
    assert [(type(s.coefficient), s.coefficient) for s in got.steps] == [
        (type(s.coefficient), s.coefficient) for s in want.steps
    ]
    assert [(t, type(c), c) for t, c in got.result.items()] == [
        (t, type(c), c) for t, c in want.result.items()
    ]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_keyed_reduce_matches_the_term_keyed_reference(data):
    # the same trace as the reduction on Term-keyed maps: every step, each
    # coefficient's value and type, the result in sort_key order and the
    # status, whether it reduces, cycles or hits the step cap
    G, h = draw_reduction(data)
    cap = data.draw(st.integers(1, 30))
    assert_same_trace(reduce(G, h, step_cap=cap), reference_reduce(G, h, cap))
    if G.stable_completeness[0]:
        # the criterion's prolongations carry their head's coefficient as the int 1
        for check in is_marked_basis(G).checks:
            h = G.polys[check.head].times(variable(G.n, check.variable))
            cap = comb(check.head.degree + G.n, G.n - 1)
            assert_same_trace(check.trace, reference_reduce(G, h, cap))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_the_cycle_detector_compares_states_exactly_when_codes_collide(data):
    # with every state's code 0, each kept state shares one bucket and only
    # the exact comparison tells two states apart: the traces stay those of
    # the reference, which keeps its states in a set
    G, h = draw_reduction(data)
    cap = data.draw(st.integers(1, 30))
    with patch.object(marked, "_state_code", lambda k, c: 0):
        got = reduce(G, h, step_cap=cap)
    assert_same_trace(got, reference_reduce(G, h, cap))
    if not G.stable_completeness[0]:
        event(f"a tracked reduction ends {got.status}")


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_integer_elimination_matches_the_dense_rank(data):
    # sparse rows on tuple keys with int and Fraction coefficients, zero rows
    # and repeated rows: the fraction-free echelon form has the dense rank,
    # its rows are primitive integer rows led by their pivots, and row-space
    # membership agrees with the dense test
    width = data.draw(st.integers(1, 3))
    keys = data.draw(
        st.lists(st.tuples(*[st.integers(0, 2)] * width), min_size=1, max_size=6, unique=True)
    )
    fraction = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    coeff = st.one_of(st.integers(-4, 4), fraction)
    row = st.dictionaries(st.sampled_from(keys), coeff, max_size=len(keys))
    rows = data.draw(st.lists(row, max_size=6))
    if rows:
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=3))
    pivots = _linalg.rref(rows, {})
    dense = [dense_vector(r, keys) for r in rows]
    assert len(pivots) == dense_rank(dense)
    for lead, pivot in pivots.items():
        assert max(pivot) == lead and all(type(c) is int for c in pivot.values())
        assert gcd(*pivot.values()) == 1
    basis, cols = dense_rref(dense)
    probes = data.draw(st.lists(row, max_size=4))
    if rows:
        # a combination of the rows, which lies in their span
        scales = data.draw(st.lists(coeff, min_size=len(rows), max_size=len(rows)))
        combo = {}
        for r, a in zip(rows, scales):
            combo = padd(combo, pscale(r, a))
        probes.append(combo)
    for probe in probes:
        assert _linalg.in_rowspace(probe, pivots) == dense_in_rowspace(
            dense_vector(probe, keys), basis, cols
        )


def test_oracle_bound_must_pass_the_top_basis_degree():
    # J = (x1*x2, x2^2), x1*x2 marked with tail x1^2: x2*(x1*x2 + x1^2)
    # reduces to -x1^3, a degree-3 failure that the degree-2 slices cannot see
    basis = pommaret_basis(MonomialIdeal([t(1, 1), t(0, 2)]))
    G = make_marked_set(basis, {t(1, 1): {t(2, 0): fr(1)}})
    assert not is_marked_basis(G).is_basis
    assert not oracle_check(G, 3)
    with pytest.raises(ValueError, match="does not exceed the largest basis degree 2"):
        oracle_check(G, 2)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: reduce(example_basis(), {t(1, 1, 0): fr(1)}), MismatchedVariableCount),
        (lambda: reduce(example_basis(), {t(1, 1): fr(1)}, step_cap=0), ValueError),
        # x1 * x2 lies in (x1, x2^2) but in no Janet cone of it
        (lambda: reduce(make_marked_set([t(1, 0), t(0, 2)]), {t(1, 1): fr(1)}), NotComplete),
        (lambda: make_marked_set([t(0, 1), t(1, 0)]).basis, TermSet([t(1, 0), t(0, 1)])),
        (lambda: make_marked_set(EXAMPLE_F, {t(1, 1): {t(2, 0, 0): fr(1)}}), MismatchedVariableCount),
    ],
    ids=[
        "reduce-a-foreign-term",
        "reduce-with-no-steps",
        "reduce-over-an-incomplete-basis",
        "marked-set-from-a-list",
        "tail-term-of-a-foreign-size",
    ],
)
def test_marked_input_edge_cases(call, expected):
    assert outcome(call) == expected
