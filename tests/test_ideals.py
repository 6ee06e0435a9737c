import ast
import json
import random
import time
from math import comb
from pathlib import Path

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import involutive
from involutive import (
    ESCALIER,
    IDEAL_SLICE,
    DivisionAssignment,
    MismatchedVariableCount,
    MonomialIdeal,
    NotComplete,
    NotQuasiStable,
    StabilityWitness,
    Term,
    WorkBudgetExceeded,
    TermSet,
    classify,
    escalier_slice,
    hilbert_function,
    involutive_test,
    janet_complete,
    pommaret_basis,
    sigma_profile,
    star_set,
    terms_of_degree,
)
from involutive import errors, ideals, make_marked_set
from involutive.ideals import _fit_power, pommaret_termination_degree, sigma_totals
from involutive.serialize import parse_ideal
from involutive.terms import _escalier_keys
from helpers import (
    exp_tuples,
    brute_escalier,
    brute_fit_power,
    brute_is_stably_complete,
    brute_quasi_stable_fits,
    brute_sigma,
    brute_stability_witnesses,
    brute_star_set,
    stable_closure,
    escalier_count,
    ideal_count,
    outcome,
    random_ideal,
    random_term_of_degree,
    tuple_divides,
    tuple_in_ideal,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def t(*exps):
    return Term(exps)


def ideal(*gens):
    return MonomialIdeal([Term(g) for g in gens])


STABLE = ideal((0, 0, 1), (0, 2, 0))          # (z, y^2)
QUASI = ideal((0, 0, 2), (0, 1, 0))           # (z^2, y)
NOT_QUASI = MonomialIdeal([t(0, 1, 0)], 3)    # (y) in three variables
MARKED_EXAMPLE = ideal((3, 0), (1, 1), (0, 3))
TWO_PARAMS = ideal((2, 0), (1, 1), (0, 3))


def test_membership():
    J = MonomialIdeal([t(1, 0)])
    assert J.contains(t(1, 5))
    assert not J.contains(t(0, 5))
    J2 = ideal((0, 0, 1), (0, 2, 0))
    assert J2.contains(t(0, 1, 1))


def test_minimal_generators_computed_on_load():
    J = ideal((1, 0), (2, 3), (1, 1))
    assert [g.exponents for g in J.generators] == [(1, 0)]


def test_term_set_must_match_the_variable_count():
    gens = TermSet([t(1, 0), t(0, 2)])
    assert MonomialIdeal(gens, 2).n == 2
    with pytest.raises(MismatchedVariableCount):
        MonomialIdeal(gens, 3)
    # the generators are read as one TermSet, whichever form they come in:
    # repeats, a non-minimal term and degrees out of order
    exps = [(0, 2), (1, 1), (0, 2), (2, 1), (3, 0)]
    J = MonomialIdeal(TermSet(map(Term, exps)))
    for given in ([Term(e) for e in exps], exps):
        other = MonomialIdeal(given)
        assert (other.generators, other._fit_index) == (J.generators, J._fit_index)
    with pytest.raises(MismatchedVariableCount):
        MonomialIdeal([t(1, 0), t(0, 1, 0)])
    with pytest.raises(ValueError):
        MonomialIdeal([])


def test_star_set_principal_ideal_truncation():
    J = MonomialIdeal([t(1, 0)])
    terms, exhaustive = star_set(J, 5)
    assert [x.exponents for x in terms] == [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)]
    assert not exhaustive


def test_star_set_examples():
    terms, exhaustive = star_set(QUASI, 6)
    assert terms == TermSet([t(0, 0, 2), t(0, 1, 1), t(0, 1, 0)])
    assert not exhaustive  # bound below the certified termination degree
    terms, exhaustive = star_set(QUASI, pommaret_termination_degree(QUASI) - 1)
    assert terms == TermSet([t(0, 0, 2), t(0, 1, 1), t(0, 1, 0)])
    assert exhaustive
    terms, exhaustive = star_set(STABLE, 6)
    assert terms == STABLE.generators
    assert exhaustive


def test_star_set_flag_needs_the_termination_bound():
    # the star set of (y, x^5) has degrees {1, 5}: a short empty window alone
    # must not be taken as proof of exhaustion
    J = ideal((0, 1), (5, 0))
    d = pommaret_termination_degree(J)
    terms, exhaustive = star_set(J, 2)
    assert [x.exponents for x in terms] == [(0, 1)]
    assert not exhaustive
    terms, exhaustive = star_set(J, d - 1)
    assert exhaustive
    assert [x.exponents for x in terms] == [(0, 1), (5, 0)]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: star_set also demands a bound of at least the Pommaret "
    "termination degree less 1 (here 9); the fix, exhaustive = not beyond, moves the "
    "R/qs*/star_set digests and lands with that item's re-pin, and must flip this test",
)
def test_star_set_reports_an_exhaustive_truncation_as_exhaustive():
    # at bound 3 the search finds all 9 terms of the Pommaret basis and no
    # star term of degree 4, so by the division closure there is none above
    J = ideal((0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (0, 1, 0, 1), (1, 1, 0, 0))
    terms, exhaustive = star_set(J, 3)
    assert terms == pommaret_basis(J) and len(terms) == 9
    assert pommaret_termination_degree(J) == 10
    assert exhaustive


def test_star_set_matches_the_dense_scan():
    # the pruned search against a dense scan of every degree, on seeded
    # quasi-stable and non-quasi-stable ideals, for every bound 1..d+n
    rng = random.Random(59)
    kinds = {True: 0, False: 0}
    while min(kinds.values()) < 12:
        J = random_ideal(rng, max_vars=4, max_gens=4, max_deg=4)
        if J.generators.max_degree() == 0:
            continue
        quasi = classify(J).quasi_stable
        d = pommaret_termination_degree(J) if quasi else J.generators.max_degree() + J.n
        if d > 12 or kinds[quasi] >= 12:
            continue
        kinds[quasi] += 1
        n = J.n
        gens = [g.exponents for g in J.generators]
        brute = brute_star_set(gens, n, d + 2 * n)
        for D in range(1, d + n + 1):
            terms, exhaustive = star_set(J, D)
            assert {x.exponents for x in terms} == {x for x in brute if sum(x) <= D}
            window = [x for x in brute if D < sum(x) <= D + n]
            expected = quasi and D >= d - 1 and not window
            assert exhaustive == expected, (J, D)


def test_star_set_of_a_principal_ideal_at_a_huge_bound():
    J = MonomialIdeal([t(0, 0, 1)], 3)
    assert star_set(J, 400) == (TermSet([t(0, 0, 1)]), True)


def test_star_search_counts_its_nodes_against_the_budget(monkeypatch):
    # (x1) in 3 variables: one node per star term x1 * eta, eta of degree
    # below 10 in x2, x3, which makes 1 + 2 + ... + 10 = 55 nodes
    J = MonomialIdeal([t(1, 0, 0)], 3)
    monkeypatch.setattr(errors, "_WORK_BUDGET", 55)
    assert len(star_set(J, 10)[0]) == 55
    monkeypatch.setattr(errors, "_WORK_BUDGET", 54)
    for call in (lambda: star_set(J, 10), lambda: sigma_profile(J, 10)):
        with pytest.raises(WorkBudgetExceeded) as info:
            call()
        assert (info.value.estimate, info.value.budget) == (55, 54)
    # a quasi-stable ideal's search stops at its finite star set, at any degree
    monkeypatch.setattr(errors, "_WORK_BUDGET", 1)
    assert sum(sigma_profile(MonomialIdeal([t(0, 0, 1)], 3), 10**6).counts) == comb(10**6 + 1, 2)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_minimal_generators_match_brute_force(data):
    # repeats, terms of one degree and mixed degrees: each candidate is tested
    # only against the kept generators of lower degree
    n = data.draw(st.integers(1, 4))
    gens = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=12))
    gens += data.draw(st.lists(st.sampled_from(gens), max_size=4))
    minimal = [g for g in gens if not any(h != g and tuple_divides(h, g) for h in gens)]
    assert MonomialIdeal([Term(g) for g in gens], n).generators == TermSet(minimal, n)


def test_classify_of_a_large_power_of_the_maximal_ideal_is_quick():
    # m^120 in 3 variables: its 7,381 generators share one degree, so none is
    # tested against another while they are minimalised
    start = time.perf_counter()
    J = MonomialIdeal(terms_of_degree(3, 120), 3)
    assert len(J.generators) == comb(122, 2)
    assert classify(J).strongly_stable
    assert time.perf_counter() - start < 2


def test_escalier_slice_counts_its_terms_before_listing_them(monkeypatch):
    J = MonomialIdeal([t(2, 0), t(1, 1), t(0, 3)], 2)
    monkeypatch.setattr(errors, "_WORK_BUDGET", 4)
    assert escalier_slice(J, 3) == []  # the 4 terms of degree 3 are scanned
    monkeypatch.setattr(errors, "_WORK_BUDGET", 3)
    with pytest.raises(WorkBudgetExceeded) as info:
        escalier_slice(J, 3)
    assert (info.value.estimate, info.value.budget) == (4, 3)
    # the degree-10**6 slice has 10**6 + 1 terms: refused before one is listed
    monkeypatch.undo()
    with pytest.raises(WorkBudgetExceeded) as info:
        escalier_slice(J, 10**6)
    assert info.value.estimate == 10**6 + 1


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_membership_scans_agree_with_brute_divisibility(data):
    # the lex-key scan, TermSet.generates, MonomialIdeal.contains,
    # escalier_slice and the oracle's escalier list against a divisibility
    # scan of each term, on sets that need not be minimal
    n = data.draw(st.integers(1, 4))
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    gens = data.draw(st.lists(exps, min_size=1, max_size=6))
    M = TermSet([Term(g) for g in gens], n)
    J = MonomialIdeal(M)
    d = data.draw(st.integers(0, 6))
    outside = brute_escalier(gens, n, d)
    for e in exp_tuples(n, d):
        inside = e not in outside
        assert M._generates_key(e[::-1]) == M.generates(Term(e)) == J.contains(Term(e)) == inside
    assert escalier_slice(J, d) == [Term(e) for e in outside]
    G = make_marked_set(M)
    assert _escalier_keys(G.basis, d) == [e[::-1] for e in outside]
    wider = Term((0,) * (n + 1))
    for ask in (M.generates, J.contains):
        with pytest.raises(MismatchedVariableCount):
            ask(wider)


def test_escalier_slice_below_degree_zero_is_empty():
    for J in (MonomialIdeal([t(2)], 1), MonomialIdeal([t(2, 0), t(0, 1)], 2)):
        assert escalier_slice(J, -1) == []


def test_pommaret_basis_not_quasi_stable_witness():
    J = parse_ideal(json.loads((CORPUS / "ideal_not_quasi_stable.json").read_text()))
    with pytest.raises(NotQuasiStable) as info:
        pommaret_basis(J)
    assert str(info.value) == "the ideal is not quasi-stable, its star set is infinite"
    w = classify(J).quasi_stable_witness
    assert info.value.witness == (w.generator, w.variable)


def test_classify_examples():
    assert classify(STABLE).stable
    rep = classify(QUASI)
    assert rep.quasi_stable and not rep.stable
    assert rep.stable_witness is not None
    rep = classify(NOT_QUASI)
    assert not rep.quasi_stable
    assert rep.quasi_stable_witness is not None


def test_classify_hierarchy_on_random_ideals():
    rng = random.Random(43)
    for _ in range(200):
        rep = classify(random_ideal(rng))
        if rep.strongly_stable:
            assert rep.stable
        if rep.stable:
            assert rep.quasi_stable


def test_classify_quasi_stable_witness_matches_brute_force():
    # the quasi-stable witness is the first (g, j) in canonical order for
    # which no power of x_j pushes g/min(g) back into the ideal, and the
    # termination degree uses the largest power over all (g, j); the stable
    # and strongly stable ones are the first failing moves g/x_i * x_j
    rng = random.Random(61)
    kinds = {True: 0, False: 0}
    levels = {(True, True): 0, (False, True): 0, (False, False): 0}
    for _ in range(300):
        J = random_ideal(rng, max_vars=4, max_gens=4, max_deg=4)
        gens = [g.exponents for g in J.generators]
        fits = brute_quasi_stable_fits(gens, J.n)
        missing = [(g, j) for g, j, t in fits if t is None]
        rep = classify(J)
        kinds[rep.quasi_stable] += 1
        if not missing:
            assert rep.quasi_stable and rep.quasi_stable_witness is None
            top = max([1] + [power for _, _, power in fits])
            assert pommaret_termination_degree(J) == max(map(sum, gens)) + top * J.n
        else:
            g, j = missing[0]
            assert not rep.quasi_stable
            assert rep.quasi_stable_witness == StabilityWitness(Term(g), j, Term(g).min_index)
            with pytest.raises(NotQuasiStable) as info:
                pommaret_termination_degree(J)
            assert info.value.witness == (Term(g), j)
        closure = MonomialIdeal([Term(e) for e in stable_closure(gens, J.n)], J.n)
        for I in (J, closure):
            rep = classify(I)
            stable, strongly = brute_stability_witnesses(
                [g.exponents for g in I.generators], I.n
            )
            for verdict, witness, move in (
                (rep.stable, rep.stable_witness, stable),
                (rep.strongly_stable, rep.strongly_stable_witness, strongly),
            ):
                assert verdict == (move is None)
                assert witness == (
                    None if move is None else StabilityWitness(Term(move[0]), *move[1:])
                )
            levels[rep.strongly_stable, rep.stable] += 1
    assert min(kinds.values()) >= 50, kinds
    assert min(levels.values()) >= 30, levels


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_fit_power_matches_brute_force(data):
    # the smallest t with x_j^t * base in J, for bases outside J and every j
    n = data.draw(st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    gens = data.draw(st.lists(exps, min_size=1, max_size=6))
    base = data.draw(exps)
    assume(not tuple_in_ideal(gens, base))
    J = MonomialIdeal([Term(g) for g in gens], n)
    for j in range(1, n + 1):  # _fit_power reads lex keys, with x_j at slot n - j
        assert _fit_power(J, base[::-1], n - j) == brute_fit_power(gens, base, j)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_fit_power_matches_brute_force_on_many_generators(data):
    # many generators share each x_j exponent, so every index group is searched
    n = data.draw(st.integers(2, 5))
    exps = st.tuples(*[st.integers(0, 6)] * n)
    base = data.draw(exps)
    gens = [g for g in data.draw(st.lists(exps, min_size=10, max_size=30))
            if not tuple_divides(g, base)]
    assume(gens)
    J = MonomialIdeal([Term(g) for g in gens], n)
    for j in range(1, n + 1):  # _fit_power reads lex keys, with x_j at slot n - j
        assert _fit_power(J, base[::-1], n - j) == brute_fit_power(gens, base, j)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_fit_power_and_star_set_on_bases_next_to_the_generators(data):
    # dense stable ideals, m^d or the stable closure of a few generators, where
    # x_j^t * base is often a generator itself: the fit index's exact probe
    n = data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        gens = list(exp_tuples(n, data.draw(st.integers(1, 5))))
    else:
        exps = st.tuples(*[st.integers(0, 3)] * n).filter(any)
        gens = sorted(stable_closure(data.draw(st.lists(exps, min_size=2, max_size=4)), n))
    J = MonomialIdeal([Term(g) for g in gens], n)
    minimal = {g.exponents for g in J.generators}
    # a proper divisor of a minimal generator g, so outside J: g with x_j
    # lowered by 1 or 2, and its other exponents kept or lowered too
    g = data.draw(st.sampled_from(sorted(minimal)))
    j = data.draw(st.sampled_from([i for i, e in enumerate(g, 1) if e]))
    lower = [0] * n
    lower[j - 1] = min(data.draw(st.integers(1, 2)), g[j - 1])
    if data.draw(st.booleans()):
        lower = [d or data.draw(st.integers(0, e)) for d, e in zip(lower, g)]
    base = tuple(e - d for e, d in zip(g, lower))
    for k in range(1, n + 1):
        fit = _fit_power(J, base[::-1], n - k)
        assert fit == brute_fit_power(gens, base, k)
        exact = fit is not None and base[: k - 1] + (base[k - 1] + fit,) + base[k:] in minimal
        event(f"fit {'none' if fit is None else min(fit, 2)}, generator hit exactly: {exact}")
    # a stable ideal's star set is its generators, so it ends at degree top
    top = max(map(sum, gens))
    full = brute_star_set(gens, n, top + 1)
    assert {s.exponents for s in pommaret_basis(J)} == full
    terms, exhaustive = star_set(J, top)
    assert {s.exponents for s in terms} == full
    assert exhaustive == (top >= pommaret_termination_degree(J) - 1)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_star_set_matches_brute_force_over_powers_of_the_maximal_ideal(data):
    # m^d plus lower-degree generators: quasi-stable, with up to 56 generators
    n = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(1, 5))
    extra = data.draw(st.lists(st.tuples(*[st.integers(0, d)] * n), max_size=4))
    gens = list(exp_tuples(n, d)) + [e for e in extra if 0 < sum(e) < d]
    J = MonomialIdeal([Term(g) for g in gens], n)
    # a star term's predecessor lies outside m^d, so the star set ends at degree d
    full = brute_star_set(gens, n, d + 1)
    assert all(sum(s) <= d for s in full)
    # the termination bound a + t * n, with t the largest fit power of the moves
    mins = [g for g in set(gens) if not any(h != g and tuple_divides(h, g) for h in gens)]
    top = max([1] + [t for _, _, t in brute_quasi_stable_fits(mins, n)])
    termination = max(sum(g) for g in mins) + top * n
    bound = data.draw(st.integers(0, termination))
    terms, exhaustive = star_set(J, bound)
    assert {s.exponents for s in terms} == {s for s in full if sum(s) <= bound}
    assert exhaustive == (bound >= termination - 1 and all(sum(s) <= bound for s in full))


def test_library_checks_survive_optimized_mode():
    # `python -O` strips assert statements, so internal checks must raise
    for path in Path(involutive.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, (path.name, asserts)


def test_strongly_stable_detection():
    # (x2^2, x1x2, x1^2) is strongly stable in two variables ... with x2 on top
    J = ideal((0, 2), (1, 1), (2, 0))
    rep = classify(J)
    assert rep.strongly_stable
    rep = classify(QUASI)
    assert not rep.strongly_stable


def test_pommaret_basis_examples():
    assert pommaret_basis(MARKED_EXAMPLE) == TermSet(
        [t(3, 0), t(1, 1), t(1, 2), t(0, 3)]
    )
    assert pommaret_basis(QUASI) == TermSet([t(0, 0, 2), t(0, 1, 1), t(0, 1, 0)])
    with pytest.raises(NotQuasiStable):
        pommaret_basis(NOT_QUASI)


def test_pommaret_basis_refuses_a_star_set_that_is_not_stably_complete(monkeypatch):
    # the self-check is an explicit raise, so it holds under python -O too: a
    # star search that loses x2*x3, the one star term of (x3^2, x2) that is
    # not a generator, is caught with the Janet witness of what is left
    search = ideals._star_terms

    def lossy(J, D):
        found, beyond = search(J, D)
        del found[t(0, 1, 1).lex_key]
        return found, beyond

    monkeypatch.setattr(ideals, "_star_terms", lossy)
    witness = (t(0, 1, 0), 3)
    assert brute_is_stably_complete([(0, 1, 0), (0, 0, 2)]) == (False, ((0, 1, 0), 3))
    with pytest.raises(AssertionError) as info:
        pommaret_basis(QUASI)
    assert str(info.value) == f"star set is not stably complete, witness {witness}"


def test_pommaret_basis_is_the_star_set_of_its_ideal():
    for J in (STABLE, QUASI, MARKED_EXAMPLE, TWO_PARAMS, ideal((0, 2), (2, 0))):
        basis = pommaret_basis(J)
        regenerated = MonomialIdeal(basis)
        assert regenerated == J
        assert star_set(regenerated, basis.max_degree())[0] == basis
        terms, exhaustive = star_set(
            regenerated, pommaret_termination_degree(regenerated) - 1
        )
        assert exhaustive and terms == basis


def test_stable_iff_star_set_equals_generators():
    fixed = [STABLE, QUASI, MARKED_EXAMPLE, TWO_PARAMS, ideal((0, 2), (2, 0))]
    rng = random.Random(47)
    samples = []
    while len(samples) < 25:
        J = random_ideal(rng, max_vars=3, max_gens=4, max_deg=4)
        if J.generators.max_degree() > 0 and classify(J).quasi_stable:
            samples.append(J)
    for J in fixed + samples:
        rep = classify(J)
        assert rep.stable == (pommaret_basis(J) == J.generators)


def test_quasi_stable_iff_star_set_stabilizes():
    fixed = [
        (STABLE, True),
        (QUASI, True),
        (MARKED_EXAMPLE, True),
        (NOT_QUASI, False),
        (MonomialIdeal([t(1, 0)]), False),
        (ideal((2, 0, 0), (1, 1, 0), (0, 0, 1)), False),
    ]
    for J, expected in fixed:
        assert classify(J).quasi_stable == expected
        a = J.generators.max_degree()
        probe = a + 2 * J.n
        window = [
            x
            for x in star_set(J, probe + J.n)[0]
            if x.degree > probe
        ]
        if expected:
            d = pommaret_termination_degree(J)
            inside = star_set(J, d - 1)[0]
            beyond = [x for x in star_set(J, d + J.n)[0] if x.degree >= d]
            assert not beyond
            assert pommaret_basis(J) == inside
        else:
            assert window


def test_truncated_star_set_looks_stably_complete_inside_the_bound():
    # away from the truncation edge the Janet and Pommaret assignments agree
    for J, bound in ((MonomialIdeal([t(1, 0)]), 6), (NOT_QUASI, 5)):
        terms, _ = star_set(J, bound)
        assignment = DivisionAssignment.janet(terms)
        for tau in terms:
            if tau.degree == bound:
                continue
            pommaret = frozenset(range(1, tau.min_index + 1))
            assert assignment.mult[tau] == pommaret


def test_hilbert_function_examples():
    M = TermSet([t(1, 0)])
    for k in range(0, 8):
        assert hilbert_function(M, k) == 1
    basis = pommaret_basis(TWO_PARAMS)
    pommaret = DivisionAssignment.pommaret(basis)
    assert hilbert_function(basis, 2, pommaret) == 1
    for k in (3, 4, 5, 6):
        assert hilbert_function(basis, k, pommaret) == 0


def test_hilbert_function_requires_complete_set():
    with pytest.raises(NotComplete):
        hilbert_function(TermSet([t(1, 0), t(0, 2)]), 3)


def test_hilbert_function_checks_the_given_assignment():
    # {x1} is Janet-complete but not Pommaret-complete in two variables
    M = TermSet([t(1, 0)])
    with pytest.raises(NotComplete):
        hilbert_function(M, 3, DivisionAssignment.pommaret(M))
    janet = DivisionAssignment.janet(M)
    assert [hilbert_function(M, k, janet) for k in range(4)] == [1, 1, 1, 1]


def test_hilbert_function_matches_enumeration():
    # x1 has no Janet multiplicative variable in {x1, x1^2, x2}: its
    # offspring is the singleton {x1}
    singleton = TermSet([t(1, 0), t(2, 0), t(0, 1)])
    assert DivisionAssignment.janet(singleton).mult[t(1, 0)] == frozenset()
    # its Pommaret cones are complete but nested (x1^2 lies in the cone of
    # x1), so the offspring sizes would count x1^2 * x1^e twice
    nested = DivisionAssignment.pommaret(singleton)
    for k in range(4):
        with pytest.raises(ValueError, match=r"x1\^2 lies in the cone of x1:"):
            hilbert_function(singleton, k, nested)
    sets = [
        singleton,
        TermSet([t(1, 0)]),
        TermSet([t(2, 0), t(1, 1)]),
        TermSet([t(2, 0), t(1, 1), t(0, 2)]),
        TermSet([t(2, 0, 0), t(1, 1, 0), t(0, 0, 1)]),
        TermSet([t(1, 0, 1), t(0, 1, 1), t(0, 2, 0)]),
        janet_complete(TermSet([t(2, 0), t(1, 1), t(0, 3)]), 12),
        pommaret_basis(QUASI),
        pommaret_basis(MARKED_EXAMPLE),
    ]
    for M in sets:
        gens = [x.exponents for x in M]
        top = 2 * M.max_degree() + M.n
        for k in range(0, top + 1):
            assert hilbert_function(M, k) == escalier_count(gens, M.n, k)
    for J in (QUASI, MARKED_EXAMPLE, TWO_PARAMS):
        M = pommaret_basis(J)
        pommaret = DivisionAssignment.pommaret(M)
        gens = [x.exponents for x in M]
        for k in range(0, 2 * M.max_degree() + M.n + 1):
            assert hilbert_function(M, k, pommaret) == escalier_count(gens, M.n, k)


def test_hilbert_function_on_random_completed_sets():
    rng = random.Random(53)
    for _ in range(15):
        n = rng.randint(2, 3)
        M = janet_complete(
            TermSet(
                [random_term_of_degree(rng, n, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
            ),
            20,
        )
        gens = [x.exponents for x in M]
        for k in range(0, 2 * M.max_degree() + n + 1):
            assert hilbert_function(M, k) == escalier_count(gens, n, k)


def test_sigma_profile_examples():
    assert sigma_profile(STABLE, 2, ESCALIER).counts == (2, 0, 0)
    assert sigma_profile(STABLE, 2, IDEAL_SLICE).counts == (1, 2, 1)
    unit = MonomialIdeal([Term([0, 0, 0])])
    assert sigma_profile(unit, 1, ESCALIER).counts == (0, 0, 0)
    assert sigma_profile(unit, 2, IDEAL_SLICE).counts == (3, 2, 1)
    zero = MonomialIdeal([], 3)
    assert sigma_profile(zero, 2, ESCALIER).counts == (3, 2, 1)
    assert sigma_profile(zero, 2, IDEAL_SLICE).counts == (0, 0, 0)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_sigma_profile_matches_the_dense_scan(data):
    # any ideal: empty generator lists give the zero ideal, a zero exponent
    # vector the unit ideal, and most draws are not quasi-stable
    n = data.draw(st.integers(1, 5))
    gens = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=5))
    J = MonomialIdeal([Term(g) for g in gens], n)
    for p in range(1, 10):
        for mode in (ESCALIER, IDEAL_SLICE):
            counts = sigma_profile(J, p, mode).counts
            assert counts == brute_sigma(gens, n, p, mode)
            # the involutive test reads both degrees off one star search
            weighted = sum(i * c for i, c in enumerate(counts, start=1))
            assert sigma_totals(J, p, mode) == (sum(sigma_profile(J, p + 1, mode).counts), weighted)


def test_sigma_profile_validation():
    for sigma in (sigma_profile, sigma_totals):
        with pytest.raises(ValueError):
            sigma(STABLE, 0, ESCALIER)
        with pytest.raises(ValueError):
            sigma(STABLE, 2, "bogus")


def test_involutive_test_examples():
    assert involutive_test(STABLE, 2, IDEAL_SLICE)
    assert not involutive_test(STABLE, 1, IDEAL_SLICE)
    for J in (STABLE, QUASI, MARKED_EXAMPLE, TWO_PARAMS):
        top = pommaret_basis(J).max_degree()
        for p in range(top, top + 4):
            assert involutive_test(J, p, IDEAL_SLICE)
            assert involutive_test(J, p, ESCALIER)


def test_slice_counts_are_consistent():
    for J in (STABLE, QUASI, MARKED_EXAMPLE):
        for p in (1, 2, 3, 4):
            gens = [g.exponents for g in J.generators]
            assert sum(sigma_profile(J, p, IDEAL_SLICE).counts) == ideal_count(gens, J.n, p)
            assert sum(sigma_profile(J, p, ESCALIER).counts) == len(escalier_slice(J, p))


def test_regularity_examples():
    # the top degree of the Pommaret basis, which the pommaret command prints
    assert pommaret_basis(MARKED_EXAMPLE).max_degree() == 3
    assert pommaret_basis(QUASI).max_degree() == 2
    assert pommaret_basis(MonomialIdeal([t(0, 4)], 2)).max_degree() == 4


def test_unit_ideal_has_the_star_set_one():
    # (1) is the cone of 1 with every variable multiplicative
    one = Term([0, 0])
    J = MonomialIdeal([one], 2)
    assert star_set(J, 3) == (TermSet([one]), True)
    basis = pommaret_basis(J)
    assert basis == TermSet([one])
    for assignment in (DivisionAssignment.janet(basis), DivisionAssignment.pommaret(basis)):
        assert assignment.mult[one] == {1, 2}


def test_zero_ideal_is_rejected_by_star_set():
    J = MonomialIdeal([], 2)
    assert J.is_zero
    with pytest.raises(ValueError):
        star_set(J, 3)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: hilbert_function(TermSet([t(1, 0)]), -1), ValueError),
        (lambda: hilbert_function(TermSet([t(2, 0), t(0, 2)]), -1), ValueError),
        (lambda: MonomialIdeal([t(1, 0)]).contains(t(1, 0, 0)), MismatchedVariableCount),
        (lambda: MonomialIdeal([]), ValueError),
    ],
    ids=[
        "hilbert-at-a-negative-degree",
        "hilbert-at-a-negative-degree-of-an-incomplete-set",
        "membership-of-a-foreign-term",
        "zero-ideal-without-n",
    ],
)
def test_ideals_input_edge_cases(call, expected):
    assert outcome(call) == expected
