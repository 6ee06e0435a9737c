"""Acceptance suite: exact reproduction of the worked examples plus the
randomized property checks, one printed verdict line per criterion."""

import json
import random
import time
from fractions import Fraction
from math import comb
from pathlib import Path

from involutive import (
    CYCLE_DETECTED,
    ESCALIER,
    IDEAL_SLICE,
    DegreeCapExceeded,
    DivisionAssignment,
    MonomialIdeal,
    Term,
    TermSet,
    classify,
    evaluate_equations,
    hilbert_function,
    is_complete,
    is_marked_basis,
    is_stably_complete,
    janet_complete,
    make_marked_set,
    oracle_check,
    pommaret_basis,
    reduce,
    scheme_equations,
    sigma_profile,
    specialize,
    star_set,
)
from involutive.cli import main as cli_main
from involutive.serialize import parse_ideal
from helpers import (
    brute_offspring_member,
    escalier_count,
    exp_tuples,
    random_ideal,
    random_quasi_stable,
    random_tails,
    random_term_of_degree,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def t(*exps):
    return Term(exps)


def ts(*terms):
    return TermSet([Term(x) for x in terms])


def announce(number, label, started):
    print(f"criterion {number:02d} PASS ({time.perf_counter() - started:.2f}s): {label}")


QUASI_STABLE_CORPUS = [
    MonomialIdeal([t(0, 0, 1), t(0, 2, 0)]),      # (z, y^2)
    MonomialIdeal([t(0, 0, 2), t(0, 1, 0)]),      # (z^2, y)
    MonomialIdeal([t(3, 0), t(1, 1), t(0, 3)]),   # (x^3, xy, y^3)
    MonomialIdeal([t(2, 0), t(1, 1), t(0, 3)]),   # (x^2, xy, y^3)
    MonomialIdeal([t(2, 0), t(1, 1), t(0, 2)]),   # (x^2, xy, y^2)
    MonomialIdeal([t(0, 2, 0), t(0, 1, 1), t(0, 0, 2)]),  # (y^2, yz, z^2)
    MonomialIdeal([t(0, 1), t(5, 0)]),            # (y, x^5): star set has a degree gap
    MonomialIdeal([t(0, 0, 2), t(0, 2, 0)]),      # (z^2, y^2): regularity above generators
]

COMPLETE_CORPUS = [
    ts((2, 0, 0), (1, 1, 0), (0, 0, 1)),
    ts((2, 0, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1)),
    ts((2, 0, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1), (0, 2, 1)),
    ts((2, 0), (1, 1)),
    ts((2, 0), (1, 1), (0, 2)),
    ts((1, 0, 1), (0, 1, 1), (0, 2, 0)),
    ts((3, 0), (1, 1), (1, 2), (0, 3)),
]


def test_01_multiplicative_variable_tables():
    started = time.perf_counter()
    M = ts((3, 0, 0), (0, 3, 0), (4, 1, 1), (0, 0, 2))
    assert DivisionAssignment.janet(M).mult[t(3, 0, 0)] == {1}

    def table(M):
        return {tau.exponents: sorted(v) for tau, v in DivisionAssignment.janet(M).mult.items()}

    m0 = ts((2, 0, 0), (1, 1, 0), (0, 0, 1))
    assert table(m0) == {
        (2, 0, 0): [1],
        (1, 1, 0): [1, 2],
        (0, 0, 1): [1, 2, 3],
    }
    for i in (1, 2, 3):
        mi = TermSet(
            [t(2, 0, 0), t(1, 1, 0), t(0, 0, 1)] + [t(0, j, 1) for j in range(1, i + 1)]
        )
        expected = {
            (2, 0, 0): [1],
            (1, 1, 0): [1, 2],
            (0, 0, 1): [1, 3],
        }
        for j in range(1, i):
            expected[(0, j, 1)] = [1, 3]
        expected[(0, i, 1)] = [1, 2, 3]
        assert table(mi) == expected
        assert is_complete(mi)[0]
    announce(1, "multiplicative variable tables reproduced exactly", started)


def test_02_completeness_verdicts():
    started = time.perf_counter()
    assert is_complete(ts((2, 0, 0), (1, 1, 0), (0, 0, 1))) == (True, None)
    assert is_complete(ts((1, 0), (0, 2))) == (False, (t(1, 0), 2))
    assert is_complete(ts((2, 0), (1, 1)))[0]
    assert not is_stably_complete(ts((2, 0), (1, 1)))[0]
    assert is_stably_complete(ts((2, 0), (1, 1), (0, 2))) == (True, None)
    assert is_complete(ts((2, 0), (1, 1), (0, 3))) == (False, (t(1, 1), 2))
    announce(2, "completeness and stable completeness verdicts with witnesses", started)


def test_03_star_sets():
    started = time.perf_counter()
    terms, exhaustive = star_set(MonomialIdeal([t(1, 0)]), 5)
    assert terms == ts((1, 0), (1, 1), (1, 2), (1, 3), (1, 4))
    assert not exhaustive
    assert pommaret_basis(MonomialIdeal([t(0, 0, 1), t(0, 2, 0)])) == ts(
        (0, 0, 1), (0, 2, 0)
    )
    assert pommaret_basis(MonomialIdeal([t(0, 0, 2), t(0, 1, 0)])) == ts(
        (0, 0, 2), (0, 1, 1), (0, 1, 0)
    )
    assert pommaret_basis(MonomialIdeal([t(3, 0), t(1, 1), t(0, 3)])) == ts(
        (3, 0), (1, 1), (1, 2), (0, 3)
    )
    announce(3, "star sets of the worked ideals", started)


def test_04_stability_hierarchy():
    started = time.perf_counter()
    assert classify(MonomialIdeal([t(0, 0, 1), t(0, 2, 0)])).stable
    report = classify(MonomialIdeal([t(0, 0, 2), t(0, 1, 0)]))
    assert report.quasi_stable and not report.stable
    assert not classify(MonomialIdeal([t(0, 1, 0)], 3)).quasi_stable
    rng = random.Random(2024)
    for _ in range(1000):
        report = classify(random_ideal(rng, max_vars=4, max_gens=6, max_deg=6))
        if report.strongly_stable:
            assert report.stable
        if report.stable:
            assert report.quasi_stable
    announce(4, "hierarchy verdicts plus implications on 1000 random ideals", started)


def test_05_reduction_cycle_detection():
    started = time.perf_counter()
    M = ts((1, 0, 1), (0, 1, 1), (0, 2, 0))
    G = make_marked_set(
        M,
        {
            t(1, 0, 1): {t(1, 1, 0): Fraction(-1)},
            t(0, 1, 1): {t(0, 0, 2): Fraction(-1)},
        },
    )
    trace = reduce(G, {t(1, 0, 2): Fraction(1)})
    assert trace.status == CYCLE_DETECTED
    assert len(trace.steps) == 2
    assert [(s.head, s.cofactor) for s in trace.steps] == [
        (t(1, 0, 1), t(0, 0, 1)),
        (t(0, 1, 1), t(1, 0, 0)),
    ]
    announce(5, "two-cycle detected within the step cap", started)


def _worked_marked_basis():
    basis = ts((3, 0), (1, 1), (1, 2), (0, 3))
    return make_marked_set(
        basis, {t(1, 1): {t(2, 0): Fraction(-1), t(0, 2): Fraction(-1)}}
    )


def test_06_marked_basis_criterion():
    started = time.perf_counter()
    result = is_marked_basis(_worked_marked_basis())
    assert result.is_basis
    assert [(c.head, c.variable) for c in result.checks] == [
        (t(1, 1), 2),
        (t(3, 0), 2),
        (t(1, 2), 2),
    ]
    used = {
        c.head.exponents: sorted(
            (s.head.exponents, s.cofactor.exponents) for s in c.trace.steps
        )
        for c in result.checks
    }
    assert used[(3, 0)] == sorted([((1, 1), (2, 0)), ((1, 2), (1, 0)), ((3, 0), (1, 0))])
    assert used[(1, 1)] == sorted([((1, 1), (1, 0)), ((0, 3), (0, 0)), ((3, 0), (0, 0))])
    assert used[(1, 2)] == [((0, 3), (1, 0))]
    assert all(c.trace.is_zero for c in result.checks)
    # every rewrite stays in the degree of the prolongation, at most 1 + max basis degree
    for c in result.checks:
        assert all(s.term.degree == c.head.degree + 1 for s in c.trace.steps)
        assert c.head.degree + 1 <= 4
    announce(6, "criterion passes with exactly the three documented reductions", started)


def test_06_perturbation_breaks_the_basis():
    started = time.perf_counter()
    # Worked basis: J = (x1^3, x1x2, x2^3) contains every degree-3 term (x1^3,
    # x1^2x2, x1x2^2, x2^3), so the escalier N(J) is empty from degree 3 on.
    # Every prolongation residue has degree at least 3 and is supported on
    # N(J), hence is 0 whatever a, b are in x1x2 - a*x1^2 - b*x2^2: Mf(J) is
    # the whole plane, and no tail perturbation can leave it.
    base_tail = {t(2, 0): Fraction(-1), t(0, 2): Fraction(-1)}
    basis = ts((3, 0), (1, 1), (1, 2), (0, 3))
    for term in base_tail:
        perturbed = dict(base_tail)
        perturbed[term] += 1
        G = make_marked_set(basis, {t(1, 1): perturbed})
        result = is_marked_basis(G)
        assert result.is_basis, f"perturbing the {term} coefficient left Mf(J)"
        assert oracle_check(G, 4)
        assert all(not c.trace.result for c in result.checks)
    assert scheme_equations(MonomialIdeal([t(3, 0), t(1, 1), t(0, 3)])).equations == []

    # Three points: Mf(J) for J = (x2^2, x2x3, x3^2) has equations, so adding 1
    # to a single tail coefficient of the zero point either moves along a
    # tangent direction of the scheme or leaves it with a nonzero residue.
    J = parse_ideal(json.loads((CORPUS / "ideal_three_points.json").read_text()))
    eqs = scheme_equations(J)
    gm = eqs.generic
    reg = gm.basis.max_degree()
    zero = {pv: Fraction(0) for pv in gm.params}
    G = specialize(gm, zero)
    assert is_marked_basis(G).is_basis and oracle_check(G, reg + 1)
    breaking, tangent = [], []
    for pv in gm.params:
        values = dict(zero)
        values[pv] += 1
        G = specialize(gm, values)
        result = is_marked_basis(G)
        vanishes = all(v == 0 for v in evaluate_equations(eqs, values))
        assert result.is_basis == oracle_check(G, reg + 1) == vanishes, pv.name
        assert result.is_basis != any(c.trace.result for c in result.checks), pv.name
        (tangent if result.is_basis else breaking).append(pv.name)
    assert breaking == [
        "C[1][2,0,0]", "C[2][2,0,0]", "C[2][1,1,0]", "C[2][1,0,1]", "C[3][2,0,0]"
    ]
    assert tangent == ["C[1][1,1,0]", "C[1][1,0,1]", "C[3][1,1,0]", "C[3][1,0,1]"]
    assert breaking and tangent
    announce(
        6,
        "tail perturbations of the worked basis stay in Mf(J); on the three "
        "points 5 of 9 break the basis, criterion, oracle and equations agree",
        started,
    )


def test_07_oracle_equivalence_on_random_marked_sets():
    started = time.perf_counter()
    rng = random.Random(4099)
    agreements = 0
    positives = negatives = 0
    while agreements < 200:
        # alternate the ambient dimension so three-variable ideals are half the sample
        J, basis = random_quasi_stable(
            rng, max_reg=5, max_deg=5, force_vars=2 + (agreements % 2)
        )
        G = make_marked_set(basis, random_tails(rng, J, basis))
        reg = basis.max_degree()
        verdict = is_marked_basis(G).is_basis
        assert verdict == oracle_check(G, reg + 1)
        positives += verdict
        negatives += not verdict
        agreements += 1
    assert positives and negatives
    announce(
        7,
        f"criterion and oracle agree on 200 random marked sets "
        f"({positives} bases, {negatives} non-bases)",
        started,
    )


def test_08_offspring_partition_on_random_completions():
    started = time.perf_counter()
    rng = random.Random(509)
    done = 0
    while done < 100:
        n = rng.randint(2, 3)
        seed_terms = TermSet(
            [random_term_of_degree(rng, n, rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        )
        try:
            M = janet_complete(seed_terms, 30)
        except DegreeCapExceeded:
            continue
        raw = [x.exponents for x in M]
        top = M.max_degree() + 3
        for d in range(1, top + 1):
            for exps in exp_tuples(n, d):
                owners = sum(
                    1 for tau in raw if brute_offspring_member(raw, tau, exps)
                )
                in_ideal = any(all(a <= b for a, b in zip(tau, exps)) for tau in raw)
                assert owners == (1 if in_ideal else 0)
        done += 1
    announce(8, "100 random complete sets partition their semigroup ideals", started)


def test_09_hilbert_function_against_enumeration():
    started = time.perf_counter()
    sets = list(COMPLETE_CORPUS) + [pommaret_basis(J) for J in QUASI_STABLE_CORPUS]
    mismatch_with_printed_variant = 0
    for M in sets:
        gens = [x.exponents for x in M]
        n = M.n
        for k in range(0, 2 * M.max_degree() + n + 1):
            expected = escalier_count(gens, n, k)
            assert hilbert_function(M, k) == expected
            variant = expected - comb(k + n - 1, n - 1) + comb(k + n, n)
            if variant != expected:
                mismatch_with_printed_variant += 1
    assert mismatch_with_printed_variant
    print(
        "note: the ambient count C(k+n-1, n-1) = dim P_k matches the enumeration; "
        "the alternative C(k+n, n) overcounts every slice and is treated as a typo"
    )
    announce(9, "Hilbert formula equals brute-force escalier counts", started)


def test_10_involutive_degree_test():
    started = time.perf_counter()
    for J in QUASI_STABLE_CORPUS:
        reg = pommaret_basis(J).max_degree()
        for p in range(reg, reg + 5):
            sp = sigma_profile(J, p, IDEAL_SLICE)
            sp1 = sigma_profile(J, p + 1, IDEAL_SLICE)
            assert sum(sp1.counts) == sum(
                i * c for i, c in enumerate(sp.counts, start=1)
            )
        for p in range(1, reg):
            sp = sigma_profile(J, p, ESCALIER)
            sp1 = sigma_profile(J, p + 1, ESCALIER)
            lhs = sum(sp1.counts)
            rhs = sum(i * c for i, c in enumerate(sp.counts, start=1))
            assert lhs <= rhs
            if lhs == rhs:
                for j in range(1, J.n + 1):
                    assert sp1.counts[j - 1] == sum(sp.counts[j - 1 :])
    announce(
        10,
        "ideal-slice equality from the regularity on, escalier inequality below",
        started,
    )


def test_11_scheme_equations():
    started = time.perf_counter()
    two_params = scheme_equations(MonomialIdeal([t(2, 0), t(1, 1), t(0, 3)]))
    assert two_params.equations == []
    assert len(two_params.generic.params) == 2

    marked_example = scheme_equations(MonomialIdeal([t(3, 0), t(1, 1), t(0, 3)]))
    rng = random.Random(2027)
    for _ in range(200):
        values = {
            pv: Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
            for pv in marked_example.generic.params
        }
        vanishes = all(v == 0 for v in evaluate_equations(marked_example, values))
        G = specialize(marked_example.generic, values)
        assert vanishes == is_marked_basis(G).is_basis
    point = {pv: Fraction(-1) for pv in marked_example.generic.params}
    assert all(v == 0 for v in evaluate_equations(marked_example, point))
    assert is_marked_basis(specialize(marked_example.generic, point)).is_basis
    announce(
        11,
        "two-parameter family with empty equations; 200 specializations agree "
        "with the criterion",
        started,
    )


def test_12_deterministic_outputs(capsys):
    started = time.perf_counter()
    jobs = [
        ("pommaret", "ideal_stable.json"),
        ("pommaret", "ideal_quasi_stable.json"),
        ("pommaret", "ideal_marked_example.json"),
        ("pommaret", "ideal_two_params.json"),
        ("pommaret", "ideal_three_points.json"),
        ("scheme-equations", "ideal_marked_example.json"),
        ("scheme-equations", "ideal_two_params.json"),
        ("scheme-equations", "ideal_three_points.json"),
    ]
    for command, name in jobs:
        outputs = []
        for _ in range(2):
            code = cli_main([command, "--input", str(CORPUS / name)])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])
    announce(12, "repeated runs produce byte-identical reports", started)
