"""The four benchmark workloads: seeded inputs, one query batch, cross-checks.

A workload builds its inputs from the seed alone (``build``), answers a
fixed batch of queries through a ``Recorder`` (``batch``) and checks the
answers of one batch against independent brute-force helpers
(``cross_check``).  Query ids starting with ``L/`` do not depend on the seed;
ids starting with ``R/`` do.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"

# The library is imported from the source tree of the checkout the benchmark
# sits in, ahead of any installed copy.
sys.path.insert(0, str(SRC))

import oracles  # noqa: E402
import involutive as inv  # noqa: E402
from involutive import (  # noqa: E402
    CYCLE_DETECTED,
    ESCALIER,
    IDEAL_SLICE,
    REDUCED,
    STEP_LIMIT,
    MarkedSet,
    MonomialIdeal,
    ParamPolynomial,
    Term,
    TermSet,
)


def src_env() -> dict:
    """The environment with ``src/`` first on PYTHONPATH, for child interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# --------------------------------------------------------------- recording


CALIBRATION_INTERVAL_S = 0.25


class _Monomial:
    __slots__ = ("exponents", "degree")

    def __init__(self, exponents):
        self.exponents = tuple(exponents)
        self.degree = sum(self.exponents)


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop shaped like the library's hot code.

    It builds small slotted exponent-vector objects, tests divisibility with
    ``all(... zip ...)`` and counts in a dict: the operations ``Term`` and
    its callers spend their time on, so contention on a shared host slows
    the loop and the library alike.  It never calls the library, so no
    change to the library moves it.  One run takes about 5 ms.
    """
    t0 = time.perf_counter()
    monomials = [_Monomial((i % 5, i % 3, i % 7, i % 2)) for i in range(200)]
    hits = 0
    for a in monomials[:30]:
        for b in monomials:
            if all(x <= y for x, y in zip(a.exponents, b.exponents)):
                hits += 1
    counts: dict[tuple, int] = {}
    for m in monomials:
        key = m.exponents[::-1]
        counts[key] = counts.get(key, 0) + m.degree + hits
    return time.perf_counter() - t0


class Recorder:
    """Answers queries one at a time, keeping each result and its latency.

    A query that raises is recorded as failed with its error and ``None`` as
    its result; later queries that depend on it then fail as well.  Given a
    ``reference`` yardstick, it is timed before the first query and then
    before any query that starts ``CALIBRATION_INTERVAL_S`` after the last
    calibration, outside the query's timing.  The samples are taken evenly
    over the batch, so their mean sees the host at the speeds the batch saw.
    """

    def __init__(self, tracer=None, reference=None):
        self.order: list[str] = []
        self.results: dict[str, object] = {}
        self.latency: dict[str, float] = {}
        self.errors: dict[str, str] = {}
        self.reference: list[float] = []
        self.tracer = tracer
        self.reference_fn = reference
        self._calibrated_at = float("-inf")
        self._digests: dict[str, str] | None = None

    def __call__(self, qid, fn, *args, **kwargs):
        if qid in self.results:
            raise ValueError(f"duplicate query id {qid}")
        if self.reference_fn and time.perf_counter() - self._calibrated_at >= CALIBRATION_INTERVAL_S:
            self.reference.append(self.reference_fn())
            self._calibrated_at = time.perf_counter()
        if self.tracer is not None:
            self.tracer.query = qid
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed query is counted, the batch goes on
            result = None
            self.errors[qid] = f"{type(exc).__name__}: {exc}"
        self.latency[qid] = time.perf_counter() - t0
        self.order.append(qid)
        self.results[qid] = result
        return result

    def digests(self) -> dict[str, str]:
        if self._digests is None:
            self._digests = {
                qid: ("error:" + self.errors[qid]) if qid in self.errors else digest(self.results[qid])
                for qid in self.order
            }
        return self._digests

    def release(self) -> None:
        """Keep only the digests, so peak memory does not grow with the batch count."""
        self.digests()
        self.results.clear()


def canon(obj):
    """Plain JSON data for a query result, independent of object identity."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Term):
        return list(obj.exponents)
    if isinstance(obj, TermSet):
        return {"vars": obj.n, "terms": [list(t.exponents) for t in obj]}
    if isinstance(obj, MonomialIdeal):
        return canon(obj.generators)
    if isinstance(obj, ParamPolynomial):
        return str(obj)
    if isinstance(obj, MarkedSet):
        return {"basis": canon(obj.basis), "polys": [canon(obj.polys[h].tail) for h in obj.basis]}
    if isinstance(obj, (frozenset, set)):
        return sorted(canon(x) for x in obj)
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    if isinstance(obj, dict):
        return [[canon(k), canon(v)] for k, v in obj.items()]
    if dataclasses.is_dataclass(obj):
        return {f.name: canon(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(result) -> str:
    text = json.dumps(canon(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def tuples(terms) -> list[tuple[int, ...]]:
    return [t.exponents for t in terms]


def ideal_of(gens, n) -> MonomialIdeal:
    return MonomialIdeal([Term(g) for g in gens], n)


class Workload:
    name = ""
    # The host-speed yardstick the batch's times are divided by.
    reference = staticmethod(reference_loop)

    def build(self, seed: int, tiny: bool = False) -> dict:
        raise NotImplementedError

    def batch(self, inputs: dict, q: Recorder) -> None:
        raise NotImplementedError

    def cross_check(self, inputs: dict, rec: Recorder) -> dict[str, str]:
        return {}

    def traced_batch(self, inputs: dict, q: Recorder, tracer) -> dict:
        """One batch with the library wrapped; returns extra per-layer values."""
        tracer.install()
        try:
            self.batch(inputs, q)
        finally:
            tracer.restore()
        return {}

    def close(self, inputs: dict) -> None:
        pass


# --------------------------------------------------------------- star sets


class StarSets(Workload):
    """Pommaret bases, classification, star sets and sigma profiles."""

    name = "star-sets"
    # Powers m^d of the maximal ideal in n variables: (n, d).
    LADDER = ((4, 4), (5, 4), (4, 6))
    # Truncated star sets of the non-quasi-stable ideal (x_3) in 3 variables.
    PRINCIPAL_BOUNDS = (10, 20)
    # Seeded quasi-stable ideals: (n, termination degree, minimal generators).
    QUASI_STABLE = ((4, 11, 5),) * 14 + ((5, 13, 6),) * 2
    # Seeded ideals that are not quasi-stable: (n, degree bound).
    NOT_QUASI_STABLE = ((3, 12),) * 4 + ((4, 9),) * 4

    TINY = {
        "LADDER": ((3, 3),),
        "PRINCIPAL_BOUNDS": (6,),
        "QUASI_STABLE": ((4, 11, 5),),
        "NOT_QUASI_STABLE": ((3, 6),),
    }

    def build(self, seed, tiny=False):
        sizes = self.TINY if tiny else vars(type(self))
        rng = random.Random(f"{self.name}:{seed}")
        ladder = []
        for n, d in sizes["LADDER"]:
            gens = list(oracles.exp_tuples(n, d))
            ladder.append((f"m{d}n{n}", ideal_of(gens, n), gens, d))
        qs = []
        for n, termination, ngens in sizes["QUASI_STABLE"]:
            gens = oracles.random_quasi_stable(rng, n, 3, 3, termination, ngens)
            qs.append((ideal_of(gens, n), gens, termination))
        nqs = []
        for n, bound in sizes["NOT_QUASI_STABLE"]:
            gens = oracles.random_not_quasi_stable(rng, n, 3, 4)
            nqs.append((ideal_of(gens, n), gens, bound))
        return {
            "ladder": ladder,
            "principal": (ideal_of([(0, 0, 1)], 3), sizes["PRINCIPAL_BOUNDS"]),
            "quasi_stable": qs,
            "not_quasi_stable": nqs,
        }

    def batch(self, inputs, q):
        for name, J, _, d in inputs["ladder"]:
            q(f"L/{name}/pommaret", inv.pommaret_basis, J)
            q(f"L/{name}/classify", inv.classify, J)
            q(f"L/{name}/star_set", inv.star_set, J, d + 1)
            q(f"L/{name}/sigma", inv.sigma_profile, J, d + 1)
            q(f"L/{name}/involutive_test", inv.involutive_test, J, d)
        J, bounds = inputs["principal"]
        for bound in bounds:
            q(f"L/x3/star_set{bound}", inv.star_set, J, bound)
        for i, (J, gens, termination) in enumerate(inputs["quasi_stable"]):
            a = max(sum(g) for g in gens)
            q(f"R/qs{i}/pommaret", inv.pommaret_basis, J)
            q(f"R/qs{i}/classify", inv.classify, J)
            q(f"R/qs{i}/star_set", inv.star_set, J, termination - 1 - 2 * (i % 2))
            for mode in (IDEAL_SLICE, ESCALIER):
                q(f"R/qs{i}/sigma-{mode}", inv.sigma_profile, J, a + 1, mode)
                q(f"R/qs{i}/involutive_test-{mode}", inv.involutive_test, J, a, mode)
        for i, (J, _, bound) in enumerate(inputs["not_quasi_stable"]):
            q(f"R/nqs{i}/classify", inv.classify, J)
            q(f"R/nqs{i}/star_set", inv.star_set, J, bound)

    def cross_check(self, inputs, rec):
        bad = {}
        r = rec.results

        def expect(qid, ok, message):
            if qid in r and qid not in rec.errors and not ok:
                bad[qid] = message

        ideals = [(f"L/{name}", J, g) for name, J, g, _ in inputs["ladder"]]
        ideals += [(f"R/qs{i}", J, g) for i, (J, g, _) in enumerate(inputs["quasi_stable"])]
        ideals += [(f"R/nqs{i}", J, g) for i, (J, g, _) in enumerate(inputs["not_quasi_stable"])]
        for prefix, J, gens in ideals:
            qs = oracles.quasi_stable_exponent(gens, J.n) is not None
            report = r.get(f"{prefix}/classify")
            expect(f"{prefix}/classify", report is not None and report.quasi_stable == qs,
                   "quasi-stability disagrees with the generator criterion")
            for qid in (f"{prefix}/sigma", f"{prefix}/sigma-{IDEAL_SLICE}", f"{prefix}/sigma-{ESCALIER}"):
                sigma = r.get(qid)
                if sigma is not None:
                    expect(qid, sigma.counts == _brute_sigma(gens, J.n, sigma.degree, sigma.mode),
                           "sigma counts disagree with brute force")
        for i, (J, gens, termination) in enumerate(inputs["quasi_stable"]):
            if J.n > 4:
                continue
            brute = _brute_star_set(gens, J.n, termination - 1)
            basis = r.get(f"R/qs{i}/pommaret")
            expect(f"R/qs{i}/pommaret", basis is not None and set(tuples(basis)) == brute,
                   "Pommaret basis differs from the brute-force star set")
        for i in range(len(inputs["not_quasi_stable"])):
            res = r.get(f"R/nqs{i}/star_set")
            expect(f"R/nqs{i}/star_set", res is not None and res[1] is False,
                   "a star set of a non-quasi-stable ideal was reported exhaustive")
        return bad


def _brute_sigma(gens, n, p, mode):
    counts = [0] * n
    for t in oracles.exp_tuples(n, p):
        if oracles.in_ideal(gens, t) == (mode == IDEAL_SLICE):
            counts[next(i for i, e in enumerate(t) if e)] += 1
    return tuple(counts)


def _brute_star_set(gens, n, top):
    found = set()
    for d in range(1, top + 1):
        for t in oracles.exp_tuples(n, d):
            if not oracles.in_ideal(gens, t):
                continue
            k = next(i for i, e in enumerate(t) if e)
            pred = tuple(e - (i == k) for i, e in enumerate(t))
            if not oracles.in_ideal(gens, pred):
                found.add(t)
    return found


# ------------------------------------------------------------------- janet


# Janet-complete basis {x1*x3, x2*x3, x2^2} in five variables y1 < y2 < x1 <
# x2 < x3: the two lowest variables are multiplicative for every head, so the
# set stays complete, and it is not stably complete.
_CYCLE_HEADS = ((0, 0, 1, 0, 1), (0, 0, 0, 1, 1), (0, 0, 0, 2, 0))
_X1X2, _X3SQ = (0, 0, 1, 1, 0), (0, 0, 0, 0, 2)


def _plus(a, b):
    return tuple(x + y for x, y in zip(a, b))


def cycle_reduction_input(rng, kind, extra_terms):
    """A marked set on the cycle basis and a polynomial whose reduction ends as ``kind``.

    With tail coefficients c and e, reducing x1*x3^2 times a monomial in y1,
    y2 returns to c*e times itself after two steps: a cycle when c*e = 1 and
    a step-limit run otherwise.  The ``reduced`` kind starts from x1^2*x3,
    which reduces once.  ``extra_terms`` escalier terms ride along unchanged.
    """
    c = oracles.random_rational(rng)
    if kind == "cycle":
        e = 1 / c
    else:
        e = Fraction(rng.choice([2, 3, -2, -3]), rng.choice([1, 5])) / c
    mono = (rng.randint(0, 2), rng.randint(1, 2), 0, 0, 0)
    basis = TermSet([Term(h) for h in _CYCLE_HEADS], 5)
    tails = {
        Term(_CYCLE_HEADS[0]): {Term(_X1X2): -c},
        Term(_CYCLE_HEADS[1]): {Term(_X3SQ): -e},
    }
    lead = _plus((0, 0, 1, 0, 2) if kind != "reduced" else (0, 0, 2, 0, 1), mono)
    poly = {Term(lead): oracles.random_rational(rng)}
    while len(poly) < 1 + extra_terms:
        t = oracles.random_term(rng, 5, sum(lead))
        if not oracles.in_ideal(_CYCLE_HEADS, t):
            poly[Term(t)] = oracles.random_rational(rng)
    return basis, tails, poly


class Janet(Workload):
    """Janet completion, completeness, decompositions, Hilbert values, tracked reduce."""

    name = "janet"
    # Term sets in 4 variables: a ladder drawn from a fixed seed, then small
    # sets drawn from the run's seed.  Completion cost varies by a factor of
    # three between random sets of one size, so the seeded sets are kept
    # small: their queries stay a small share of the batch and stay below the
    # 90th latency percentile, which the ladder alone decides.
    LADDER_SIZES = (12, 16, 20, 24, 24, 28, 32)
    SEEDED_SIZES = (10,) * 8
    LADDER_MAX_DEGREE = 8
    SEEDED_MAX_DEGREE = 5
    LOOKUPS = 12
    HILBERT_DEGREES = (5, 9, 13)
    # A Hilbert-function table over degrees 0..29 of the second-largest ladder
    # completion: thirty queries of nearly one cost (each call re-checks
    # completeness), which pins the 90th latency percentile.
    TABLE_SET = -2
    TABLE_DEGREES = tuple(range(30))
    DEGREE_CAP = 64
    # Reductions over the cycle basis: each kind ends in its own status.
    REDUCTIONS = ("cycle", "limit", "reduced") * 6
    EXTRA_TERMS = 16
    STEP_CAP = 20

    TINY = {"LADDER_SIZES": (8,), "SEEDED_SIZES": (8,), "REDUCTIONS": ("cycle", "limit", "reduced")}

    def build(self, seed, tiny=False):
        sizes = {**vars(type(self)), **(self.TINY if tiny else {})}
        rng = random.Random(f"{self.name}:{seed}")
        ladder_rng = random.Random(f"{self.name}:ladder")
        sets = []
        for prefix, r, size_list, max_degree in (
            ("L", ladder_rng, sizes["LADDER_SIZES"], self.LADDER_MAX_DEGREE),
            ("R", rng, sizes["SEEDED_SIZES"], self.SEEDED_MAX_DEGREE),
        ):
            for i, size in enumerate(size_list):
                gens = oracles.random_term_set(r, 4, size, max_degree)
                lookups = [
                    Term(_plus(r.choice(gens), oracles.random_term(r, 4, r.randint(0, 3))))
                    for _ in range(self.LOOKUPS)
                ]
                sets.append([f"{prefix}/set{i}", gens, TermSet([Term(g) for g in gens], 4), lookups,
                             self.HILBERT_DEGREES])
        ladder_sets = sets[: len(sizes["LADDER_SIZES"])]
        ladder_sets[self.TABLE_SET if len(ladder_sets) > 1 else 0][4] = self.TABLE_DEGREES
        reductions = []
        for kind in sizes["REDUCTIONS"]:
            reductions.append((kind, *cycle_reduction_input(rng, kind, self.EXTRA_TERMS)))
        return {"sets": sets, "reductions": reductions}

    def batch(self, inputs, q):
        for name, _, M, lookups, degrees in inputs["sets"]:
            C = q(f"{name}/complete", inv.janet_complete, M, self.DEGREE_CAP)
            q(f"{name}/is_complete", inv.is_complete, C)
            A = q(f"{name}/assignment", inv.DivisionAssignment.janet, C)
            for k, gamma in enumerate(lookups):
                q(f"{name}/decompose{k}", inv.star_decompose, C, gamma, A)
            for k in degrees:
                q(f"{name}/hilbert{k}", inv.hilbert_function, C, k, A)
        for i, reduction in enumerate(inputs["reductions"]):
            q(f"R/reduce{i}/{reduction[0]}", _reduce_fresh, *reduction[1:], self.STEP_CAP)

    def cross_check(self, inputs, rec):
        bad = {}
        r = rec.results
        for name, gens, _, lookups, degrees in inputs["sets"]:
            C = r.get(f"{name}/complete")
            if C is None:
                continue
            ct = tuples(C)
            if not (set(gens) <= set(ct) and all(oracles.in_ideal(gens, t) for t in ct)):
                bad[f"{name}/complete"] = "completion does not generate the input ideal"
            elif not oracles.is_janet_complete(ct):
                bad[f"{name}/complete"] = "completion fails the brute-force Janet check"
            if r.get(f"{name}/is_complete") != (True, None):
                bad[f"{name}/is_complete"] = "a completion was reported incomplete"
            A = r.get(f"{name}/assignment")
            mult = {t: oracles.janet_mult(ct, t) for t in ct}
            if A is None or any(set(A.mult[Term(t)]) != mult[t] for t in ct):
                bad[f"{name}/assignment"] = "multiplicative variables disagree with brute force"
            for k, gamma in enumerate(lookups):
                qid = f"{name}/decompose{k}"
                f = r.get(qid)
                if f is None:
                    continue
                h, co = f.head.exponents, f.cofactor.exponents
                if h not in mult or _plus(h, co) != gamma.exponents or any(
                    e and (j + 1) not in mult[h] for j, e in enumerate(co)
                ):
                    bad[qid] = "not a Janet star factorization"
            for k in degrees:
                qid = f"{name}/hilbert{k}"
                if qid in r and r[qid] != oracles.escalier_count(gens, 4, k):
                    bad[qid] = "Hilbert value differs from the escalier count"
        expected = {"cycle": (CYCLE_DETECTED, 2), "limit": (STEP_LIMIT, self.STEP_CAP), "reduced": (REDUCED, 1)}
        for i, (kind, *_rest) in enumerate(inputs["reductions"]):
            qid = f"R/reduce{i}/{kind}"
            trace = r.get(qid)
            if trace is not None and (trace.status, len(trace.steps)) != expected[kind]:
                bad[qid] = f"{trace.status} after {len(trace.steps)} steps, expected {expected[kind]}"
        return bad


# ----------------------------------------------------------- marked scheme


def _reduce_fresh(basis, tails, poly, step_cap):
    # A new marked set per query: its completeness and decomposition caches start empty.
    return inv.reduce(inv.make_marked_set(basis, tails), poly, step_cap=step_cap)


def _specialize_values(gm, values):
    return inv.specialize(gm, dict(zip(gm.params, values)))


def _evaluate_values(eqs, values):
    return inv.evaluate_equations(eqs, dict(zip(eqs.generic.params, values)))


class MarkedScheme(Workload):
    """Scheme equations, specialization, the marked-basis criterion and its oracle."""

    name = "marked-scheme"
    # Ideals (x_2, ..., x_n)^d: (n, d, seeded points checked in full, seeded
    # points where only the equations are evaluated).  Evaluating the
    # (4,3) equations costs nearly the same at every point; those twenty
    # queries pin the 90th latency percentile.
    LADDER = ((4, 3, 3, 20), (3, 5, 3, 0), (4, 4, 1, 0), (5, 3, 0, 0))
    # Seeded quasi-stable ideals in 3 variables: (termination degree, minimal generators).
    RANDOM = ((9, 4),) * 30
    RANDOM_VALUES = 256

    TINY = {"LADDER": ((3, 3, 2, 1),), "RANDOM": ((9, 4),)}

    def build(self, seed, tiny=False):
        sizes = {**vars(type(self)), **(self.TINY if tiny else {})}
        rng = random.Random(f"{self.name}:{seed}")
        ladder = []
        for n, d, npoints, nevaluate in sizes["LADDER"]:
            gens = [t for t in oracles.exp_tuples(n, d) if t[0] == 0]
            nparams = len(gens) * sum(1 for t in oracles.exp_tuples(n, d) if t[0])
            points = []
            for p in range(npoints):
                # The zero point is the monomial ideal itself; a sparse point
                # moves few parameters, a dense one most of them.
                zero_chance = 1.0 if p == 0 else 0.85 if p == 1 and npoints > 2 else 0.3
                points.append([oracles.random_rational(rng, zero_chance) for _ in range(nparams)])
            evaluate_only = [
                [oracles.random_rational(rng, 0.3) for _ in range(nparams)] for _ in range(nevaluate)
            ]
            ladder.append((f"x2..x{n}^{d}", ideal_of(gens, n), points, evaluate_only))
        randoms = []
        for termination, ngens in sizes["RANDOM"]:
            gens = oracles.random_quasi_stable(rng, 3, 3, 4, termination, ngens)
            values = [oracles.random_rational(rng, 0.3) for _ in range(self.RANDOM_VALUES)]
            randoms.append((ideal_of(gens, 3), values))
        return {"ladder": ladder, "random": randoms}

    def batch(self, inputs, q):
        for name, J, points, evaluate_only in inputs["ladder"]:
            eqs = q(f"L/{name}/scheme_equations", inv.scheme_equations, J)
            gm = eqs.generic if eqs is not None else None
            for p, values in enumerate(points):
                G = q(f"R/{name}/p{p}/specialize", _specialize_values, gm, values)
                q(f"R/{name}/p{p}/evaluate", _evaluate_values, eqs, values)
                q(f"R/{name}/p{p}/is_marked_basis", inv.is_marked_basis, G)
                q(f"R/{name}/p{p}/oracle", inv.oracle_check, G, G.basis.max_degree() + 1)
            for p, values in enumerate(evaluate_only):
                q(f"R/{name}/e{p}/evaluate", _evaluate_values, eqs, values)
        for i, (J, values) in enumerate(inputs["random"]):
            gm = q(f"R/rand{i}/generic", inv.generic_marked_set, J)
            G = q(f"R/rand{i}/specialize", _specialize_values, gm, values)
            q(f"R/rand{i}/is_marked_basis", inv.is_marked_basis, G)
            q(f"R/rand{i}/oracle", inv.oracle_check, G, G.basis.max_degree() + 1)

    def cross_check(self, inputs, rec):
        bad = {}
        r = rec.results
        prefixes = [f"R/{name}/p{p}" for name, _, points, _ in inputs["ladder"] for p in range(len(points))]
        prefixes += [f"R/rand{i}" for i in range(len(inputs["random"]))]
        for prefix in prefixes:
            verdict, oracle = r.get(f"{prefix}/is_marked_basis"), r.get(f"{prefix}/oracle")
            if verdict is not None and oracle is not None and verdict.is_basis != oracle:
                bad[f"{prefix}/is_marked_basis"] = "criterion and linear-algebra oracle disagree"
            values = r.get(f"{prefix}/evaluate")
            if values is not None and verdict is not None and verdict.is_basis != (not any(values)):
                bad[f"{prefix}/evaluate"] = "scheme equations vanish iff the point is a basis: violated"
        for i, (_, values) in enumerate(inputs["random"]):
            gm = r.get(f"R/rand{i}/generic")
            if gm is not None and len(gm.params) > len(values):
                bad[f"R/rand{i}/generic"] = "more parameters than seeded values"
        for name, _, points, _ in inputs["ladder"]:
            verdict = r.get(f"R/{name}/p0/is_marked_basis")
            if verdict is not None and not verdict.is_basis:
                bad[f"R/{name}/p0/is_marked_basis"] = "the monomial ideal itself must be a marked basis"
        return bad


# --------------------------------------------------------------------- cli


CORPUS_COMMANDS = {
    "termset": (
        ("mult-vars",),
        ("complete-check",),
        ("stably-complete-check",),
        ("complete",),
        ("hilbert", "--degree-bound", "4"),
    ),
    "ideal": (
        ("classify",),
        ("pommaret",),
        ("star-set", "--degree-bound", "6"),
        ("sigma", "--degree-bound", "3"),
        ("involutive-test", "--degree-bound", "3"),
        ("scheme-equations",),
    ),
    "marked": (("is-marked-basis",), ("oracle-check",)),
    "reduce": (("reduce",), ("reduce", "--trace")),
    "specialize": (("specialize",),),
}


def _term_list(gens):
    return [list(g) for g in gens]


def _poly_json(poly):
    return [{"term": list(t.exponents), "coeff": str(c)} for t, c in poly.items()]


def process_start_reference() -> float:
    """Seconds to start and stop a bare interpreter.

    The yardstick for the cli workload, whose queries are mostly process
    start-up: contention slows exec, loading and imports differently from
    interpreted loops.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0


class Cli(Workload):
    """One ``python -m involutive.cli`` process per query."""

    name = "cli"
    reference = staticmethod(process_start_reference)
    TINY_CORPUS = ("termset_m1.json", "ideal_stable.json")

    def build(self, seed, tiny=False):
        rng = random.Random(f"{self.name}:{seed}")
        work = WORK_DIR / f"cli-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        files = sorted((ROOT / "corpus").glob("*.json"))
        if tiny:
            files = [f for f in files if f.name in self.TINY_CORPUS]
        commands = []
        for path in files:
            kind = path.stem.split("_")[0]
            for cmd in CORPUS_COMMANDS[kind]:
                label = "-".join(a.lstrip("-") for a in cmd if not a.isdigit())
                commands.append((f"L/{path.stem}/{label}", [cmd[0], "--input", _rel(path), *cmd[1:]]))

        def add(qid, doc, *cmd):
            path = work / (qid.replace("/", "_") + ".json")
            path.write_text(json.dumps(doc), encoding="utf-8")
            commands.append((qid, [cmd[0], "--input", _rel(path), *cmd[1:]]))

        # Small ladder inputs: their compute stays well under process start-up,
        # so the slowest tenth of the calls is not a handful of heavy ones.
        ladder_set = oracles.random_term_set(random.Random("cli-ladder"), 3, 10, 5)
        add("L/m3n3/pommaret", {"vars": 3, "generators": _term_list(oracles.exp_tuples(3, 3))}, "pommaret")
        if not tiny:
            add("L/x2..x3^3/scheme", {"vars": 3, "generators": _term_list(
                t for t in oracles.exp_tuples(3, 3) if t[0] == 0)}, "scheme-equations")
            add("L/x3/star-set", {"vars": 3, "generators": [[0, 0, 1]]}, "star-set", "--degree-bound", "10")
            add("L/set10/complete", {"vars": 3, "terms": _term_list(ladder_set)}, "complete")
        seeded_set = oracles.random_term_set(rng, 3, 10, 5)
        add("R/set/complete", {"vars": 3, "terms": _term_list(seeded_set)}, "complete")
        add("R/set/complete-check", {"vars": 3, "terms": _term_list(seeded_set)}, "complete-check")
        qs = oracles.random_quasi_stable(rng, 3, 3, 4, 9, 4)
        add("R/qs/pommaret", {"vars": 3, "generators": _term_list(qs)}, "pommaret")
        add("R/qs/classify", {"vars": 3, "generators": _term_list(qs)}, "classify")
        basis, tails, poly = cycle_reduction_input(rng, "cycle", 4)
        marked_doc = {
            "vars": 5,
            "polynomials": [
                {"head": list(h.exponents), "tail": _poly_json(tails.get(h, {}))} for h in basis
            ],
        }
        add("R/cycle/reduce", {"marked_set": marked_doc, "polynomial": _poly_json(poly)}, "reduce")
        return {"work": work, "commands": commands}

    def batch(self, inputs, q):
        env = src_env()
        for qid, argv in inputs["commands"]:
            q(qid, _run, [sys.executable, "-m", "involutive.cli", *argv], env)

    def traced_batch(self, inputs, q, tracer):
        env = src_env()
        launcher = str(BENCH_DIR / "cli_launcher.py")
        out = inputs["work"] / "trace.json"
        extra = {"cli.import_s": 0.0, "cli.process_overhead_s": 0.0, "serialize.report_bytes": 0}
        for qid, argv in inputs["commands"]:
            result = q(qid, _run, [sys.executable, launcher, str(out), *argv], env)
            summary = json.loads(out.read_text(encoding="utf-8"))
            out.unlink()
            for span in summary["spans"]:
                span[0] = qid
            tracer.merge(summary)
            extra["cli.import_s"] += summary["import_s"]
            extra["cli.process_overhead_s"] += q.latency[qid] - summary["import_s"] - summary["main_s"]
            if result is not None:
                extra["serialize.report_bytes"] += len(result[1])
        return extra

    def cross_check(self, inputs, rec):
        bad = {}
        r = rec.results
        for qid, argv in inputs["commands"]:
            res = r.get(qid)
            if res is None:
                continue
            code, out = res
            try:
                report = json.loads(out)
            except ValueError:
                bad[qid] = "the report is not JSON"
                continue
            if code not in (0, 1, 2):
                bad[qid] = f"exit code {code}"
            elif argv[0] == "complete" and code == 0:
                terms = [tuple(t) for t in report["terms"]]
                if not oracles.is_janet_complete(terms):
                    bad[qid] = "completion fails the brute-force Janet check"
        basis = r.get("L/marked_basis_example/is-marked-basis")
        oracle = r.get("L/marked_basis_example/oracle-check")
        if basis is not None and oracle is not None and basis[0] != oracle[0]:
            bad["L/marked_basis_example/is-marked-basis"] = "criterion and oracle exit codes disagree"
        return bad

    def close(self, inputs):
        work = inputs["work"]
        for path in work.glob("*"):
            path.unlink()
        work.rmdir()


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _run(cmd, env):
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout.decode("utf-8")


WORKLOADS = {w.name: w for w in (StarSets(), Janet(), MarkedScheme(), Cli())}
