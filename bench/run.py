"""Benchmark of the involutive library and CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload star-sets --seed 1 --seconds 25 --trace 0

Workloads: star-sets, janet, marked-scheme, cli (see bench/README.md).  One
client answers one query at a time (closed loop, no threads).

With ``--trace 0`` the command answers whole query batches until the next
batch would overrun ``--seconds`` (at least one) and sets up again after
each batch.  It prints, per batch and then as the median over batches, the
time spent answering the batch (batch_s) and the median and 90th percentile
of per-query latency (query_p50_ms, query_p90_ms), each also divided by the
mean time of the workload's yardstick, timed every quarter second during
the batch (batch_ref, query_p50_ref, query_p90_ref): a fixed pure-Python
loop, or for cli the start of a bare interpreter.  Other tenants of a
shared host change its speed by a third for minutes at a time; the ratios
cancel most of that drift, the raw times do not.  setup_s is the median of
the run's set-up times (at least SETUP_SAMPLES of them) and peak_rss_mb the
peak resident set size.

With ``--trace 1`` it answers one batch untraced and one with every library
layer wrapped (bench/tracer.py), checks that both give the same output
digests, and prints the per-layer metrics.

Every answer is checked: against the digests pinned in bench/reference.json,
against independent brute-force helpers, and across repeated batches.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary, including failed_ratio = failed / attempted.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

try:
    from workloads import BENCH_DIR, ROOT, SRC, WORK_DIR, WORKLOADS, Recorder, src_env
except ImportError as exc:  # no library source tree next to the benchmark
    sys.exit(f"error: cannot import the involutive source tree: {exc}")

REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 1
SETUP_SAMPLES = 15


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Benchmark the involutive library and CLI.")
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-tests")
    return p.parse_args(argv)


def measure_import() -> float:
    """Seconds to import ``involutive`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import involutive; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=src_env(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def setup_once(workload, seed: int, tiny: bool):
    """One set-up: import time in a fresh interpreter plus input-building time."""
    imported = measure_import()
    t0 = time.perf_counter()
    inputs = workload.build(seed, tiny)
    return imported + time.perf_counter() - t0, inputs


def load_reference(name: str, seed: int):
    """Pinned digests: (fixed queries, seeded queries of this seed or None)."""
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"].get(name, {})
    seeded = data.get("seeded", {}).get(str(seed))
    return data.get("fixed", {}), (seeded.split() if seeded is not None else None)


def verify(workload, inputs, recs, seed: int, tiny: bool):
    """Count failed answers over every recorded batch; return (failed, attempted, notes)."""
    first = recs[0].digests()
    bad = dict(recs[0].errors)
    notes = []
    if not tiny:
        fixed, seeded = load_reference(workload.name, seed)
        seeded_ids = [qid for qid in recs[0].order if not qid.startswith("L/")]
        for qid in recs[0].order:
            if qid.startswith("L/"):
                expected = fixed.get(qid)
                if expected is None:
                    bad.setdefault(qid, "no reference digest")
                elif not first[qid].startswith(expected):
                    bad.setdefault(qid, "digest differs from the reference")
        if seeded is None:
            notes.append(f"seed {seed} has no pinned digests: seeded answers checked by cross-checks only")
        elif len(seeded) != len(seeded_ids):
            bad.update({qid: "seeded query list differs from the reference" for qid in seeded_ids})
        else:
            for qid, expected in zip(seeded_ids, seeded):
                if not first[qid].startswith(expected):
                    bad.setdefault(qid, "digest differs from the reference")
    for qid, why in workload.cross_check(inputs, recs[0]).items():
        bad.setdefault(qid, why)
    failed = attempted = 0
    for i, rec in enumerate(recs):
        digests = first if i == 0 else rec.digests()
        for qid in rec.order:
            attempted += 1
            if qid in bad or qid in rec.errors or digests[qid] != first.get(qid):
                failed += 1
                if qid not in bad:
                    bad[qid] = f"batch {i} answer differs from batch 0"
    notes += [f"FAILED {qid}: {why}" for qid, why in sorted(bad.items())]
    return failed, attempted, notes


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def batch_stats(rec) -> dict[str, float]:
    """Busy time and latency quantiles of one batch, raw and in reference loops."""
    lat = [rec.latency[qid] for qid in rec.order]
    ref = statistics.fmean(rec.reference)
    raw = {"busy_s": sum(lat), "p50_s": quantile(lat, 0.5), "p90_s": quantile(lat, 0.9)}
    return {**raw, "ref_s": ref, **{key.replace("_s", "_ref"): v / ref for key, v in raw.items()}}


def run_untraced(workload, inputs, seconds: float, seed: int, tiny: bool):
    """Answer whole batches until the next would overrun ``seconds``.

    A set-up is repeated after each batch, so set-up samples are spread over
    the run like the batches (at least ``SETUP_SAMPLES``); the rebuilt
    inputs equal ``inputs`` and are dropped (the cli workload rewrites the
    same files).
    """
    recs, setup_s = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        rec = Recorder(reference=workload.reference)
        t0 = time.perf_counter()
        workload.batch(inputs, rec)
        took = time.perf_counter() - t0
        if recs:
            rec.release()
        recs.append(rec)
        setup_s.append(setup_once(workload, seed, tiny)[0])
        if (time.perf_counter() - start) + took > seconds:
            break
    while len(setup_s) < SETUP_SAMPLES:
        setup_s.append(setup_once(workload, seed, tiny)[0])
    return recs, setup_s


def run_traced(workload, inputs, name: str, seed: int):
    from tracer import Tracer, layer_metrics

    gc.collect()
    plain = Recorder(reference=workload.reference)
    workload.batch(inputs, plain)
    gc.collect()
    tracer = Tracer()
    traced = Recorder(tracer, reference=workload.reference)
    extra = workload.traced_batch(inputs, traced, tracer)
    untraced, with_trace = batch_stats(plain), batch_stats(traced)
    extra["trace.overhead_ratio"] = with_trace["busy_ref"] / untraced["busy_ref"]
    WORK_DIR.mkdir(exist_ok=True)
    tracer.write_spans(WORK_DIR / f"spans-{name}-seed{seed}.jsonl")
    return [plain, traced], layer_metrics(tracer, extra), (untraced, with_trace, tracer)


def main(argv=None) -> int:
    args = parse_args(argv)
    import involutive  # already imported, and so compiled, by workloads

    if not Path(involutive.__file__).resolve().is_relative_to(SRC) or not (ROOT / "corpus").is_dir():
        print(f"error: no involutive source tree and corpus under {ROOT}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    first_setup_s, inputs = setup_once(workload, args.seed, args.tiny)
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    try:
        if args.trace:
            recs, layer, (untraced, with_trace, tracer) = run_traced(workload, inputs, args.workload, args.seed)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            total = sum(tracer.layer_self.values())
            lines.append(f"untraced batch {untraced['busy_s']:.3f} s, traced batch {with_trace['busy_s']:.3f} s, "
                         f"overhead x{layer['trace.overhead_ratio'][0]:.2f} (in reference loops)")
            for layer_name, secs in sorted(tracer.layer_self.items(), key=lambda kv: -kv[1]):
                lines.append(f"  self time {layer_name:<10} {secs:9.4f} s  {100 * secs / total:5.1f}%")
        else:
            recs, setup_s = run_untraced(workload, inputs, args.seconds, args.seed, args.tiny)
            rss = peak_rss_mb(children=args.workload == "cli")
            stats = [batch_stats(rec) for rec in recs]

            def median(key):
                return statistics.median(st[key] for st in stats)

            metrics = {
                "setup_s": {"value": statistics.median([first_setup_s, *setup_s]), "unit": "s"},
                "batch_ref": {"value": median("busy_ref"), "unit": "ref"},
                "query_p50_ref": {"value": median("p50_ref"), "unit": "ref"},
                "query_p90_ref": {"value": median("p90_ref"), "unit": "ref"},
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            }
            samples = sum(len(rec.order) for rec in recs)
            lines.append(f"batches {len(recs)}  queries per batch {len(recs[0].order)}  "
                         f"latency samples {samples}  set-ups {1 + len(setup_s)}")
            lines.append(f"{'batch_s':<36} {median('busy_s'):.6g} s")
            lines.append(f"{'query_p50_ms':<36} {1000 * median('p50_s'):.6g} ms")
            lines.append(f"{'query_p90_ms':<36} {1000 * median('p90_s'):.6g} ms")
            lines.append(f"{'reference_ms':<36} {1000 * median('ref_s'):.6g} ms")
        failed, attempted, notes = verify(workload, inputs, recs, args.seed, args.tiny)
    finally:
        workload.close(inputs)
    for name, m in metrics.items():
        lines.append(f"{name:<36} {m['value']:.6g} {m['unit']}")
    lines.append(f"{'failed_ratio':<36} {failed / attempted:.6g} ({failed}/{attempted})")
    lines += notes
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
