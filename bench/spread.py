"""Run one workload over several seeds and report each metric's spread.

    python3 bench/spread.py --workload janet --seeds 1-10

Prints, per metric, the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
then one JSON line with every run's metrics.  Runs are sequential and last
``run_seconds`` of BENCHMARK.json each, with tracing off.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from workloads import BENCH_DIR, ROOT


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        metrics = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed} correct={result['correct']} failed={result['failed']} {metrics}", flush=True)
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:<34} median {med:.6g}  IQR/median {share:.4f}")
    print(json.dumps(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
