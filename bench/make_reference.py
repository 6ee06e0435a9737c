"""Pin the output digests that bench/run.py checks answers against.

    python3 bench/make_reference.py [--seeds 0-15]

For every workload and seed this answers one batch, refuses to pin anything
if a query raised or a cross-check failed, and writes bench/reference.json:
the digest of every seed-independent query (``L/`` ids) and, per seed, the
digests of the seeded queries in batch order.  The file was generated at the
commit that introduced the benchmark; regenerate it only when a change is
meant to alter outputs, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import REFERENCE
from spread import seed_list
from workloads import WORKLOADS, Recorder

SEEDED_DIGEST_CHARS = 8


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-15")
    args = p.parse_args()
    out = {"format": 1, "workloads": {}}
    for name, workload in WORKLOADS.items():
        fixed: dict[str, str] = {}
        seeded: dict[str, str] = {}
        for seed in seed_list(args.seeds):
            inputs = workload.build(seed)
            try:
                rec = Recorder()
                workload.batch(inputs, rec)
                problems = {**rec.errors, **workload.cross_check(inputs, rec)}
            finally:
                workload.close(inputs)
            if problems:
                print(f"{name} seed {seed}: not pinned: {problems}", file=sys.stderr)
                return 1
            digests = rec.digests()
            for qid in rec.order:
                if qid.startswith("L/") and fixed.setdefault(qid, digests[qid]) != digests[qid]:
                    print(f"{name}: {qid} changes with the seed", file=sys.stderr)
                    return 1
            seeded[str(seed)] = " ".join(
                digests[qid][:SEEDED_DIGEST_CHARS] for qid in rec.order if not qid.startswith("L/")
            )
            print(f"{name} seed {seed}: {len(rec.order)} queries", flush=True)
        out["workloads"][name] = {"fixed": fixed, "seeded": seeded}
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
