"""Run one CLI call with every library layer traced.

    python3 bench/cli_launcher.py SUMMARY.json <involutive CLI arguments...>

The report and exit code are those of ``involutive.cli.main``.  The tracer
summary (counts, self times, spans), the import time of ``involutive.cli``
and the time spent in ``main`` are written to SUMMARY.json.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    import involutive.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    try:
        code = involutive.cli.main(argv)
    finally:
        main_s = time.perf_counter() - t0
        tracer.restore()
    sys.stdout.flush()
    summary = tracer.summary()
    summary.update(import_s=import_s, main_s=main_s)
    out.write_text(json.dumps(summary), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
