"""Run ``carmahf.cli.main(argv)`` with span tracing for the traced cli-cold run.

    PYTHONPATH=src python3 -X importtime perfbench/cli_driver.py validate demos/models/car1.json

The CLI's own output is unchanged.  One extra stderr line, prefixed with
``tracing.TRACE_MARK``, carries the subcommand, the ``cli.main`` time and the
per-function span summary, tracemalloc peaks included.
"""

from __future__ import annotations

import json
import sys
import time

import tracing


def main(argv: list) -> int:
    import carmahf.cli

    tracer = tracing.Tracer(track_peaks=True)
    tracer.install()
    t0 = time.perf_counter()
    try:
        rc = carmahf.cli.main(argv)
    finally:
        main_ms = (time.perf_counter() - t0) * 1e3
        tracer.uninstall()
        doc = {"command": argv[0], "main_ms": main_ms, "functions": tracer.summary()}
        print(tracing.TRACE_MARK + json.dumps(doc), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
