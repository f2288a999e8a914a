"""Traced stand-in for `python -m graphinv` in the traced `cli-cache` run.

Usage: python perfbench/cli_trace.py <trace.json> <graphinv arguments...>

Imports `graphinv.cli` (timing the import), installs the tracer's wrappers,
calls `graphinv.cli.main` with the remaining arguments and exits with its
status.  The spans are written to <trace.json> when the process ends, also
when main raises, in which case the traceback and exit status 1 are the same
as under `python -m graphinv`.
"""

import json
import sys
import time

t0 = time.perf_counter()
import graphinv.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
try:
    status = graphinv.cli.main(sys.argv[2:])
finally:
    sys.stdout.flush()
    snap = tracer.snapshot()
    snap["import_s"] = import_s
    with open(sys.argv[1], "w") as fh:
        json.dump(snap, fh)
sys.exit(status)
