"""Traced stand-in for ``python -m posmon``, used by the cli-processes workload.

    python perfbench/cli_shim.py TRACE_OUT.json <posmon arguments...>

Runs ``posmon.cli.main`` with every public posmon function wrapped in a span
(see tracing.py), exits with main's status, and lets an uncaught exception
print its traceback exactly as ``python -m posmon`` would.  The interpreter
start time, the import time of posmon and posmon.cli, and the span totals are
written to TRACE_OUT.json when the process ends.
"""

import sys
from time import perf_counter

entered = perf_counter()

import tracing  # noqa: E402  (after the clock read: not part of posmon's import)

t0 = perf_counter()
import posmon  # noqa: E402
import posmon.cli  # noqa: E402

import_s = perf_counter() - t0

out_path, argv = sys.argv[1], sys.argv[2:]
tracer = tracing.Tracer()
tracer.install()
try:
    status = posmon.cli.main(argv)
finally:
    tracer.uninstall()
    tracing.write_json(out_path, {"entered": entered, "import_s": import_s, **tracer.dump()})
sys.exit(status)
