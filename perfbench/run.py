#!/usr/bin/env python3
"""posmon benchmark: three seeded closed-loop workloads with one client each.

Run from the repository root:

    python3 perfbench/run.py --workload sequence-queries --seed 1 --seconds 20 --trace 0

Workloads: sequence-queries, semiring, cli-processes (see
BENCHMARK.json and perfbench/baseline.json for why each exists).  One client
sends the next query only after the previous answer; the library workloads
run in this process, cli-processes runs one ``python -m posmon`` child at a
time.  A run executes every pinned row once (see workloads.py), spread
evenly through ``--seconds`` of the seeded random stratum, and holds at least
MIN_QUERIES queries.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the pinned
rows and the first random queries (MIN_QUERIES in all) untraced, then the
same queries with every public posmon
function wrapped in a span, and prints the per-layer metrics; spans go to
``.bench_build/trace-<workload>-<seed>.json``.  After those passes it runs
the workload's known-defect rows (rows that timed out, crashed or answered
wrongly when the benchmark was written) untraced and counts the ones that
still fail in the ``bench.known_defects.*`` metrics; they are never part of
``attempted`` or ``failed``.  Every answer is checked against an independent
reference after timing ends.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")

# Per-query time limit.  When the benchmark was written, no query finished
# between a third of it and three times it, so a verdict cannot flip between
# "answered" and "timed out" from run-to-run noise.
QUERY_TIME_LIMIT_S = 8.0
# Set-up is timed this many times before the loop and again after it, so the
# median spans the run rather than one moment of the machine's speed.
SETUP_REPEATS = 5
WORKLOADS = ("sequence-queries", "semiring", "cli-processes")

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_qps": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics: "*" means both .calls and .self_s.
LAYER_FUNCTIONS = {
    "rationals": {"padic_valuation": "*", "is_prime": "*", "prime_factors": "*", "nth_prime": "*"},
    "monoids": {
        "contains": "*",
        "generators": "*",
        "is_atom": "*",
        "certified_atoms": "self_s",
        "is_multiplicative_atom": "*",
    },
    "factorize": {
        "atoms_for_query": "*",
        "enumerate_factorizations": "*",
        "factorizations_of_length": "*",
        "length_set": "*",
        "completeness_certificate": "*",
    },
    "semiring": {"gp_mul": "*", "gp_divide": "*", "is_irreducible_gp": "*", "factor_gp": "*"},
    "certificates": {
        "lff_violation": "self_s",
        "accp_chain": "self_s",
        "bf_violation_unit_fractions": "self_s",
        "ffm_divisor_bound_alternating": "self_s",
        "classify": "self_s",
    },
    "sequences": {"longest_strictly_increasing": "self_s", "longest_weakly_decreasing": "self_s"},
    "battery": {"run_battery": "self_s"},
    "cli": {"main": "self_s"},
}
LAYER_EXTRAS = {
    "monoids.contains.member_ratio": "ratio",
    "factorize.atoms_for_query.atoms": "count",
    "factorize.factorizations_returned": "count",
    "semiring.gp_divide.success_ratio": "ratio",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.cache_hit_ratio": "ratio",
    "cli.tracebacks": "count",
    "bench.known_defects.timeouts": "count",
    "bench.known_defects.errors": "count",
    "bench.known_defects.wrong": "count",
    "bench.tracing_overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    units = {}
    for layer, funcs in LAYER_FUNCTIONS.items():
        for fn, which in funcs.items():
            if which == "*":
                units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    units.update(LAYER_EXTRAS)
    return units


class QueryTimeout(BaseException):
    """Raised by the interval timer; BaseException so no handler in the
    program under test can swallow it."""


class Alarm:
    """A one-shot interval timer that interrupts the running query."""

    def __init__(self, limit: float):
        self.limit = limit
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            raise QueryTimeout()

    def call(self, fn, *args):
        try:
            try:
                self.armed = True
                signal.setitimer(signal.ITIMER_REAL, self.limit)
                return fn(*args)
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except QueryTimeout:
            return {"timeout": True}


# -------------------------------------------------------------------- passes

# Answers are checked in batches of this many, with the clock stopped, so the
# harness holds only a bounded number of raw answers at any time.
SETTLE_EVERY = 256


class Outcome:
    """One attempted query after checking."""

    __slots__ = ("qid", "pin", "known", "mode", "why", "elapsed", "answer", "query")

    def __init__(self, query, answer, elapsed, mode, why, keep):
        self.qid, self.pin, self.known = query.qid, query.pin, query.known
        self.mode, self.why, self.elapsed = mode, why, elapsed
        self.answer = answer if keep else None  # kept for the answers digest
        self.query = query  # for the failure report


def closed_loop(rows, ask, settle, seconds=None, count=None):
    """Send queries one at a time; return ([Outcome], latencies, wall seconds).

    ``rows`` is (pinned rows, random-stratum iterator).  With ``count`` the
    pass is every pinned row plus the first ``count - len(pinned)`` random
    queries.  Otherwise the random stratum runs for ``seconds`` of wall time
    not spent in pinned rows (at least MIN_QUERIES queries in all).  Either
    way the pinned rows are spread evenly through the random stratum, so both
    sample the whole run.  Checking (``settle``) happens with the clock
    stopped.  Every query's latency is returned, but only the outcomes that
    failed or whose answer is kept, so the harness's memory does not grow
    with the number of queries and peak RSS stays the program's.
    """
    import workloads

    pinned, randoms = rows
    quota = None if count is None else count - len(pinned)
    outcomes, pending, latencies = [], [], array.array("d")
    attempted, done_random, pinned_s, paused_s, i = 0, 0, 0.0, 0.0, 0
    start = perf_counter()
    while True:
        clock = perf_counter() - start - paused_s
        if quota is None:
            progress = (clock - pinned_s) / seconds
        else:
            progress = done_random / quota if quota else 1.0
        if i < len(pinned) and progress >= (i + 0.5) / len(pinned):
            query = pinned[i]
            i += 1
        elif progress >= 1 and (quota is not None or attempted >= workloads.MIN_QUERIES):
            if i == len(pinned):
                break
            query = pinned[i]
            i += 1
        else:
            query = next(randoms)
            done_random += 1
        got, elapsed = ask(query)
        attempted += 1
        latencies.append(elapsed)
        pending.append((query, got, elapsed))
        if query.pin:
            pinned_s += elapsed
        if len(pending) >= SETTLE_EVERY:
            t0 = perf_counter()
            outcomes += settle(pending)
            pending = []
            paused_s += perf_counter() - t0
    wall = perf_counter() - start - paused_s
    return outcomes + settle(pending), latencies, wall


def library_pass(rows, seconds=None, count=None, tracer=None):
    """([Outcome], latencies, wall seconds, peak RSS in MB) of one in-process pass."""
    import library
    from posmon.errors import PosmonError

    alarm = Alarm(QUERY_TIME_LIMIT_S)

    def answer(query):
        try:
            return library.execute(query.kind, query.args)
        except PosmonError as exc:
            return {"error": type(exc).__name__}
        except Exception as exc:  # the program crashed on a valid query
            return {"error": type(exc).__name__, "unexpected": True}

    def ask(query):
        if tracer is not None:
            tracer.begin_query(query.qid)
        t0 = perf_counter()
        got = alarm.call(answer, query)
        return got, QUERY_TIME_LIMIT_S if "timeout" in got else perf_counter() - t0

    def settle(raw):
        return _settle(raw, lambda q, got: library.check(q.kind, q.args, got))

    outcomes, latencies, wall = closed_loop(rows, ask, settle, seconds, count)
    return outcomes, latencies, wall, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cli_pass(rows, seconds=None, count=None, tracer=None):
    """Like library_pass, one child process per query; with a tracer the
    children run the tracing shim and their span totals are merged here."""
    import cliwork

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=WORK)
    shim = os.path.join(HERE, "cli_shim.py") if tracer is not None else None
    runner = cliwork.CliRunner(ROOT, workdir, QUERY_TIME_LIMIT_S, shim)
    interp, imports = [], []

    def ask(query):
        cmd = runner.prepare(query.qid, query.args)  # input files: not timed
        t0 = perf_counter()
        got = runner.run(cmd)
        elapsed = perf_counter() - t0
        if tracer is not None and "timeout" not in got:
            with open(cmd[2], encoding="utf-8") as fh:
                child = json.load(fh)
            interp.append(child["entered"] - t0)
            imports.append(child["import_s"])
            tracer.merge(child["stats"], child["counters"])
            tracer.child_spans.extend([query.qid, *span[1:]] for span in child["spans"])
        return got, QUERY_TIME_LIMIT_S if "timeout" in got else elapsed

    def settle(raw):
        return _settle(raw, lambda q, got: cliwork.check(q.args, got))

    try:
        outcomes, latencies, wall = closed_loop(rows, ask, settle, seconds, count)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.counters["cli.interpreter_s"] = statistics.mean(interp) if interp else 0.0
        tracer.counters["cli.import_s"] = statistics.mean(imports) if imports else 0.0
    return outcomes, latencies, wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


# ------------------------------------------------------------------ checking


def _settle(raw, reason) -> list:
    """Check raw (query, answer, seconds) records against the references;
    return the outcomes that failed or whose answer the digest keeps.

    Failure modes: 'timeout'; 'error' for a crash or a printed traceback;
    'wrong' for an answer that disagrees with its reference.
    """
    import workloads

    out = []
    for query, got, elapsed in raw:
        if "timeout" in got:
            mode, why = "timeout", ""
        elif got.get("unexpected"):
            mode, why = "error", got["error"]
        else:
            why = reason(query, got)
            mode = ("error" if got.get("traceback") else "wrong") if why else ""
        keep = query.qid < workloads.MIN_QUERIES
        if keep or mode:
            out.append(Outcome(query, got, elapsed, mode, why, keep))
    return out


def unexpected_failures(outcomes):
    """Wrong answers and crashes, except a known-defect row failing the way
    it was known to.  Timeouts are counted as failures but never make a run
    incorrect."""
    return [o for o in outcomes if o.mode in ("error", "wrong") and o.known != o.mode]


def digest(outcomes) -> str:
    """Digest of the kept answers (pinned rows and the first random queries)."""
    h = hashlib.sha256()
    for o in sorted((o for o in outcomes if o.answer is not None), key=lambda o: o.qid):
        h.update(json.dumps([o.qid, o.answer], sort_keys=True).encode())
    return h.hexdigest()[:16]


# ------------------------------------------------------------------- metrics


def measure_setup(repeats: int) -> list[float]:
    """Wall times of fresh interpreters importing posmon and posmon.cli."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, "-c", "import posmon, posmon.cli"]
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        # The stdout pipe makes the wait end when the child exits; without a
        # pipe, a wait with a timeout polls every 50 ms and quantizes the time.
        subprocess.run(cmd, env=env, check=True, timeout=60, stdout=subprocess.PIPE)
        times.append(perf_counter() - t0)
    return times


def end_to_end(latencies, wall, rss_mb, setup_s) -> dict:
    lat_ms = [t * 1000 for t in latencies]
    values = {
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "throughput_qps": len(lat_ms) / wall,
        "peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(tracer, outcomes, wall_a, wall_b, defect_outcomes) -> dict:
    """Per-layer metrics of a traced pass; bench.known_defects.* count the
    known-defect rows that still fail, by failure mode."""
    stats, counters = tracer.stats, tracer.counters
    values = {}
    for layer, funcs in LAYER_FUNCTIONS.items():
        for fn, which in funcs.items():
            calls, _, own = stats.get(f"{layer}.{fn}", (0, 0.0, 0.0))
            if which == "*":
                values[f"{layer}.{fn}.calls"] = calls
            values[f"{layer}.{fn}.self_s"] = own

    def ratio(num, den):
        return num / den if den else 0.0

    clis = [o.answer for o in outcomes if "exit" in o.answer]
    defect_clis = [o.answer for o in defect_outcomes if "exit" in o.answer]
    values.update(
        {
            "monoids.contains.member_ratio": ratio(counters.get("contains.members", 0), values["monoids.contains.calls"]),
            "factorize.atoms_for_query.atoms": ratio(
                counters.get("atoms_for_query.atoms", 0), values["factorize.atoms_for_query.calls"]
            ),
            "factorize.factorizations_returned": counters.get("factorizations_returned", 0),
            "semiring.gp_divide.success_ratio": ratio(
                counters.get("gp_divide.successes", 0), values["semiring.gp_divide.calls"]
            ),
            "cli.interpreter_s": counters.get("cli.interpreter_s", 0.0),
            "cli.import_s": counters.get("cli.import_s", 0.0),
            "cli.cache_hit_ratio": ratio(sum(got["cache_hit"] for got in clis), len(clis)),
            "cli.tracebacks": sum(got["traceback"] for got in clis + defect_clis),
            "bench.known_defects.timeouts": sum(o.mode == "timeout" for o in defect_outcomes),
            "bench.known_defects.errors": sum(o.mode == "error" for o in defect_outcomes),
            "bench.known_defects.wrong": sum(o.mode == "wrong" for o in defect_outcomes),
            "bench.tracing_overhead_ratio": wall_b / wall_a,
        }
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}


# ---------------------------------------------------------------------- main


def _require_program() -> None:
    needed = ("src/posmon/__init__.py", "src/posmon/cli.py", "tests/oracles.py")
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: program sources missing under {ROOT}: {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    sys.path[1:1] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]


def _report_failures(outcomes, label) -> None:
    for o in outcomes:
        if o.mode:
            row = o.pin or f"{o.query.kind} {json.dumps(o.query.args, sort_keys=True)}"
            print(f"  {label} failure q{o.qid} {o.mode} ({o.elapsed:.3f}s): {row} {o.why}".rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_program()

    import workloads

    def run_pass(seconds=None, count=None, tracer=None, rows=None):
        rows = rows or workloads.stream(args.workload, args.seed)
        if args.workload == "cli-processes":
            return cli_pass(rows, seconds, count, tracer)
        return library_pass(rows, seconds, count, tracer)

    if args.trace == 0:
        measure_setup(1)  # writes the bytecode caches
        setup = measure_setup(SETUP_REPEATS)
        outcomes, latencies, wall, rss_mb = run_pass(seconds=args.seconds)
        setup += measure_setup(SETUP_REPEATS)
        metrics = end_to_end(latencies, wall, rss_mb, statistics.median(setup))
        passes = [("untraced", outcomes)]
        print(f"answers digest (pinned rows and first {workloads.MIN_QUERIES} random queries): {digest(outcomes)}")
    else:
        import tracing

        outcomes, latencies, wall_a, _ = run_pass(count=workloads.MIN_QUERIES)
        tracer = tracing.Tracer()
        if args.workload == "cli-processes":
            traced, _, wall_b, _ = run_pass(count=workloads.MIN_QUERIES, tracer=tracer)
        else:
            tracer.install()
            try:
                traced, _, wall_b, _ = run_pass(count=workloads.MIN_QUERIES, tracer=tracer)
            finally:
                tracer.uninstall()
        known = workloads.defects(args.workload)
        defect_outcomes, _, _, _ = run_pass(count=len(known), rows=(known, iter(())))
        passes = [("untraced", outcomes), ("traced", traced), ("known-defect", defect_outcomes)]
        metrics = per_layer(tracer, outcomes, wall_a, wall_b, defect_outcomes)
        plain, with_spans = digest(outcomes), digest(traced)
        print(f"answers digest untraced {plain} traced {with_spans}: {'identical' if plain == with_spans else 'DIFFERENT'}")
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
        tracing.write_json(path, {"workload": args.workload, "seed": args.seed, **tracer.dump()})
        print(f"spans written to {os.path.relpath(path, ROOT)}")

    bad = []
    for label, outs in passes:
        _report_failures(outs, label)
        bad += unexpected_failures(outs)
    for name, m in metrics.items():
        print(f"  {name:45s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not bad,
        "attempted": len(latencies),
        "failed": sum(1 for o in outcomes if o.mode),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
