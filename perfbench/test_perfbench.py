"""Checks of the benchmark itself: tracing coverage, tracing transparency,
and the references against the repository's brute-force oracles.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import cliwork  # noqa: E402
import library  # noqa: E402
import oracles  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

F = Fraction

# Names other modules import from posmon's layers; the tracer must wrap them
# where they are called from, not only where they are defined.
ALIASES = (
    "factorize.contains",
    "semiring.contains",
    "semiring.generators",
    "certificates.is_atom",
    "certificates.length_set",
    "battery.factorizations_of_length",
    "cli.enumerate_factorizations",
    "cli.factor_gp",
    "cli.lff_violation",
    "cli.parse_rational",
    "cli.longest_strictly_increasing",
)


def test_every_public_name_is_wrapped_or_excluded():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for layer in tracing.LAYERS:
            mod = importlib.import_module(f"posmon.{layer}")
            for name in mod.__all__:
                key = f"{layer}.{name}"
                wrapped = hasattr(getattr(mod, name), "__wrapped__")
                assert wrapped or tracing.EXCLUDED.get(key), f"{key} is neither wrapped nor excluded"
                assert not (wrapped and key in tracing.EXCLUDED), f"{key} is excluded but wrapped"
        for key in ALIASES:
            layer, name = key.split(".")
            assert hasattr(getattr(importlib.import_module(f"posmon.{layer}"), name), "__wrapped__"), key
    finally:
        tracer.uninstall()
    for key in tracing.EXCLUDED:
        layer, name = key.split(".")
        assert name in importlib.import_module(f"posmon.{layer}").__all__, f"stale exclusion {key}"
    assert not any(
        hasattr(getattr(importlib.import_module(f"posmon.{layer}"), name), "__wrapped__")
        for layer, name, _ in tracer.public_functions()
    ), "uninstall left wrappers behind"


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def _fast_queries(workload, count):
    _, randoms = workloads.stream(workload, 7)
    return [next(randoms) for _ in range(count)]


def test_traced_and_untraced_answers_are_identical():
    for workload in ("sequence-queries", "semiring"):
        queries = _fast_queries(workload, 40)
        plain = [_safe(q) for q in queries]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = [_safe(q) for q in queries]
        finally:
            tracer.uninstall()
        assert plain == traced, workload
        assert sum(calls for calls, _, _ in tracer.stats.values()) > 0


def _safe(query):
    try:
        return library.execute(query.kind, query.args)
    except Exception as exc:
        return {"error": type(exc).__name__}


def test_cli_shim_gives_the_same_answers(tmp_path):
    queries = [q for q in _fast_queries("cli-processes", 12) if q.args["argv"][0] != "paper-examples"][:6]
    answers = []
    for shim in (None, os.path.join(HERE, "cli_shim.py")):
        workdir = tmp_path / ("traced" if shim else "plain")
        workdir.mkdir()
        runner = cliwork.CliRunner(ROOT, str(workdir), 30.0, shim)
        cmds = [runner.prepare(q.qid, q.args) for q in queries]
        got = [runner.run(cmd) for cmd in cmds]
        assert all(cliwork.check(q.args, a) == "" for q, a in zip(queries, got))
        answers.append(got)
        if shim:
            for cmd in cmds:
                with open(cmd[2], encoding="utf-8") as fh:
                    assert json.load(fh)["stats"]["cli.main"][0] == 1
    assert answers[0] == answers[1]


def test_references_agree_with_the_oracles():
    rng = random.Random(5)
    for _ in range(150):
        gens = sorted({F(rng.randint(1, 12), rng.choice([1, 1, 2, 3])) for _ in range(rng.randint(1, 4))})
        x = F(rng.randint(1, 40), rng.choice([1, 2, 3, 6]))
        assert ref.member(gens, x) == oracles.naive_member(gens, x), (gens, x)
        if ref.member(gens, x):
            atoms = oracles.naive_atoms(gens)
            assert sorted(ref.sequence_atoms({"name": "explicit", "gens": gens}, 0)) == atoms
            got = ref.factorizations(atoms, x, max_len=5)
            assert got == oracles.naive_factorizations(gens, x, max_len=5), (gens, x)
    for fam, k in (({"name": "grams"}, 4), ({"name": "unit-fractions"}, 4), ({"name": "power", "q": "2/3"}, 4)):
        gens = ref.family_generators(fam, k)
        for x in {a + b for a in gens for b in gens} | {F(1, 7), F(5, 6)}:
            assert ref.factorizations(gens, x, max_len=4) == oracles.naive_factorizations(gens, x, max_len=4)


def test_semiring_blocks_factor_as_committed():
    for name, mon in workloads.SEMIRING_MONOIDS.items():
        for text in mon["blocks"]:
            assert library.zt_factors(name, text)


def test_timed_rows_hold_no_known_defect():
    for workload in run.WORKLOADS:
        pinned, randoms = workloads.stream(workload, 7)
        assert all(not q.known for q in pinned + [next(randoms) for _ in range(50)]), workload
        rows = workloads.defects(workload)
        assert any(q.known for q in rows), workload
        assert len({q.qid for q in pinned + rows}) == len(pinned) + len(rows), workload


def test_check_rejects_a_changed_answer():
    slices = [q for q in workloads.stream("sequence-queries", 7)[0] if q.kind == "factorizations_of_length"]
    assert slices
    for workload in ("sequence-queries", "semiring"):
        for query in _fast_queries(workload, 30) + (slices if workload == "sequence-queries" else []):
            got = _safe(query)
            assert library.check(query.kind, query.args, got) == "", (query, got)
            changed = {key: (not val if isinstance(val, bool) else [val]) for key, val in got.items()}
            assert library.check(query.kind, query.args, changed) != "", (query, changed)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "semiring", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
