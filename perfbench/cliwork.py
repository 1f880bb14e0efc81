"""The cli-processes workload: whole ``python -m posmon`` processes.

Each query is one process, run to completion before the next starts.  A run
gets a fresh cache directory, and every query passes ``--cache-dir`` where the
subcommand accepts it, so repeated queries replay from the cache.  Answers are
checked from the process's exit code, stderr and JSON stdout.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import reference as ref
from workloads import SEMIRING_MONOIDS, Query

F = Fraction

# Share of random-stratum queries that repeat an earlier query verbatim.
REPEAT_SHARE = 0.25

_CLASSIFY = {
    "explicit": ("yes", "yes", "yes", "yes", "yes"),
    "grams": ("yes", "no", "no", "no", "yes"),
    "power": ("yes", "no", "no", "no", "yes"),
    "unit-fractions": ("yes", "yes", "no", "no", "yes"),
    "alternating": ("yes", "yes", "yes", "yes", "yes"),
    "conductor": ("yes", "yes", "yes", "no", "no"),
    "sring": ("yes", "yes", "yes", "no", "no"),
}
_CLASSIFY_FLAGS = {
    "explicit": ["--gens", "2,3"],
    "power": ["--q", "2/3", "--k", "4"],
    "sring": ["--r", "2"],
}


def _factorize(rng):
    gens = sorted(rng.sample([2, 3, 5, 7, 11], rng.randint(2, 3)))
    x = sum(rng.choice(gens) for _ in range(rng.randint(1, 5)))
    return ["factorize", "--family", "explicit", "--gens", ",".join(map(str, gens)), "--x", str(x)]


def _lengths(rng):
    p = rng.choice([5, 7, 11, 13])
    return ["lengths", "--family", "unit-fractions", "--max-prime", str(p), "--x", "1", "--max-len", str(p)]


def _atoms(rng):
    fam = rng.choice([["grams"], ["unit-fractions"], ["power", "--q", rng.choice(["2/3", "3/4", "3/5"])]])
    return ["atoms", "--family", fam[0], *fam[1:], "--count", str(rng.randint(2, 8))]


def _check(rng):
    kind = rng.choice(["accp", "bf", "lff", "classify"])
    if kind == "accp":
        return ["check", "accp", "--family", "grams", "--n-max", str(rng.randint(5, 30))]
    if kind == "bf":
        return ["check", "bf", "--family", "unit-fractions", "--max-prime", str(rng.choice([5, 7, 11, 13]))]
    if kind == "lff":
        return ["check", "lff", "--family", "conductor", "--max-den", str(rng.randint(3, 12))]
    fam = rng.choice(sorted(_CLASSIFY))
    return ["check", "classify", "--family", fam, *_CLASSIFY_FLAGS.get(fam, [])]


def _semiring_mul(rng):
    blocks = sorted(SEMIRING_MONOIDS["<2,3>"]["blocks"])
    return ["semiring", "mul", "--family", "explicit", "--gens", "2,3", "--f", rng.choice(blocks), "--g", rng.choice(blocks)]


def _seq_lis(rng):
    n = rng.randint(5, 40)
    return ["seq", "lis", "--input", "@seq"], [str(F(rng.randint(-20, 20), rng.randint(1, 6))) for _ in range(n)]


def draws():
    seen: list = []

    def make(builder):
        def draw(rng):
            if seen and rng.random() < REPEAT_SHARE:
                argv, data = rng.choice(seen)
                return "cli", {"argv": argv, "data": data, "repeat": True}
            made = builder(rng)
            argv, data = made if isinstance(made[0], list) else (made, None)
            seen.append((argv, data))
            return "cli", {"argv": argv, "data": data}

        return draw

    def paper(rng):
        # --no-cache: the battery is recomputed every time, so it forms the
        # slowest fifth of the queries and sets p90.
        return "cli", {"argv": ["paper-examples", "--no-cache"], "data": None}

    builders = [_factorize, _atoms, _lengths, _check, _semiring_mul, _seq_lis, _factorize, _check]
    return [make(b) for b in builders[:4]] + [paper] + [make(b) for b in builders[4:]] + [paper]


def defects():
    stale = ["factorize", "--config", "@config", "--x", "6"]
    return [
        # Bad input must end in exit code 1 with a "usage error:"/"error:" line.
        Query(0, "cli", {"argv": ["factorize", "--family", "explicit", "--gens", "2,3", "--x", "abc"], "data": None,
                         "bad_input": True}, "cli-bad-x-abc", "error"),
        Query(0, "cli", {"argv": ["factorize", "--family", "explicit", "--gens", "a,3", "--x", "6"], "data": None,
                         "bad_input": True}, "cli-bad-gens-a,3", "error"),
        Query(0, "cli", {"argv": ["seq", "lis", "--input", "@missing"], "data": None, "bad_input": True},
              "cli-missing-seq-input", "error"),
        Query(0, "cli", {"argv": stale, "data": None, "config": {"family": "explicit", "gens": "2,3"}},
              "cli-config-before-edit"),
        Query(0, "cli", {"argv": stale, "data": None, "config": {"family": "explicit", "gens": "2,5"}},
              "cli-config-after-edit-stale-replay", "wrong"),
    ]


# ------------------------------------------------------------------ execution


class CliRunner:
    """Runs CLI queries as child processes inside one work directory."""

    def __init__(self, root: str, workdir: str, limit: float, shim: str | None = None):
        self.root = root
        self.workdir = workdir
        self.limit = limit
        self.shim = shim
        self.cache_dir = os.path.join(workdir, "cache")
        self.env = {k: v for k, v in os.environ.items() if k != "POSMON_CACHE_DIR"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")

    def _argv(self, qid: int, args: dict) -> list[str]:
        argv = []
        for tok in args["argv"]:
            if tok == "@seq":
                digest = hashlib.sha256(" ".join(args["data"]).encode()).hexdigest()[:16]
                tok = os.path.join(self.workdir, f"seq-{digest}.txt")
            elif tok == "@missing":
                tok = os.path.join(self.workdir, "no-such-input.txt")
            elif tok == "@config":
                tok = os.path.join(self.workdir, "family.json")
            argv.append(tok)
        return argv + ["--cache-dir", self.cache_dir]

    def prepare(self, qid: int, args: dict) -> list[str]:
        """Write the query's input files (outside the timed region)."""
        argv = self._argv(qid, args)
        if args.get("data") is not None:
            path = argv[argv.index("--input") + 1]
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(args["data"]) + "\n")
        if "config" in args:
            with open(argv[argv.index("--config") + 1], "w", encoding="utf-8") as fh:
                json.dump(args["config"], fh)
        if self.shim:
            return [sys.executable, self.shim, os.path.join(self.workdir, f"trace-{qid}.json"), *argv]
        return [sys.executable, "-m", "posmon", *argv]

    def run(self, cmd: list[str]) -> dict:
        """The answer: exit code, stdout, and whether stderr held a traceback
        or a cache hit."""
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=self.limit
            )
        except subprocess.TimeoutExpired:
            return {"timeout": True}
        return {
            "exit": proc.returncode,
            "stdout": proc.stdout,
            "traceback": "Traceback (most recent call last)" in proc.stderr,
            "cache_hit": "cache hit:" in proc.stderr,
            # "usage error", "error", "cache hit" or the traceback header;
            # the rest of the line may hold work-directory paths.
            "stderr_kind": proc.stderr.partition(":")[0] if proc.stderr else "",
        }


# ---------------------------------------------------------------------- checks


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check(args: dict, answer: dict) -> str:
    """'' when the process behaved as the reference says, else the reason."""
    argv = args["argv"]
    if answer.get("traceback"):
        return "printed a traceback"
    if args.get("bad_input"):
        clean = answer["exit"] == 1 and answer["stderr_kind"] in ("usage error", "error")
        return "" if clean else "bad input not rejected with exit code 1 and an error line"
    if answer["exit"] != 0:
        return f"exit code {answer['exit']} ({answer['stderr_kind']})"
    try:
        report = json.loads(answer["stdout"])
    except json.JSONDecodeError:
        return "stdout is not JSON"
    return _expected(args, argv, report)


def _expected(args, argv, report) -> str:
    cmd = argv[0]
    if cmd == "factorize":
        gens = (args.get("config") or {}).get("gens") or _flag(argv, "--gens")
        gens = [F(g) for g in gens.split(",")]
        x = F(_flag(argv, "--x"))
        want = sorted(sorted(str(a) for a in z) for z in ref.factorizations(ref.sequence_atoms({"name": "explicit", "gens": gens}, 0), x))
        got = sorted(sorted(a for a, m in wire for _ in range(m)) for wire in report["factorizations"])
        return "" if got == want else f"factorizations {got} != reference {want}"
    if cmd == "lengths":
        want = ref.primes_upto(int(_flag(argv, "--max-prime")))
        return "" if report["lengths"] == want else f"lengths {report['lengths']} != primes {want}"
    if cmd == "atoms":
        fam = {"name": _flag(argv, "--family")}
        if fam["name"] == "power":
            fam["q"] = _flag(argv, "--q")
        count = int(_flag(argv, "--count"))
        want = [str(a) for a in ref.family_generators(fam, count)]
        return "" if report["atoms"] == want else f"atoms {report['atoms']} != {want}"
    if cmd == "check":
        return _expected_check(argv, report)
    if cmd == "semiring":
        f, g = ref.parse_poly(_flag(argv, "--f"), 1), ref.parse_poly(_flag(argv, "--g"), 1)
        want = ref.semiring_terms(ref.poly_mul(f, g), 1)
        return "" if report["result"] == want else f"product {report['result']} != {want}"
    if cmd == "seq":
        seq = [F(t) for t in args["data"]]
        idx, vals = report["indices"], [F(v) for v in report["values"]]
        ok = (
            report["length"] == ref.lis_length(seq) == len(idx)
            and all(a < b for a, b in zip(idx, idx[1:]))
            and all(seq[i] == v for i, v in zip(idx, vals))
            and all(a < b for a, b in zip(vals, vals[1:]))
        )
        return "" if ok else "longest increasing subsequence witness is wrong"
    if cmd == "paper-examples":
        return _expected_battery(report)
    return f"no reference for {cmd}"


def _expected_check(argv, report) -> str:
    kind = argv[1]
    if not report["verified"]:
        return "certificate not verified"
    w = report["witness"]
    if kind == "accp":
        n_max = int(_flag(argv, "--n-max"))
        want = [str(F(1, 2**n)) for n in range(n_max + 1)]
        return "" if [s["b_n"] for s in w["chain"]] == want else "chain is not 1/2^n"
    if kind == "bf":
        want = ref.primes_upto(int(_flag(argv, "--max-prime")))
        return "" if w["length_set"] == want else "L(1) is not the primes"
    if kind == "lff":
        d = int(_flag(argv, "--max-den"))
        want = (ref.conductor_pairs(F(3), d), ref.conductor_pairs(F(3), d // 2) if d // 2 else 0)
        return "" if (w["count"], w["count_at_half_bound"]) == want else f"pair counts != {want}"
    table = w["table"]
    got = tuple(table[p]["verdict"] for p in ("atomic", "ACCP", "BF", "FF", "LFF"))
    want = _CLASSIFY[_flag(argv, "--family")]
    return "" if got == want else f"classification {got} != {want}"


def _expected_battery(report) -> str:
    items = {item["name"]: item["certificate"] for item in report["items"]}
    grams = [str(a) for a in ref.family_generators({"name": "grams"}, 4)]
    slice3 = sorted(sorted(str(a) for a in z) for z in ref.slice_of_length(ref.conductor_atoms(3), F(3), 2))
    ok = (
        report["all_verified"]
        and items["grams-atoms"]["witness"]["atoms"] == grams
        and len(items["grams-accp-chain"]["witness"]["chain"]) == 21
        and len(items["power-2/3-accp-chain"]["witness"]["chain"]) == 21
        and items["unit-fractions-L(1)"]["witness"]["length_set"] == ref.primes_upto(13)
        and sorted(items["conductor-z2-growth"]["witness"]["slice_at_3"]) == slice3
        and items["sring2-additive-atoms"]["witness"]["probes"] == {"1": True, "2": False, "5/2": True, "3": False}
    )
    return "" if ok else "battery report differs from the closed forms"
