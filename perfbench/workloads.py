"""Seeded query streams for the three workloads.

A workload is a short list of pinned rows (large sizes that were slow but
correct when the benchmark was written), which every run executes once, and
an endless random stratum drawn from ``random.Random(seed)`` that cycles
through the workload's query kinds in a fixed order.  Rows that timed out,
crashed or answered wrongly then are kept apart as known-defect rows (see
``defects``): they are not part of a timed run.

posmon receives only the generated plain-data inputs: library.py and
cliwork.py run a query, turn its result into a canonical answer inside the
timed region, and check that answer against an independent reference after.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import reference as ref

F = Fraction

# Every run holds at least this many queries, so p90 has ten samples beyond it.
MIN_QUERIES = 100


@dataclass
class Query:
    qid: int
    kind: str
    args: dict
    pin: str = ""  # label of a pinned or known-defect row; "" for the random stratum
    known: str = ""  # a known-defect row's failure mode when the benchmark was written: "timeout", "error" or "wrong"


def _draws(rng: random.Random, draws: list):
    """The random stratum: the draws in their listed order, over and over."""
    qid = 0
    while True:
        for draw in draws:
            kind, args = draw(rng)
            yield Query(qid, kind, args)
            qid += 1


# ------------------------------------------------------------ sequence-queries

_POWER_QS = ("2/3", "3/4", "3/5", "4/5", "5/7")
_EXPLICIT_POOL = (2, 3, 5, 7, 11, F(5, 2), F(7, 2), F(7, 3), F(9, 4))
# Index bounds keep the membership search short: at these sizes no query
# nears a third of the time limit, and one run's total cost barely depends on
# the seed.  The pinned and known-defect rows cover the large truncations.
_K_RANGE = {"power": (4, 7), "unit-fractions": (4, 8), "grams": (3, 5), "alternating": (4, 10)}
# Share of targets not built as a sum of generators: arbitrary rationals,
# mostly non-members.
OFF_SUM_SHARE = 0.25


def _seq_family(rng, i):
    name = ("power", "unit-fractions", "grams", "alternating", "explicit")[i % 5]
    if name == "explicit":
        gens = sorted(rng.sample(_EXPLICIT_POOL, rng.randint(2, 4)))
        return {"name": name, "gens": [str(g) for g in gens]}, None
    fam = {"name": name}
    if name == "power":
        fam["q"] = rng.choice(_POWER_QS)
    return fam, rng.randint(*_K_RANGE[name])


def _seq_target(rng, fam, k, parts=(1, 4)):
    gens = ref.family_generators(fam, k or 0)
    if rng.random() < OFF_SUM_SHARE:
        den = rng.choice([g.denominator for g in gens] + [7, 11, 13])
        return F(rng.randint(1, 3 * den), den)
    return sum(rng.choice(gens) for _ in range(rng.randint(*parts)))


def _seq_draws():
    ops = ("contains", "is_atom", "enumerate_factorizations", "length_set", "factorizations_of_length")
    draws = []
    for j in range(25):  # 5 ops x 5 families, in a fixed interleaving
        op, fam_i = ops[j % 5], j // 5 + j % 5

        def draw(rng, op=op, fam_i=fam_i):
            fam, k = _seq_family(rng, fam_i)
            args = {"family": fam, "k": k}
            if op == "is_atom":
                args["x"] = str(_seq_target(rng, fam, k, parts=(1, 2)))
            elif op == "factorizations_of_length":
                args["length"] = rng.randint(2, 4)
                args["x"] = str(_seq_target(rng, fam, k, parts=(args["length"],) * 2))
            else:
                args["x"] = str(_seq_target(rng, fam, k))
                if op != "contains":
                    args["max_len"] = rng.randint(3, 6)
            return op, args

        draws.append(draw)
    return draws


def _conductor_slice(max_den, x, length, label, known=""):
    # Z_l(x) over the conductor monoid: membership is a closed form, so the
    # atom grid and the slice enumeration do the work.
    args = {"family": {"name": "conductor"}, "max_den": max_den, "x": x, "length": length}
    return Query(0, "factorizations_of_length", args, label, known)


def _seq_pinned():
    power = {"name": "power", "q": "2/3"}
    return [
        Query(0, "contains", {"family": power, "k": 12, "x": "7/9"}, "power-2/3-k12-contains-7/9"),
        _conductor_slice(30, "3", 2, "conductor-Z2(3)-D30"),
        Query(0, "contains", {"family": {"name": "unit-fractions"}, "k": 12, "x": "3/4"}, "unit-fractions-k12-contains-3/4"),
        _conductor_slice(20, "4", 3, "conductor-Z3(4)-D20"),
    ]


def _seq_defects():
    power = {"name": "power", "q": "2/3"}
    return [
        Query(0, "contains", {"family": power, "k": 14, "x": "7/9"}, "power-2/3-k14-contains-7/9", "timeout"),
        Query(
            0, "enumerate_factorizations", {"family": {"name": "grams"}, "k": 12, "x": "1/2", "max_len": 10},
            "grams-k12-factorize-1/2-maxlen10", "timeout",
        ),
        Query(
            0,
            "enumerate_factorizations",
            # <(1/2)^n> has no atoms: a typed error or no factorization is right.
            {"family": {"name": "power", "q": "1/2"}, "k": 3, "x": "1", "max_len": 3, "accept_posmon_error": True},
            "antimatter-power-1/2-factorize-1",
            "wrong",
        ),
        _conductor_slice(60, "3", 2, "conductor-Z2(3)-D60", "error"),
        _conductor_slice(40, "4", 3, "conductor-Z3(4)-D40", "timeout"),
    ]


# -------------------------------------------------------------------- semiring

# Small factors per exponent monoid, each with its factorization in Z[t],
# t = x^(1/scale).  Every listed Z[t] factor is t or a primitive polynomial of
# degree <= 3; the checker re-verifies products and irreducibility.
SEMIRING_MONOIDS = {
    "<2,3>": {
        "gens": ["2", "3"],
        "scale": 1,
        "blocks": {
            "x^2": [{1: 1}] * 2,
            "x^3": [{1: 1}] * 3,
            "1 + x^2": [{0: 1, 2: 1}],
            "1 + x^3": [{0: 1, 1: 1}, {0: 1, 1: -1, 2: 1}],
            "2 + x^2": [{0: 2, 2: 1}],
            "1 + x^2 + x^3": [{0: 1, 2: 1, 3: 1}],
            "2 + x^3": [{0: 2, 3: 1}],
        },
    },
    "<3,5,7>": {
        "gens": ["3", "5", "7"],
        "scale": 1,
        "blocks": {
            "x^3": [{1: 1}] * 3,
            "x^5": [{1: 1}] * 5,
            "1 + x^3": [{0: 1, 1: 1}, {0: 1, 1: -1, 2: 1}],
            "2 + x^3": [{0: 2, 3: 1}],
            "1 + 2*x^3": [{0: 1, 3: 2}],
            "x^3 + x^5": [{1: 1}] * 3 + [{0: 1, 2: 1}],
        },
    },
    "<1/2,1/3>": {
        "gens": ["1/2", "1/3"],
        "scale": 6,
        "blocks": {
            "x^(1/2)": [{1: 1}] * 3,
            "x^(1/3)": [{1: 1}] * 2,
            "1 + x^(1/2)": [{0: 1, 1: 1}, {0: 1, 1: -1, 2: 1}],
            "1 + x^(1/3)": [{0: 1, 2: 1}],
            "2 + x^(1/3)": [{0: 2, 2: 1}],
            "1 + x^(1/3) + x^(1/2)": [{0: 1, 2: 1, 3: 1}],
        },
    },
}


def _product_text(name: str, texts: list[str]) -> str:
    scale = SEMIRING_MONOIDS[name]["scale"]
    prod = {0: 1}
    for text in texts:
        prod = ref.poly_mul(prod, ref.parse_poly(text, scale))
    return ref.format_poly(prod, scale)


def _semiring_args(name: str, factors: list[str], **extra) -> dict:
    return {"monoid": name, "factors": factors, "f": _product_text(name, factors), **extra}


def _semiring_draws():
    def pick(rng, count):
        name = rng.choice(sorted(SEMIRING_MONOIDS))
        blocks = sorted(SEMIRING_MONOIDS[name]["blocks"])
        return name, [rng.choice(blocks) for _ in range(count)]

    def mul(rng):
        name, fs = pick(rng, rng.randint(2, 3))
        return "gp_mul", {"monoid": name, "factors": fs}

    def divide_exact(rng):
        name, fs = pick(rng, rng.randint(2, 3))
        return "gp_divide", _semiring_args(name, fs, g=fs[0])

    def divide_other(rng):
        # A random block of the same monoid: the quotient may or may not exist.
        name, fs = pick(rng, rng.randint(2, 3))
        return "gp_divide", _semiring_args(name, fs, g=rng.choice(sorted(SEMIRING_MONOIDS[name]["blocks"])))

    def irreducible(rng):
        name, fs = pick(rng, rng.randint(1, 2))
        return "is_irreducible_gp", _semiring_args(name, fs)

    def factor(rng):
        # Two factors: some three-factor products over <2,3> take seconds,
        # inside the band the time limit must stay clear of.
        name, fs = pick(rng, 2)
        return "factor_gp", _semiring_args(name, fs, max_len=4)

    return [mul, divide_exact, irreducible, mul, divide_other, factor]


def _semiring_defects():
    factors = ["1 + x^2", "1 + x^2", "1 + x^3", "2 + x^2"]
    return [
        Query(
            0, "factor_gp", _semiring_args("<2,3>", factors, max_len=8),
            "factor_gp-(1+x^2)^2(1+x^3)(2+x^2)", "timeout",
        )
    ]


# ------------------------------------------------------------------ registry


def stream(workload: str, seed: int):
    """(pinned rows, random-stratum iterator) of a workload for a seed.

    Pinned rows get negative query ids and keep their listed order; the
    harness spreads them evenly through the run.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sequence-queries":
        pinned, draws = _seq_pinned(), _seq_draws()
    elif workload == "semiring":
        pinned, draws = [], _semiring_draws()
    elif workload == "cli-processes":
        import cliwork

        pinned, draws = [], cliwork.draws()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, query in enumerate(pinned):
        query.qid = -1 - i
    return pinned, _draws(rng, draws)


def defects(workload: str) -> list:
    """The known-defect rows of a workload, in the order they must run.

    Each timed out, crashed or gave a wrong answer when the benchmark was
    written, so none is part of a timed run; the traced run executes them
    after its passes and counts which still fail.  Their ids run from -1001
    down, apart from the pinned rows' ids.
    """
    if workload == "sequence-queries":
        rows = _seq_defects()
    elif workload == "semiring":
        rows = _semiring_defects()
    elif workload == "cli-processes":
        import cliwork

        rows = cliwork.defects()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, query in enumerate(rows):
        query.qid = -1001 - i
    return rows
