"""The curated example battery behind `posmon paper-examples`.

Each entry reproduces one of the library's flagship example computations over
the named families and re-verifies it with exact arithmetic: Grams atoms and
the non-stabilizing chain, the power-family chain identity, the unit-fraction
length set, the conductor monoid's growing length-2 slice, and both S_r
violations.  The battery passes only if every certificate re-verifies.
"""

from __future__ import annotations

from fractions import Fraction

from .certificates import (
    Certificate,
    accp_chain,
    bf_violation_unit_fractions,
    lff_violation,
)
from .factorize import factorizations_of_length
from .monoids import (
    ConductorQ,
    Grams,
    MonoidSpec,
    PowerOf,
    SRing,
    certified_atoms,
    is_atom,
)
from .records import Record

__all__ = ["BatteryItem", "run_battery"]


class BatteryItem(Record):
    __slots__ = ("name", "certificate")

    def __init__(self, name: str, certificate: Certificate):
        self._init(name, certificate)

    @property
    def verified(self) -> bool:
        return self.certificate.verified


def _grams_atoms_item() -> BatteryItem:
    spec = MonoidSpec(Grams(), k=4)
    atoms, method = certified_atoms(spec, 4)
    expected = [Fraction(1, 3), Fraction(1, 10), Fraction(1, 28), Fraction(1, 88)]
    cert = Certificate(
        claim="atom-set",
        family=spec.family.descriptor(),
        parameters={"k": 4, "method": method},
        witness={"atoms": [str(a) for a in atoms], "expected": [str(a) for a in expected]},
        verified=atoms == expected and method == "p-adic-certificate",
    )
    return BatteryItem("grams-atoms", cert)


def _conductor_slice_item() -> BatteryItem:
    x = Fraction(3)
    counts = {}
    for d in (3, 10, 30):
        spec = MonoidSpec(ConductorQ(), max_den=d)
        counts[d] = len(factorizations_of_length(spec, x, 2))
    base = factorizations_of_length(MonoidSpec(ConductorQ(), max_den=3), x, 2)
    shown = [[str(a) for a in z.expanded()] for z in base]
    expected = [["3/2", "3/2"], ["4/3", "5/3"]]
    growing = counts[3] < counts[10] < counts[30]
    cert = Certificate(
        claim="lff-fails",
        family={"name": "conductor"},
        parameters={"x": "3", "length": 2, "bounds": [3, 10, 30]},
        witness={"slice_at_3": shown, "expected_at_3": expected, "counts": counts},
        verified=sorted(shown) == sorted(expected) and growing,
    )
    return BatteryItem("conductor-z2-growth", cert)


def _sring_atoms_item() -> BatteryItem:
    spec = MonoidSpec(SRing(Fraction(2)), max_den=4)
    probes = {"1": True, "2": False, "5/2": True, "3": False}
    results = {}
    ok = True
    for text, expected in probes.items():
        verdict = is_atom(spec, Fraction(text))
        results[text] = verdict.is_atom
        ok = ok and verdict.is_atom == expected and verdict.method == "closed-form"
    cert = Certificate(
        claim="atom-set",
        family=spec.family.descriptor(),
        parameters={"structure": "additive"},
        witness={"probes": results, "expected": probes},
        verified=ok,
    )
    return BatteryItem("sring2-additive-atoms", cert)


def run_battery() -> list[BatteryItem]:
    items = [
        _grams_atoms_item(),
        BatteryItem("grams-accp-chain", accp_chain(Grams(), 20)),
        BatteryItem("power-2/3-accp-chain", accp_chain(PowerOf(Fraction(2, 3)), 20)),
        BatteryItem("unit-fractions-L(1)", bf_violation_unit_fractions(13)),
        _conductor_slice_item(),
        _sring_atoms_item(),
        BatteryItem(
            "sring2-additive-length2",
            lff_violation("sring-additive", MonoidSpec(SRing(Fraction(2)), max_den=2)),
        ),
        BatteryItem(
            "sring2-multiplicative-length2",
            lff_violation(
                "sring-multiplicative",
                MonoidSpec(SRing(Fraction(2)), max_den=4),
                s=Fraction(3),
            ),
        ),
    ]
    return items
