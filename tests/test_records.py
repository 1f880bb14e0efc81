"""Value semantics of every record type: equality, hash, repr, immutability,
ordering, copying and pickling."""

import copy
import pickle
from fractions import Fraction

import pytest

from posmon.battery import BatteryItem
from posmon.certificates import Certificate
from posmon.factorize import Factorization, QueryResult
from posmon.monoids import (
    Alternating,
    AtomVerdict,
    ConductorQ,
    Explicit,
    Grams,
    MembershipResult,
    MonoidSpec,
    PowerOf,
    SRing,
    UnitFractionPrimes,
)
from posmon.semiring import GenPoly, GpFactorizations, IrreducibilityReport, PolyStats
from posmon.sequences import MonotoneWitness

F = Fraction
SPEC = MonoidSpec(Explicit((2, 3)))
POLY = GenPoly(SPEC, ((F(2), 1),))
CERT = Certificate("accp-fails", {"name": "grams"}, {"n_max": 1}, {"chain": []}, True)

# record type -> (build, a different value of the same type); build() gives
# equal, distinct records on each call.
RECORDS = {
    Explicit: (lambda: Explicit((2, 3)), Explicit((2, 5))),
    Grams: (Grams, UnitFractionPrimes()),
    PowerOf: (lambda: PowerOf("2/3"), PowerOf("3/4")),
    UnitFractionPrimes: (UnitFractionPrimes, Grams()),
    Alternating: (lambda: Alternating((2, 3)), Alternating()),
    ConductorQ: (ConductorQ, SRing(2)),
    SRing: (lambda: SRing(2), SRing(3)),
    MonoidSpec: (lambda: MonoidSpec(Grams(), k=3), MonoidSpec(Grams(), k=4)),
    MembershipResult: (lambda: MembershipResult(True, ((F(2), 1),), "r", {"k": 1}), MembershipResult(False, None, "r")),
    AtomVerdict: (lambda: AtomVerdict(True, "closed-form", "d"), AtomVerdict(True, "closed-form")),
    Factorization: (lambda: Factorization(((F(2), 2),)), Factorization(((F(3), 1),))),
    QueryResult: (lambda: QueryResult((Factorization(((F(2), 2),)),), "complete", {}), QueryResult((), "complete", {})),
    GenPoly: (lambda: GenPoly(MonoidSpec(Explicit((2, 3))), ((F(2), 1),)), GenPoly(SPEC, ((F(3), 1),))),
    PolyStats: (lambda: PolyStats(F(2), 1, F(0), (F(0), F(2)), 2), PolyStats(F(3), 1, F(0), (F(0), F(3)), 2)),
    IrreducibilityReport: (
        lambda: IrreducibilityReport(True, None, None, {"grid": 1}),
        IrreducibilityReport(False, POLY, POLY, {}),
    ),
    GpFactorizations: (lambda: GpFactorizations(((POLY,),), 8), GpFactorizations(((POLY,),), 7)),
    Certificate: (lambda: Certificate("c", {}, {}, {"w": 1}), Certificate("c", {}, {}, {}, True)),
    MonotoneWitness: (
        lambda: MonotoneWitness("weakly-decreasing", (0, 2), (F(3), F(1))),
        MonotoneWitness("weakly-decreasing", (0,), (F(3),)),
    ),
    BatteryItem: (lambda: BatteryItem("grams", CERT), BatteryItem("power", CERT)),
}
# Records holding a dict are not hashable.
UNHASHABLE = {QueryResult, IrreducibilityReport, Certificate, BatteryItem}


def test_the_table_covers_every_record():
    assert len(RECORDS) == 19


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    build, other = RECORDS[cls]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != object() and a != None  # noqa: E711
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    fields = a.__slots__
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{f}={getattr(a, f)!r}" for f in fields) + ")"
    for field in fields or ("name",):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    with pytest.raises(AttributeError):
        a.new_field = 1
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is cls and clone == a and repr(clone) == repr(a)


def test_reprs_name_the_fields():
    assert repr(Grams()) == "Grams()"
    assert repr(PowerOf("2/3")) == "PowerOf(q=Fraction(2, 3))"
    assert repr(MonoidSpec(Grams(), k=3)) == "MonoidSpec(family=Grams(), k=3, max_den=None)"
    assert repr(Factorization(((F(1, 2), 2),))) == "Factorization(parts=((Fraction(1, 2), 2),))"


def test_fields_left_out_of_equality():
    a = MembershipResult(True, (), "identity element", {"k": 3})
    b = MembershipResult(True, (), "identity element", {"k": 4})
    assert a == b and hash(a) == hash(b) and a.truncation != b.truncation
    assert MembershipResult(True, (), "r").truncation == {}
    assert Certificate("c", {}, {}, {"w": 1}) == Certificate("c", {}, {}, {"w": 2})
    assert Certificate("c", {}, {}, {}) != Certificate("c", {}, {}, {}, verified=True)


def test_factorizations_order_by_parts():
    z1, z2, z3 = (Factorization(parts) for parts in (((F(1), 1), (F(2), 1)), ((F(1), 3),), ((F(3), 1),)))
    assert z1 < z2 < z3 and z3 > z2 > z1
    assert z1 <= z1 and z1 >= z1 and not z1 < z1
    assert sorted([z3, z1, z2]) == [z1, z2, z3]
    with pytest.raises(TypeError):
        z1 < (z1.parts,)


def test_families_compare_by_class_and_options():
    assert Grams() == Grams() and hash(Grams()) == hash(Grams())
    assert Grams() != UnitFractionPrimes()
    assert PowerOf(F(2, 3)) == PowerOf("2/3") and PowerOf("2/3") != PowerOf("3/4")
    assert Explicit((2, 3, 2)) == Explicit((2, 3)) != Explicit((3, 2))
    assert Alternating() != Alternating((2, 3))
    assert MonoidSpec(SRing(2), max_den=4) == MonoidSpec(SRing(F(2)), max_den=4)
    with pytest.raises(TypeError):
        Grams(5)
