import random
from fractions import Fraction

import pytest

from oracles import naive_factorizations
from posmon.errors import (
    CertificateUnavailableError,
    InvalidArgumentError,
    NotAMemberError,
    UnboundedQueryError,
)
from posmon.factorize import (
    COMPLETE,
    COMPLETE_FOR_LENGTH,
    TRUNCATION_BOUNDED,
    Factorization,
    completeness_certificate,
    enumerate_factorizations,
    factorizations_of_length,
    length_set,
)
from posmon.monoids import (
    Alternating,
    ConductorQ,
    Explicit,
    Grams,
    MonoidSpec,
    PowerOf,
    SRing,
    UnitFractionPrimes,
)

F = Fraction
E23 = MonoidSpec(Explicit((2, 3)))


def expanded_set(result):
    return {z.expanded() for z in result}


class TestFactorizationType:
    def test_length_value_support(self):
        z = Factorization.from_atoms([3, 2, 2, 2])
        assert z.length == 4
        assert z.value == 9
        assert {a for a, _ in z.parts} == {F(2), F(3)}
        assert z.expanded() == (F(2), F(2), F(2), F(3))

    def test_invalid_parts(self):
        with pytest.raises(InvalidArgumentError):
            Factorization(((F(-1), 1),))
        with pytest.raises(InvalidArgumentError):
            Factorization(((F(2), 0),))
        with pytest.raises(InvalidArgumentError):
            Factorization(((F(3), 1), (F(2), 1)))  # unsorted


class TestEnumerate:
    def test_explicit_six(self):
        result = enumerate_factorizations(E23, 6)
        assert expanded_set(result) == {(F(2),) * 3, (F(3),) * 2}
        assert result.completeness == COMPLETE

    def test_explicit_seven(self):
        result = enumerate_factorizations(E23, 7)
        assert expanded_set(result) == {(F(2), F(2), F(3))}
        assert result.completeness == COMPLETE

    def test_grams_13_30(self):
        result = enumerate_factorizations(MonoidSpec(Grams(), k=3), F(13, 30))
        assert expanded_set(result) == {(F(1, 10), F(1, 3))}
        assert result.completeness == TRUNCATION_BOUNDED

    def test_not_a_member(self):
        with pytest.raises(NotAMemberError):
            enumerate_factorizations(E23, 1)

    def test_dense_needs_bounds(self):
        with pytest.raises(UnboundedQueryError):
            enumerate_factorizations(MonoidSpec(ConductorQ(), max_den=3), 3)
        with pytest.raises(UnboundedQueryError):
            enumerate_factorizations(MonoidSpec(ConductorQ()), 3, 2)

    def test_deterministic_order(self):
        result = enumerate_factorizations(E23, 12)
        listed = [z.expanded() for z in result]
        assert listed == sorted(listed)

    def test_emission_order_lexicographic(self):
        result = enumerate_factorizations(E23, 6)
        assert [z.expanded() for z in result] == [(F(2), F(2), F(2)), (F(3), F(3))]


class TestLengthSlices:
    def test_explicit_empty_slice(self):
        result = factorizations_of_length(E23, 7, 2)
        assert len(result) == 0
        assert result.completeness == COMPLETE_FOR_LENGTH

    def test_conductor_slice_d3(self):
        result = factorizations_of_length(MonoidSpec(ConductorQ(), max_den=3), 3, 2)
        assert expanded_set(result) == {(F(3, 2), F(3, 2)), (F(4, 3), F(5, 3))}
        assert result.completeness == TRUNCATION_BOUNDED

    def test_unit_fractions_slice(self):
        result = factorizations_of_length(MonoidSpec(UnitFractionPrimes(), k=3), 1, 3)
        assert expanded_set(result) == {(F(1, 3), F(1, 3), F(1, 3))}
        assert result.completeness == TRUNCATION_BOUNDED

    def test_certified_slice_upgrades(self):
        result = factorizations_of_length(MonoidSpec(Grams(), k=5), F(13, 30), 2)
        assert result.completeness == COMPLETE_FOR_LENGTH

    def test_conductor_growth(self):
        counts = [
            len(factorizations_of_length(MonoidSpec(ConductorQ(), max_den=d), 3, 2))
            for d in (3, 10, 30)
        ]
        assert counts[0] < counts[1] < counts[2]


class TestLengthSet:
    def test_explicit_six(self):
        assert length_set(E23, 6) == ({2, 3}, COMPLETE)

    def test_atom_length(self):
        assert length_set(E23, 2) == ({1}, COMPLETE)

    def test_unit_fractions_primes(self):
        spec = MonoidSpec(UnitFractionPrimes(), k=6)  # primes up to 13
        lengths, completeness = length_set(spec, 1, 13)
        assert lengths == {2, 3, 5, 7, 11, 13}
        assert completeness == TRUNCATION_BOUNDED


class TestCompletenessCertificate:
    def test_grams_yes(self):
        ok, threshold = completeness_certificate(MonoidSpec(Grams(), k=5), F(13, 30), 2)
        assert ok and threshold == F(1, 10)

    def test_unit_fractions_no(self):
        ok, threshold = completeness_certificate(MonoidSpec(UnitFractionPrimes(), k=3), 1, 3)
        assert not ok and threshold == 0

    def test_explicit_vacuous(self):
        ok, _ = completeness_certificate(E23, 6, 4)
        assert ok

    def test_alternating_unavailable(self):
        with pytest.raises(CertificateUnavailableError):
            completeness_certificate(MonoidSpec(Alternating(), k=5), F(11, 6), 2)


class TestOracleEquivalence:
    def test_small_explicit_families(self):
        rng = random.Random(7)
        for _ in range(40):
            gens = tuple(
                sorted({rng.randint(2, 30) for _ in range(rng.randint(1, 5))})
            )
            spec = MonoidSpec(Explicit(gens))
            x = F(rng.randint(0, 60))
            from posmon.monoids import contains

            if not contains(spec, x).member:
                with pytest.raises(NotAMemberError):
                    enumerate_factorizations(spec, x)
                continue
            got = expanded_set(enumerate_factorizations(spec, x))
            want = naive_factorizations([F(g) for g in gens], x)
            assert got == want, (gens, x)

    def test_rational_generators_against_oracle(self):
        rng = random.Random(21)
        pool = [F(1, 2), F(1, 3), F(2, 3), F(3, 2), F(5, 2), F(2), F(3), F(4, 3)]
        for _ in range(15):
            gens = tuple(sorted(rng.sample(pool, rng.randint(1, 4))))
            spec = MonoidSpec(Explicit(gens))
            x = F(rng.randint(1, 10))
            from posmon.monoids import contains

            if not contains(spec, x).member:
                continue
            got = expanded_set(enumerate_factorizations(spec, x))
            want = naive_factorizations(list(gens), x)
            assert got == want, (gens, x)

    def test_length_slices_match_oracle(self):
        for x, ell in ((12, 4), (12, 5), (17, 7)):
            got = expanded_set(factorizations_of_length(E23, x, ell))
            want = naive_factorizations([F(2), F(3)], F(x), exact_len=ell)
            assert got == want


class TestTheoremShadows:
    def test_grams_slice_stable_under_truncation_growth(self):
        # a certified slice must not change when the truncation doubles
        spec = MonoidSpec(Grams(), k=4)
        x = F(2, 3)  # 2 * (1/3)
        ok, _ = completeness_certificate(spec, x, 2)
        assert ok
        small = expanded_set(factorizations_of_length(spec, x, 2))
        large = expanded_set(factorizations_of_length(MonoidSpec(Grams(), k=8), x, 2))
        assert small == large
        assert len(small) < float("inf")

    def test_power_family_slice_stable(self):
        q = F(2, 3)
        spec = MonoidSpec(PowerOf(q), k=5)
        x = F(2)
        ok, _ = completeness_certificate(spec, x, 2)
        assert ok
        small = expanded_set(factorizations_of_length(spec, x, 2))
        large = expanded_set(factorizations_of_length(MonoidSpec(PowerOf(q), k=10), x, 2))
        assert small == large == {(F(1), F(1))}

    def test_sring_additive_slices(self):
        spec = MonoidSpec(SRing(F(2)), max_den=2)
        result = factorizations_of_length(spec, 5, 2)
        assert (F(5, 2), F(5, 2)) in expanded_set(result)
