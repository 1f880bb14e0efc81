from fractions import Fraction
from math import gcd

import pytest

from posmon import certificates
from posmon.certificates import (
    _WITNESSES,
    IMPLICATIONS,
    accp_chain,
    bf_violation_unit_fractions,
    check_classification_consistency,
    classify,
    ffm_divisor_bound_alternating,
    lff_violation,
)
from posmon.errors import (
    BoundTooSmallError,
    HypothesisViolatedError,
    InvalidArgumentError,
    NotAMemberError,
)
from posmon.factorize import factorizations_of_length, length_set
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


class TestAccpChain:
    def test_grams_two_steps(self):
        cert = accp_chain(Grams(), 2)
        assert cert.verified
        chain = cert.witness["chain"]
        assert chain[0]["b_n"] == "1" and chain[0]["delta"] == "1/2"
        assert chain[0]["delta_membership"] == "5 * (1/(2^1*5))"
        assert chain[1]["b_n"] == "1/2" and chain[1]["delta"] == "1/4"
        assert chain[1]["delta_membership"] == "7 * (1/(2^2*7))"

    def test_power_two_thirds_identity(self):
        cert = accp_chain(PowerOf(F(2, 3)), 1)
        assert cert.verified
        step = cert.witness["chain"][0]
        # 3 = 1*(2/3)^0 + 3*(2/3)^1, i.e. 3 = 1 + 2
        assert step["b_n"] == "3" and step["b_next"] == "2" and step["delta"] == "1"

    def test_power_identity_to_twenty(self):
        cert = accp_chain(PowerOf(F(2, 3)), 20)
        assert cert.verified and len(cert.witness["chain"]) == 21

    def test_hypothesis_violation(self):
        with pytest.raises(HypothesisViolatedError):
            accp_chain(PowerOf(F(1, 2)), 1)

    def test_unsupported_family(self):
        with pytest.raises(InvalidArgumentError):
            accp_chain(ConductorQ(), 1)

    def test_wrong_step_multiple_rejected(self):
        class WrongMultiple(Grams):
            def accp_step(self, n):
                b_n, b_next, m, i, text = super().accp_step(n)
                return b_n, b_next, m + 1, i, text

        with pytest.raises(AssertionError):
            accp_chain(WrongMultiple(), 2)


class TestBfViolation:
    @pytest.mark.parametrize(
        "bound,expected",
        [(2, {2}), (5, {2, 3, 5}), (13, {2, 3, 5, 7, 11, 13})],
    )
    def test_length_sets(self, bound, expected):
        cert = bf_violation_unit_fractions(bound)
        assert cert.verified
        assert set(cert.witness["length_set"]) == expected

    def test_matches_engine_for_all_bounds_up_to_31(self):
        from posmon.rationals import is_prime

        for bound in range(2, 32):
            primes = [p for p in range(2, bound + 1) if is_prime(p)]
            cert = bf_violation_unit_fractions(bound)
            spec = MonoidSpec(UnitFractionPrimes(), k=len(primes))
            lengths, _ = length_set(spec, F(1), max_len=bound)
            assert set(cert.witness["length_set"]) == lengths == set(primes)


class TestLffViolation:
    def test_conductor_d3(self):
        cert = lff_violation("conductor", MonoidSpec(ConductorQ(), max_den=3))
        assert cert.verified
        assert cert.witness["pairs"] == [["4/3", "5/3"], ["3/2", "3/2"]]

    def test_sring_additive_d2(self):
        cert = lff_violation("sring-additive", MonoidSpec(SRing(F(2)), max_den=2))
        assert cert.verified
        assert ["5/2", "5/2"] in cert.witness["pairs"]
        assert cert.parameters["x"] == "5"

    def test_sring_multiplicative_s3(self):
        cert = lff_violation(
            "sring-multiplicative", MonoidSpec(SRing(F(2)), max_den=4), s=F(3)
        )
        assert cert.verified
        pairs = [[F(a), F(b)] for a, b in cert.witness["pairs"]]
        assert all(a * b == 9 for a, b in pairs)
        assert [F(12, 5), F(15, 4)] in pairs

    def test_counts_grow_along_doublings(self):
        for target, family in (
            ("conductor", ConductorQ()),
            ("sring-additive", SRing(F(2))),
        ):
            counts = []
            for d in (4, 8, 16):
                cert = lff_violation(target, MonoidSpec(family, max_den=d))
                counts.append(cert.witness["count"])
                assert cert.verified
            assert counts[0] < counts[1] < counts[2]

    def test_bound_too_small(self):
        with pytest.raises(BoundTooSmallError):
            lff_violation("conductor", MonoidSpec(ConductorQ(), max_den=1))

    def test_conductor_pairs_are_the_kernel_slice(self):
        # the witness pairs are the length-2 slice of 3, and both equal the
        # pairs {a, 3 - a} of [1, 2)-rationals with den(a) <= D
        for max_den in range(1, 31):
            spec = MonoidSpec(ConductorQ(), max_den=max_den)
            slice_ = [[str(a) for a in z.expanded()] for z in factorizations_of_length(spec, 3, 2)]
            brute = sorted(
                (F(n, d), 3 - F(n, d))
                for d in range(1, max_den + 1)
                for n in range(d, 2 * d)
                if gcd(n, d) == 1 and 2 * F(n, d) <= 3 and 3 - F(n, d) < 2
            )
            assert slice_ == [[str(a), str(b)] for a, b in brute], max_den
            if not brute:
                with pytest.raises(BoundTooSmallError):
                    lff_violation("conductor", spec)
            else:
                assert lff_violation("conductor", spec).witness["pairs"] == slice_, max_den

    def test_sring_pairs_bound_the_first_part_only(self):
        # check lff bounds den(a) of each pair (a, x - a); the length-2 slice
        # bounds both parts', so it finds fewer pairs when x is not an integer
        r, x = F(7, 3), F(17, 3)
        for max_den, pairs, slice_ in ((2, 1, 0), (4, 2, 0), (6, 6, 2)):
            spec = MonoidSpec(SRing(r), max_den=max_den)
            cert = lff_violation("sring-additive", spec)
            assert cert.parameters["x"] == str(x)
            assert cert.witness["count"] == pairs
            assert len(factorizations_of_length(spec, x, 2)) == slice_

    def test_bad_target(self):
        with pytest.raises(InvalidArgumentError):
            lff_violation("nope", MonoidSpec(ConductorQ(), max_den=3))


class TestFfmDivisorBound:
    @pytest.mark.parametrize(
        "x,expected_indices",
        [(F(1, 2), [1]), (F(11, 6), [1, 2]), (F(4, 3), [2])],
    )
    def test_divisor_atoms_within_bound(self, x, expected_indices):
        spec = MonoidSpec(Alternating(), k=10)
        cert = ffm_divisor_bound_alternating(spec, x)
        assert cert.verified
        assert cert.witness["divisor_indices"] == expected_indices

    def test_non_member_rejected(self):
        with pytest.raises(NotAMemberError):
            ffm_divisor_bound_alternating(MonoidSpec(Alternating(), k=10), F(1, 7))

    def test_wrong_family(self):
        with pytest.raises(InvalidArgumentError):
            ffm_divisor_bound_alternating(MonoidSpec(Grams(), k=3), F(1, 3))


EXPECTED_TABLES = {
    "explicit": {"atomic": "yes", "ACCP": "yes", "BF": "yes", "FF": "yes", "LFF": "yes"},
    "grams": {"atomic": "yes", "ACCP": "no", "BF": "no", "FF": "no", "LFF": "yes"},
    "power": {"atomic": "yes", "ACCP": "no", "BF": "no", "FF": "no", "LFF": "yes"},
    "unit-fractions": {"atomic": "yes", "ACCP": "yes", "BF": "no", "FF": "no", "LFF": "yes"},
    "alternating": {"atomic": "yes", "ACCP": "yes", "BF": "yes", "FF": "yes", "LFF": "yes"},
    "conductor": {"atomic": "yes", "ACCP": "yes", "BF": "yes", "FF": "no", "LFF": "no"},
    "sring": {"atomic": "yes", "ACCP": "yes", "BF": "yes", "FF": "no", "LFF": "no"},
}

SPECS = {
    "explicit": MonoidSpec(Explicit((2, 3))),
    "grams": MonoidSpec(Grams(), k=4),
    "power": MonoidSpec(PowerOf(F(2, 3)), k=4),
    "unit-fractions": MonoidSpec(UnitFractionPrimes(), k=6),
    "alternating": MonoidSpec(Alternating(), k=10),
    "conductor": MonoidSpec(ConductorQ(), max_den=4),
    "sring": MonoidSpec(SRing(F(2)), max_den=6),
}


class TestClassify:
    @pytest.mark.parametrize("name", sorted(EXPECTED_TABLES))
    def test_seven_families_match_certified_table(self, name):
        cert = classify(SPECS[name])
        assert cert.verified
        table = cert.witness["table"]
        assert {k: v["verdict"] for k, v in table.items()} == EXPECTED_TABLES[name]
        assert check_classification_consistency(table)

    def test_sring_multiplicative_table(self):
        cert = classify(SPECS["sring"], structure="multiplicative")
        assert cert.verified
        assert {k: v["verdict"] for k, v in cert.witness["table"].items()} == EXPECTED_TABLES[
            "sring"
        ]

    def test_antimatter_power(self):
        cert = classify(MonoidSpec(PowerOf(F(1, 2)), k=3))
        table = cert.witness["table"]
        assert table["atomic"]["verdict"] == "no"
        assert check_classification_consistency(table)

    def test_consistency_checker_catches_violations(self):
        bad = {
            "atomic": {"verdict": "no", "basis": "x"},
            "ACCP": {"verdict": "yes", "basis": "x"},
            "BF": {"verdict": "no", "basis": "x"},
            "FF": {"verdict": "no", "basis": "x"},
            "LFF": {"verdict": "no", "basis": "x"},
        }
        assert not check_classification_consistency(bad)
        for x, y in IMPLICATIONS:
            table = {p: {"verdict": "unknown", "basis": "-"} for p in bad}
            table[x] = {"verdict": "yes", "basis": "-"}
            table[y] = {"verdict": "no", "basis": "-"}
            assert not check_classification_consistency(table)

    def test_multiplicative_restricted_to_sring(self):
        with pytest.raises(InvalidArgumentError):
            classify(SPECS["grams"], structure="multiplicative")

    def test_witness_runs_at_the_spec_bound(self, monkeypatch):
        bounds = []

        def recording(target, spec, s=None):
            bounds.append(spec.max_den)
            return lff_violation(target, spec, s)

        monkeypatch.setattr(certificates, "lff_violation", recording)
        cert = classify(MonoidSpec(ConductorQ(), max_den=9))
        assert cert.verified and bounds == [9]
        assert cert.parameters == {"structure": "additive", "max_den": 9}

    def test_absent_bound_comes_from_the_family(self):
        assert classify(MonoidSpec(Alternating())).parameters == {"structure": "additive", "k": 10}
        assert "k" not in classify(MonoidSpec(Grams(), k=9)).parameters

    def test_multiplicative_default_s_over_r_grid(self):
        # every r = n/d with d <= 6 and 1 < r <= 5; the default s must lie
        # in (r, min(r^2, 2r)) for the length-2 witness to exist
        grid = sorted({F(n, d) for d in range(1, 7) for n in range(d + 1, 5 * d + 1)})
        assert len(grid) == 48
        for r in grid:
            cert = classify(MonoidSpec(SRing(r), max_den=6), structure="multiplicative")
            assert cert.verified, r

    def test_bf_and_lff_imply_ff(self):
        table = {p: {"verdict": "yes", "basis": "-"} for p in ("atomic", "ACCP", "BF", "LFF")}
        table["FF"] = {"verdict": "no", "basis": "-"}
        assert not check_classification_consistency(table)

    @pytest.mark.parametrize(
        "family",
        [Explicit((2, 3)), Grams(), PowerOf(F(2, 3)), PowerOf(F(1, 2)), UnitFractionPrimes(),
         Alternating(), ConductorQ(), SRing(F(2))],
    )
    def test_family_tables_are_consistent_and_witnessed(self, family):
        assert family.properties
        for rows in family.properties.values():
            table = {p: {"verdict": v, "basis": b} for p, (v, b) in rows.items()}
            assert list(table) == ["atomic", "ACCP", "BF", "FF", "LFF"]
            assert check_classification_consistency(table)
            assert all(b in _WITNESSES for _, b in rows.values() if b.startswith("witness:"))
