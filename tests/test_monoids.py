from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_atoms, naive_member
from posmon.errors import (
    HypothesisViolatedError,
    InvalidArgumentError,
    NotAMemberError,
    NotSequenceGeneratedError,
)
from posmon.factorize import atoms_for_query
from posmon.monoids import (
    Alternating,
    ConductorQ,
    Explicit,
    Grams,
    MonoidSpec,
    PowerOf,
    SRing,
    UnitFractionPrimes,
    certified_atoms,
    contains,
    family_from_config,
    generators,
    is_atom,
    is_multiplicative_atom,
)

F = Fraction


class TestGenerators:
    def test_grams_first_three(self):
        assert generators(MonoidSpec(Grams(), k=3)) == [F(1, 3), F(1, 10), F(1, 28)]

    def test_alternating_first_three(self):
        assert generators(MonoidSpec(Alternating(), k=3)) == [F(1, 2), F(4, 3), F(4, 5)]

    def test_power_two_thirds(self):
        assert generators(MonoidSpec(PowerOf(F(2, 3)), k=3)) == [F(1), F(2, 3), F(4, 9)]

    def test_dense_families_refuse(self):
        with pytest.raises(NotSequenceGeneratedError):
            generators(MonoidSpec(ConductorQ(), max_den=3))
        with pytest.raises(NotSequenceGeneratedError):
            generators(MonoidSpec(SRing(F(2)), max_den=3))

    def test_explicit_dedup_and_positivity(self):
        assert Explicit((2, 3, 2)).gens == (F(2), F(3))
        with pytest.raises(InvalidArgumentError):
            Explicit((0, 2))
        with pytest.raises(InvalidArgumentError):
            Explicit(())

    def test_alternating_custom_primes(self):
        fam = Alternating(primes=(3, 7, 11))
        assert generators(MonoidSpec(fam, k=3), 3) == [F(2, 3), F(8, 7), F(10, 11)]
        with pytest.raises(InvalidArgumentError):
            Alternating(primes=(4, 5))
        with pytest.raises(InvalidArgumentError):
            Alternating(primes=(5, 3))

    def test_power_rejects_bad_q(self):
        with pytest.raises(InvalidArgumentError):
            PowerOf(F(3, 2))
        with pytest.raises(InvalidArgumentError):
            PowerOf(F(1))


class TestMembership:
    def test_conductor_half_is_out(self):
        assert not contains(MonoidSpec(ConductorQ(), max_den=3), F(1, 2)).member

    def test_explicit_one_is_out(self):
        assert not contains(MonoidSpec(Explicit((2, 3))), F(1)).member

    def test_grams_13_30_with_certificate(self):
        res = contains(MonoidSpec(Grams(), k=3), F(13, 30))
        assert res.member
        assert res.combination == ((F(1, 3), 1), (F(1, 10), 1))
        value = sum(g * m for g, m in res.combination)
        assert value == F(13, 30)

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgumentError):
            contains(MonoidSpec(Explicit((2, 3))), F(-1))

    def test_sring_membership(self):
        spec = MonoidSpec(SRing(F(5, 2)), max_den=4)
        assert contains(spec, 2).member
        assert contains(spec, F(5, 2)).member
        assert contains(spec, F(7, 2)).member
        assert not contains(spec, F(3, 2)).member

    def test_monotone_in_truncation(self):
        # enlarging k never flips membership true -> false
        x = F(13, 30)
        for k1, k2 in ((3, 5), (5, 9)):
            m1 = contains(MonoidSpec(Grams(), k=k1), x).member
            m2 = contains(MonoidSpec(Grams(), k=k2), x).member
            assert not (m1 and not m2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=4),
        st.integers(0, 30),
    )
    def test_explicit_membership_matches_oracle(self, gens, x):
        spec = MonoidSpec(Explicit(tuple(gens)))
        assert contains(spec, F(x)).member == naive_member([F(g) for g in gens], F(x))


class TestAtoms:
    def test_conductor_closed_form(self):
        spec = MonoidSpec(ConductorQ(), max_den=3)
        verdict = is_atom(spec, F(3, 2))
        assert verdict.is_atom and verdict.method == "closed-form"

    def test_sring_two_not_atom(self):
        verdict = is_atom(MonoidSpec(SRing(F(2)), max_den=3), F(2))
        assert not verdict.is_atom and verdict.method == "closed-form"

    def test_explicit_six_not_atom(self):
        verdict = is_atom(MonoidSpec(Explicit((2, 3))), F(6))
        assert not verdict.is_atom

    def test_not_a_member_raises(self):
        with pytest.raises(NotAMemberError):
            is_atom(MonoidSpec(Explicit((2, 3))), F(1))
        with pytest.raises(InvalidArgumentError):
            is_atom(MonoidSpec(Explicit((2, 3))), F(0))

    def test_certified_atoms_examples(self):
        atoms, method = certified_atoms(MonoidSpec(Grams(), k=4), 4)
        assert atoms == [F(1, 3), F(1, 10), F(1, 28), F(1, 88)]
        assert method == "p-adic-certificate"
        atoms, method = certified_atoms(MonoidSpec(PowerOf(F(2, 3)), k=3), 3)
        assert atoms == [F(1), F(2, 3), F(4, 9)]
        atoms, method = certified_atoms(MonoidSpec(UnitFractionPrimes(), k=3), 3)
        assert atoms == [F(1, 2), F(1, 3), F(1, 5)]
        assert method == "p-adic-certificate"

    def test_certified_atoms_errors(self):
        with pytest.raises(InvalidArgumentError):
            certified_atoms(MonoidSpec(Explicit((2, 3))), 2)
        with pytest.raises(HypothesisViolatedError):
            certified_atoms(MonoidSpec(PowerOf(F(1, 2)), k=3), 3)

    @pytest.mark.parametrize(
        "family,k",
        [(Grams(), 50), (UnitFractionPrimes(), 50), (Alternating(), 50), (PowerOf(F(2, 3)), 50)],
    )
    def test_certified_atoms_pass_bounded_search(self, family, k):
        spec = MonoidSpec(family, k=k)
        atoms, _ = certified_atoms(spec, 8)
        for a in atoms:
            assert is_atom(spec, a).is_atom

    def test_conductor_atom_closed_form_exhaustive(self):
        # every monoid rational with denominator <= 50 below 4: atom iff in [1, 2)
        spec = MonoidSpec(ConductorQ(), max_den=50)
        for d in range(1, 51):
            for n in range(d, 4 * d + 1):
                x = F(n, d)
                if x.denominator != d or not contains(spec, x).member:
                    continue
                assert is_atom(spec, x).is_atom == (1 <= x < 2), x

    @pytest.mark.parametrize("r", [F(2), F(5, 2), F(7, 3)])
    def test_sring_additive_atoms_vs_two_summand_search(self, r):
        # the closed form is cross-checked against brute force on the grid
        spec = MonoidSpec(SRing(r), max_den=6)
        from math import lcm

        for num in range(1, int(4 * r * 6)):
            x = F(num, 6)
            if not contains(spec, x).member or x == 0:
                continue
            g = lcm(x.denominator, r.denominator)
            decomposable = False
            for j in range(1, int(x * g)):
                y = F(j, g)
                z = x - y
                if z <= 0:
                    break
                y_in = y.denominator == 1 or y >= r
                z_in = z.denominator == 1 or z >= r
                if y_in and z_in:
                    decomposable = True
                    break
            assert is_atom(spec, x).is_atom == (not decomposable), x

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.builds(F, st.integers(1, 12), st.sampled_from([1, 1, 2])), min_size=1, max_size=4))
    def test_explicit_atoms_one_split_test(self, gens):
        # atoms_for_query and is_atom share the split test; both match brute force
        spec = MonoidSpec(Explicit(tuple(gens)))
        by_verdict = sorted(g for g in spec.family.gens if is_atom(spec, g).is_atom)
        assert atoms_for_query(spec) == by_verdict == naive_atoms(gens)

    @pytest.mark.parametrize(
        "family", [ConductorQ(), SRing(F(2)), SRing(F(5, 2)), SRing(F(7, 3)), SRing(F(9, 4))]
    )
    def test_dense_grid_is_the_filtered_denominator_grid(self, family):
        # every n/d with d <= D below well past the atom window, filtered by is_atom
        top = 2 * getattr(family, "r", 1) + 2
        for max_den in range(1, 9):
            spec = MonoidSpec(family, max_den=max_den)
            brute = {
                F(n, d)
                for d in range(1, max_den + 1)
                for n in range(1, int(top * d) + 1)
                if contains(spec, F(n, d)).member and is_atom(spec, F(n, d)).is_atom
            }
            assert atoms_for_query(spec) == sorted(brute), max_den


class TestMultiplicativeAtoms:
    def test_examples_for_r_two(self):
        spec = MonoidSpec(SRing(F(2)), max_den=4)
        assert is_multiplicative_atom(spec, F(3)).is_atom
        assert is_multiplicative_atom(spec, F(15, 4)).is_atom
        assert is_multiplicative_atom(spec, F(12, 5)).is_atom
        assert not is_multiplicative_atom(spec, F(4)).is_atom  # 4 = 2*2
        assert not is_multiplicative_atom(spec, F(9, 2)).is_atom  # outside [2,4)
        assert not is_multiplicative_atom(spec, F(6)).is_atom  # 2*3

    def test_unit_and_membership_guards(self):
        spec = MonoidSpec(SRing(F(2)), max_den=4)
        with pytest.raises(InvalidArgumentError):
            is_multiplicative_atom(spec, F(1))
        with pytest.raises(NotAMemberError):
            is_multiplicative_atom(spec, F(3, 2))


class TestFamilyConfig:
    def test_roundtrip_names(self):
        assert isinstance(family_from_config({"name": "grams"}), Grams)
        fam = family_from_config({"name": "power", "q": "2/3"})
        assert fam.q == F(2, 3)
        fam = family_from_config({"name": "explicit", "gens": "2,3"})
        assert fam.gens == (F(2), F(3))
        fam = family_from_config({"name": "sring", "r": "5/2"})
        assert fam.r == F(5, 2)

    def test_unknown_family(self):
        with pytest.raises(InvalidArgumentError):
            family_from_config({"name": "nope"})

    @pytest.mark.parametrize(
        "cfg",
        [
            {"name": ["grams"]},  # non-string family name
            {"name": "power"},  # missing required key
            {"name": "explicit"},
            {"name": "sring"},
            {"name": "grams", "q": "2/3"},  # key the family does not declare
            {"name": "power", "q": "2/3", "k": 3},
            {"name": "power", "q": 0.5},  # wrong-typed values
            {"name": "power", "q": True},
            {"name": "sring", "r": ["5/2"]},
            {"name": "explicit", "gens": 5},
            {"name": "explicit", "gens": [2, 2.5]},
            {"name": "explicit", "gens": {"a": 1}},
            {"name": "alternating", "primes": "2,3/2"},
            {"name": "alternating", "primes": [2, False]},
        ],
    )
    def test_bad_config_is_rejected(self, cfg):
        with pytest.raises(InvalidArgumentError):
            family_from_config(cfg)

    def test_json_lists_and_integers_are_accepted(self):
        assert family_from_config({"name": "explicit", "gens": [2, "5/2"]}).gens == (F(2), F(5, 2))
        assert family_from_config({"name": "sring", "r": 3}).r == F(3)
        assert family_from_config({"name": "alternating", "primes": [2, "3"]}).primes == (2, 3)
        assert family_from_config({"name": "alternating", "primes": None}) == Alternating()

    @pytest.mark.parametrize(
        "family",
        [
            Explicit((2, F(5, 2), 3)),
            Grams(),
            PowerOf(F(2, 3)),
            UnitFractionPrimes(),
            Alternating((3, 5, 7)),
            ConductorQ(),
            SRing(F(5, 2)),
        ],
    )
    def test_descriptor_round_trips(self, family):
        d = family.descriptor()
        rest = {key: value for key, value in d.items() if key != "name"}
        assert family_from_config({"name": d["name"], **rest}) == family

    @pytest.mark.parametrize("bound", [True, "3", 2.5, 0])
    def test_spec_bounds_must_be_positive_ints(self, bound):
        with pytest.raises(InvalidArgumentError):
            MonoidSpec(Grams(), k=bound)
        with pytest.raises(InvalidArgumentError):
            MonoidSpec(ConductorQ(), max_den=bound)

    @pytest.mark.parametrize(
        "family,bounds",
        [
            (Grams(), {"k": 3, "max_den": 5}),
            (Alternating(), {"max_den": 5}),
            (Explicit((2, 3)), {"k": 3}),
            (ConductorQ(), {"k": 3, "max_den": 5}),
            (SRing(F(2)), {"k": 3, "max_den": 5}),
        ],
    )
    def test_spec_rejects_a_bound_the_family_never_reads(self, family, bounds):
        with pytest.raises(InvalidArgumentError):
            MonoidSpec(family, **bounds)
