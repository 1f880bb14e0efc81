"""The search kernel against the brute-force oracles, and rows that once
timed out or crashed."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dp_member, naive_factorizations, naive_member
from posmon.errors import HypothesisViolatedError, NotAMemberError
from posmon.factorize import enumerate_factorizations, factorizations_of_length
from posmon.monoids import (
    Alternating,
    ConductorQ,
    Explicit,
    Grams,
    MonoidSpec,
    PowerOf,
    UnitFractionPrimes,
    contains,
    generators,
)

F = Fraction

_fractions = st.builds(F, st.integers(1, 12), st.sampled_from([1, 1, 2, 3]))
_sequence_families = st.one_of(
    st.builds(PowerOf, st.sampled_from([F(2, 3), F(3, 4), F(2, 5), F(3, 5), F(4, 5), F(5, 7)])),
    st.just(UnitFractionPrimes()),
    st.just(Grams()),
    st.just(Alternating()),
)


@st.composite
def queries(draw):
    """(spec, generators, x, explicit?) with x a sum of generators or any rational."""
    if draw(st.booleans()):
        spec = MonoidSpec(Explicit(tuple(draw(st.lists(_fractions, min_size=1, max_size=4)))))
    else:
        spec = MonoidSpec(draw(_sequence_families), k=draw(st.integers(1, 6)))
    gens = generators(spec)
    if draw(st.booleans()):
        x = sum(draw(st.lists(st.sampled_from(gens), min_size=1, max_size=4)), F(0))
    else:
        den = draw(st.sampled_from([g.denominator for g in gens] + [7, 11]))
        x = F(draw(st.integers(1, 3 * den)), den)
    return spec, gens, x, isinstance(spec.family, Explicit)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.builds(F, st.integers(2, 12), st.sampled_from([1, 2])), min_size=1, max_size=3),
    st.builds(F, st.integers(0, 30), st.sampled_from([1, 2])),
)
def test_bitset_oracle_matches_naive_member(gens, x):
    assert dp_member(gens, x) == naive_member(gens, x)


@settings(max_examples=150, deadline=None)
@given(queries())
def test_contains_matches_oracle(query):
    spec, gens, x, _ = query
    res = contains(spec, x)
    assert res.member == dp_member(gens, x)
    if res.member:
        assert sum((g * m for g, m in res.combination), F(0)) == x
        assert all(g in gens and m >= 1 for g, m in res.combination)


@settings(max_examples=150, deadline=None)
@given(queries(), st.integers(1, 4))
def test_enumerate_and_slices_match_oracle(query, ell):
    spec, gens, x, explicit = query
    if not dp_member(gens, x):
        with pytest.raises(NotAMemberError):
            enumerate_factorizations(spec, x, ell)
        return
    atoms = None if explicit else gens
    got = {z.expanded() for z in enumerate_factorizations(spec, x, ell)}
    assert got == naive_factorizations(gens, x, max_len=ell, atoms=atoms)
    got = {z.expanded() for z in factorizations_of_length(spec, x, ell)}
    assert got == naive_factorizations(gens, x, exact_len=ell, atoms=atoms)


def test_power_two_thirds_k14_contains_seven_ninths():
    spec = MonoidSpec(PowerOf(F(2, 3)), k=14)
    assert not contains(spec, F(7, 9)).member
    for x in (F(7, 9), F(10, 9), F(13, 9), F(35, 27)):
        assert contains(spec, x).member == dp_member(generators(spec), x), x


def test_grams_k12_factorize_half():
    result = enumerate_factorizations(MonoidSpec(Grams(), k=12), F(1, 2), 10)
    assert [z.expanded() for z in result] == [(F(1, 10),) * 5]
    assert result.completeness == "truncation-bounded"


def test_conductor_pairs_at_denominator_sixty():
    # Z_2(3) over the atom grid 1 <= a < 2, den(a) <= 60: the pairs {a, 3 - a}.
    result = factorizations_of_length(MonoidSpec(ConductorQ(), max_den=60), 3, 2)
    want = {F(n, d) for d in range(1, 61) for n in range(d + 1, 3 * d // 2 + 1)}
    assert {z.expanded() for z in result} == {(a, 3 - a) for a in want}


def test_antimatter_power_family_has_no_factorizations():
    # <(1/2)^n> has no atoms: 1 = 1/2 + 1/2 = 1/4 + 1/4 + 1/2 ...
    spec = MonoidSpec(PowerOf(F(1, 2)), k=3)
    assert contains(spec, 1).member
    with pytest.raises(HypothesisViolatedError):
        enumerate_factorizations(spec, 1, 3)
    with pytest.raises(HypothesisViolatedError):
        factorizations_of_length(spec, 1, 2)
