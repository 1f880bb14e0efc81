"""Exact enumeration of factorizations, length slices, and length sets.

Factorizations come from the exact search kernel (:mod:`posmon.search`) in
``all`` mode, over the atoms scaled to integers by the lcm of their
denominators.  Two prunes apply here: the suffix-gcd residue prune steps each
multiplicity through one residue class, and under a length budget the next
atom comes from a bisect window with the last part closed by a lookup, so the
search depth is bounded by the length.  (The third prune, the exchange bound,
only serves membership.)  Every emitted factorization is re-evaluated
against the queried element before it leaves this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    CertificateUnavailableError,
    InvalidArgumentError,
    NotAMemberError,
    UnboundedQueryError,
)
from .monoids import DECREASING, FINITE, MonoidSpec, _split, contains, generators
from .search import search

__all__ = [
    "Factorization",
    "QueryResult",
    "COMPLETE",
    "COMPLETE_FOR_LENGTH",
    "TRUNCATION_BOUNDED",
    "atoms_for_query",
    "enumerate_factorizations",
    "factorizations_of_length",
    "length_set",
    "completeness_certificate",
    "is_irredundant_pair",
    "maximal_irredundant_subset",
]

COMPLETE = "complete"
COMPLETE_FOR_LENGTH = "complete-for-length"
TRUNCATION_BOUNDED = "truncation-bounded"


@dataclass(frozen=True, order=True)
class Factorization:
    """A finite multiset of atoms, stored as (atom, multiplicity) ascending."""

    parts: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        for atom, mult in self.parts:
            if atom <= 0:
                raise InvalidArgumentError(f"atom {atom} is not strictly positive")
            if mult < 1:
                raise InvalidArgumentError("multiplicities must be >= 1")
        if list(self.parts) != sorted(self.parts):
            raise InvalidArgumentError("parts must be sorted ascending by atom")
        if len({a for a, _ in self.parts}) != len(self.parts):
            raise InvalidArgumentError("repeated atom entries; merge multiplicities")

    @classmethod
    def from_atoms(cls, atoms) -> "Factorization":
        counts: dict[Fraction, int] = {}
        for a in atoms:
            a = Fraction(a)
            counts[a] = counts.get(a, 0) + 1
        return cls(tuple(sorted(counts.items())))

    @property
    def length(self) -> int:
        return sum(m for _, m in self.parts)

    @property
    def value(self) -> Fraction:
        return sum((a * m for a, m in self.parts), Fraction(0))

    @property
    def support(self) -> frozenset[Fraction]:
        return frozenset(a for a, _ in self.parts)

    def expanded(self) -> tuple[Fraction, ...]:
        """The multiset as a sorted tuple with repetitions."""
        out: list[Fraction] = []
        for a, m in self.parts:
            out.extend([a] * m)
        return tuple(out)

    def __str__(self) -> str:
        return "[" + ", ".join(str(a) for a in self.expanded()) + "]"


@dataclass(frozen=True)
class QueryResult:
    factorizations: tuple[Factorization, ...]
    completeness: str
    truncation: dict

    @property
    def lengths(self) -> list[int]:
        return sorted({z.length for z in self.factorizations})

    def __iter__(self):
        return iter(self.factorizations)

    def __len__(self):
        return len(self.factorizations)


def atoms_for_query(spec: MonoidSpec) -> list[Fraction]:
    """Atoms of the truncated monoid, ascending.

    Sequence families: the first k generators (their certified atom sets);
    a family whose atom hypothesis fails (a power family whose 1/q is a
    natural number) raises HypothesisViolatedError, as in certified_atoms.
    Explicit: the generators that admit no two-part split.  Dense families:
    the closed-form atom set restricted to denominators <= max_den.
    """
    fam = spec.family
    if fam.dense:
        if spec.max_den is None:
            raise UnboundedQueryError(f"{fam.name} family requires a denominator bound")
        return fam.grid_atoms(spec.max_den)
    fam.check_atom_hypothesis()
    gens = generators(spec)
    if fam.monotonicity == FINITE:
        return sorted(g for g in gens if _split(gens, g) is None)
    return sorted(gens)


def _factorizations(
    atoms: list[Fraction], x: Fraction, max_len: int | None, exact_len: int | None
) -> list[Factorization]:
    """All multisets of atoms summing to x, under the requested length regime."""
    out = [Factorization(parts) for parts in search(atoms, x, max_len=max_len, exact_len=exact_len)]
    for z in out:
        if z.value != x:  # soundness gate on emission
            raise AssertionError(f"engine emitted {z} for {x}")
    return sorted(out, key=lambda z: z.expanded())


def _require_member(spec: MonoidSpec, x: Fraction) -> None:
    if not contains(spec, x).member:
        raise NotAMemberError(f"{x} is not in the monoid (within truncation)")


def _max_possible_length(atoms: list[Fraction], x: Fraction) -> int:
    return int(x / min(atoms)) if atoms else 0


def enumerate_factorizations(
    spec: MonoidSpec, x: Fraction | int | str, max_len: int | None = None
) -> QueryResult:
    """All factorizations of x into atoms of the truncation (length <= max_len)."""
    x = Fraction(x)
    _require_member(spec, x)
    if spec.is_dense and max_len is None:
        raise UnboundedQueryError(
            "dense families require max_len (atom grids admit unbounded slices)"
        )
    atoms = atoms_for_query(spec)
    found = _factorizations(atoms, x, max_len, None)
    completeness = TRUNCATION_BOUNDED
    if spec.family.monotonicity == FINITE:
        if max_len is None or max_len >= _max_possible_length(atoms, x):
            completeness = COMPLETE
        else:
            completeness = COMPLETE_FOR_LENGTH
    return QueryResult(tuple(found), completeness, spec.descriptor())


def factorizations_of_length(
    spec: MonoidSpec, x: Fraction | int | str, length: int
) -> QueryResult:
    """The length-`length` slice of the factorization set of x."""
    if length < 1:
        raise InvalidArgumentError("length must be >= 1")
    x = Fraction(x)
    _require_member(spec, x)
    atoms = atoms_for_query(spec)
    found = _factorizations(atoms, x, None, length)
    try:
        certified, _ = completeness_certificate(spec, x, length)
    except CertificateUnavailableError:
        certified = False
    completeness = COMPLETE_FOR_LENGTH if certified else TRUNCATION_BOUNDED
    return QueryResult(tuple(found), completeness, spec.descriptor())


def length_set(
    spec: MonoidSpec, x: Fraction | int | str, max_len: int | None = None
) -> tuple[set[int], str]:
    """{|z| : z in Z(x) found}, with the weakest completeness that applies."""
    x = Fraction(x)
    result = enumerate_factorizations(spec, x, max_len)
    lengths = set(result.lengths)
    if result.completeness == COMPLETE:
        return lengths, COMPLETE
    if max_len is not None:
        try:
            if all(completeness_certificate(spec, x, l)[0] for l in range(1, max_len + 1)):
                return lengths, COMPLETE_FOR_LENGTH
        except CertificateUnavailableError:
            pass
    if result.completeness == COMPLETE_FOR_LENGTH:
        return lengths, COMPLETE_FOR_LENGTH
    return lengths, TRUNCATION_BOUNDED


def completeness_certificate(
    spec: MonoidSpec, x: Fraction | int | str, length: int
) -> tuple[bool, Fraction | None]:
    """Soundness bridge from the truncation to the infinite monoid.

    For a decreasing family truncated to its k largest atoms, every atom in a
    length-`length` factorization of x (in the full monoid) is at least
    x - (length-1) * a_max.  When that threshold clears the smallest included
    atom, the slice computed over the truncation is the full slice.
    Returns (certified, threshold).
    """
    x = Fraction(x)
    fam = spec.family
    if fam.monotonicity == FINITE:
        return True, None  # no truncation: vacuously certified
    if fam.monotonicity != DECREASING:
        raise CertificateUnavailableError(
            f"{fam.name} truncations are not ordered by atom size; no certificate"
        )
    a_max = fam.generator(0)
    atoms = atoms_for_query(spec)
    threshold = x - (length - 1) * a_max
    return threshold >= min(atoms), threshold


def is_irredundant_pair(z1: Factorization, z2: Factorization) -> bool:
    """True iff the two factorizations share no atom."""
    return not (z1.support & z2.support)


def maximal_irredundant_subset(zs) -> list[Factorization]:
    """A maximal irredundant subset, greedy in deterministic order.

    All inputs must factor the same element.  The returned subset is pairwise
    atom-disjoint, and every input factorization shares an atom with some
    member (checked before returning).
    """
    zs = sorted(set(zs), key=lambda z: z.expanded())
    if not zs:
        return []
    values = {z.value for z in zs}
    if len(values) > 1:
        raise InvalidArgumentError(
            f"factorizations of distinct elements {sorted(values)} cannot be compared"
        )
    chosen: list[Factorization] = []
    used: set[Fraction] = set()
    for z in zs:
        if not (z.support & used):
            chosen.append(z)
            used.update(z.support)
    for z in zs:
        if not any(z.support & c.support for c in chosen):
            raise AssertionError("maximality postcondition failed")
    return chosen
