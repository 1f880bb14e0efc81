"""Independent brute-force oracles for cross-checking the engines.

Deliberately naive: plain recursion in ascending order (or, for membership
over large grids, a plain bitset knapsack), no valuation or residue pruning,
no length certificates, no shared code with the implementations under test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm


def naive_member(gens: list[Fraction], x: Fraction) -> bool:
    gens = sorted(set(gens))
    if x == 0:
        return True
    if x < 0:
        return False
    return any(naive_member(gens, x - g) for g in gens if g <= x)


def dp_member(gens, x) -> bool:
    """Membership by an unbounded-knapsack bitset over the common grid.

    Bit n of ``reach`` says n/scale is a sum of generators; each generator is
    added with doubling shifts, so every multiplicity up to the target is
    covered.  Cost grows with x*scale, not with the number of orderings.
    """
    gens = [Fraction(g) for g in gens]
    x = Fraction(x)
    scale = lcm(x.denominator, *(g.denominator for g in gens))
    target = int(x * scale)
    mask = (1 << (target + 1)) - 1
    reach = 1
    for g in gens:
        shift = int(g * scale)
        while shift <= target:
            reach |= (reach << shift) & mask
            shift *= 2
    return bool(reach >> target & 1)


def naive_is_decomposable(gens: list[Fraction], g: Fraction) -> bool:
    """g equals a sum of two or more generators."""
    return any(h < g and naive_member(gens, g - h) for h in gens)


def naive_atoms(gens) -> list[Fraction]:
    gens = sorted({Fraction(g) for g in gens})
    return [g for g in gens if not naive_is_decomposable(gens, g)]


def naive_factorizations(
    gens,
    x: Fraction,
    max_len: int | None = None,
    exact_len: int | None = None,
    atoms=None,
) -> set[tuple[Fraction, ...]]:
    """All multisets of atoms (ascending tuples) summing to x.

    ``atoms`` skips the atom computation when the atoms are known already,
    as for the named sequence families, whose generators are their atoms.
    """
    atoms = naive_atoms(gens) if atoms is None else sorted(set(atoms))
    x = Fraction(x)
    out: set[tuple[Fraction, ...]] = set()

    def rec(start: int, rem: Fraction, chosen: tuple[Fraction, ...]):
        if rem == 0:
            if (max_len is None or len(chosen) <= max_len) and (
                exact_len is None or len(chosen) == exact_len
            ):
                out.add(chosen)
            return
        if max_len is not None and len(chosen) >= max_len:
            return
        if exact_len is not None and len(chosen) >= exact_len:
            return
        for i in range(start, len(atoms)):
            a = atoms[i]
            if a > rem:
                break
            rec(i, rem - a, chosen + (a,))

    rec(0, x, ())
    return out


def exhaustive_lis_length(seq) -> int:
    """Maximum strictly increasing subsequence length by trying every subset."""
    n = len(seq)
    best = 0
    for size in range(n, 0, -1):
        for idxs in combinations(range(n), size):
            vals = [seq[i] for i in idxs]
            if all(a < b for a, b in zip(vals, vals[1:])):
                return size
    return best


def exhaustive_lwd_length(seq) -> int:
    n = len(seq)
    for size in range(n, 0, -1):
        for idxs in combinations(range(n), size):
            vals = [seq[i] for i in idxs]
            if all(a >= b for a, b in zip(vals, vals[1:])):
                return size
    return 0


def brute_force_gp_divides(f_terms, g_terms, member_test) -> bool:
    """Does g divide f in N0[M]?  Try every candidate quotient with exponents
    from the difference grid and coefficients up to max coefficient of f."""
    from posmon.semiring import GenPoly, gp_mul  # loaded here to keep oracle thin

    f, g = f_terms, g_terms
    f_exps = [e for e, _ in f.terms]
    g_exps = [e for e, _ in g.terms]
    diffs = sorted(
        {fe - ge for fe in f_exps for ge in g_exps if fe - ge >= 0 and member_test(fe - ge)}
    )
    if not diffs:
        return False
    cap = max(c for _, c in f.terms)

    def assignments(i):
        if i == len(diffs):
            yield {}
            return
        for rest in assignments(i + 1):
            yield rest
            for c in range(1, cap + 1):
                yield {diffs[i]: c, **rest}

    for mapping in assignments(0):
        if not mapping:
            continue
        h = GenPoly(f.spec, tuple(sorted(mapping.items())))
        if gp_mul(g, h) == f:
            return True
    return False
