"""The exact search kernel behind membership and factorization.

Atoms are scaled once per generator tuple by L, the lcm of their
denominators, so a query asks to write the integer X = x*L as a multiset of
scaled atoms (x*L not an integer: no solution).  The kernel picks atoms from
the largest down, each with its multiplicity, on its own stack, so no depth
meets the recursion limit.  Three prunes cut it:

* residue: with G the gcd of the atoms below atom a, a multiplicity m of a
  satisfies m*a = rem (mod G), so m steps through one residue class;
* exchange (``first`` mode only): m < b/gcd(a, b) for every smaller atom b,
  since trading b/gcd(a, b) copies of a for a/gcd(a, b) copies of b keeps a
  solution a solution (the lexicographically least one obeys every bound);
* length window: under a length budget the next atom lies in the bisect
  window [rem/left, rem], and the last part is closed by a lookup.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = ["search"]


@lru_cache(maxsize=256)
def _prepare(gens: tuple[tuple[int, int], ...], first: bool):
    """Atoms ascending, scale, scaled atoms, their index, prefix gcds,
    residue steps and (``first`` mode) exchange bounds.  Keyed by integer
    pairs: hashing and comparing them is far cheaper than for Fractions."""
    atoms = sorted({Fraction(n, d) for n, d in gens})
    scale = lcm(*(a.denominator for a in atoms))
    ints = [a.numerator * (scale // a.denominator) for a in atoms]
    prefix, residue = [], []  # prefix[j] = gcd(ints[:j + 1]) divides prefix[j - 1]
    for j, a in enumerate(ints):
        prefix.append(gcd(prefix[-1], a) if j else a)
        step = prefix[j - 1] // prefix[j] if j else 0  # m*a = rem mod prefix[j - 1]
        residue.append((step, pow(a // prefix[j], -1, step) if step > 1 else 0))
    caps = None
    if first:  # m < b/gcd(a, b) over the smaller atoms b; 0 means no bound
        caps = [min((b // gcd(a, b) for b in ints[:j]), default=0) for j, a in enumerate(ints)]
    return atoms, scale, ints, {a: j for j, a in enumerate(ints)}, prefix, residue, caps


def search(
    gens, x: Fraction, first: bool = False, max_len: int | None = None, exact_len: int | None = None
) -> list[tuple[tuple[Fraction, int], ...]]:
    """Multisets of gens summing to x, as (atom, multiplicity) pairs ascending.

    ``first`` stops at one multiset; otherwise every multiset of length
    <= ``max_len`` or == ``exact_len`` (any length when both are None).
    """
    key = tuple([(g.numerator, g.denominator) for g in gens])
    atoms, scale, ints, index, prefix, residue, caps = _prepare(key, first)
    if x == 0:
        return [()] if exact_len in (None, 0) else []
    if scale % x.denominator:
        return []
    exact = exact_len is not None
    out: list = []
    # A frame: (highest atom index allowed, remainder, length left, chosen parts as a linked list).
    stack = [(len(ints) - 1, x.numerator * (scale // x.denominator), exact_len if exact else max_len, None)]
    while stack:
        hi, rem, left, chain = stack.pop()
        if rem == 0:
            if not exact or left == 0:
                parts = []
                while chain is not None:
                    j, m, chain = chain
                    parts.append((atoms[j], m))
                out.append(tuple(parts))  # the last atom chosen is the smallest
                if first:
                    break
            continue
        lo = 0
        if left is not None:
            if hi < 0 or rem > left * ints[hi] or (exact and rem < left * ints[0]):
                continue
            if left == 1:
                j = index.get(rem, hi + 1)
                if j <= hi:
                    stack.append((j - 1, 0, 0, (j, 1, chain)))
                continue
            lo = bisect_left(ints, -(-rem // left), 0, hi + 1)
        children = []
        for j in range(min(hi, bisect_right(ints, rem) - 1), lo - 1, -1):
            g = prefix[j]
            if rem % g:
                break  # then no atom up to j can finish rem either
            a = ints[j]
            step, inv = residue[j]
            most = rem // a if left is None else min(rem // a, left)
            if caps is not None and caps[j]:
                most = min(most, caps[j] - 1)
            if step == 0:  # the smallest atom takes all of rem
                least = step = rem // a
            else:
                least = (rem // g) * inv % step or step
            for m in range(most - (most - least) % step, least - 1, -step) if least <= most else ():
                children.append((j - 1, rem - m * a, None if left is None else left - m, (j, m, chain)))
        stack.extend(reversed(children))  # largest atom, highest multiplicity first
    return out
