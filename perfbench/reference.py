"""Reference answers that never consult posmon.

Each function here is an independent exact computation: closed forms for the
named families, integer reachability tables over the lcm grid, and unique
factorization in Z[t] for the semiring.  The benchmark compares posmon's
answers with these, outside the timed region.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import ceil, gcd, lcm

F = Fraction

# Largest reachability table (in bits) a reference may build.
MAX_TABLE_BITS = 1 << 25


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"[: min(2, n + 1)]
    for p in range(2, int(n**0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(n + 1) if sieve[p]]


def first_primes(count: int) -> list[int]:
    bound = 16
    while True:
        ps = primes_upto(bound)
        if len(ps) >= count:
            return ps[:count]
        bound *= 2


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _val(x: Fraction, p: int) -> int:
    v, num, den = 0, abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


# ---------------------------------------------------------------- generators


def family_generators(family: dict, k: int) -> list[Fraction]:
    """The first k generators of a sequence family, from its definition."""
    name = family["name"]
    if name == "explicit":
        return [F(g) for g in family["gens"]]
    if name == "power":
        q = F(family["q"])
        return [q**n for n in range(k)]
    if name == "unit-fractions":
        return [F(1, p) for p in first_primes(k)]
    if name == "grams":
        odd = first_primes(k + 1)[1:]
        return [F(1, 2**n * odd[n]) for n in range(k)]
    if name == "alternating":
        ps = first_primes(k)
        return [1 + F((-1) ** (n + 1), ps[n]) for n in range(k)]
    raise ValueError(f"no generator sequence for {name}")


def sequence_atoms(family: dict, k: int) -> list[Fraction]:
    """Atoms of the truncated monoid <first k generators>.

    Grams, unit fractions, the alternating family and <q^n> with numerator of
    q above 1 have exactly their generators as atoms (each generator carries a
    prime or valuation no other generator can supply).  Explicit lists are
    filtered by membership of g - h.
    """
    gens = sorted(set(family_generators(family, k)))
    if family["name"] == "explicit" or (
        family["name"] == "power" and F(family["q"]).numerator == 1
    ):
        return [g for g in gens if not any(h < g and member(gens, g - h) for h in gens)]
    return gens


# ---------------------------------------------------------------- membership


def _residues(gens: list[Fraction], x: Fraction):
    """Fix multiplicities modulo private primes.

    If p divides the denominator of exactly one generator g (to the power e),
    every representation of x has m_g * g = x modulo Z_(p), i.e. m_g is fixed
    modulo p^e.  Returns [(residue, modulus)] per generator, or None when the
    congruence has no solution.
    """
    out = [(0, 1)] * len(gens)
    primes: set[int] = set()
    for g in gens:
        primes.update(_factor(g.denominator))
    for p in primes:
        owners = [i for i, g in enumerate(gens) if _val(g, p) < 0]
        if len(owners) != 1:
            continue
        i = owners[0]
        e = -_val(gens[i], p)
        y = x / gens[i]
        if y != 0 and _val(y, p) < 0:
            return None
        mod = p**e
        r = y.numerator * pow(y.denominator, -1, mod) % mod
        r0, m0 = out[i]
        # Chinese remaindering; moduli of distinct primes are coprime.
        t = (r - r0) * pow(m0, -1, mod) % mod
        out[i] = (r0 + m0 * t, m0 * mod)
    return out


def _reduce(gens: list[Fraction], x: Fraction):
    """(x', gens', weights, residues) after fixing private-prime residues."""
    res = _residues(gens, x)
    if res is None:
        return None
    rest = x - sum((r * g for (r, _), g in zip(res, gens)), F(0))
    if rest < 0:
        return None
    red = [m * g for (_, m), g in zip(res, gens)]
    return rest, red, [m for _, m in res], [r for r, _ in res]


def _reach(values: list[int], limit: int) -> int:
    """Bitset of the integers <= limit that are sums of the given values."""
    if limit + 1 > MAX_TABLE_BITS:
        raise ValueError(f"reachability table of {limit + 1} bits is too large")
    mask = (1 << (limit + 1)) - 1
    reach = 1
    for v in values:
        step = v
        while step <= limit:
            reach |= (reach << step) & mask
            step <<= 1
    return reach


def member(gens: list[Fraction], x: Fraction) -> bool:
    """x in <gens>, decided on an integer grid."""
    x = F(x)
    if x == 0:
        return True
    if x < 0:
        return False
    reduced = _reduce(sorted(set(gens)), x)
    if reduced is None:
        return False
    rest, red, _, _ = reduced
    scale = lcm(rest.denominator, *(g.denominator for g in red))
    target = int(rest * scale)
    return bool(_reach([int(g * scale) for g in red], target) >> target & 1)


# ------------------------------------------------------------ factorizations


def factorizations(atoms: list[Fraction], x: Fraction, max_len=None, exact_len=None):
    """All multisets of atoms summing to x (ascending tuples).

    Multiplicities are written m = r + M*t with the private-prime residues
    above, and the search runs over t with value and length budgets.
    """
    atoms = sorted(set(atoms), reverse=True)
    x = F(x)
    if x == 0:
        return {()} if exact_len in (None, 0) else set()
    reduced = _reduce(atoms, x)
    if reduced is None:
        return set()
    rest, red, weights, base = reduced
    budget = exact_len if exact_len is not None else max_len
    used = sum(base)
    if budget is not None and used > budget:
        return set()
    out = set()
    n = len(atoms)

    def rec(i, rem, left, ts):
        if rem == 0:
            if exact_len is None or left == 0:
                mults = [b + w * t for b, w, t in zip(base, weights, ts + [0] * (n - len(ts)))]
                out.add(tuple(sorted(a for a, m in zip(atoms, mults) for _ in range(m))))
            return
        if i == n:
            return
        cap = int(rem / red[i])
        if left is not None:
            cap = min(cap, left // weights[i])
        for t in range(cap, -1, -1):
            rec(
                i + 1,
                rem - t * red[i],
                None if left is None else left - t * weights[i],
                ts + [t],
            )

    rec(0, rest, None if budget is None else budget - used, [])
    return out


def conductor_atoms(max_den: int) -> list[Fraction]:
    return sorted({F(n, d) for d in range(1, max_den + 1) for n in range(d, 2 * d)})


def sring_atoms(r: Fraction, max_den: int) -> list[Fraction]:
    c = ceil(r)
    grid = {F(n, d) for d in range(1, max_den + 1) for n in range(ceil(r * d), ceil((r + 1) * d))}
    return sorted({F(1)} | {a for a in grid if r <= a < r + 1 and a != c})


def dense_atoms(family: dict, max_den: int) -> list[Fraction]:
    if family["name"] == "conductor":
        return conductor_atoms(max_den)
    return sring_atoms(F(family["r"]), max_den)


def dense_member(family: dict, x: Fraction) -> bool:
    if x == 0:
        return True
    if family["name"] == "conductor":
        return x >= 1
    return x.denominator == 1 or x >= F(family["r"])


def slice_of_length(atoms: list[Fraction], x: Fraction, length: int):
    """Length-2 and length-3 slices over a finite atom set, by table lookup."""
    pool = set(atoms)
    asc = sorted(pool)
    out = set()
    if length == 2:
        for a in asc:
            if 2 * a > x:
                break
            if x - a in pool:
                out.add((a, x - a))
    elif length == 3:
        for i, a in enumerate(asc):
            if 3 * a > x:
                break
            for b in asc[i:]:
                c = x - a - b
                if c < b:
                    break
                if c in pool:
                    out.add((a, b, c))
    else:
        raise ValueError("slices of length 2 and 3 only")
    return out


def conductor_pairs(x: Fraction, max_den: int) -> int:
    """Number of {a, b} with a + b = x, a, b in [1, 2), den(a) <= max_den."""
    return sum(
        1
        for a in conductor_atoms(max_den)
        if 2 * a <= x and 1 <= x - a < 2
    )


# -------------------------------------------------------------------- semiring
#
# Polynomials are dicts {grid exponent: coefficient} over t = x^(1/scale).


def poly_mul(f: dict, g: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_divmod(f: dict, g: dict):
    """The quotient f / g in Z[t], or None when g does not divide f there."""
    rem = dict(f)
    dg = max(g)
    lc = g[dg]
    quot: dict[int, int] = {}
    while rem:
        dr = max(rem)
        if dr < dg or rem[dr] % lc:
            return None
        q, e = rem[dr] // lc, dr - dg
        quot[e] = q
        for eg, cg in g.items():
            c = rem.get(e + eg, 0) - q * cg
            if c:
                rem[e + eg] = c
            else:
                rem.pop(e + eg, None)
    return quot


def _rational_roots(coeffs: dict) -> list[Fraction]:
    low = min(coeffs)
    c = {e - low: v for e, v in coeffs.items()}
    a0, an = c[0], c[max(c)]

    def divisors(n):
        n = abs(n)
        return [d for d in range(1, n + 1) if n % d == 0]

    roots = []
    for p in divisors(a0):
        for q in divisors(an):
            for cand in (F(p, q), F(-p, q)):
                if sum(v * cand**e for e, v in c.items()) == 0:
                    roots.append(cand)
    if low:
        roots.append(F(0))
    return roots


def check_irreducible_in_zt(factor: dict) -> None:
    """Raise unless factor is primitive of degree <= 3 with no rational root
    (for degree <= 3 that is irreducibility in Z[t]), or is t itself."""
    if factor == {1: 1}:
        return
    deg = max(factor)
    if min(factor) != 0 or deg > 3 or deg < 1:
        raise ValueError(f"cannot certify {factor} irreducible")
    if gcd(*factor.values()) != 1 or (deg > 1 and _rational_roots(factor)):
        raise ValueError(f"{factor} is reducible")


class Semigroup:
    """Exponent membership on the grid: the integers generated by gens*scale."""

    def __init__(self, gens: list[Fraction], scale: int, limit: int):
        self.scale = scale
        self.limit = limit
        self.table = _reach([int(g * scale) for g in gens], limit)

    def has(self, e: int) -> bool:
        if e > self.limit:
            raise ValueError("exponent beyond table")
        return bool(self.table >> e & 1)


def _in_semiring(poly: dict, sg: Semigroup) -> bool:
    return all(c > 0 for c in poly.values()) and all(sg.has(e) for e in poly)


def semiring_factorizations(zt_factors: list[dict], sg: Semigroup, max_len: int):
    """All factorizations of prod(zt_factors) into irreducibles of N0[M] with
    at most max_len factors, as a set of sorted tuples of term tuples."""
    kinds: list[dict] = []
    for fac in zt_factors:
        if fac not in kinds:
            kinds.append(fac)
    full = tuple(sum(1 for f in zt_factors if f == k) for k in kinds)

    def poly_of(pick):
        p = {0: 1}
        for fac, k in zip(kinds, pick):
            for _ in range(k):
                p = poly_mul(p, fac)
        return p

    def parts(pick):
        """Sub-picks s with poly_of(s), poly_of(pick - s) both in N0[M]."""
        out = []
        for s in product(*(range(c + 1) for c in pick)):
            if sum(s) in (0, sum(pick)):
                continue
            rest = tuple(a - b for a, b in zip(pick, s))
            if _in_semiring(poly_of(s), sg) and _in_semiring(poly_of(rest), sg):
                out.append(s)
        return out

    irreducible: dict = {}

    def is_irr(pick):
        if pick not in irreducible:
            irreducible[pick] = not parts(pick)
        return irreducible[pick]

    memo: dict = {}

    def facs(pick, budget):
        key = (pick, budget)
        if key in memo:
            return memo[key]
        res = set()
        if budget >= 1 and is_irr(pick):
            res.add((pick,))
        if budget >= 2:
            for s in parts(pick):
                if not is_irr(s):
                    continue
                rest = tuple(a - b for a, b in zip(pick, s))
                for tail in facs(rest, budget - 1):
                    res.add(tuple(sorted((s,) + tail)))
        memo[key] = res
        return res

    def terms(pick):
        p = poly_of(pick)
        return tuple(sorted((F(e, sg.scale), c) for e, c in p.items()))

    return {
        tuple(sorted(terms(s) for s in fz)) for fz in facs(full, max_len)
    }


# ------------------------------------------------------------------- sequences


def lis_length(seq) -> int:
    best = [1] * len(seq)
    for i in range(len(seq)):
        for j in range(i):
            if seq[j] < seq[i]:
                best[i] = max(best[i], best[j] + 1)
    return max(best, default=0)


def parse_poly(text: str, scale: int) -> dict:
    """'2*x^(1/3) + x^2 + 1' -> {grid exponent: coefficient}."""
    out: dict[int, int] = {}
    for chunk in text.split("+"):
        chunk = chunk.strip()
        coeff, has_x, power = chunk.partition("x")
        c = int(coeff.rstrip("*").strip() or 1)
        if not has_x:
            e = F(0)
        elif power.startswith("^"):
            e = F(power[1:].strip("()"))
        else:
            e = F(1)
        out[int(e * scale)] = out.get(int(e * scale), 0) + c
    return out


def format_poly(poly: dict, scale: int) -> str:
    parts = []
    for e, c in sorted(poly.items(), reverse=True):
        exp = F(e, scale)
        coeff = "" if c == 1 and exp else f"{c}*" if exp else str(c)
        power = "" if exp == 0 else "x" if exp == 1 else f"x^{exp}" if exp.denominator == 1 else f"x^({exp})"
        parts.append(coeff + power)
    return " + ".join(parts)


def semiring_terms(poly: dict, scale: int) -> list:
    """Canonical [[exponent, coefficient], ...] ascending, as posmon reports terms."""
    return [[str(F(e, scale)), c] for e, c in sorted(poly.items())]
