"""Certified reproductions of the example-level claims about the named
families: non-stabilizing principal-ideal chains, unbounded length sets,
length-finiteness violations, the alternating family's finite-divisor bound,
and per-family property classification tables.

Every certificate re-verifies its own arithmetic from scratch (exact rational
identities, membership combinations, atomhood closed forms) before it is
marked verified; nothing is trusted from the code path that proposed it.

The property tables live on the family classes (``properties`` in
``monoids``); this module keeps the witnesses.  ``_WITNESSES`` maps each
``witness:`` basis to the certificate that backs it, and ``classify`` re-runs
it for every row that cites it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .errors import BoundTooSmallError, InvalidArgumentError, NotAMemberError
from .factorize import length_set
from .monoids import (
    Alternating,
    GeneratorFamily,
    MonoidSpec,
    UnitFractionPrimes,
    contains,
    is_atom,
    is_multiplicative_atom,
)
from .rationals import is_prime, prime_factors

__all__ = [
    "Certificate",
    "accp_chain",
    "bf_violation_unit_fractions",
    "lff_violation",
    "ffm_divisor_bound_alternating",
    "classify",
    "check_classification_consistency",
    "IMPLICATIONS",
]


@dataclass(frozen=True)
class Certificate:
    claim: str
    family: dict
    parameters: dict
    witness: dict = field(compare=False)
    verified: bool = False

    def to_jsonable(self) -> dict:
        return {
            "claim": self.claim,
            "family": self.family,
            "parameters": self.parameters,
            "witness": self.witness,
            "verified": self.verified,
        }


def _rational_options(family: GeneratorFamily) -> dict:
    """The family's single-rational options (``q``, ``r``) as certificate
    parameters; list options and the name are left out."""
    return {key: value for key, value in family.descriptor().items() if key != "name" and isinstance(value, str)}


def accp_chain(family: GeneratorFamily, n_max: int) -> Certificate:
    """Witness an ascending chain of principal ideals b_n + M that never
    stabilizes: each step verifies b_n = b_{n+1} + delta_n exactly, with
    delta_n > 0 a member exhibited as a multiple of the family's closed-form
    generator, and b_{n+1} the next step's b_n.
    """
    if n_max < 0:
        raise InvalidArgumentError("n_max must be >= 0")
    family.check_atom_hypothesis()
    steps = []
    b_prev = None
    for n in range(n_max + 1):
        b_n, b_next, m, i, text = family.accp_step(n)
        delta = b_n - b_next
        exhibited = type(m) is int and m >= 1 and delta == m * family.generator(i)
        if not exhibited or delta <= 0 or b_prev not in (None, b_n):
            raise AssertionError("chain identity failed to re-verify")
        b_prev = b_next
        steps.append(
            {"n": n, "b_n": str(b_n), "b_next": str(b_next), "delta": str(delta), "delta_membership": text}
        )
    return Certificate(
        claim="accp-fails",
        family=family.descriptor(),
        parameters={"n_max": n_max, **_rational_options(family)},
        witness={"chain": steps},
        verified=True,
    )


def bf_violation_unit_fractions(max_prime: int) -> Certificate:
    """L(1) over <1/p : p prime <= max_prime> equals the primes up to the bound.

    The factorization engine computes the length set as an independent check
    of the closed form Z(1) = {p copies of 1/p}.
    """
    if max_prime < 2:
        raise InvalidArgumentError("prime bound must be >= 2")
    primes = [p for p in range(2, max_prime + 1) if is_prime(p)]
    spec = MonoidSpec(UnitFractionPrimes(), k=len(primes))
    lengths, completeness = length_set(spec, Fraction(1), max_len=max_prime)
    expected = set(primes)
    witnesses = []
    for p in primes:
        value = p * Fraction(1, p)
        if value != 1:
            raise AssertionError("unit-fraction witness failed to re-verify")
        witnesses.append({"p": p, "factorization": [[str(Fraction(1, p)), p]]})
    verified = lengths == expected
    return Certificate(
        claim="bf-fails",
        family=spec.family.descriptor(),
        parameters={"max_prime": max_prime, "completeness": completeness},
        witness={"length_set": sorted(lengths), "expected": sorted(expected), "factorizations": witnesses},
        verified=verified,
    )


def _additive_pairs(fam: GeneratorFamily, x: Fraction, max_den: int) -> list[tuple[Fraction, Fraction]]:
    """Unordered pairs (a, x - a) of a dense family's atoms with den(a) <= max_den.

    The cofactor's denominator is not bounded, unlike in the length-2
    factorization slice, which bounds both parts'; for a non-integral x the
    slice can find fewer pairs.  For an integral x (the conductor's x = 3)
    both parts share a denominator and the two agree.
    """
    pairs = []
    for d in range(1, max_den + 1):
        for n in range(1, int(x * d) + 1):
            a = Fraction(n, d)
            if a.denominator != d or 2 * a > x:
                continue
            if fam.is_atom(a) and fam.is_atom(x - a):
                pairs.append((a, x - a))
    return sorted(set(pairs))


def _sring_multiplicative_pairs(
    spec: MonoidSpec, s: Fraction, max_den: int
) -> list[tuple[Fraction, Fraction]]:
    """Unordered pairs (u, s^2/u) of multiplicative atoms; u runs over the
    denominator grid, the cofactor is unconstrained (it is determined by u).
    """
    target = s * s
    pairs = set()
    r = spec.family.r
    lo, hi = r, r * r
    for d in range(1, max_den + 1):
        n = int(lo * d)
        while Fraction(n, d) < hi:
            u = Fraction(n, d)
            n += 1
            if u.denominator != d or u < lo:
                continue
            v = target / u  # the cofactor is determined; its denominator is unconstrained
            try:
                if (
                    is_multiplicative_atom(spec, u).is_atom
                    and is_multiplicative_atom(spec, v).is_atom
                ):
                    pairs.add((min(u, v), max(u, v)))
            except (InvalidArgumentError, NotAMemberError):
                continue
    return sorted(pairs)


def lff_violation(target: str, spec: MonoidSpec, s: Fraction | None = None) -> Certificate:
    """Enumerate the length-2 witness family showing the target monoid is not
    length-finite, and check its count strictly grew since bound spec.max_den // 2.

    target: one of the family's ``lff_targets`` ("conductor",
    "sring-additive" or "sring-multiplicative").
    """
    fam, max_den = spec.family, spec.max_den
    if target not in fam.lff_targets.values():
        raise InvalidArgumentError(f"the {fam.name} family has no length-2 witness family {target!r}")
    if max_den is None:
        raise InvalidArgumentError("a denominator bound is required")
    if target == "sring-multiplicative":
        r = fam.r
        if s is None:
            # Inside (r, min(r^2, 2r)): the non-integer multiplicative atoms
            # lie in [r, 2r), so a larger s^2 has only the pairs with a prime part.
            s = (r + r * r) / 2 if r < 3 else 3 * r / 2
        s = Fraction(s)
        if not r < s < r * r:
            raise InvalidArgumentError(f"s must lie strictly between r and r^2, got {s}")
        x, combine, atom, shown = s * s, operator.mul, is_multiplicative_atom, {"s": str(s)}
        pairs_at = partial(_sring_multiplicative_pairs, spec, s)
    else:
        x = Fraction(3) if target == "conductor" else 2 * fam.r + 1
        combine, atom, shown = operator.add, is_atom, {}
        pairs_at = partial(_additive_pairs, fam, x)
    pairs, half_pairs = pairs_at(max_den), pairs_at(max_den // 2)
    if not pairs:
        raise BoundTooSmallError(
            f"no length-2 witness with denominators <= {max_den}; raise the bound"
        )
    for a, b in pairs:
        if combine(a, b) != x or not atom(spec, a).is_atom or not atom(spec, b).is_atom:
            raise AssertionError(f"{target} witness failed to re-verify")
    return Certificate(
        claim="lff-fails",
        family=fam.descriptor(),
        parameters={"x": str(x), **shown, "length": 2, "max_den": max_den, **_rational_options(fam)},
        witness={
            "count": len(pairs),
            "count_at_half_bound": len(half_pairs),
            "pairs": [[str(a), str(b)] for a, b in pairs],
        },
        verified=len(pairs) > len(half_pairs),
    )


def ffm_divisor_bound_alternating(spec: MonoidSpec, x: Fraction | int | str) -> Certificate:
    """Only finitely many atoms divide x in the alternating monoid: every
    dividing atom's index is at most N = max(n_x, x + 1), where n_x is the
    first index beyond every prime dividing den(x).  Verified by exhaustive
    search over the truncation, with exact rational comparisons.
    """
    if not isinstance(spec.family, Alternating):
        raise InvalidArgumentError("divisor bound applies to the alternating family")
    x = Fraction(x)
    membership = contains(spec, x)
    if not membership.member:
        raise NotAMemberError(f"{x} is not in the monoid (within truncation)")
    fam = spec.family
    k = spec.sequence_bound()
    den_primes = prime_factors(x.denominator)
    # Indices i are the 1-based a_i, p_i of the claim; the family's are 0-based.
    n_x = 1
    for i in range(1, k + 1):
        if fam.index_prime(i - 1) in den_primes:
            n_x = i + 1
    bound = max(Fraction(n_x), x + 1)
    divisors = []
    for i in range(1, k + 1):
        a = fam.generator(i - 1)
        if a == x or (a < x and contains(spec, x - a).member):
            divisors.append(i)
    checks = []
    ok = True
    for i in divisors:
        p_i = fam.index_prime(i - 1)
        within = i < n_x or p_i <= x + 1
        ok = ok and within and Fraction(i) <= bound
        checks.append({"index": i, "prime": p_i, "within_bound": within})
    return Certificate(
        claim="ffm-divisor-bound",
        family=fam.descriptor(),
        parameters={"x": str(x), "k": k},
        witness={
            "n_x": n_x,
            "bound": str(bound),
            "divisor_indices": divisors,
            "checks": checks,
        },
        verified=ok,
    )


# Implications between the properties; every table classify issues obeys
# them, and also "BF and LFF imply FF".
IMPLICATIONS = (
    ("FF", "BF"),
    ("BF", "ACCP"),
    ("ACCP", "atomic"),
    ("FF", "LFF"),
)


def check_classification_consistency(table: dict[str, dict]) -> bool:
    """No implication X => Y may pair X: yes with Y: no, and BF: yes with
    LFF: yes needs FF: yes (bounded lengths, each with finitely many
    factorizations, leave finitely many factorizations)."""
    verdict = {prop: entry["verdict"] for prop, entry in table.items()}
    if any(verdict[x] == "yes" and verdict[y] == "no" for x, y in IMPLICATIONS):
        return False
    return not (verdict["BF"] == verdict["LFF"] == "yes" and verdict["FF"] == "no")


def _antimatter_identity(spec: MonoidSpec, structure: str) -> bool:
    q = spec.family.q
    return q == q.denominator * q**2


# The certificate behind each "witness:" basis, run on (spec, structure).
_WITNESSES = {
    "witness:accp-chain": lambda spec, structure: accp_chain(spec.family, 3).verified,
    "witness:antimatter-identity q^n = d*q^(n+1)": _antimatter_identity,
    "witness:L(1)-contains-every-prime": lambda spec, structure: bf_violation_unit_fractions(13).verified,
    "witness:finite-divisor-bound": lambda spec, structure: ffm_divisor_bound_alternating(
        spec, spec.family.generator(0)
    ).verified,
    "witness:length-2-factorizations-grow": lambda spec, structure: lff_violation(
        spec.family.lff_targets[structure], spec
    ).verified,
}


def classify(spec: MonoidSpec, structure: str = "additive") -> Certificate:
    """Three-valued {atomic, ACCP, BF, FF, LFF} report for a named family.

    The family's ``properties`` give each verdict and its basis: a certified
    closed form, a known theorem, an implication, or a bounded witness that
    is re-run here at the spec's bound (the family's ``classify_truncation``
    when the spec has none) and reads ``unverified`` if it fails.  The
    bounds read are recorded in ``parameters``, and the table is
    implication-checked before the certificate is issued.
    """
    fam = spec.family
    rows = fam.properties.get(structure)
    if rows is None:
        raise InvalidArgumentError(f"{structure} classification is not certified for the {fam.name} family")
    bounds = {key: getattr(spec, key) or default for key, default in fam.classify_truncation.items()}
    probe = MonoidSpec(fam, **bounds)
    table = {}
    for prop, (verdict, basis) in rows.items():
        if basis.startswith("witness:") and not _WITNESSES[basis](probe, structure):
            basis = "unverified"
        table[prop] = {"verdict": verdict, "basis": basis}
    if not check_classification_consistency(table):
        raise AssertionError("classification table violates a property implication")
    return Certificate(
        claim="classification",
        family=fam.descriptor(),
        parameters={"structure": structure, **_rational_options(fam), **bounds},
        witness={"table": table},
        verified=all(e["basis"] != "unverified" for e in table.values()),
    )
