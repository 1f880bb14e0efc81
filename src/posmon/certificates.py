"""Certified reproductions of the example-level claims about the named
families: non-stabilizing principal-ideal chains, unbounded length sets,
length-finiteness violations, the alternating family's finite-divisor bound,
and per-family property classification tables.

Every certificate re-verifies its own arithmetic from scratch (exact rational
identities, membership combinations, atomhood closed forms) before it is
marked verified; nothing is trusted from the code path that proposed it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BoundTooSmallError, HypothesisViolatedError, InvalidArgumentError, NotAMemberError
from .factorize import factorizations_of_length, length_set
from .monoids import (
    Alternating,
    ConductorQ,
    Explicit,
    GeneratorFamily,
    Grams,
    MonoidSpec,
    PowerOf,
    SRing,
    UnitFractionPrimes,
    contains,
    is_atom,
    is_multiplicative_atom,
)
from .rationals import is_prime, nth_prime, prime_factors

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


def accp_chain(family: GeneratorFamily, n_max: int) -> Certificate:
    """Witness an ascending chain of principal ideals b_n + M that never
    stabilizes: each step verifies b_n = b_{n+1} + delta_n exactly, with
    delta_n a nonzero member exhibited as an explicit generator multiple.
    """
    if n_max < 0:
        raise InvalidArgumentError("n_max must be >= 0")
    steps = []
    if isinstance(family, Grams):
        for n in range(n_max + 1):
            b_n = Fraction(1, 2**n)
            b_next = Fraction(1, 2 ** (n + 1))
            delta = b_n - b_next
            p = nth_prime(n + 1, exclude_two=True)
            gen = family.generator(n + 1)
            if delta != b_next or p * gen != delta or delta == 0:
                raise AssertionError("chain identity failed to re-verify")
            steps.append(
                {
                    "n": n,
                    "b_n": str(b_n),
                    "b_next": str(b_next),
                    "delta": str(delta),
                    "delta_membership": f"{p} * (1/(2^{n + 1}*{p}))",
                }
            )
        params = {"n_max": n_max}
    elif isinstance(family, PowerOf):
        family.check_atom_hypothesis()
        q = family.q
        num, den = q.numerator, q.denominator
        for n in range(n_max + 1):
            b_n = den * q**n
            b_next = den * q ** (n + 1)
            delta = (den - num) * q**n
            if b_n != b_next + delta or delta == 0:
                raise AssertionError("chain identity failed to re-verify")
            steps.append(
                {
                    "n": n,
                    "b_n": str(b_n),
                    "b_next": str(b_next),
                    "delta": str(delta),
                    "delta_membership": f"{den - num} * q^{n}",
                }
            )
        params = {"n_max": n_max, "q": str(q)}
    else:
        raise InvalidArgumentError(
            "non-stabilizing chains are certified for the grams and power families"
        )
    return Certificate(
        claim="accp-fails",
        family=family.descriptor(),
        parameters=params,
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


def _sring_additive_pairs(fam: SRing, x: Fraction, max_den: int) -> list[tuple[Fraction, Fraction]]:
    """Unordered pairs (a, x - a) of additive atoms with den(a) <= max_den.

    The cofactor's denominator is not bounded, unlike in the length-2
    factorization slice, which bounds both parts'; for a non-integral x the
    slice can find fewer pairs.
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

    target: "conductor", "sring-additive", or "sring-multiplicative".
    """
    max_den = spec.max_den
    if max_den is None:
        raise InvalidArgumentError("a denominator bound is required")

    if target == "conductor":
        if not isinstance(spec.family, ConductorQ):
            raise InvalidArgumentError("conductor target needs the conductor family")
        x = Fraction(3)

        def conductor_pairs(bound: int) -> list[tuple[Fraction, ...]]:
            # x is an integer, so a and x - a share a denominator: bounding
            # both parts' denominators (the slice) bounds the first part's.
            slice_ = factorizations_of_length(MonoidSpec(spec.family, max_den=bound), x, 2)
            return [z.expanded() for z in slice_]

        pairs = conductor_pairs(max_den)
        half_pairs = conductor_pairs(max_den // 2) if max_den // 2 >= 1 else []
        for a, b in pairs:
            if a + b != x or not is_atom(spec, a).is_atom or not is_atom(spec, b).is_atom:
                raise AssertionError("conductor witness failed to re-verify")
        params: dict = {"x": str(x), "length": 2, "max_den": max_den}
    elif target == "sring-additive":
        if not isinstance(spec.family, SRing):
            raise InvalidArgumentError("sring target needs the sring family")
        r = spec.family.r
        x = 2 * r + 1
        pairs = _sring_additive_pairs(spec.family, x, max_den)
        half_pairs = _sring_additive_pairs(spec.family, x, max_den // 2) if max_den // 2 >= 1 else []
        for a, b in pairs:
            if a + b != x or not is_atom(spec, a).is_atom or not is_atom(spec, b).is_atom:
                raise AssertionError("sring additive witness failed to re-verify")
        params = {"x": str(x), "length": 2, "max_den": max_den, "r": str(r)}
    elif target == "sring-multiplicative":
        if not isinstance(spec.family, SRing):
            raise InvalidArgumentError("sring target needs the sring family")
        r = spec.family.r
        if s is None:
            s = (r + r * r) / 2
        s = Fraction(s)
        if not r < s < r * r:
            raise InvalidArgumentError(f"s must lie strictly between r and r^2, got {s}")
        pairs = _sring_multiplicative_pairs(spec, s, max_den)
        half_pairs = (
            _sring_multiplicative_pairs(spec, s, max_den // 2) if max_den // 2 >= 1 else []
        )
        for u, v in pairs:
            if u * v != s * s:
                raise AssertionError("sring multiplicative witness failed to re-verify")
        params = {
            "x": str(s * s),
            "s": str(s),
            "length": 2,
            "max_den": max_den,
            "r": str(r),
        }
    else:
        raise InvalidArgumentError(f"unknown target {target!r}")

    if not pairs:
        raise BoundTooSmallError(
            f"no length-2 witness with denominators <= {max_den}; raise the bound"
        )
    grew = len(pairs) >= len(half_pairs) + 1
    return Certificate(
        claim="lff-fails",
        family=spec.family.descriptor(),
        parameters=params,
        witness={
            "count": len(pairs),
            "count_at_half_bound": len(half_pairs),
            "pairs": [[str(a), str(b)] for a, b in pairs],
        },
        verified=grew,
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


# Property tables.  Entries are (verdict, basis); bases name the certified
# closed form / known theorem or the bounded witness that backs the verdict.
IMPLICATIONS = (
    ("FF", "BF"),
    ("BF", "ACCP"),
    ("ACCP", "atomic"),
    ("FF", "LFF"),
)

PROPERTIES = ("atomic", "ACCP", "BF", "FF", "LFF")


def check_classification_consistency(table: dict[str, dict]) -> bool:
    """No implication X => Y may pair X: yes with Y: no."""
    for x, y in IMPLICATIONS:
        if table[x]["verdict"] == "yes" and table[y]["verdict"] == "no":
            return False
    return True


def _entry(verdict: str, basis: str) -> dict:
    return {"verdict": verdict, "basis": basis}


def classify(spec: MonoidSpec, structure: str = "additive") -> Certificate:
    """Three-valued {atomic, ACCP, BF, FF, LFF} report for a named family.

    Each yes/no is backed either by a certified closed form / known theorem
    (named in the basis) or by a bounded witness re-run here.  The emitted
    table is implication-checked before the certificate is issued.
    """
    fam = spec.family
    params: dict = {"structure": structure}
    if structure not in ("additive", "multiplicative"):
        raise InvalidArgumentError("structure must be additive or multiplicative")
    if structure == "multiplicative" and not isinstance(fam, SRing):
        raise InvalidArgumentError(
            "multiplicative classification is certified only for the sring family"
        )

    if isinstance(fam, Explicit):
        table = {
            "atomic": _entry("yes", "known:finitely-generated-monoids-are-FFMs"),
            "ACCP": _entry("yes", "known:finitely-generated-monoids-are-FFMs"),
            "BF": _entry("yes", "known:finitely-generated-monoids-are-FFMs"),
            "FF": _entry("yes", "known:finitely-generated-monoids-are-FFMs"),
            "LFF": _entry("yes", "implied:FF->LFF"),
        }
    elif isinstance(fam, Grams):
        accp = accp_chain(fam, 3)
        table = {
            "atomic": _entry("yes", "closed-form:atoms-are-the-generators (p-adic certificates)"),
            "ACCP": _entry("no", "witness:accp-chain" if accp.verified else "unverified"),
            "BF": _entry("no", "implied:BF->ACCP"),
            "FF": _entry("no", "implied:FF->BF"),
            "LFF": _entry("yes", "theorem:atomic-co-well-ordered-monoids-are-length-finite"),
        }
    elif isinstance(fam, PowerOf):
        try:
            fam.check_atom_hypothesis()
        except HypothesisViolatedError:
            # q = 1/d: every generator splits as q^n = d * q^(n+1), so the
            # monoid has no atoms at all.
            d = fam.q.denominator
            if fam.q != d * fam.q**2:
                raise AssertionError("antimatter identity failed to re-verify")
            table = {
                "atomic": _entry("no", "witness:antimatter-identity q^n = d*q^(n+1)"),
                "ACCP": _entry("no", "implied:ACCP->atomic"),
                "BF": _entry("no", "implied:BF->ACCP"),
                "FF": _entry("no", "implied:FF->BF"),
                "LFF": _entry("no", "definition:length-finiteness-presumes-atomicity"),
            }
            params["q"] = str(fam.q)
            return _finish_classification(spec, params, table)
        accp = accp_chain(fam, 3)
        table = {
            "atomic": _entry("yes", "closed-form:atoms-are-the-powers-of-q"),
            "ACCP": _entry("no", "witness:accp-chain" if accp.verified else "unverified"),
            "BF": _entry("no", "implied:BF->ACCP"),
            "FF": _entry("no", "implied:FF->BF"),
            "LFF": _entry("yes", "theorem:atomic-co-well-ordered-monoids-are-length-finite"),
        }
        params["q"] = str(fam.q)
    elif isinstance(fam, UnitFractionPrimes):
        bf = bf_violation_unit_fractions(13)
        table = {
            "atomic": _entry("yes", "closed-form:atoms-are-the-unit-fractions (p-adic certificates)"),
            "ACCP": _entry("yes", "known:ascending-chains-stabilize-for-this-family"),
            "BF": _entry("no", "witness:L(1)-contains-every-prime" if bf.verified else "unverified"),
            "FF": _entry("no", "implied:FF->BF"),
            "LFF": _entry("yes", "theorem:atomic-co-well-ordered-monoids-are-length-finite"),
        }
    elif isinstance(fam, Alternating):
        probe = MonoidSpec(fam, k=spec.k or fam.classify_truncation["k"])
        ffm = ffm_divisor_bound_alternating(probe, probe.family.generator(0))
        table = {
            "atomic": _entry("yes", "closed-form:atoms-are-the-generators (p-adic certificates)"),
            "ACCP": _entry("yes", "implied:BF->ACCP"),
            "BF": _entry("yes", "implied:FF->BF"),
            "FF": _entry(
                "yes",
                "witness:finite-divisor-bound" if ffm.verified else "unverified",
            ),
            "LFF": _entry("yes", "implied:FF->LFF"),
        }
    elif isinstance(fam, ConductorQ):
        lff = lff_violation("conductor", MonoidSpec(fam, **fam.classify_truncation))
        table = {
            "atomic": _entry("yes", "closed-form:atoms-are-[1,2)-rationals"),
            "ACCP": _entry("yes", "implied:BF->ACCP"),
            "BF": _entry("yes", "known:zero-is-isolated-so-lengths-are-bounded"),
            "FF": _entry("no", "implied-contrapositive:FF->LFF"),
            "LFF": _entry("no", "witness:length-2-factorizations-grow" if lff.verified else "unverified"),
        }
    elif isinstance(fam, SRing):
        target = "sring-additive" if structure == "additive" else "sring-multiplicative"
        lff = lff_violation(target, MonoidSpec(fam, **fam.classify_truncation))
        basis_atoms = (
            "closed-form:additive-atoms ({1} u [r,r+1)) \\ {ceil(r)}"
            if structure == "additive"
            else "closed-form:multiplicative-atoms (P u [r,r^2)) \\ P*(S_r)>1"
        )
        table = {
            "atomic": _entry("yes", basis_atoms),
            "ACCP": _entry("yes", "implied:BF->ACCP"),
            "BF": _entry("yes", "known:zero-is-isolated-so-lengths-are-bounded"),
            "FF": _entry("no", "implied-contrapositive:FF->LFF"),
            "LFF": _entry("no", "witness:length-2-factorizations-grow" if lff.verified else "unverified"),
        }
        params["r"] = str(fam.r)
    else:
        table = {p: _entry("unknown", "family-outside-certified-table") for p in PROPERTIES}
    return _finish_classification(spec, params, table)


def _finish_classification(spec: MonoidSpec, params: dict, table: dict) -> Certificate:
    consistent = check_classification_consistency(table)
    if not consistent:
        raise AssertionError("classification table violates a property implication")
    verified = consistent and all(e["basis"] != "unverified" for e in table.values())
    return Certificate(
        claim="classification",
        family=spec.family.descriptor(),
        parameters=params,
        witness={"table": table},
        verified=verified,
    )
