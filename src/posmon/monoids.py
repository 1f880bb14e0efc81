"""Positive monoids given by generator families, with certified truncations.

A monoid is described by a :class:`GeneratorFamily` plus a truncation policy
(:class:`MonoidSpec`).  Each family's closed forms live on its class; the
queries (``contains``, ``is_atom``, ``certified_atoms`` and
``factorize.atoms_for_query``) dispatch on ``dense``, ``monotonicity`` and
``check_atom_hypothesis()``, never on the concrete class.

* Dense families (the conductor monoid {0} u Q>=1 and the rational semiring
  S_r = N0 u Q>=r) are never enumerated.  Each writes its ``membership``
  rule, its ``is_atom`` predicate and its ``atom_window`` once; the shared
  dense base builds the atom grid of bounded denominator (``grid_atoms``).
  S_r also writes its multiplicative atoms (``multiplicative_atom``, over
  ``multiplicative_window``), which ``is_multiplicative_atom`` reads.
* Sequence families (Grams, powers of q, unit fractions over primes, the
  alternating family) expose their first ``k`` generators exactly; each
  generator's atomhood is machine-checked by the family's
  ``atom_certificate`` under its ``method`` label.  The three prime-indexed
  families share one p-adic certificate; the power family checks its
  valuation profile.
* Explicit families (``monotonicity == FINITE``) carry no truncation; their
  atoms are the generators with no two-part split, one search kernel call
  per candidate split.

Each family class declares its options once, as ``(key, parser, required)``
rows in ``options``; they are also the family's record fields, which its
equality, hash and ``repr`` read.  The CLI flags, ``--config`` files and
``family_from_config`` read the rows; ``descriptor()`` writes them back out.

Each family class also declares its property table, ``properties``: per
structure, ``{property: (verdict, basis)}``.  ``certificates.classify`` reads
it and re-runs the certificate behind every ``witness:`` basis at the bounds
named in ``classify_truncation`` (the spec's own bound when it has one).
Two certificates read more than the table: ``accp_chain`` reads the chain's
closed form from ``accp_step``, and ``lff_violation`` reads the length-2
witness family of each structure from ``lff_targets``.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, gcd

from .errors import (
    HypothesisViolatedError,
    InvalidArgumentError,
    NotAMemberError,
    NotSequenceGeneratedError,
    UnboundedQueryError,
)
from .rationals import is_prime, nth_prime, padic_valuation, parse_rational, prime_factors
from .records import Record
from .search import search

__all__ = [
    "GeneratorFamily",
    "Explicit",
    "Grams",
    "PowerOf",
    "UnitFractionPrimes",
    "Alternating",
    "ConductorQ",
    "SRing",
    "MonoidSpec",
    "MembershipResult",
    "AtomVerdict",
    "generators",
    "contains",
    "is_atom",
    "is_multiplicative_atom",
    "certified_atoms",
    "family_from_config",
]

# Monotonicity metadata values.  "decreasing" families are generated by a
# strictly decreasing sequence, hence co-well-ordered, hence length-finite
# once atomic.  The alternating family is neither well- nor co-well-ordered.
DECREASING = "decreasing"
NON_MONOTONE = "non-monotone"
FINITE = "finite"
DENSE = "dense"


# Option parsers; each docstring is the option's --help text.  A rational is a
# str, int or Fraction, never a float or bool; a list a comma string or a list.


def _rational(value) -> Fraction:
    """a rational such as 2/3"""
    if type(value) is not int and not isinstance(value, (str, Fraction)):
        raise InvalidArgumentError(f"expected a rational string or an integer, not {value!r}")
    return parse_rational(str(value))


def _rationals(value) -> tuple[Fraction, ...]:
    """comma-separated rationals"""
    if not isinstance(value, (str, list, tuple)):
        raise InvalidArgumentError(f"expected a comma-separated string or a list, not {value!r}")
    return tuple(map(_rational, value.split(",") if isinstance(value, str) else value))


def _integers(value) -> tuple[int, ...]:
    """comma-separated integers"""
    values = _rationals(value)
    if any(v.denominator != 1 for v in values):
        raise InvalidArgumentError(f"expected integers, not {value!r}")
    return tuple(map(int, values))


# Property-table rows shared by several families.  A basis names the closed
# form, known theorem or implication behind a verdict; a "witness:" basis
# names the bounded certificate that classify re-runs.
_CO_WELL_ORDERED_LFF = ("yes", "theorem:atomic-co-well-ordered-monoids-are-length-finite")
_NO_ACCP_ROWS = {
    "ACCP": ("no", "witness:accp-chain"),
    "BF": ("no", "implied:BF->ACCP"),
    "FF": ("no", "implied:FF->BF"),
    "LFF": _CO_WELL_ORDERED_LFF,
}
_DENSE_ROWS = {
    "ACCP": ("yes", "implied:BF->ACCP"),
    "BF": ("yes", "known:zero-is-isolated-so-lengths-are-bounded"),
    "FF": ("no", "implied-contrapositive:FF->LFF"),
    "LFF": ("no", "witness:length-2-factorizations-grow"),
}


class GeneratorFamily(Record):
    """Base class; each concrete family below is a record whose fields are its
    ``options`` keys.  Two families are equal when they are of one class and
    their option values are equal."""

    __slots__ = ("_key",)  # the option values, in ``options`` row order
    name: str = "family"
    dense: bool = False
    monotonicity: str = NON_MONOTONE
    options: tuple = ()
    properties: dict = {}
    classify_truncation: dict = {}
    lff_targets: dict = {}

    def __init__(self):  # a family with options sets them through _set_options
        object.__setattr__(self, "_key", ())

    def _set_options(self, *values) -> None:
        """Set the option fields, one value per ``options`` row, in row order."""
        for (key, _, _), value in zip(self.options, values):
            object.__setattr__(self, key, value)
        object.__setattr__(self, "_key", values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def generator(self, n: int) -> Fraction:
        raise NotSequenceGeneratedError(f"{self.name} has no generator sequence")

    def generator_count(self) -> int | None:
        """Number of generators when finite, else None."""
        return None

    def check_atom_hypothesis(self) -> None:
        """Raise HypothesisViolatedError when the family's atom closed form
        does not apply; the base family has no hypothesis."""

    def atom_certificate(self, gens: list[Fraction], index: int) -> str:
        """Machine-check that gens[index] is an atom; returns the certificate."""
        raise InvalidArgumentError(f"{self.name} has no per-generator atom certificate")

    def accp_step(self, n: int) -> tuple[Fraction, Fraction, int, int, str]:
        """Step n of a non-stabilizing principal-ideal chain: (b_n, b_{n+1},
        m, i, text) with b_n - b_{n+1} = m * generator(i), as text shows."""
        raise InvalidArgumentError("non-stabilizing chains are certified for the grams and power families")

    def descriptor(self) -> dict:
        """The name and the options, as ``family_from_config`` reads them."""
        d = {"name": self.name}
        for key, _, _ in self.options:
            value = getattr(self, key)
            if isinstance(value, tuple):
                d[key] = [str(v) if isinstance(v, Fraction) else v for v in value]
            elif value is not None:
                d[key] = str(value)
        return d


class Explicit(GeneratorFamily):
    """Finitely many explicit positive rational generators."""

    __slots__ = ("gens",)
    name = "explicit"
    monotonicity = FINITE
    options = (("gens", _rationals, True),)
    properties = {
        "additive": {
            **dict.fromkeys(("atomic", "ACCP", "BF", "FF"), ("yes", "known:finitely-generated-monoids-are-FFMs")),
            "LFF": ("yes", "implied:FF->LFF"),
        }
    }

    def __init__(self, gens):
        seen: list[Fraction] = []
        for g in gens:
            g = Fraction(g)
            if g <= 0:
                raise InvalidArgumentError(f"generator {g} is not strictly positive")
            if g not in seen:
                seen.append(g)
        if not seen:
            raise InvalidArgumentError("explicit family needs at least one generator")
        self._set_options(tuple(seen))

    def generator(self, n: int) -> Fraction:
        return self.gens[n]

    def generator_count(self) -> int | None:
        return len(self.gens)


class _PrimeIndexed(GeneratorFamily):
    """A family whose generator n (0-based) is the only generator with the
    prime ``index_prime(n)`` in its denominator."""

    method = "p-adic-certificate"

    def atom_certificate(self, gens: list[Fraction], index: int) -> str:
        # The generator must be the unique one among gens whose
        # attached-prime valuation is negative.
        p = self.index_prime(index)
        if padic_valuation(gens[index], p) >= 0:
            raise AssertionError(f"certificate failed: v_{p}({gens[index]}) is not negative")
        if any(padic_valuation(h, p) < 0 for i, h in enumerate(gens) if i != index):
            raise AssertionError(f"certificate failed: {p}-adic uniqueness violated")
        return f"unique generator with negative {p}-adic valuation"


class Grams(_PrimeIndexed):
    """Generators 1/(2^n p_n), p_n the n-th odd prime, n >= 0."""

    __slots__ = ()
    name = "grams"
    monotonicity = DECREASING
    properties = {
        "additive": {"atomic": ("yes", "closed-form:atoms-are-the-generators (p-adic certificates)"), **_NO_ACCP_ROWS}
    }

    def generator(self, n: int) -> Fraction:
        return Fraction(1, 2**n * self.index_prime(n))

    def accp_step(self, n: int) -> tuple[Fraction, Fraction, int, int, str]:
        # 1/2^n = 1/2^(n+1) + p * 1/(2^(n+1) p), p the prime of generator n+1
        p = self.index_prime(n + 1)
        return Fraction(1, 2**n), Fraction(1, 2 ** (n + 1)), p, n + 1, f"{p} * (1/(2^{n + 1}*{p}))"

    def index_prime(self, n: int) -> int:
        return nth_prime(n, exclude_two=True)


class PowerOf(GeneratorFamily):
    """Generators q^n, n >= 0, for rational q in (0, 1)."""

    __slots__ = ("q",)
    name = "power"
    monotonicity = DECREASING
    method = "closed-form"
    options = (("q", _rational, True),)

    def __init__(self, q):
        q = Fraction(q)
        if not 0 < q < 1:
            raise InvalidArgumentError("power family needs 0 < q < 1")
        self._set_options(q)

    def generator(self, n: int) -> Fraction:
        return self.q**n

    @property
    def properties(self) -> dict:
        if self.q.numerator > 1:
            return {"additive": {"atomic": ("yes", "closed-form:atoms-are-the-powers-of-q"), **_NO_ACCP_ROWS}}
        # q = 1/d: every generator splits as q^n = d * q^(n+1), so the
        # monoid has no atoms at all.
        return {
            "additive": {
                "atomic": ("no", "witness:antimatter-identity q^n = d*q^(n+1)"),
                "ACCP": ("no", "implied:ACCP->atomic"),
                "BF": ("no", "implied:BF->ACCP"),
                "FF": ("no", "implied:FF->BF"),
                "LFF": ("no", "definition:length-finiteness-presumes-atomicity"),
            }
        }

    def accp_step(self, n: int) -> tuple[Fraction, Fraction, int, int, str]:
        # den * q^n = den * q^(n+1) + (den - num) * q^n
        num, den = self.q.numerator, self.q.denominator
        return den * self.q**n, den * self.q ** (n + 1), den - num, n, f"{den - num} * q^{n}"

    def check_atom_hypothesis(self) -> None:
        # The atom closed form A = {q^n} needs 1/q not a natural number,
        # i.e. the numerator of q must exceed 1.
        if self.q.numerator == 1:
            raise HypothesisViolatedError(
                f"1/q = {self.q.denominator} is a natural number; "
                "atoms of <q^n> are not certified for this q"
            )

    def atom_certificate(self, gens: list[Fraction], index: int) -> str:
        # The generators' valuations at a prime dividing den(q) are pairwise
        # distinct, and q^n is the unique generator at its own valuation.
        self.check_atom_hypothesis()
        p = min(prime_factors(self.q.denominator))
        vals = [padic_valuation(h, p) for h in gens]
        if len(set(vals)) != len(vals):
            raise AssertionError("certificate failed: valuations collide")
        if vals[index] != -index * padic_valuation(Fraction(self.q.denominator), p):
            raise AssertionError("certificate failed: wrong valuation profile")
        return f"generators separated by {p}-adic valuation; closed form certified"


class UnitFractionPrimes(_PrimeIndexed):
    """Generators 1/p over the primes p in increasing order."""

    __slots__ = ()
    name = "unit-fractions"
    monotonicity = DECREASING
    properties = {
        "additive": {
            "atomic": ("yes", "closed-form:atoms-are-the-unit-fractions (p-adic certificates)"),
            "ACCP": ("yes", "known:ascending-chains-stabilize-for-this-family"),
            "BF": ("no", "witness:L(1)-contains-every-prime"),
            "FF": ("no", "implied:FF->BF"),
            "LFF": _CO_WELL_ORDERED_LFF,
        }
    }

    def generator(self, n: int) -> Fraction:
        return Fraction(1, self.index_prime(n))

    def index_prime(self, n: int) -> int:
        return nth_prime(n + 1)


class Alternating(_PrimeIndexed):
    """Generators a_n = 1 + (-1)^n / p_n over a strictly increasing prime sequence.

    Defaults to the full prime sequence p_1 = 2, p_2 = 3, ...; any strictly
    increasing sequence of primes may be supplied instead.  The generator
    sequence oscillates around 1, so the family is neither well- nor
    co-well-ordered.
    """

    __slots__ = ("primes",)
    name = "alternating"
    monotonicity = NON_MONOTONE
    options = (("primes", _integers, False),)
    properties = {
        "additive": {
            "atomic": ("yes", "closed-form:atoms-are-the-generators (p-adic certificates)"),
            "ACCP": ("yes", "implied:BF->ACCP"),
            "BF": ("yes", "implied:FF->BF"),
            "FF": ("yes", "witness:finite-divisor-bound"),
            "LFF": ("yes", "implied:FF->LFF"),
        }
    }
    classify_truncation = {"k": 10}

    def __init__(self, primes=None):
        if primes is not None:
            primes = tuple(primes)
            if not primes:
                raise InvalidArgumentError("custom prime sequence is empty")
            if any(not is_prime(p) for p in primes):
                raise InvalidArgumentError("custom sequence contains a non-prime")
            if any(a >= b for a, b in zip(primes, primes[1:])):
                raise InvalidArgumentError("custom prime sequence must strictly increase")
        self._set_options(primes)

    def index_prime(self, n: int) -> int:
        """The prime attached to generator n (0-based): p_{n+1} above."""
        if self.primes is not None:
            if not 0 <= n < len(self.primes):
                raise InvalidArgumentError(f"index {n + 1} outside custom prime sequence")
            return self.primes[n]
        return nth_prime(n + 1)

    def generator(self, n: int) -> Fraction:
        return 1 + Fraction((-1) ** (n + 1), self.index_prime(n))

    def generator_count(self) -> int | None:
        return None if self.primes is None else len(self.primes)


class _Dense(GeneratorFamily):
    """A family whose membership and atoms are closed forms.  Subclasses
    define ``membership(x)`` (verdict and reason, x > 0), ``is_atom(a)`` (for
    a member a > 0; ``atom_rule`` describes it) and ``atom_window(d)`` (the
    numerators n for which n/d can be an atom)."""

    __slots__ = ()
    dense = True
    monotonicity = DENSE

    def grid_atoms(self, max_den: int) -> list[Fraction]:
        """The atoms with denominator <= max_den, ascending."""
        grid = (Fraction(n, d) for d in range(1, max_den + 1) for n in self.atom_window(d) if gcd(n, d) == 1)
        return sorted(a for a in grid if self.is_atom(a))


class ConductorQ(_Dense):
    """The dense positive monoid {0} u (Q intersect [1, oo))."""

    __slots__ = ()
    name = "conductor"
    atom_rule = "atoms are Q intersect [1,2)"
    properties = {"additive": {"atomic": ("yes", "closed-form:atoms-are-[1,2)-rationals"), **_DENSE_ROWS}}
    classify_truncation = {"max_den": 4}
    lff_targets = {"additive": "conductor"}

    def membership(self, x: Fraction) -> tuple[bool, str]:
        if x >= 1:
            return True, f"{x} >= 1"
        return False, f"0 < {x} < 1"

    def is_atom(self, a: Fraction) -> bool:
        return 1 <= a < 2

    def atom_window(self, d: int):
        return range(d, 2 * d)


class SRing(_Dense):
    """The rational points of S_r = N0 u R>=r for rational r > 1.

    Both a positive monoid (additively) and a positive semiring, whose
    multiplicative atoms are the closed form ``multiplicative_atom``.
    """

    __slots__ = ("r",)
    name = "sring"
    atom_rule = "atoms are ({1} u [r,r+1)) minus {ceil(r)}"
    options = (("r", _rational, True),)
    properties = {
        "additive": {"atomic": ("yes", "closed-form:additive-atoms ({1} u [r,r+1)) \\ {ceil(r)}"), **_DENSE_ROWS},
        "multiplicative": {
            "atomic": ("yes", "closed-form:multiplicative-atoms (P u [r,r^2)) \\ P*(S_r)>1"),
            **_DENSE_ROWS,
        },
    }
    classify_truncation = {"max_den": 6}
    lff_targets = {"additive": "sring-additive", "multiplicative": "sring-multiplicative"}

    def __init__(self, r):
        r = Fraction(r)
        if r <= 1:
            raise InvalidArgumentError("sring family needs rational r > 1")
        self._set_options(r)

    def membership(self, x: Fraction) -> tuple[bool, str]:
        if x.denominator == 1:
            return True, f"{x} is a nonnegative integer"
        if x >= self.r:
            return True, f"{x} >= r = {self.r}"
        return False, f"{x} is neither integral nor >= {self.r}"

    def is_atom(self, a: Fraction) -> bool:
        return (a == 1 or self.r <= a < self.r + 1) and a != ceil(self.r)

    def atom_window(self, d: int):
        window = range(ceil(self.r * d), ceil((self.r + 1) * d))  # [r, r+1)
        return (1, *window) if d == 1 else window

    def multiplicative_window(self, d: int):
        """The numerators n for which n/d can be a multiplicative atom >= r:
        [r, min(r^2, 2r)).  The atoms below r are primes."""
        return range(ceil(self.r * d), ceil(min(self.r * self.r, 2 * self.r) * d))

    def multiplicative_atom(self, x: Fraction) -> tuple[bool, str]:
        """Verdict and detail for a member x > 1.  The atoms are the primes
        below min(r^2, 2r) and the non-integers in [r, min(r^2, 2r)).  A
        non-atom of the base set P_{<r^2} u [r, r^2) is p * x/p for the least
        prime p with x/p > 1 in S_r: 2 once x >= 2r, else the least prime
        factor of an integer x (below 2r, x/p < r must be an integer)."""
        r = self.r
        integral = x.denominator == 1
        if not (r <= x < r * r or (integral and x < r * r and is_prime(x.numerator))):
            return False, "outside P_{<r^2} u [r, r^2)"
        if x >= 2 * r:
            p = 2
        elif integral and not is_prime(x.numerator):
            p = min(prime_factors(x.numerator))
        else:
            return True, "in base set and not p * (S_r element > 1)"
        return False, f"{x} = {p} * {x / p} with {x / p} in S_r"


class MonoidSpec(Record):
    """A generator family plus the truncation a query is certified against.

    ``k`` bounds the generator index for sequence families; ``max_den``
    bounds denominators of the atom grid for dense families.  Explicit
    families carry no truncation (queries over them are complete).  A bound
    the family never reads is rejected.
    """

    __slots__ = ("family", "k", "max_den")

    def __init__(self, family: GeneratorFamily, k: int | None = None, max_den: int | None = None):
        for label, bound in (("truncation index bound k", k), ("denominator bound", max_den)):
            if bound is not None and (type(bound) is not int or bound < 1):
                raise InvalidArgumentError(f"{label} must be an integer >= 1, not {bound!r}")
        if k is not None and (family.dense or family.monotonicity == FINITE):
            raise InvalidArgumentError(f"the {family.name} family takes no index bound k")
        if max_den is not None and not family.dense:
            raise InvalidArgumentError(f"the {family.name} family takes no denominator bound max_den")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "max_den", max_den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.family, self.k, self.max_den) == (other.family, other.k, other.max_den)

    def __hash__(self):
        return hash((self.family, self.k, self.max_den))

    @property
    def is_dense(self) -> bool:
        return self.family.dense

    def sequence_bound(self) -> int:
        count = self.family.generator_count()
        if self.family.monotonicity == FINITE:
            return count
        if self.is_dense:
            raise NotSequenceGeneratedError(
                f"{self.family.name} is dense: it has no generator sequence"
            )
        if self.k is None:
            if count is None:
                raise UnboundedQueryError(
                    f"{self.family.name} needs an index bound k for this query"
                )
            return count
        return min(self.k, count) if count is not None else self.k

    def descriptor(self) -> dict:
        d = {"family": self.family.descriptor()}
        if self.k is not None:
            d["k"] = self.k
        if self.max_den is not None:
            d["max_den"] = self.max_den
        return d


class MembershipResult(Record):
    """Membership verdict plus the evidence that produced it.

    ``combination`` lists (generator, multiplicity) pairs when the family is
    generator-enumerated; dense families justify membership by ``reason``.
    A False verdict is always relative to the truncation recorded here, which
    equality leaves out.
    """

    __slots__ = ("member", "combination", "reason", "truncation")

    def __init__(
        self,
        member: bool,
        combination: tuple[tuple[Fraction, int], ...] | None,
        reason: str,
        truncation: dict | None = None,
    ):
        object.__setattr__(self, "member", member)
        object.__setattr__(self, "combination", combination)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "truncation", {} if truncation is None else truncation)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.member, self.combination, self.reason) == (other.member, other.combination, other.reason)

    def __hash__(self):
        return hash((self.member, self.combination, self.reason))


class AtomVerdict(Record):
    """``method`` is closed-form, p-adic-certificate or bounded-search."""

    __slots__ = ("is_atom", "method", "detail")

    def __init__(self, is_atom: bool, method: str, detail: str = ""):
        object.__setattr__(self, "is_atom", is_atom)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "detail", detail)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.is_atom, self.method, self.detail) == (other.is_atom, other.method, other.detail)

    def __hash__(self):
        return hash((self.is_atom, self.method, self.detail))


def generators(spec: MonoidSpec, k: int | None = None) -> list[Fraction]:
    """First k generators in definition order, exact."""
    if spec.is_dense:
        raise NotSequenceGeneratedError(
            f"{spec.family.name} is dense: it has no generator sequence"
        )
    if k is None:
        k = spec.sequence_bound()
    count = spec.family.generator_count()
    if count is not None and k > count:
        raise InvalidArgumentError(
            f"requested {k} generators but the family defines only {count}"
        )
    return [spec.family.generator(i) for i in range(k)]


def _combination(gens: list[Fraction], x: Fraction) -> tuple[tuple[Fraction, int], ...] | None:
    """One multiset of gens summing to x > 0, as (generator, multiplicity)
    pairs ascending, or None; re-summed in Fraction before it is returned."""
    found = search(gens, x, first=True)
    if not found:
        return None
    if sum((g * m for g, m in found[0]), Fraction(0)) != x:  # soundness gate
        raise AssertionError(f"search returned {found[0]} for {x}")
    return found[0]


def _split(gens: list[Fraction], x: Fraction) -> Fraction | None:
    """The first generator g < x (in gens order) with x - g a sum of gens, or None."""
    return next((g for g in gens if g < x and _combination(gens, x - g) is not None), None)


def contains(spec: MonoidSpec, x: Fraction | int | str) -> MembershipResult:
    """Membership verdict with certificate.

    Sequence/explicit families run the search kernel in ``first`` mode over
    the truncation; dense families use their closed forms.
    """
    x = Fraction(x)
    if x < 0:
        raise InvalidArgumentError("membership is only defined for x >= 0")
    trunc = spec.descriptor()
    if x == 0:
        return MembershipResult(True, (), "identity element", trunc)
    if spec.is_dense:
        member, reason = spec.family.membership(x)
        return MembershipResult(member, None, reason, trunc)
    combo = _combination(generators(spec), x)
    if combo is None:
        return MembershipResult(False, None, "no combination within truncation", trunc)
    return MembershipResult(True, combo[::-1], "nonnegative integer combination", trunc)


def certified_atoms(spec: MonoidSpec, k: int) -> tuple[list[Fraction], str]:
    """First k atoms of a named sequence family, certificate machine-checked."""
    if k < 1:
        raise InvalidArgumentError("k must be >= 1")
    fam = spec.family
    if fam.monotonicity == FINITE:
        raise InvalidArgumentError(
            "explicit families have no closed-form atom list; test elements with is_atom"
        )
    if spec.is_dense:
        raise NotSequenceGeneratedError(
            f"{fam.name} atoms form a dense interval; use is_atom"
        )
    fam.check_atom_hypothesis()
    count = fam.generator_count()
    if count is not None and k > count:
        raise InvalidArgumentError(f"only {count} generators are defined")
    atoms = [fam.generator(i) for i in range(k)]
    for i in range(k):
        fam.atom_certificate(atoms, i)
    return atoms, fam.method


def is_atom(spec: MonoidSpec, x: Fraction | int | str) -> AtomVerdict:
    """Atomhood of a monoid element, with the certification method used."""
    x = Fraction(x)
    if x == 0:
        raise InvalidArgumentError("0 is invertible, never an atom")
    membership = contains(spec, x)
    if not membership.member:
        raise NotAMemberError(f"{x} is not in the monoid (within truncation)")
    fam = spec.family
    if spec.is_dense:
        return AtomVerdict(fam.is_atom(x), "closed-form", fam.atom_rule)
    gens = generators(spec)
    # A sequence family's atoms are its generators, each certified; every
    # other element, and every element of an explicit family, gets the split test.
    if fam.monotonicity != FINITE and x in gens:
        try:
            return AtomVerdict(True, fam.method, fam.atom_certificate(gens, gens.index(x)))
        except HypothesisViolatedError:
            pass
    g = _split(gens, x)
    if g is not None:
        return AtomVerdict(False, "bounded-search", f"{x} = {g} + {x - g}")
    return AtomVerdict(True, "bounded-search", "no two-part split within truncation")


def is_multiplicative_atom(spec: MonoidSpec, x: Fraction | int | str) -> AtomVerdict:
    """Atomhood in the multiplicative monoid of S_r.

    Closed form: (P_{<r^2} u [r, r^2)) minus P*(S_r)_{>1}, which leaves the
    primes below min(r^2, 2r) and the non-integers in [r, min(r^2, 2r));
    decided by the family's ``multiplicative_atom``.
    """
    fam = spec.family
    if "multiplicative" not in fam.properties:
        raise InvalidArgumentError("multiplicative atoms are defined for the sring family")
    x = Fraction(x)
    if x <= 0:
        raise InvalidArgumentError("multiplicative atoms live in the positive part")
    if not contains(spec, x).member:
        raise NotAMemberError(f"{x} is not in S_r")
    if x == 1:
        raise InvalidArgumentError("1 is the multiplicative unit, never an atom")
    atom, detail = fam.multiplicative_atom(x)
    return AtomVerdict(atom, "closed-form", detail)


_FAMILIES = {
    cls.name: cls for cls in (Explicit, Grams, PowerOf, UnitFractionPrimes, Alternating, ConductorQ, SRing)
}


def family_from_config(cfg: dict) -> GeneratorFamily:
    """Build a family from ``name`` and the options its class declares (None is absent)."""
    name = cfg.get("name")
    cls = _FAMILIES.get(name) if isinstance(name, str) else None
    if cls is None:
        raise InvalidArgumentError(f"unknown family {name!r}; expected one of {sorted(_FAMILIES)}")
    given = {key: value for key, value in cfg.items() if key != "name" and value is not None}
    kwargs = {}
    for key, parse, required in cls.options:
        if key in given:
            kwargs[key] = parse(given.pop(key))
        elif required:
            raise InvalidArgumentError(f"{name} family requires {key}")
    if given:
        raise InvalidArgumentError(f"{name} family takes no option {min(given)!r}")
    return cls(**kwargs)
