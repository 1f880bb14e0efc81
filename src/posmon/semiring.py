"""The monoid semiring N0[M]: generalized polynomials with natural
coefficients and exponents in a positive monoid M.

For monoids of algebraic numbers this semiring is the canonical exact
representation of the exponentiation semiring generated by {e^m : m in M}:
arithmetic, degree/leading-coefficient statistics, exact division,
irreducibility, and bounded factorization into irreducibles all happen on the
polynomial side.  The exponential map appears only in eval_exponential, a
display-layer approximation that no decision consumes.

Division and the divisor searches work on a finite integer grid: scaling by
the lcm of all exponent denominators (including the truncation's generators)
turns every exponent into a nonnegative integer, where leading-term
elimination and bounded enumeration are exact and terminating.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm

from .errors import InvalidArgumentError, UnsupportedFamilyError
from .monoids import MonoidSpec, contains, generators
from .rationals import parse_rational
from .records import Record

__all__ = [
    "GenPoly",
    "gen_poly",
    "gp_zero",
    "gp_one",
    "monomial",
    "gp_add",
    "gp_mul",
    "gp_stats",
    "PolyStats",
    "eval_exponential",
    "gp_divide",
    "is_irreducible_gp",
    "IrreducibilityReport",
    "factor_gp",
    "GpFactorizations",
    "parse_gen_poly",
    "format_gen_poly",
]


class GenPoly(Record):
    """Sparse exponent -> coefficient map; exponents live in spec's monoid."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: MonoidSpec, terms: tuple[tuple[Fraction, int], ...]):
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "terms", terms)  # ascending by exponent, coeffs >= 1

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.spec, self.terms) == (other.spec, other.terms)

    def __hash__(self):
        return hash((self.spec, self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        return self.terms == ((Fraction(0), 1),)

    def coeff(self, e: Fraction) -> int:
        for exp, c in self.terms:
            if exp == e:
                return c
        return 0

    def sort_key(self):
        """Canonical order: (deg, LC, term list); zero sorts first."""
        if self.is_zero:
            return (Fraction(-1), 0, ())
        return (self.terms[-1][0], self.terms[-1][1], self.terms)

    def __add__(self, other):
        return gp_add(self, other)

    def __mul__(self, other):
        return gp_mul(self, other)

    def __str__(self) -> str:
        return format_gen_poly(self)


def _validated_terms(spec: MonoidSpec, mapping: dict[Fraction, int], check_membership: bool):
    terms = []
    for e, c in sorted(mapping.items()):
        if c == 0:
            continue
        if c < 0 or int(c) != c:
            raise InvalidArgumentError(f"coefficient {c} is not a positive integer")
        e = Fraction(e)
        if e < 0:
            raise InvalidArgumentError(f"exponent {e} is negative")
        if check_membership and not contains(spec, e).member:
            raise InvalidArgumentError(
                f"exponent {e} is not a certified member of the exponent monoid"
            )
        terms.append((e, int(c)))
    return tuple(terms)


def gen_poly(spec: MonoidSpec, mapping: dict) -> GenPoly:
    """Build a polynomial, certifying every exponent's membership in M."""
    clean = {Fraction(e): c for e, c in mapping.items()}
    return GenPoly(spec, _validated_terms(spec, clean, check_membership=True))


def gp_zero(spec: MonoidSpec) -> GenPoly:
    return GenPoly(spec, ())


def gp_one(spec: MonoidSpec) -> GenPoly:
    return GenPoly(spec, ((Fraction(0), 1),))


def monomial(spec: MonoidSpec, exponent, coeff: int = 1) -> GenPoly:
    return gen_poly(spec, {Fraction(exponent): coeff})


def _require_same_spec(f: GenPoly, g: GenPoly) -> None:
    if f.spec != g.spec:
        raise InvalidArgumentError("operands live over different exponent monoids")


def gp_add(f: GenPoly, g: GenPoly) -> GenPoly:
    _require_same_spec(f, g)
    acc = dict(f.terms)
    for e, c in g.terms:
        acc[e] = acc.get(e, 0) + c
    return GenPoly(f.spec, _validated_terms(f.spec, acc, check_membership=False))


def gp_mul(f: GenPoly, g: GenPoly) -> GenPoly:
    # Exponent sums stay in M by closure; no re-certification needed.
    _require_same_spec(f, g)
    acc: dict[Fraction, int] = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2
    return GenPoly(f.spec, _validated_terms(f.spec, acc, check_membership=False))


class PolyStats(Record):
    __slots__ = ("deg", "lc", "ord", "exponent_set", "eval_at_one")

    def __init__(self, deg: Fraction, lc: int, ord: Fraction, exponent_set: tuple[Fraction, ...], eval_at_one: int):
        self._init(deg, lc, ord, exponent_set, eval_at_one)


def gp_stats(f: GenPoly) -> PolyStats:
    """deg, LC, ord, exponent set, and coefficient sum of a nonzero polynomial."""
    if f.is_zero:
        raise InvalidArgumentError("degree of the zero polynomial is undefined")
    return PolyStats(
        deg=f.terms[-1][0],
        lc=f.terms[-1][1],
        ord=f.terms[0][0],
        exponent_set=tuple(e for e, _ in f.terms),
        eval_at_one=sum(c for _, c in f.terms),
    )


def eval_exponential(f: GenPoly, precision: int = 12) -> Decimal:
    """Sum of c * e^m over the terms, to `precision` significant digits.

    Display layer only: verdicts elsewhere never consult this value.
    """
    from decimal import Decimal, localcontext

    if precision < 1:
        raise InvalidArgumentError("precision must be >= 1")
    if f.is_zero:
        return Decimal(0)
    with localcontext() as ctx:
        ctx.prec = precision + 15
        total = Decimal(0)
        for e, c in f.terms:
            x = Decimal(e.numerator) / Decimal(e.denominator)
            total += Decimal(c) * x.exp()
        ctx.prec = precision
        return +total


def _exponent_grid(f: GenPoly, g: GenPoly | None = None) -> int:
    """lcm of exponent denominators of f, g, and the truncation's generators."""
    dens = [e.denominator for e, _ in f.terms]
    if g is not None:
        dens.extend(e.denominator for e, _ in g.terms)
    if not f.spec.is_dense:
        dens.extend(x.denominator for x in generators(f.spec))
    return lcm(*dens) if dens else 1


def _require_searchable(spec: MonoidSpec) -> None:
    if spec.is_dense:
        raise UnsupportedFamilyError(
            "division and factor search need a finitely generated exponent monoid"
        )


def gp_divide(f: GenPoly, g: GenPoly) -> GenPoly | None:
    """Exact quotient h with g*h = f, or None when no such h exists in N0[M].

    Leading-term elimination over the common denominator grid, intermediate
    coefficients allowed to leave N0; the result is accepted only when the
    remainder vanishes, every quotient coefficient is a positive integer, and
    every quotient exponent is certified in M.
    """
    _require_same_spec(f, g)
    _require_searchable(f.spec)
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return gp_zero(f.spec)
    grid = _exponent_grid(f, g)
    rem: dict[int, Fraction] = {int(e * grid): Fraction(c) for e, c in f.terms}
    gg = sorted(((int(e * grid), c) for e, c in g.terms), reverse=True)
    deg_g, lc_g = gg[0]
    quot: dict[int, Fraction] = {}
    while rem:
        deg_r = max(rem)
        if deg_r < deg_g:
            return None
        q_exp = deg_r - deg_g
        q_coeff = rem[deg_r] / lc_g
        # the quotient in Q[x] is unique, so any non-positive or fractional
        # coefficient already rules out a quotient in N0[M]
        if q_coeff <= 0 or q_coeff.denominator != 1:
            return None
        quot[q_exp] = q_coeff
        for e, c in gg:
            acc = rem.get(e + q_exp, Fraction(0)) - q_coeff * c
            if acc == 0:
                rem.pop(e + q_exp, None)
            else:
                rem[e + q_exp] = acc
    out: dict[Fraction, int] = {}
    for e, c in quot.items():
        if c <= 0 or c.denominator != 1:
            return None
        exp = Fraction(e, grid)
        if not contains(f.spec, exp).member:
            return None
        out[exp] = int(c)
    return GenPoly(f.spec, tuple(sorted(out.items())))


def _divisors_of(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _members_on_grid(spec: MonoidSpec, limit: Fraction, grid: int) -> list[Fraction]:
    points = int(limit * grid) + 1
    if points > 5000:
        raise UnsupportedFamilyError(
            f"exponent grid has {points} points; divisor search is desk-scale only"
        )
    out = []
    for j in range(points):
        m = Fraction(j, grid)
        if contains(spec, m).member:
            out.append(m)
    return out


def _compositions(total: int, slots: int):
    """All tuples of `slots` positive integers summing to `total`."""
    if slots == 1:
        yield (total,)
        return
    for first in range(1, total - slots + 2):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _candidate_divisors(f: GenPoly):
    """Candidate divisors in deterministic order, with the explored bounds.

    Because coefficients are nonnegative, no term of a product ever cancels:
    for any split f = g*h, every exponent of g plus ord(h) lands in the
    exponent set of f.  Supports are therefore subsets of the (small) shifted
    exponent set of f, further filtered by: deg and ord split inside M,
    LC | LC(f), ord-coefficient | ord-coefficient of f, and coefficient sum
    dividing eval_at_one(f).
    """
    spec = f.spec
    stats = gp_stats(f)
    grid = _exponent_grid(f)
    member_cache: dict[Fraction, bool] = {}

    def member(m: Fraction) -> bool:
        if m not in member_cache:
            member_cache[m] = m >= 0 and contains(spec, m).member
        return member_cache[m]

    sum_divisors = _divisors_of(stats.eval_at_one)
    lc_divisors = _divisors_of(stats.lc)
    oc_divisors = _divisors_of(f.terms[0][1])
    ord_grid = _members_on_grid(spec, stats.ord, grid)
    ord_options = [m for m in ord_grid if member(stats.ord - m)]
    explored = {
        "grid": grid,
        "ord_splits": len(ord_options),
        "coefficient_cap": stats.eval_at_one,
    }
    if len(f.terms) == 1:
        # A divisor of a monomial is a monomial.
        candidates = [
            GenPoly(spec, ((e, b),))
            for e in ord_options
            for b in lc_divisors
        ]
        candidates.sort(key=GenPoly.sort_key)
        return candidates, explored
    f_exps = [e for e, _ in f.terms]
    candidates = []
    seen = set()
    for ord_g in ord_options:
        ord_h = stats.ord - ord_g
        pool = sorted(
            {e - ord_h for e in f_exps if e - ord_h >= ord_g and member(e - ord_h)}
        )
        if not pool or pool[0] != ord_g:
            continue
        inner = pool[1:]
        support_pool = [[]]
        for m in inner:
            support_pool = support_pool + [s + [m] for s in support_pool]
        for mid in support_pool:
            support = [ord_g] + mid
            deg_g = support[-1]
            if not member(stats.deg - deg_g):
                continue
            slots = len(support)
            for total in sum_divisors:
                if total < slots:
                    continue
                for coeffs in _compositions(total, slots):
                    if coeffs[-1] not in lc_divisors or coeffs[0] not in oc_divisors:
                        continue
                    terms = tuple(zip(support, coeffs))
                    if terms not in seen:
                        seen.add(terms)
                        candidates.append(GenPoly(spec, terms))
    candidates.sort(key=GenPoly.sort_key)
    return candidates, explored


class IrreducibilityReport(Record):
    __slots__ = ("irreducible", "witness", "cofactor", "explored")

    def __init__(self, irreducible: bool, witness: GenPoly | None, cofactor: GenPoly | None, explored: dict):
        self._init(irreducible, witness, cofactor, explored)


def is_irreducible_gp(f: GenPoly) -> IrreducibilityReport:
    """Exhaustive bounded divisor search; irreducible iff no nontrivial split."""
    _require_searchable(f.spec)
    if f.is_zero or f.is_one:
        raise InvalidArgumentError("irreducibility is undefined for 0 and the unit")
    candidates, explored = _candidate_divisors(f)
    for g in candidates:
        if g.is_one or g == f:
            continue
        h = gp_divide(f, g)
        if h is not None and not h.is_one:
            return IrreducibilityReport(False, g, h, explored)
    return IrreducibilityReport(True, None, None, explored)


class GpFactorizations(Record):
    __slots__ = ("factorizations", "max_len")

    def __init__(self, factorizations: tuple[tuple[GenPoly, ...], ...], max_len: int):
        self._init(factorizations, max_len)

    @property
    def lengths(self) -> set[int]:
        return {len(fs) for fs in self.factorizations}


def factor_gp(f: GenPoly, max_len: int) -> GpFactorizations:
    """All factorizations of f into irreducibles with at most max_len factors.

    Factors are emitted in canonical order inside each factorization, the
    factorization list is deduplicated up to ordering, and every output is
    re-multiplied and compared against f before returning.
    """
    _require_searchable(f.spec)
    if f.is_zero or f.is_one:
        raise InvalidArgumentError("factorization is undefined for 0 and the unit")
    if max_len < 1:
        raise InvalidArgumentError("max_len must be >= 1")

    irreducible_cache: dict[GenPoly, bool] = {}

    def irreducible(g: GenPoly) -> bool:
        if g not in irreducible_cache:
            irreducible_cache[g] = is_irreducible_gp(g).irreducible
        return irreducible_cache[g]

    results: set[tuple[GenPoly, ...]] = set()

    def rec(current: GenPoly, lower: GenPoly | None, chain: list[GenPoly], budget: int):
        if current.is_one:
            results.add(tuple(chain))
            return
        if budget == 0:
            return
        divisors, _ = _candidate_divisors(current)
        for g in divisors:
            if g.is_one:
                continue
            if lower is not None and g.sort_key() < lower.sort_key():
                continue
            h = gp_divide(current, g)
            if h is None or not irreducible(g):
                continue
            chain.append(g)
            rec(h, g, chain, budget - 1)
            chain.pop()

    rec(f, None, [], max_len)
    for fs in results:
        prod = gp_one(f.spec)
        for g in fs:
            prod = gp_mul(prod, g)
        if prod != f:
            raise AssertionError("factor_gp emitted a non-factorization")
    ordered = sorted(results, key=lambda fs: (len(fs), [g.sort_key() for g in fs]))
    return GpFactorizations(tuple(ordered), max_len)


@cache
def _term_re():
    """A term of parse_gen_poly's syntax, compiled on first use, not at import."""
    import re

    return re.compile(
        r"""^\s*(?:(?P<coeff>\d+)\s*\*?\s*)?   # optional integer coefficient
        (?:x(?:\^(?P<exp>\(\s*-?\d+(?:/\d+)?\s*\)|\d+))?)?\s*$""",
        re.VERBOSE,
    )


def parse_gen_poly(spec: MonoidSpec, text: str) -> GenPoly:
    """Parse `3*x^(5/2) + x^(2/3) + 1` style syntax into a polynomial."""
    term = _term_re()
    mapping: dict[Fraction, int] = {}
    text = text.strip()
    if not text:
        raise InvalidArgumentError("empty polynomial text")
    if text == "0":
        return gp_zero(spec)
    for chunk in text.split("+"):
        m = term.match(chunk)
        if not m or (m.group("coeff") is None and "x" not in chunk):
            raise InvalidArgumentError(f"cannot parse term {chunk.strip()!r}")
        coeff = int(m.group("coeff") or 1)
        if "x" not in chunk:
            exp = Fraction(0)
        elif m.group("exp" ) is None:
            exp = Fraction(1)
        else:
            exp = parse_rational(m.group("exp").strip("() \t"))
        if coeff == 0:
            continue
        mapping[exp] = mapping.get(exp, 0) + coeff
    return gen_poly(spec, mapping)


def format_gen_poly(f: GenPoly) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for e, c in reversed(f.terms):
        if e == 0:
            parts.append(str(c))
        else:
            coeff = "" if c == 1 else f"{c}*"
            power = "x" if e == 1 else (f"x^{e}" if e.denominator == 1 else f"x^({e})")
            parts.append(coeff + power)
    return " + ".join(parts)
