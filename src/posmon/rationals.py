"""Exact rational scalars, prime indexing, and p-adic valuations.

Every quantity in the decision procedures of this package is a
``fractions.Fraction`` (arbitrary precision, always normalized: the
denominator is positive and coprime to the numerator).  Floats never enter
any computation that feeds a verdict; they are confined to display-layer
evaluation in :mod:`posmon.semiring`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidArgumentError

__all__ = [
    "Rational",
    "parse_rational",
    "format_rational",
    "is_prime",
    "next_prime",
    "nth_prime",
    "prime_factors",
    "padic_valuation",
]

Rational = Fraction

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3e24; the named
# generator families never need primes anywhere near that.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def parse_rational(text: str) -> Fraction:
    """Parse ``"num/den"`` or ``"num"`` into an exact Fraction."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgumentError(f"not a rational literal: {text!r}") from exc


def format_rational(x: Fraction) -> str:
    """Serialize exactly as ``num/den``, omitting the denominator when 1."""
    return str(x)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


_prime_cache: list[int] = [2, 3, 5, 7, 11, 13]


def nth_prime(n: int, exclude_two: bool = False) -> int:
    """Prime by index.

    Without ``exclude_two`` the index is 1-based over all primes
    (``nth_prime(1) == 2``).  With ``exclude_two`` it is 0-based over the odd
    primes (``nth_prime(0, exclude_two=True) == 3``), the convention the
    Grams generator sequence uses.
    """
    if exclude_two:
        if n < 0:
            raise ValueError("odd-prime index must be >= 0")
        idx = n + 1  # 0-based over P \ {2} == 1-based over P, shifted past 2
    else:
        if n < 1:
            raise ValueError("prime index must be >= 1 (1-based)")
        idx = n - 1
    while len(_prime_cache) <= idx:
        _prime_cache.append(next_prime(_prime_cache[-1]))
    return _prime_cache[idx]


def prime_factors(n: int) -> dict[int, int]:
    """Prime factorization of ``n >= 1`` as an exponent map."""
    if n < 1:
        raise ValueError("prime_factors expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def padic_valuation(x: Fraction | int, p: int) -> int:
    """The exponent v with x = p^v * (a/b), p dividing neither a nor b.

    Raises if x is zero (valuation undefined) or p is not prime.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        raise ZeroDivisionError("p-adic valuation of zero is undefined")
    v = 0
    num = abs(x.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v
