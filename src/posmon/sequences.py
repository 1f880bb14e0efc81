"""Finite-sequence diagnostics: monotone subsequences and termwise sums.

These are the finite shadows of the order-theoretic arguments behind the
length-finiteness theorem for co-well-ordered monoids: extract a maximum
strictly increasing (or weakly decreasing) subsequence with a deterministic
witness, apply the finite monotone-subsequence bound, and sum sequences
componentwise.  Indices in witnesses are 0-based.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BoundTooSmallError, InvalidArgumentError
from .records import Record

__all__ = [
    "MonotoneWitness",
    "longest_strictly_increasing",
    "longest_weakly_decreasing",
    "monotone_subsequence",
    "componentwise_sum",
]


class MonotoneWitness(Record):
    """``kind`` is "strictly-increasing" or "weakly-decreasing"."""

    __slots__ = ("kind", "indices", "values")

    def __init__(self, kind: str, indices: tuple[int, ...], values: tuple[Fraction, ...]):
        self._init(kind, indices, values)

    @property
    def length(self) -> int:
        return len(self.indices)

    def check(self) -> bool:
        """Direct scan: indices strictly increase and values are monotone as claimed."""
        if any(i >= j for i, j in zip(self.indices, self.indices[1:])):
            return False
        pairs = zip(self.values, self.values[1:])
        if self.kind == "strictly-increasing":
            return all(a < b for a, b in pairs)
        return all(a >= b for a, b in pairs)


def _coerce(seq) -> list[Fraction]:
    return [Fraction(t) for t in seq]


def _extremal_subsequence(terms: list[Fraction], better) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
    """Maximum-length subsequence under the strict order `better`, with the
    lexicographically smallest index witness.

    tail[i] = longest admissible subsequence starting at i; the witness is
    rebuilt greedily from the leftmost viable start.
    """
    n = len(terms)
    if n == 0:
        return (), ()
    tail = [1] * n
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if better(terms[i], terms[j]) and tail[j] + 1 > tail[i]:
                tail[i] = tail[j] + 1
    best = max(tail)
    indices: list[int] = []
    need = best
    prev: int | None = None
    for i in range(n):
        if tail[i] == need and (prev is None or better(terms[prev], terms[i])):
            indices.append(i)
            prev = i
            need -= 1
            if need == 0:
                break
    return tuple(indices), tuple(terms[i] for i in indices)


def longest_strictly_increasing(seq) -> MonotoneWitness:
    """A maximum-length strictly increasing subsequence (leftmost witness)."""
    terms = _coerce(seq)
    idx, vals = _extremal_subsequence(terms, lambda a, b: a < b)
    return MonotoneWitness("strictly-increasing", idx, vals)


def longest_weakly_decreasing(seq) -> MonotoneWitness:
    """A maximum-length weakly decreasing subsequence (ties allowed)."""
    terms = _coerce(seq)
    idx, vals = _extremal_subsequence(terms, lambda a, b: a >= b)
    return MonotoneWitness("weakly-decreasing", idx, vals)


def monotone_subsequence(seq, r: int, t: int) -> MonotoneWitness:
    """A strictly increasing subsequence of length r or a weakly decreasing
    one of length t, guaranteed whenever len(seq) > (r-1)(t-1).

    The decreasing witness is preferred when both exist.
    """
    terms = _coerce(seq)
    if r < 1 or t < 1:
        raise InvalidArgumentError("r and t must be >= 1")
    if len(terms) <= (r - 1) * (t - 1):
        raise BoundTooSmallError(
            f"need length > {(r - 1) * (t - 1)} to guarantee a witness, got {len(terms)}"
        )
    dec = longest_weakly_decreasing(terms)
    if dec.length >= t:
        return MonotoneWitness(dec.kind, dec.indices[:t], dec.values[:t])
    inc = longest_strictly_increasing(terms)
    if inc.length >= r:
        return MonotoneWitness(inc.kind, inc.indices[:r], inc.values[:r])
    raise AssertionError("monotone subsequence bound violated")  # unreachable


def componentwise_sum(seqs) -> list[Fraction]:
    """Exact termwise sum of equal-length sequences."""
    seqs = [_coerce(s) for s in seqs]
    if not seqs:
        raise InvalidArgumentError("need at least one sequence")
    lengths = {len(s) for s in seqs}
    if len(lengths) > 1:
        raise InvalidArgumentError(f"ragged input: lengths {sorted(lengths)}")
    return [sum(col, Fraction(0)) for col in zip(*seqs)] if lengths != {0} else []
