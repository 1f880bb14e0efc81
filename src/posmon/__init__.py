"""posmon: exact factorization invariants for positive monoids and the
monoid semirings that represent their exponentiation semirings.

The names below are resolved on first access (PEP 562): ``import posmon``
loads none of its submodules, and ``posmon.contains`` loads ``monoids``.
"""

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "errors": (
        "BoundTooSmallError", "CertificateUnavailableError", "HypothesisViolatedError", "InvalidArgumentError",
        "NotAMemberError", "NotSequenceGeneratedError", "PosmonError", "UnboundedQueryError", "UnsupportedFamilyError",
    ),
    "factorize": (
        "COMPLETE", "COMPLETE_FOR_LENGTH", "TRUNCATION_BOUNDED", "Factorization", "QueryResult",
        "completeness_certificate", "enumerate_factorizations", "factorizations_of_length", "length_set",
    ),
    "monoids": (
        "Alternating", "ConductorQ", "Explicit", "GeneratorFamily", "Grams", "MonoidSpec", "PowerOf", "SRing",
        "UnitFractionPrimes", "certified_atoms", "contains", "generators", "is_atom", "is_multiplicative_atom",
    ),
    "rationals": ("Rational", "format_rational", "nth_prime", "padic_valuation", "parse_rational"),
    "semiring": (
        "GenPoly", "eval_exponential", "factor_gp", "gen_poly", "gp_add", "gp_divide", "gp_mul", "gp_one", "gp_stats",
        "gp_zero", "is_irreducible_gp", "monomial", "parse_gen_poly",
    ),
    "sequences": (
        "componentwise_sum", "longest_strictly_increasing", "longest_weakly_decreasing", "monotone_subsequence",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    # Not cached in globals(): a later read sees the submodule's binding then.
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
