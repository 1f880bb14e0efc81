"""The package's lazy exports, the modules each entry point loads, and where
the source may test for a family class."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import posmon
import posmon.cli

# The names `posmon` exports, by the submodule that defines them.
EXPORTS = {
    "errors": (
        "BoundTooSmallError", "CertificateUnavailableError", "HypothesisViolatedError",
        "InvalidArgumentError", "NotAMemberError", "NotSequenceGeneratedError", "PosmonError",
        "UnboundedQueryError", "UnsupportedFamilyError",
    ),
    "factorize": (
        "COMPLETE", "COMPLETE_FOR_LENGTH", "TRUNCATION_BOUNDED", "Factorization", "QueryResult",
        "completeness_certificate", "enumerate_factorizations", "factorizations_of_length",
        "length_set",
    ),
    "monoids": (
        "Alternating", "ConductorQ", "Explicit", "GeneratorFamily", "Grams", "MonoidSpec", "PowerOf",
        "SRing", "UnitFractionPrimes", "certified_atoms", "contains", "generators", "is_atom",
        "is_multiplicative_atom",
    ),
    "rationals": ("Rational", "format_rational", "nth_prime", "padic_valuation", "parse_rational"),
    "semiring": (
        "GenPoly", "eval_exponential", "factor_gp", "gen_poly", "gp_add", "gp_divide", "gp_mul",
        "gp_one", "gp_stats", "gp_zero", "is_irreducible_gp", "monomial", "parse_gen_poly",
    ),
    "sequences": (
        "componentwise_sum", "longest_strictly_increasing", "longest_weakly_decreasing",
        "monotone_subsequence",
    ),
}

# Run in a fresh interpreter: the posmon modules loaded by `import posmon`,
# then `import posmon.cli`, then `python -m posmon factorize ...`.
LOADED = r"""
import json, runpy, sys
before = set(sys.modules)
steps = []
import posmon
steps.append(sorted(set(sys.modules) - before))
import posmon.cli
steps.append(sorted(set(sys.modules) - before))
sys.argv = ["posmon", "factorize", "--family", "explicit", "--gens", "2,3", "--x", "7", "--no-cache"]
try:
    runpy.run_module("posmon", run_name="__main__")
except SystemExit as exc:
    status = exc.code
steps.append(sorted(set(sys.modules) - before))
print(json.dumps([status, steps]), file=sys.stderr)
"""

UNUSED_BY_FACTORIZE = {"dataclasses", "posmon.semiring", "posmon.certificates", "posmon.battery", "posmon.sequences"}


def test_each_entry_point_loads_only_what_it_runs():
    src = os.path.dirname(os.path.dirname(posmon.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", LOADED], capture_output=True, text=True, env=env)
    status, (package, cli, factorize) = json.loads(proc.stderr.splitlines()[-1])
    assert status == 0 and json.loads(proc.stdout)["lengths"] == [3]
    assert not [m for m in package if m.startswith("posmon.")]
    assert not UNUSED_BY_FACTORIZE & set(cli)
    assert not UNUSED_BY_FACTORIZE & set(factorize)
    assert "posmon.factorize" in factorize


def test_exports_resolve_to_the_submodules_objects():
    assert posmon.__all__ == [name for names in EXPORTS.values() for name in names]
    star: dict = {}
    exec("from posmon import *", star)
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"posmon.{module}")
        for name in names:
            assert getattr(posmon, name) is getattr(sub, name), name
            assert star[name] is getattr(sub, name), name
    assert set(posmon.__all__) <= set(dir(posmon))
    assert posmon.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        posmon.no_such_name


def test_cli_resolves_runner_imports_without_caching_them():
    from posmon import certificates, factorize, semiring, sequences

    assert posmon.cli.enumerate_factorizations is factorize.enumerate_factorizations
    assert posmon.cli.factor_gp is semiring.factor_gp
    assert posmon.cli.lff_violation is certificates.lff_violation
    assert posmon.cli.longest_strictly_increasing is sequences.longest_strictly_increasing
    assert "enumerate_factorizations" not in vars(posmon.cli)
    with pytest.raises(AttributeError):
        posmon.cli.no_such_name


def _class_checks(node, scope: str, classes: set):
    """(scope, class name) for each isinstance or issubclass call below node
    that names one of classes; scope is the dotted module, class and function path."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _class_checks(child, f"{scope}.{child.name}", classes)
            continue
        if isinstance(child, ast.Call) and getattr(child.func, "id", None) in ("isinstance", "issubclass"):
            for ref in ast.walk(child.args[-1]):
                name = ref.id if isinstance(ref, ast.Name) else ref.attr if isinstance(ref, ast.Attribute) else None
                if name in classes:
                    yield scope, name
        yield from _class_checks(child, scope, classes)


def test_no_isinstance_names_a_family_class():
    # A family's closed forms are read from its own class data, never picked
    # by testing its class; the alternating divisor bound is the one exception.
    from posmon import monoids

    families = {
        name
        for name, obj in vars(monoids).items()
        if isinstance(obj, type) and issubclass(obj, monoids.GeneratorFamily)
    }
    assert {"GeneratorFamily", "_Dense", "SRing", "Alternating"} <= families
    found = []
    for path in sorted(Path(posmon.__file__).parent.glob("*.py")):
        found += _class_checks(ast.parse(path.read_text(encoding="utf-8")), path.stem, families)
    assert found == [("certificates.ffm_divisor_bound_alternating", "Alternating")]
