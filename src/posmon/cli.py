"""Command-line front end: family construction, queries, serialization, caching.

Every rational crosses the wire as an exact string ("13/30"); floats never
appear in any output format.  Reports are byte-stable for identical configs,
which makes the optional result cache a verbatim replay.  Exit codes: 0 on
success, 1 on usage errors, 2 when a certificate fails to re-verify.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from importlib import import_module

from . import __version__
from .errors import PosmonError
from .monoids import _FAMILIES, GeneratorFamily, MonoidSpec, certified_atoms, family_from_config
from .rationals import is_prime, parse_rational

__all__ = ["main", "build_spec", "report_to_factorizations"]

# The names each runner imports from its subcommand's module when it runs, so
# a command loads only the modules it uses.  They are attributes of this
# module too, through __getattr__; never cached here, a read sees the
# module's current binding.
_RUNNER_IMPORTS = {
    "factorize": ("Factorization", "enumerate_factorizations", "factorizations_of_length", "length_set"),
    "certificates": (
        "accp_chain", "bf_violation_unit_fractions", "classify", "ffm_divisor_bound_alternating", "lff_violation",
    ),
    "battery": ("run_battery",),
    "semiring": (
        "eval_exponential", "factor_gp", "format_gen_poly", "gp_divide", "gp_mul", "is_irreducible_gp",
        "parse_gen_poly",
    ),
    "sequences": ("componentwise_sum", "longest_strictly_increasing", "longest_weakly_decreasing"),
}
_RUNNER_MODULE = {name: module for module, names in _RUNNER_IMPORTS.items() for name in names}


def __getattr__(name):
    module = _RUNNER_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"posmon.{module}"), name)


SCHEMA_VERSION = "posmon/1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        raise UsageError(message)


_OPTION_FLAGS = {
    key: f"{parse.__doc__} for --family {cls.name}" for cls in _FAMILIES.values() for key, parse, _ in cls.options
}
_TRUNCATION_FLAGS = {
    "k": "index bound for sequence families",
    "max_den": "denominator bound for dense families",
    "max_prime": "prime bound for unit-fractions",
}


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="|".join(_FAMILIES))
    for key, text in _OPTION_FLAGS.items():
        p.add_argument(f"--{key}", help=text)
    for key, text in _TRUNCATION_FLAGS.items():
        p.add_argument("--" + key.replace("_", "-"), type=int, dest=key, help=text)
    p.add_argument("--config", help="JSON config file; CLI flags take precedence")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "table", "csv"), default="json")
    p.add_argument("--max-rows", type=int, default=20, dest="max_rows",
                   help="row cap for table output (tables mark '... and N more')")
    p.add_argument("--cache-dir", dest="cache_dir", help="cache directory (or POSMON_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true", dest="no_cache")


def _merged_family_options(args) -> dict:
    cfg: dict = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:  # malformed JSON or not UTF-8
                raise UsageError(f"--config is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("--config must contain a JSON object")
        cfg.update((key, val) for key, val in loaded.items() if val is not None)
        # MonoidSpec checks k and max_den; max_prime never reaches it.
        if type(cfg.get("max_prime", 0)) is not int:
            raise UsageError(f"--config max_prime must be an integer, not {cfg['max_prime']!r}")
    for key in ("family", *_OPTION_FLAGS, *_TRUNCATION_FLAGS):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _family(cfg: dict) -> GeneratorFamily:
    """The family of merged config/flags: all keys but the truncation bounds."""
    if not cfg.get("family"):
        raise UsageError("missing --family")
    options = {key: val for key, val in cfg.items() if key != "family" and key not in _TRUNCATION_FLAGS}
    try:
        return family_from_config({"name": cfg["family"], **options})
    except PosmonError as exc:
        raise UsageError(str(exc)) from exc


def build_spec(cfg: dict) -> MonoidSpec:
    """Build a MonoidSpec from merged config/flags; raises UsageError."""
    family = _family(cfg)
    k, max_prime = cfg.get("k"), cfg.get("max_prime")
    if max_prime is not None:
        if family.name != "unit-fractions":
            raise UsageError("--max-prime applies to --family unit-fractions")
        k = sum(1 for p in range(2, max_prime + 1) if is_prime(p))
        if k == 0:
            raise UsageError("--max-prime admits no primes")
    max_den = cfg.get("max_den")
    if family.dense and max_den is None:
        raise UsageError("dense family requires --max-den")
    try:
        return MonoidSpec(family, k=k, max_den=max_den)
    except PosmonError as exc:
        raise UsageError(str(exc)) from exc


def _fact_to_wire(z: Factorization) -> list:
    return [[str(a), m] for a, m in z.parts]


def report_to_factorizations(report: dict) -> list[Factorization]:
    """Rebuild exact Factorization objects from a serialized report."""
    from .factorize import Factorization

    out = []
    for wire in report.get("factorizations", []):
        out.append(Factorization(tuple((Fraction(a), int(m)) for a, m in wire)))
    return out


def _render_json(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def _render_table(report: dict, max_rows: int) -> str:
    lines = []
    for key, value in report.items():
        if key == "factorizations":
            lines.append("factorizations:")
            rows = [
                "  " + " + ".join(f"{a}" for a, m in wire for _ in range(m))
                for wire in value
            ]
            shown = rows[:max_rows]
            lines.extend(shown)
            if len(rows) > max_rows:
                lines.append(f"  ... and {len(rows) - max_rows} more")
        elif isinstance(value, (dict, list)):
            lines.append(f"{key}: {json.dumps(value)}")
        else:
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _render_csv(report: dict) -> str:
    if "factorizations" in report:
        lines = ["factorization,length,value"]
        for wire in report["factorizations"]:
            atoms = []
            total = Fraction(0)
            for a, m in wire:
                atoms.extend([a] * m)
                total += Fraction(a) * m
            lines.append(f"{'+'.join(atoms)},{len(atoms)},{total}")
        return "\n".join(lines) + "\n"
    lines = ["key,value"]
    for key, value in report.items():
        text = json.dumps(value) if isinstance(value, (dict, list)) else str(value)
        lines.append(f"{key},{text.replace(',', ';')}")
    return "\n".join(lines) + "\n"


def _render(report: dict, fmt: str, max_rows: int) -> str:
    if fmt == "table":
        return _render_table(report, max_rows)
    if fmt == "csv":
        return _render_csv(report)
    return _render_json(report)


def _cache_dir(args) -> str | None:
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None) or os.environ.get("POSMON_CACHE_DIR")


def _cache_descriptor(args) -> dict:
    """Everything a report depends on: the merged family options and the
    parsed --input sequences (so an edited --config or input file is a new
    key), the query flags, the report schema and the engine version."""
    query = {k: v for k, v in vars(args).items() if k not in ("runner", "cache_dir", "no_cache", "config")}
    if getattr(args, "input", None):
        query["input"] = [[str(t) for t in _read_sequence(path)] for path in args.input]
    return {"schema": SCHEMA_VERSION, "version": __version__, "family": _merged_family_options(args), "query": query}


def cache_key(descriptor: dict) -> str:
    import hashlib

    canon = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _cache_lookup(directory: str, key: str) -> str | None:
    path = os.path.join(directory, key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        json.loads(text)
        return text
    except (OSError, json.JSONDecodeError):
        print(f"warning: corrupt cache entry {key}; recomputing", file=sys.stderr)
        return None


def _cache_store(directory: str, key: str, text: str) -> None:
    import tempfile

    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(directory, key + ".json"))
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _run_factorize(args) -> tuple[dict, int]:
    from .factorize import enumerate_factorizations, factorizations_of_length

    spec = build_spec(_merged_family_options(args))
    x = parse_rational(args.x)
    if args.length is not None:
        result = factorizations_of_length(spec, x, args.length)
    else:
        if spec.is_dense and args.max_len is None:
            raise UsageError("dense family requires --length or --max-len")
        result = enumerate_factorizations(spec, x, args.max_len)
    report = {
        "query": {
            "op": "factorize",
            "x": str(x),
            "length": args.length,
            "max_len": args.max_len,
        },
        "truncation": spec.descriptor(),
        "completeness": result.completeness,
        "factorizations": [_fact_to_wire(z) for z in result],
        "lengths": result.lengths,
    }
    return report, 0


def _run_lengths(args) -> tuple[dict, int]:
    from .factorize import length_set

    spec = build_spec(_merged_family_options(args))
    x = parse_rational(args.x)
    if spec.is_dense and args.max_len is None:
        raise UsageError("dense family requires --max-len")
    lengths, completeness = length_set(spec, x, args.max_len)
    report = {
        "query": {"op": "lengths", "x": str(x), "max_len": args.max_len},
        "truncation": spec.descriptor(),
        "completeness": completeness,
        "lengths": sorted(lengths),
    }
    return report, 0


def _run_atoms(args) -> tuple[dict, int]:
    spec = build_spec(_merged_family_options(args))
    k = spec.k if args.count is None else args.count
    if k is None:
        raise UsageError("atoms needs --count (or --k)")
    atoms, method = certified_atoms(spec, k)
    report = {
        "query": {"op": "atoms", "count": k},
        "truncation": spec.descriptor(),
        "atoms": [str(a) for a in atoms],
        "method": method,
    }
    return report, 0


def _run_check(args) -> tuple[dict, int]:
    from .certificates import (
        accp_chain,
        bf_violation_unit_fractions,
        classify,
        ffm_divisor_bound_alternating,
        lff_violation,
    )

    cfg = _merged_family_options(args)
    kind = args.kind
    if kind == "accp":
        cert = accp_chain(build_spec(cfg).family, args.n_max)
    elif kind == "bf":
        if cfg.get("family") not in (None, "unit-fractions"):
            raise UsageError("check bf runs over --family unit-fractions")
        if cfg.get("max_prime") is None:
            raise UsageError("check bf requires --max-prime")
        build_spec({**cfg, "family": "unit-fractions"})  # rejects options unit-fractions never reads
        cert = bf_violation_unit_fractions(cfg["max_prime"])
    elif kind == "lff":
        spec = build_spec(cfg)
        target = spec.family.lff_targets.get(args.structure)
        if target is None:
            names = " or ".join(cls.name for cls in _FAMILIES.values() if args.structure in cls.lff_targets)
            raise UsageError(f"check lff --structure {args.structure} runs over --family {names}")
        s = parse_rational(args.s) if args.s else None
        cert = lff_violation(target, spec, s=s)
    elif kind == "ffm-bound":
        spec = build_spec(cfg)
        if args.x is None:
            raise UsageError("check ffm-bound requires --x")
        cert = ffm_divisor_bound_alternating(spec, parse_rational(args.x))
    else:  # classify
        spec = build_spec({**_family(cfg).classify_truncation, **cfg})
        cert = classify(spec, structure=args.structure)
    report = cert.to_jsonable()
    return report, 0 if cert.verified else 2


def _run_battery(args) -> tuple[dict, int]:
    from .battery import run_battery

    items = run_battery()
    report = {
        "items": [
            {"name": item.name, "verified": item.verified, "certificate": item.certificate.to_jsonable()}
            for item in items
        ],
        "all_verified": all(item.verified for item in items),
        "summary": [f"{'PASS' if item.verified else 'FAIL'} {item.name}" for item in items],
    }
    return report, 0 if report["all_verified"] else 2


def _run_semiring(args) -> tuple[dict, int]:
    from .semiring import (
        eval_exponential,
        factor_gp,
        format_gen_poly,
        gp_divide,
        gp_mul,
        is_irreducible_gp,
        parse_gen_poly,
    )

    spec = build_spec(_merged_family_options(args))
    f = parse_gen_poly(spec, args.f)
    report: dict = {"query": {"op": f"semiring-{args.kind}", "f": format_gen_poly(f)},
                    "truncation": spec.descriptor()}
    if args.kind == "mul":
        if args.g is None:
            raise UsageError("semiring mul requires --g")
        g = parse_gen_poly(spec, args.g)
        result = gp_mul(f, g)
        report["query"]["g"] = format_gen_poly(g)
        report["result"] = [[str(e), c] for e, c in result.terms]
        report["display"] = format_gen_poly(result)
        report["eval"] = str(eval_exponential(result, 12))
    elif args.kind == "div":
        if args.g is None:
            raise UsageError("semiring div requires --g")
        g = parse_gen_poly(spec, args.g)
        h = gp_divide(f, g)
        report["query"]["g"] = format_gen_poly(g)
        report["divides"] = h is not None
        report["result"] = None if h is None else [[str(e), c] for e, c in h.terms]
        if h is not None:
            report["display"] = format_gen_poly(h)
    elif args.kind == "irreducible":
        verdict = is_irreducible_gp(f)
        report["irreducible"] = verdict.irreducible
        report["witness"] = None if verdict.witness is None else [[str(e), c] for e, c in verdict.witness.terms]
        report["explored"] = verdict.explored
    else:  # factor
        found = factor_gp(f, 8 if args.max_len is None else args.max_len)
        report["max_len"] = found.max_len
        report["factorizations"] = [
            [[[str(e), c] for e, c in g.terms] for g in fs] for fs in found.factorizations
        ]
        report["lengths"] = sorted(found.lengths)
    return report, 0


def _read_sequence(path: str) -> list[Fraction]:
    with open(path, encoding="utf-8") as fh:
        return [parse_rational(line) for line in fh if line.strip()]


def _run_seq(args) -> tuple[dict, int]:
    from .sequences import componentwise_sum, longest_strictly_increasing, longest_weakly_decreasing

    if args.kind == "sum":
        if len(args.input) < 1:
            raise UsageError("seq sum requires at least one --input")
        seqs = [_read_sequence(p) for p in args.input]
        total = componentwise_sum(seqs)
        return {"query": {"op": "seq-sum", "inputs": len(seqs)},
                "terms": [str(t) for t in total]}, 0
    if len(args.input) != 1:
        raise UsageError(f"seq {args.kind} takes exactly one --input")
    seq = _read_sequence(args.input[0])
    wit = longest_strictly_increasing(seq) if args.kind == "lis" else longest_weakly_decreasing(seq)
    return {
        "query": {"op": f"seq-{args.kind}", "n": len(seq)},
        "kind": wit.kind,
        "length": wit.length,
        "indices": list(wit.indices),
        "values": [str(v) for v in wit.values],
    }, 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="posmon", description="Exact factorization invariants for positive monoids")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="enumerate factorizations of x")
    _add_family_flags(p)
    _add_output_flags(p)
    p.add_argument("--x", required=True)
    p.add_argument("--length", type=int)
    p.add_argument("--max-len", type=int, dest="max_len")
    p.set_defaults(runner=_run_factorize)

    p = sub.add_parser("lengths", help="length set of x")
    _add_family_flags(p)
    _add_output_flags(p)
    p.add_argument("--x", required=True)
    p.add_argument("--max-len", type=int, dest="max_len")
    p.set_defaults(runner=_run_lengths)

    p = sub.add_parser("atoms", help="certified atoms of a named family")
    _add_family_flags(p)
    _add_output_flags(p)
    p.add_argument("--count", type=int)
    p.set_defaults(runner=_run_atoms)

    p = sub.add_parser("check", help="run a property certificate")
    p.add_argument("kind", choices=("accp", "bf", "lff", "ffm-bound", "classify"))
    _add_family_flags(p)
    _add_output_flags(p)
    p.add_argument("--n-max", type=int, default=20, dest="n_max")
    p.add_argument("--x")
    p.add_argument("--s")
    p.add_argument("--structure", choices=("additive", "multiplicative"), default="additive")
    p.set_defaults(runner=_run_check)

    p = sub.add_parser("paper-examples", help="run the full example battery")
    _add_output_flags(p)
    p.set_defaults(runner=_run_battery)

    p = sub.add_parser("semiring", help="monoid semiring arithmetic")
    p.add_argument("kind", choices=("mul", "div", "irreducible", "factor"))
    _add_family_flags(p)
    _add_output_flags(p)
    p.add_argument("--f", required=True, help="polynomial, e.g. '3*x^(5/2) + x^(2/3) + 1'")
    p.add_argument("--g")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.set_defaults(runner=_run_semiring)

    p = sub.add_parser("seq", help="finite sequence diagnostics")
    p.add_argument("kind", choices=("lis", "lwd", "sum"))
    _add_output_flags(p)
    p.add_argument("--input", action="append", default=[], help="file with one rational per line")
    p.set_defaults(runner=_run_seq)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "max_rows", 0) < 0:
            parser.error(f"argument --max-rows: must be >= 0, not {args.max_rows}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    directory = _cache_dir(args)
    try:
        if directory is not None:
            key = cache_key(_cache_descriptor(args))
            cached = _cache_lookup(directory, key)
            if cached is not None:
                sys.stdout.write(cached)
                print(f"cache hit: {key}", file=sys.stderr)
                return 0
        report, status = args.runner(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (PosmonError, OSError) as exc:  # bad rationals, unreadable input or config files
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {"schema": SCHEMA_VERSION, **report}
    text = _render(report, getattr(args, "format", "json"), getattr(args, "max_rows", 20))
    sys.stdout.write(text)
    if directory is not None and status == 0 and getattr(args, "format", "json") == "json":
        _cache_store(directory, key, text)
    return status


if __name__ == "__main__":
    sys.exit(main())
