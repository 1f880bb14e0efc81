"""In-process execution of library queries and their reference checks."""

from __future__ import annotations

from fractions import Fraction

import oracles
import reference as ref
from posmon import factorize, monoids, semiring
from workloads import SEMIRING_MONOIDS

F = Fraction


def _spec(args: dict):
    family = monoids.family_from_config(dict(args["family"]))
    return monoids.MonoidSpec(family, k=args.get("k"), max_den=args.get("max_den"))


def _wire(zs) -> list:
    return sorted([str(a) for a in z.expanded()] for z in zs)


def _semiring_spec(name: str):
    return monoids.MonoidSpec(monoids.Explicit(tuple(F(g) for g in SEMIRING_MONOIDS[name]["gens"])))


def _terms(poly) -> list:
    return [[str(e), c] for e, c in poly.terms]


def execute(kind: str, args: dict) -> dict:
    """Run one query through posmon's public API; return a canonical answer."""
    if kind in ("gp_mul", "gp_divide", "is_irreducible_gp", "factor_gp"):
        spec = _semiring_spec(args["monoid"])
        if kind == "gp_mul":
            polys = [semiring.parse_gen_poly(spec, t) for t in args["factors"]]
            prod = polys[0]
            for p in polys[1:]:
                prod = semiring.gp_mul(prod, p)
            return {"terms": _terms(prod)}
        f = semiring.parse_gen_poly(spec, args["f"])
        if kind == "gp_divide":
            h = semiring.gp_divide(f, semiring.parse_gen_poly(spec, args["g"]))
            return {"quotient": None if h is None else _terms(h)}
        if kind == "is_irreducible_gp":
            rep = semiring.is_irreducible_gp(f)
            return {
                "irreducible": rep.irreducible,
                "witness": None if rep.witness is None else _terms(rep.witness),
                "cofactor": None if rep.cofactor is None else _terms(rep.cofactor),
            }
        found = semiring.factor_gp(f, args["max_len"])
        return {"factorizations": sorted(sorted(_terms(g) for g in fs) for fs in found.factorizations)}
    spec = _spec(args)
    x = F(args["x"])
    if kind == "contains":
        return {"member": monoids.contains(spec, x).member}
    if kind == "is_atom":
        return {"atom": monoids.is_atom(spec, x).is_atom}
    if kind == "length_set":
        lengths, completeness = factorize.length_set(spec, x, args["max_len"])
        return {"lengths": sorted(lengths), "completeness": completeness}
    if kind == "enumerate_factorizations":
        res = factorize.enumerate_factorizations(spec, x, args["max_len"])
    else:
        res = factorize.factorizations_of_length(spec, x, args["length"])
    return {"factorizations": _wire(res), "completeness": res.completeness}


# ------------------------------------------------------------------ references


def _sequence_reference(kind: str, args: dict) -> dict:
    fam, k, x = args["family"], args.get("k"), F(args["x"])
    gens = ref.family_generators(fam, k or 0)
    if kind == "contains":
        return {"member": ref.member(gens, x)}
    if not ref.member(gens, x):
        return {"error": "NotAMemberError"}
    explicit = fam["name"] == "explicit"
    if kind == "is_atom":
        atoms = oracles.naive_atoms(gens) if explicit else ref.sequence_atoms(fam, k or 0)
        return {"atom": x in atoms}
    if explicit:
        zs = oracles.naive_factorizations(gens, x, args.get("max_len"), args.get("length"))
    else:
        zs = ref.factorizations(
            ref.sequence_atoms(fam, k or 0), x, max_len=args.get("max_len"), exact_len=args.get("length")
        )
    if kind == "length_set":
        return {"lengths": sorted({len(z) for z in zs})}
    return {"factorizations": sorted([str(a) for a in z] for z in zs)}


def _dense_reference(kind: str, args: dict) -> dict:
    fam, max_den = args["family"], args["max_den"]
    x = F(args["x"])
    if not ref.dense_member(fam, x):
        return {"error": "NotAMemberError"}
    zs = ref.slice_of_length(ref.dense_atoms(fam, max_den), x, args["length"])
    return {"factorizations": sorted([str(a) for a in z] for z in zs)}


def _semiring_reference(kind: str, args: dict) -> dict:
    mon = SEMIRING_MONOIDS[args["monoid"]]
    scale = mon["scale"]
    if kind == "gp_mul":
        prod = {0: 1}
        for text in args["factors"]:
            prod = ref.poly_mul(prod, ref.parse_poly(text, scale))
        return {"terms": ref.semiring_terms(prod, scale)}
    f = ref.parse_poly(args["f"], scale)
    sg = ref.Semigroup([F(g) for g in mon["gens"]], scale, max(f))
    if kind == "gp_divide":
        q = ref.poly_divmod(f, ref.parse_poly(args["g"], scale))
        ok = q is not None and all(c > 0 for c in q.values()) and all(sg.has(e) for e in q)
        return {"quotient": ref.semiring_terms(q, scale) if ok else None}
    zt = [fac for text in args["factors"] for fac in zt_factors(args["monoid"], text)]
    found = ref.semiring_factorizations(zt, sg, args.get("max_len", 1))
    if kind == "is_irreducible_gp":
        return {"irreducible": bool(found)}
    return {"factorizations": sorted(sorted([[str(e), c] for e, c in g] for g in fz) for fz in found)}


_ZT_CHECKED: dict = {}


def zt_factors(monoid: str, text: str) -> list:
    """The committed Z[t] factorization of a block, re-verified on first use."""
    key = (monoid, text)
    if key not in _ZT_CHECKED:
        mon = SEMIRING_MONOIDS[monoid]
        facs = mon["blocks"][text]
        prod = {0: 1}
        for fac in facs:
            ref.check_irreducible_in_zt(fac)
            prod = ref.poly_mul(prod, fac)
        if prod != ref.parse_poly(text, mon["scale"]):
            raise ValueError(f"Z[t] factorization of {text} does not multiply back")
        _ZT_CHECKED[key] = facs
    return _ZT_CHECKED[key]


def reference(kind: str, args: dict) -> dict:
    if "monoid" in args:
        return _semiring_reference(kind, args)
    if "max_den" in args:
        return _dense_reference(kind, args)
    return _sequence_reference(kind, args)


def check(kind: str, args: dict, answer: dict) -> str:
    """'' when the answer agrees with the reference, else the reason."""
    if args.get("accept_posmon_error") and "error" in answer:
        return ""
    want = reference(kind, args)
    if kind == "is_irreducible_gp" and "irreducible" in answer:
        if answer["irreducible"] != want["irreducible"]:
            return f"irreducible={answer['irreducible']}, reference says {want['irreducible']}"
        if not answer["irreducible"]:
            return _check_split(args, answer)
        return ""
    got = {key: val for key, val in answer.items() if key != "completeness"}
    if got != want:
        return f"answer {_short(got)} != reference {_short(want)}"
    return ""


def _check_split(args: dict, answer: dict) -> str:
    """A reducibility witness must multiply back to f, by the benchmark's own
    convolution, with neither part the unit."""
    scale = SEMIRING_MONOIDS[args["monoid"]]["scale"]

    def grid(terms):
        return {int(F(e) * scale): c for e, c in terms}

    w, c = grid(answer["witness"] or []), grid(answer["cofactor"] or [])
    if not w or not c or w == {0: 1} or c == {0: 1}:
        return "reducibility witness is missing or a unit"
    if ref.poly_mul(w, c) != ref.parse_poly(args["f"], scale):
        return "witness * cofactor != f"
    return ""


def _short(obj) -> str:
    text = str(obj)
    return text if len(text) <= 160 else text[:157] + "..."
