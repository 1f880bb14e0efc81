"""Spans around every public function of posmon's modules, from outside.

``Tracer.install`` replaces each function named in a module's ``__all__`` by
a wrapper, in that module and wherever another posmon module imported it
(``factorize.contains``, ``semiring.generators``, the names ``cli`` imports,
the package re-exports).  Calls made through those names, including calls
between posmon's own modules, become spans.  Spans are kept in memory; the
per-name totals (calls, span time, self time = span time minus child span
time) feed the per-layer metrics, and the raw spans are written out when the
run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("rationals", "monoids", "factorize", "semiring", "certificates", "sequences", "battery", "cli")

# Names in a module's __all__ that are not wrapped, with the reason.
EXCLUDED = {
    "rationals.Rational": "alias of the fractions.Fraction class",
    "monoids.GeneratorFamily": "class; its methods are called by the wrapped functions",
    "monoids.Explicit": "family class",
    "monoids.Grams": "family class",
    "monoids.PowerOf": "family class",
    "monoids.UnitFractionPrimes": "family class",
    "monoids.Alternating": "family class",
    "monoids.ConductorQ": "family class",
    "monoids.SRing": "family class",
    "monoids.MonoidSpec": "dataclass holding a family and its truncation",
    "monoids.MembershipResult": "result dataclass",
    "monoids.AtomVerdict": "result dataclass",
    "factorize.Factorization": "value dataclass",
    "factorize.QueryResult": "result dataclass",
    "factorize.COMPLETE": "string constant",
    "factorize.COMPLETE_FOR_LENGTH": "string constant",
    "factorize.TRUNCATION_BOUNDED": "string constant",
    "semiring.GenPoly": "value dataclass; its operators call the wrapped gp_add and gp_mul",
    "semiring.PolyStats": "result dataclass",
    "semiring.IrreducibilityReport": "result dataclass",
    "semiring.GpFactorizations": "result dataclass",
    "certificates.Certificate": "result dataclass",
    "certificates.IMPLICATIONS": "tuple constant",
    "sequences.MonotoneWitness": "result dataclass",
    "battery.BatteryItem": "result dataclass",
}

# Spans beyond this many are still counted but not kept for the trace file.
MAX_KEPT_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.stats: dict[str, list] = {}  # name -> [calls, span seconds, self seconds]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [start, child seconds, span id] per open span
        self._next_id = 0
        self._patched: list[tuple] = []
        self.query = -1
        self.span_id = array("i")
        self.span_name = array("H")
        self.span_query = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.child_spans: list[list] = []  # spans merged from traced child processes

    # -------------------------------------------------------------- wrapping

    def public_functions(self):
        """(layer, name, function) for every wrapped name; raises on a public
        name that is neither a function nor listed in EXCLUDED."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"posmon.{layer}")
            for name in mod.__all__:
                if f"{layer}.{name}" in EXCLUDED:
                    continue
                obj = getattr(mod, name)
                if not callable(obj) or isinstance(obj, type):
                    raise TypeError(f"posmon.{layer}.{name} is neither wrapped nor excluded")
                out.append((layer, name, obj))
        return out

    def install(self) -> None:
        wrappers = {}
        for layer, name, fn in self.public_functions():
            wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "posmon" and not modname.startswith("posmon."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def begin_query(self, qid: int) -> None:
        self.query = qid
        self._stack.clear()

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.stats[name] = [0, 0.0, 0.0]
        stats, stack, observe = self.stats[name], self._stack, _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0, self._next_id]
            self._next_id += 1
            parent = stack[-1][2] if stack else -1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = end - frame[0]
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(self.span_start) < MAX_KEPT_SPANS:
                    self.span_id.append(frame[2])
                    self.span_name.append(idx)
                    self.span_query.append(self.query)
                    self.span_parent.append(parent)
                    self.span_start.append(frame[0])
                    self.span_end.append(end)
            if observe is not None:
                observe(self.counters, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # ---------------------------------------------------------------- output

    def merge(self, stats: dict, counters: dict) -> None:
        """Add totals recorded by a traced child process."""
        for name, (calls, total, own) in stats.items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += own
        for key, val in counters.items():
            self.counters[key] = self.counters.get(key, 0) + val

    def spans(self) -> list:
        return [
            [
                self.span_query[i],
                self.span_id[i],
                self.span_parent[i],
                self.names[self.span_name[i]],
                self.span_start[i],
                self.span_end[i],
            ]
            for i in range(len(self.span_start))
        ]

    def dump(self) -> dict:
        """Totals and spans; a span is [query, id, parent id, name, start, end]."""
        return {"stats": self.stats, "counters": self.counters, "spans": self.spans() + self.child_spans}


def _add(counters: dict, key: str, value) -> None:
    counters[key] = counters.get(key, 0) + value


def _returned(counters, result):
    _add(counters, "factorizations_returned", len(result))


_OBSERVERS = {
    "monoids.contains": lambda c, r: _add(c, "contains.members", bool(r.member)),
    "factorize.atoms_for_query": lambda c, r: _add(c, "atoms_for_query.atoms", len(r)),
    "factorize.enumerate_factorizations": _returned,
    "factorize.factorizations_of_length": _returned,
    "semiring.gp_divide": lambda c, r: _add(c, "gp_divide.successes", r is not None),
}


def write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
