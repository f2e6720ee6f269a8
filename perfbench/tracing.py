"""Per-layer spans recorded from outside the program.

A layer is one multiderange module.  `Tracer.install` replaces each public
function of every layer module with a timing wrapper, and OeisClient's two
public methods likewise.  Modules bind each other's functions by name
(`from .bigint import to_decimal` in cli, sequences and recurrences;
`from .laguerre import exp_moment, laguerre` in counting; ...), so the
wrapper is bound in place of every reference to the original function in
every multiderange module, not only in the defining one.  Otherwise calls
from cli would skip it.

In cli only `main` is wrapped: argument parsing, dispatch and the text
helpers are the cli layer's own work, so they count as its self time.

Each wrapper records calls, busy time (wall time with at least one call of
the function active) and self time (span duration minus the time covered
by wrapped callees), plus the work counters in `_COUNTERS`.  Spans are
aggregated as they close rather than kept, so memory stays flat.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "multiderange"
LAYER_MODULES = ("bigint", "polys", "laguerre", "counting", "sequences", "recurrences", "oeis", "cli")
CLI_ENTRY_POINTS = ("main",)
TRACED_METHODS = {"oeis": {"OeisClient": ("fetch_terms", "cross_check")}}


class LayerStat:
    __slots__ = ("calls", "busy_s", "self_s", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.extra: dict = {}

    def bump(self, key: str, amount) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    def raise_to(self, key: str, value) -> None:
        self.extra[key] = max(self.extra.get(key, 0), value)


def _operand_bits(p) -> int:
    """Stored size of a Fraction-coefficient polynomial: numerator plus
    denominator bits over all coefficients."""
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in p)


def _count_mul(stat: LayerStat, args, result) -> None:
    bits = _operand_bits(args[0]) + _operand_bits(args[1])
    stat.bump("operand_bits_total", bits)
    stat.raise_to("operand_bits_max", bits)


def _count_laguerre(stat: LayerStat, args, result) -> None:
    seen = stat.extra.setdefault("_degrees", set())
    stat.bump("_hits", args[0] in seen)
    seen.add(args[0])


def _count_exp_moment(stat: LayerStat, args, result) -> None:
    stat.raise_to("degree_max", len(args[0]) - 1)


def _count_extend(stat: LayerStat, args, result) -> None:
    stat.bump("steps", len(result.terms) - len(args[1].terms))


def _count_to_decimal(stat: LayerStat, args, result) -> None:
    stat.bump("digits_total", len(result))


# Work counters, run after the wrapped call returns.  The package calls
# these functions with positional arguments only.
_COUNTERS = {
    "polys.mul": _count_mul,
    "laguerre.laguerre": _count_laguerre,
    "laguerre.exp_moment": _count_exp_moment,
    "recurrences.extend_sequence": _count_extend,
    "bigint.to_decimal": _count_to_decimal,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, LayerStat] = {}
        self._open: list[list[float]] = []  # per open span: time covered by children

    def install(self) -> None:
        """Wrap every traced function and rebind all references to it."""
        modules = {short: importlib.import_module(f"{PACKAGE}.{short}") for short in LAYER_MODULES}
        wrappers: dict[int, tuple[object, object]] = {}
        for short, module in modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if short == "cli" and name not in CLI_ENTRY_POINTS:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
        importers = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in importers:
            for name, obj in list(vars(module).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    setattr(module, name, found[1])
        for short, classes in TRACED_METHODS.items():
            for class_name, methods in classes.items():
                cls = getattr(modules[short], class_name)
                for method in methods:
                    setattr(cls, method, self._wrap(f"{short}.{class_name}.{method}", vars(cls)[method]))

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, LayerStat())
        count = _COUNTERS.get(name)
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self_s += elapsed - children[0]
                if not stat.active:
                    stat.busy_s += elapsed
                if open_spans:
                    open_spans[-1][0] += elapsed
            if count is not None:
                counted = clock()
                count(stat, args, result)
                if open_spans:  # counter time is tracing cost, not the caller's self time
                    open_spans[-1][0] += clock() - counted
            return result

        return traced

    def report(self) -> dict[str, dict]:
        """Per traced name with at least one call: calls, s (busy), self_s,
        and its work counters."""
        out = {}
        for name, stat in self.stats.items():
            if not stat.calls:
                continue
            entry = {"calls": stat.calls, "s": stat.busy_s, "self_s": stat.self_s}
            entry.update((k, v) for k, v in stat.extra.items() if not k.startswith("_"))
            if "_hits" in stat.extra:
                entry["hit_ratio"] = stat.extra["_hits"] / stat.calls
            out[name] = entry
        return out
