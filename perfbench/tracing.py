"""Per-layer trace of one scdforge command, installed from outside the program.

Usage: python3 perfbench/tracing.py TRACE_OUT <scdforge arguments...>

Imports scdforge (from PYTHONPATH), binds a timing wrapper over each traced
function at every scdforge module that holds a reference to it (the defining
module and every module that imported the name), runs `scdforge.cli.run` on
the arguments and writes the span tree and counters to TRACE_OUT as JSON.
Nothing under src/ changes.  A span's self time is its duration minus the
durations of the spans it caused.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from collections import Counter
from time import perf_counter

# Timed spans, by layer module.  A layer's self time excludes its child spans.
SPANS = {
    "cli": ("run", "decode", "build_document", "encode"),
    "gk": ("gk_scd",),
    "groups": ("quotient_poset", "orbit_rep"),
    "prune": ("quotient_scd", "prune_chains"),
    "core": ("make_decomposition", "map_elements", "product_scd"),
    "reflect": ("reflection_scd",),
    "chainpow": ("chainpower_scd",),
    "verify": ("verify_decomposition",),
}
# Counted but not timed: a clock read per call would cost more than the call.
COUNTED = {"groups": ("apply_perm",)}


class Span:
    __slots__ = ("name", "calls", "total_s", "child_s", "children")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0
        self.children: dict[str, Span] = {}

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.total_s - self.child_s,
            "children": [c.to_dict() for c in self.children.values()],
        }


class Tracer:
    """Spans aggregated by call path, plus integer counters, kept in memory."""

    def __init__(self):
        self.root = Span("root")
        self.stack = [self.root]
        self.counters: Counter[str] = Counter()
        self.tallies: dict[str, itertools.count] = {}
        self.seen: set[int] = set()  # ids of cached results already counted

    def span(self, name: str, fn, count=None):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            node = parent.children.get(name)
            if node is None:
                node = parent.children[name] = Span(name)
            stack.append(node)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                node.calls += 1
                node.total_s += elapsed
                parent.child_s += elapsed
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def counted(self, name: str, fn):
        # itertools.count ticks in C: less than half the cost of a Counter update
        tally = self.tallies[name] = itertools.count()

        @functools.wraps(fn)
        def counted(*args, _fn=fn, _tick=tally.__next__):
            _tick()
            return _fn(*args)

        return counted

    def to_dict(self) -> dict:
        """The spans and counters; call once, at the end (reading a tally advances it)."""
        counters = dict(self.counters)
        counters.update((name, next(tally)) for name, tally in self.tallies.items())
        return {"spans": self.root.to_dict()["children"], "counters": counters}


def _count_gk(tracer, args, scd):
    # gk_scd is cached: count the chains of each decomposition once, when built
    if id(scd) not in tracer.seen:
        tracer.seen.add(id(scd))
        tracer.counters["gk.chains"] += len(scd.chains)


def _count_prune(tracer, args, family):
    scd = args[0]
    counters = tracer.counters
    counters["prune.chains_scanned"] += len(scd.chains)
    counters["prune.chains_selected"] += len(family.chains)
    counters["prune.elements_pruned"] += sum(
        len(scd.chains[pc.source]) - len(pc.kept) for pc in family.chains
    )


def _count_orbits(tracer, args, poset):
    tracer.counters["groups.orbits"] += len(poset.orbits)


def _count_verify(tracer, args, report):
    decomp = args[1]
    elements = decomp.element_count()
    tracer.counters["verify.elements"] += elements
    tracer.counters["verify.comparabilities"] += elements - len(decomp.chains)


def _count_doc(tracer, args, data):
    tracer.counters["cli.doc_bytes"] += len(data)


COUNTS = {
    "gk.gk_scd": _count_gk,
    "prune.prune_chains": _count_prune,
    "groups.quotient_poset": _count_orbits,
    "verify.verify_decomposition": _count_verify,
    "cli.encode": _count_doc,
}


def install(tracer: Tracer) -> None:
    """Rebind every traced function at each scdforge module that refers to it."""
    import scdforge.cli  # noqa: F401  (imports every layer)

    modules = [m for key, m in sys.modules.items() if key == "scdforge" or key.startswith("scdforge.")]

    def rebind(original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    for layer, names in SPANS.items():
        for fname in names:
            name = f"{layer}.{fname}"
            original = getattr(sys.modules[f"scdforge.{layer}"], fname)
            rebind(original, tracer.span(name, original, COUNTS.get(name)))
    for layer, names in COUNTED.items():
        for fname in names:
            original = getattr(sys.modules[f"scdforge.{layer}"], fname)
            rebind(original, tracer.counted(f"{layer}.{fname}.calls", original))


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from scdforge import cli

    code = cli.run(cli_args)
    sys.stdout.flush()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
