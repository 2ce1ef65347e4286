"""Run one `oseq` CLI invocation with spans and counters installed from outside.

    python3 perfbench/tracer.py TRACE_JSON ARG...

behaves like ``python3 -m oseq ARG...`` (same stdout, stderr and exit code)
and also writes a JSON trace to TRACE_JSON.  The program is not changed: every
public function of every `oseq` module is wrapped in a timing span, and the
wrapper replaces the function in each module that bound it, including modules
that took it by ``from ... import`` (``mat_mul`` lives in `finite_field` but is
called through `groups` and `construct`).  The backings' ``mul`` methods get a
call counter and ``Group.orders`` a span.

A span's self time is its duration minus the time of the spans it called.
The trace holds, per span name, ``[calls, total_s, self_s]``; per caller and
callee pair, the call count; the counters; the `construct` lru_cache hit and
miss deltas; and the import times of `oseq.cli` and of sympy.
"""

from __future__ import annotations

import builtins
import functools
import json
import sys
from collections import Counter
from time import perf_counter

MODULES = (
    "finite_field", "groups", "construct", "classify", "order_sequence",
    "poset", "expr", "fixtures", "cache", "verify",
)


class Tracer:
    """Span and counter state of one traced process."""

    def __init__(self):
        self.stack = [[0.0, None]]  # open spans: [child seconds, name]
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.edges = Counter()  # (caller span, callee span) -> calls
        self.counts = Counter()

    def span(self, name, fn, on_result=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, edges = self.stack, self.edges

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            edges[parent[1], name] += 1
            frame = [0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def report(self):
        return {
            "spans": self.spans,
            "edges": {f"{a}>{b}": n for (a, b), n in self.edges.items()},
            "counts": dict(self.counts),
        }


def _count_elements(counts, group):
    counts["groups.elements_enumerated"] += len(group)


def _count_accepted(counts, actions):
    counts["construct.find_action_by_relations.accepted"] += len(actions)


def _count_checks(counts, checks):
    counts["verify.checks"] += len(checks)
    counts["verify.checks_failed"] += sum(not c.ok for c in checks)


def _count_cache_hit(counts, value):
    counts["cache.hits"] += value is not None


ON_RESULT = {
    "groups.enumerate_group": _count_elements,
    "construct.find_action_by_relations": _count_accepted,
    "verify.run_suite": _count_checks,
    "cache.cache_get": _count_cache_hit,
}


def install(tracer, package):
    """Wrap the public functions of every module and rebind them everywhere."""
    modules = [getattr(package, m) for m in MODULES]
    everywhere = [package, package.cli, *modules]
    for mod in modules:
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if isinstance(fn, type) or not callable(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{mod.__name__.rpartition('.')[2]}.{attr}"
            wrapped = tracer.span(name, fn, ON_RESULT.get(name))
            for site in everywhere:
                for bound, value in list(vars(site).items()):
                    if value is fn:
                        setattr(site, bound, wrapped)
    groups = package.groups
    groups.Group.orders = tracer.span("groups.Group.orders", groups.Group.orders)
    for attr in groups.__all__:
        cls = getattr(groups, attr)
        if isinstance(cls, type) and attr.endswith("Backing"):
            cls.mul = tracer.counter("groups.backing_mul.calls", cls.mul)


def lru_totals(cached):
    stats = [fn.cache_info() for fn in cached]
    return sum(s.hits for s in stats), sum(s.misses for s in stats)


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    imports = Counter()
    real_import = builtins.__import__

    def timed_import(name, *args, **kwargs):
        if name.partition(".")[0] != "sympy" or "sympy" in sys.modules:
            return real_import(name, *args, **kwargs)
        start = perf_counter()
        try:
            return real_import(name, *args, **kwargs)
        finally:
            imports["sympy"] += perf_counter() - start

    builtins.__import__ = timed_import
    start = perf_counter()
    try:
        import oseq.cli  # noqa: F401  (binds oseq and all its submodules)
    finally:
        builtins.__import__ = real_import
    import_s = perf_counter() - start
    import oseq

    # Taken before wrapping: a wrapper does not expose cache_info.
    cached = [fn for fn in vars(oseq.construct).values() if hasattr(fn, "cache_info")]
    tracer = Tracer()
    install(tracer, oseq)
    lru_before = lru_totals(cached)
    code = 1
    try:
        code = oseq.cli.main(cli_args)
    finally:
        lru_after = lru_totals(cached)
        report = tracer.report()
        report["counts"]["construct.lru_hits"] = lru_after[0] - lru_before[0]
        report["counts"]["construct.lru_misses"] = lru_after[1] - lru_before[1]
        report["import_s"] = import_s
        report["sympy_import_s"] = imports["sympy"]
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
