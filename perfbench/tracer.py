"""Spans and counters recorded from outside the program.

`Tracer.installed()` replaces the public functions of each layer with timing
wrappers, under the names their callers look them up by (so `epathopt.cli`'s
`parse_file`, `epathopt.esequence`'s `validate`, the `RULES` entries and
`EPath.insert`), and puts every original back on exit. Calls the benchmark
itself makes through other names stay untraced.

A span is `(name, start_ns, end_ns, parent, fn)`: `parent` is the index of
the enclosing span (-1 at the root) and `fn` the index of the workload
function being processed. Self time is a span's duration minus the time its
direct children cover; calls are strictly nested in one thread, so the
children never overlap.
"""

from __future__ import annotations

import contextlib
import json
from collections import Counter
from time import perf_counter_ns

SPAN_FIELDS = ("pass", "id", "name", "start_ns", "end_ns", "parent", "fn")

# (module, attribute, span name): plain functions, wrapped where they are looked up.
FUNCTION_WRAPS = (
    ("epathopt.cli", "main", "cli"),
    ("epathopt.cli", "parse_file", "ir.parse"),
    ("epathopt.cli", "print_function", "ir.print"),
    ("epathopt.esequence", "print_function", "ir.print"),
    ("epathopt.cost", "print_function", "ir.print"),
    ("epathopt.esequence", "validate", "ir.validate"),
    ("epathopt.cli", "interpret", "ir.interpret"),
    ("epathopt.analysis", "dominators", "analysis.dominators"),
    ("epathopt.cli", "from_function", "esequence.from_function"),
    ("epathopt.rewrite", "from_function", "esequence.from_function"),
    ("epathopt.epath", "analyze", "esequence.analyze"),
    ("epathopt.cost", "analyze", "esequence.analyze"),
    ("epathopt.rewrite", "analyze", "esequence.analyze"),
    ("epathopt.cli", "saturate", "epath.saturate"),
    ("epathopt.cli", "sort_by_cost", "cost.sort"),
    ("epathopt.cost", "cost_of", "cost.cost_of"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.fn = -1
        self._stack: list[list[int]] = []  # [span index, ns covered by children]

    def wrap(self, name: str, func, observe=None):
        """`func` recorded as span `name`; `observe(counts, result, args)`
        derives extra counters from each call's result."""

        def traced(*args, **kwargs):
            frame = [len(self.spans), 0]
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[frame[0]] = (name, start, end, parent, self.fn)
                self.self_ns[name] += end - start - frame[1]
                self.counts[f"{name}.calls"] += 1
                if self._stack:
                    self._stack[-1][1] += end - start
            if observe is not None:
                observe(self.counts, result, args)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        import importlib

        from epathopt import analysis, epath, ir, rewrite

        patches = []  # (owner, attribute, original)

        def patch(owner, attr, replacement):
            patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

        def interpret_result(counts, result, args):
            counts["ir.interpret.fuel_exhausted"] += isinstance(result, ir.FuelExhausted)

        def saturate_result(counts, report, args):
            counts["epath.variants"] += len(args[0])
            counts["epath.capped"] += not report.reached_fixed_point

        def insert_result(counts, is_new, args):
            counts["epath.insert.new" if is_new else "epath.insert.dup"] += 1

        observers = {"ir.interpret": interpret_result, "epath.saturate": saturate_result}
        originals = dict(rewrite.RULES)
        try:
            for module_name, attr, span in FUNCTION_WRAPS:
                module = importlib.import_module(module_name)
                patch(module, attr, self.wrap(span, getattr(module, attr), observers.get(span)))

            patch(epath.EPath, "insert", self.wrap("epath.insert", epath.EPath.insert, insert_result))

            compute = analysis.Analyses.__dict__["compute"].__func__
            patch(analysis.Analyses, "compute", classmethod(self.wrap("analysis.compute", compute)))

            for name, rule in originals.items():

                def outputs(counts, result, args, key=f"rewrite.{name}.outputs"):
                    counts[key] += len(result)

                rewrite.RULES[name] = rewrite.RewriteRule(
                    name, self.wrap(f"rewrite.{name}", rule.apply, outputs)
                )
            yield self
        finally:
            rewrite.RULES.update(originals)
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def write(self, fh, pass_index: int):
        """Append this tracer's spans to `fh`, one JSON array per line."""
        for i, (name, start, end, parent, fn) in enumerate(self.spans):
            fh.write(json.dumps([pass_index, i, name, start, end, parent, fn]) + "\n")
