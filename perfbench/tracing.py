"""Span and counter tracing of bushgeo layers from outside the package.

`Tracer.install()` replaces each layer function listed in `TARGETS` with a
timing wrapper under every name that bushgeo's modules (and the benchmark)
look it up by, so calls between modules are traced as well as the
benchmark's own calls.  `Tracer.remove()` puts every original object back.

Spans are kept in memory as ``[name, parent, start, end]`` records and
turned into per-layer self times only at the end: a span's self time is its
duration minus the durations of its direct children.  The benchmark opens a
root span per set-up, per op and for the probe, so the self times of one op
add up to that op's wall time.  Allocation peaks come from a separate
"alloc" phase after the timed loop, because tracemalloc slows every
allocation it sees.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
import weakref

# (span name, module, attribute[, class]).  spaces.dist and spaces.norm are
# left out on purpose: they run once per coordinate pair inside other layers
# and wrapping them would dominate the self times being measured.
TARGETS = (
    ("bushes.validate_bush", "bushgeo.bushes", "validate_bush", None),
    ("lines.line_for_label", "bushgeo.lines", "line_for_label", None),
    ("lines.intermediate_for_label", "bushgeo.lines", "intermediate_for_label", None),
    ("lines.eval_batch", "bushgeo.lines", "eval_batch", "BrokenLine"),
    ("lines.vertices", "bushgeo.lines", "vertices", "BrokenLine"),
    ("families.paste", "bushgeo.families", "paste", None),
    ("families.challenge_respond", "bushgeo.families", "challenge_respond", None),
    ("families.validate_witness", "bushgeo.families", "validate_witness", None),
    ("families.brute_force_alpha", "bushgeo.families", "brute_force_alpha", None),
    ("gauge.<kind>", "bushgeo.gauge", "gauge_decompose", None),
    ("simplex.solve_lp", "bushgeo.simplex", "solve_lp", None),
    ("formats.load_json", "bushgeo.formats", "load_json", None),
    ("formats.bush_from_dict", "bushgeo.formats", "bush_from_dict", None),
    ("formats.dumps_report", "bushgeo.formats", "dumps_report", None),
    ("cli.main", "bushgeo.cli", "main", None),
)

LAYERS = ("bushes", "lines", "families", "gauge", "simplex", "formats", "cli")

_LINE_BUILDERS = ("lines.line_for_label", "lines.intermediate_for_label")


def _bushgeo_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "bushgeo" or name.startswith("bushgeo."))
    ]


class Tracer:
    """Wraps the layer functions and records spans and counters."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self.counters = {}  # (root name, counter) -> value
        self.errors = dict.fromkeys(LAYERS, 0)
        self.peak_alloc = 0
        self._in_builder = False
        self._seen_lines = weakref.WeakSet()

    # ------------------------------------------------------------ spans

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def root(self):
        """Name of the root span currently open (set-up, op or probe)."""
        return self.spans[self._stack[0]][0] if self._stack else None

    def count(self, name, value=1):
        key = (self.root(), name)
        self.counters[key] = self.counters.get(key, 0) + value

    # --------------------------------------------------------- wrapping

    def _wrap(self, name, fn):
        tracer = self
        layer = name.split(".")[0]
        builds_lines = name in _LINE_BUILDERS
        per_kind = name.endswith("<kind>")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name.replace("<kind>", args[0].kind) if per_kind else name
            parent = tracer.spans[tracer._stack[-1]][0] if tracer._stack else ""
            # tracemalloc runs only in the separate "alloc" phase, where the
            # peak of each outermost line construction is recorded
            alloc_base = None
            if builds_lines and not tracer._in_builder and tracemalloc.is_tracing():
                tracer._in_builder = True
                tracemalloc.reset_peak()
                alloc_base = tracemalloc.get_traced_memory()[0]
            index = tracer.open(span_name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # count an exception once per layer it escapes
                if not parent.startswith(layer + "."):
                    tracer.errors[layer] += 1
                raise
            finally:
                if alloc_base is not None:
                    peak = tracemalloc.get_traced_memory()[1] - alloc_base
                    tracer.peak_alloc = max(tracer.peak_alloc, peak)
                    tracer._in_builder = False
                tracer.close(index)
            tracer._record(span_name, args, result)
            return result

        return wrapper

    def _record(self, name, args, result):
        if name in _LINE_BUILDERS:
            if result in self._seen_lines:
                self.count("lines.memo_hits")
            else:
                self._seen_lines.add(result)
                self.count("lines.terms_built", len(result.terms))
        elif name == "lines.eval_batch":
            self.count("lines.eval_batch.points", len(args[1]))
        elif name == "families.brute_force_alpha":
            self.count("families.brute_force_alpha.challenges", result.n_challenges)
        elif name == "simplex.solve_lp":
            self.count("simplex.lp_cells", len(args[1]) * len(args[0]))
        elif name == "formats.load_json":
            self.count("formats.bytes_read", os.path.getsize(args[0]))
        elif name == "formats.dumps_report":
            self.count("formats.bytes_written", len(result.encode()) + 1)

    def install(self):
        modules = _bushgeo_modules()
        for name, modname, attr, clsname in TARGETS:
            module = sys.modules[modname]
            if clsname is not None:
                cls = getattr(module, clsname)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, original))
                self._patched.append((cls, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def remove(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ---------------------------------------------------------- results

    def self_times(self):
        """Per root name: {span name: (calls, total self seconds)}."""
        child = [0.0] * len(self.spans)
        roots = [None] * len(self.spans)
        for i, (name, parent, start, end) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                roots[i] = roots[parent]
            else:
                roots[i] = name
        out = {}
        for i, (name, parent, start, end) in enumerate(self.spans):
            calls, total = out.setdefault(roots[i], {}).get(name, (0, 0.0))
            out[roots[i]][name] = (calls + 1, total + (end - start) - child[i])
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, parent, start, end in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "start": start, "end": end}))
                fh.write("\n")

    def layer_metrics(self):
        """Per-layer metrics; times and counts are per timed op."""
        selfs = self.self_times()
        ops = selfs.get("op", {})
        n_ops = ops.get("op", (0, 0.0))[0]
        per_op = 1 / n_ops if n_ops else 0.0

        def calls(name):
            return ops.get(name, (0, 0.0))[0] * per_op

        def self_s(name):
            return ops.get(name, (0, 0.0))[1] * per_op

        def counter(name):
            return self.counters.get(("op", name), 0) * per_op

        setups = selfs.get("setup", {})
        n_setups = setups.get("setup", (0, 0.0))[0]
        line_calls = ops.get("lines.line_for_label", (0, 0.0))[0] + ops.get(
            "lines.intermediate_for_label", (0, 0.0)
        )[0]
        metrics = {
            "bushes.validate_bush.calls": calls("bushes.validate_bush"),
            "bushes.validate_bush.self_s": self_s("bushes.validate_bush"),
            "setup.bushes.validate_bush.self_s": (
                setups.get("bushes.validate_bush", (0, 0.0))[1] / n_setups if n_setups else 0.0
            ),
            "lines.line_for_label.calls": calls("lines.line_for_label"),
            "lines.line_for_label.self_s": self_s("lines.line_for_label"),
            "lines.intermediate_for_label.self_s": self_s("lines.intermediate_for_label"),
            "lines.memo_hit_ratio": (
                self.counters.get(("op", "lines.memo_hits"), 0) / line_calls if line_calls else 0.0
            ),
            "lines.terms_built": counter("lines.terms_built"),
            "lines.peak_alloc_mb": self.peak_alloc / 2**20,
            "lines.eval_batch.calls": calls("lines.eval_batch"),
            "lines.eval_batch.points": counter("lines.eval_batch.points"),
            "lines.eval_batch.self_s": self_s("lines.eval_batch"),
            "families.paste.self_s": self_s("families.paste"),
            "families.challenge_respond.self_s": self_s("families.challenge_respond"),
            "families.validate_witness.self_s": self_s("families.validate_witness"),
            "families.brute_force_alpha.self_s": self_s("families.brute_force_alpha"),
            "families.brute_force_alpha.challenges": counter(
                "families.brute_force_alpha.challenges"
            ),
            "gauge.wl1.self_s": self_s("gauge.wl1"),
            "gauge.linf.self_s": self_s("gauge.linf"),
            "simplex.solve_lp.calls": calls("simplex.solve_lp"),
            "simplex.solve_lp.self_s": self_s("simplex.solve_lp"),
            "simplex.lp_cells": counter("simplex.lp_cells"),
            "formats.load_json.self_s": self_s("formats.load_json"),
            "formats.bush_from_dict.self_s": self_s("formats.bush_from_dict"),
            "formats.dumps_report.self_s": self_s("formats.dumps_report"),
            "formats.bytes_read": counter("formats.bytes_read"),
            "formats.bytes_written": counter("formats.bytes_written"),
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_s": self_s("cli.main"),
        }
        for layer in LAYERS:
            metrics[f"{layer}.errors"] = self.errors[layer]
        metrics.update({
            "trace.ops": n_ops,
            "trace.op_wall_s": per_op * sum(
                end - start for name, parent, start, end in self.spans if parent < 0 and name == "op"
            ),
            "trace.unattributed_s": self_s("op"),
        })
        return metrics
