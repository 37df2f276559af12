"""In-memory spans and counts around the program's public functions.

The tracer replaces every binding of a traced function in the loaded
sdrelax modules (the defining module and each module that imported the
name) with a wrapper, so calls made inside the program are seen too. A
span records (name, start, end, parent, op); a count-only wrapper just
increments a counter, for calls too small to time without swamping them.
Nothing is recorded outside an operation, so warm-up and output checks
do not show in the figures.
"""

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

# (module, function) pairs: spans time each call, counts only count it.
SPAN_TARGETS = (
    ("sdrelax.cli", "run"),
    ("sdrelax.relaxed", "verify_trace_sandwich"),
    ("sdrelax.cell", "estimate_relaxed_bulk"),
    ("sdrelax.cell", "frame_grid_minimum"),
    ("sdrelax.cell", "estimate_relaxed_surface"),
    ("sdrelax.cell", "realize_bulk_competitor"),
    ("sdrelax.fields", "staircase_sequence"),
    ("sdrelax.fields", "jump_measure"),
    ("sdrelax.energy", "energy"),
    ("sdrelax.optdesign", "relaxed_design_energy"),
    ("sdrelax.optdesign", "estimate_interface_cell"),
)
COUNT_TARGETS = (
    ("sdrelax.core", "frame_cost"),
    ("sdrelax.geometry", "polygon_quadrature2"),
    ("sdrelax.geometry", "clip_polygon_halfspace"),
)

SURFACE_EVALS = "energy.surface_density.evals"
INTERFACE_LOOKUPS = "optdesign.interface_lookups"
INTERFACE_NO_JUMP = "optdesign.estimate_interface_cell.no_jump_calls"


def _no_jump(data, *args, **kwargs):
    return bool(np.array_equal(data.c, data.d))


# Span name -> (counter, predicate on the call's arguments).
ARGUMENT_COUNTS = {"optdesign.estimate_interface_cell": (INTERFACE_NO_JUMP, _no_jump)}


def label(module, function):
    return f"{module.split('.', 1)[1]}.{function}"


class Tracer:
    """Collects spans and counts while an operation is open."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans = []        # [name, start, end, parent, op]
        self.counts = Counter()  # (name, op) -> calls
        self._stack = []
        self.op = None
        self._undo = []

    @property
    def active(self):
        return self.op is not None

    # -- operations -----------------------------------------------------

    def run_op(self, op_index, name, fn):
        """Run fn() as operation op_index, under a root span named op:<name>."""
        self.op = op_index
        try:
            return self._in_span(f"op:{name}", fn, (), {})
        finally:
            self.op = None

    def _in_span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self._clock(), None, parent, self.op])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][2] = self._clock()

    # -- wrappers -------------------------------------------------------

    def span_wrapper(self, name, fn):
        argument_count = ARGUMENT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.count(f"{name}.calls")
            if argument_count is not None and argument_count[1](*args, **kwargs):
                self.count(argument_count[0])
            return self._in_span(name, fn, args, kwargs)
        return wrapped

    def count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapped

    def count(self, name):
        if self.active:
            self.counts[(name, self.op)] += 1

    def install(self):
        """Wrap every binding of the traced functions in loaded sdrelax modules."""
        for targets, make, suffix in ((SPAN_TARGETS, self.span_wrapper, ""),
                                      (COUNT_TARGETS, self.count_wrapper, ".calls")):
            for module, function in targets:
                original = getattr(sys.modules[module], function)
                wrapper = make(label(module, function) + suffix, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "sdrelax" and not mod_name.startswith("sdrelax."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._undo.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    # -- aggregation ----------------------------------------------------

    def self_seconds(self, ops, factors):
        """Reference-corrected self time per span name over the given ops.

        A span's self time is its duration minus the durations of its child
        spans; children never overlap because the program is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op in ops:
                out[name] += (end - start - child[i]) * factors[op]
        return out

    def counts_over(self, ops):
        out = Counter()
        for (name, op), n in self.counts.items():
            if op in ops:
                out[name] += n
        return out

    def write(self, path, header):
        body = dict(header)
        body["counts"] = dict(self.counts_over({op for _, op in self.counts}))
        body["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
