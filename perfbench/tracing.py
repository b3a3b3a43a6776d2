"""Spans recorded by the benchmark around its calls into `crackqc`.

A span is (id, parent id, name, start, end) in `time.perf_counter` seconds.
Every op is a root span named "op"; each call the op makes into a public
`crackqc` function is a child span named `<module>.<function>`, the name
being taken from the function itself so it cannot drift from the code.
Counts (Newton iterations, curve rows, oracle gaps, ...) are recorded at the
same boundaries under their metric name.

The untraced run uses `NullTracer`, whose methods call straight through, so
both runs execute the same op code.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

LAYERS = ("material", "effective", "lattice", "bifurcation", "cli")


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class NullTracer:
    """Tracing off: no spans, no counts."""

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return contextlib.nullcontext()

    def count(self, name, value):
        pass


class Tracer:
    """Keeps spans and counts in memory until the run ends."""

    def __init__(self):
        self.spans = []          # [id, parent, name, start, end]
        self.counts = defaultdict(list)
        self._stack = []
        self._names = {}

    def _open(self, name):
        record = [len(self.spans), self._stack[-1] if self._stack else None,
                  name, 0.0, 0.0]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    @contextlib.contextmanager
    def span(self, name):
        record = self._open(name)
        record[3] = time.perf_counter()
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def call(self, fn, *args, **kwargs):
        # The hot path: no context manager, names cached per function.
        name = self._names.get(fn)
        if name is None:
            name = self._names[fn] = span_name(fn)
        record = self._open(name)
        record[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts[name].append(value)


def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap
    and their durations can simply be summed.
    """
    child_time = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    return {sid: (end - start) - child_time[sid]
            for sid, _, _, start, end in spans}


def layer_metrics(tracer: Tracer):
    """Per-function and per-layer statistics from the traced ops.

    For every span name: `.calls`, `.busy_s` and the median in two units
    (`.p50_us`, `.p50_ms`); the caller keeps the ones it declares.  For
    every layer: `<layer>.busy_s` over its top-level spans.
    """
    durations = defaultdict(list)
    for _, _, name, start, end in tracer.spans:
        durations[name].append(end - start)
    out = {}
    for name, values in durations.items():
        p50 = statistics.median(values)
        out.update({f"{name}.calls": len(values),
                    f"{name}.busy_s": sum(values),
                    f"{name}.p50_us": p50 * 1e6,
                    f"{name}.p50_ms": p50 * 1e3})
    op_ids = {s[0] for s in tracer.spans if s[2] == "op"}
    top = [s for s in tracer.spans if s[1] in op_ids]
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = sum(end - start for _, _, name, start, end
                                     in top if name.startswith(layer + "."))
    op_busy = out.get("op.busy_s", 0.0)
    covered = sum(end - start for _, _, _, start, end in top)
    selfs = self_times(tracer.spans)
    out["bench.layer_coverage"] = covered / op_busy if op_busy else 0.0
    out["bench.op_self_s"] = sum(selfs[sid] for sid in op_ids)
    for name, values in tracer.counts.items():
        out[f"{name}.mean"] = statistics.fmean(values)
        out[f"{name}.max"] = max(values)
        out[f"{name}.sum"] = sum(values)
    return out
