"""In-memory span recorder for the traced benchmark run.

A span is one call into a hoedeform layer, recorded from the benchmark's
side of the call: name, start and end (``perf_counter`` seconds), the id of
the enclosing span and the id of the op it belongs to. Spans stay in memory
and are dumped once the run ends. The untraced run uses ``NullRecorder``,
whose spans cost one attribute lookup and an empty context manager.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from statistics import median


class NullRecorder:
    """Recorder used with tracing off: records nothing."""

    def span(self, name):
        return contextlib.nullcontext()


class SpanRecorder:
    def __init__(self):
        self.spans = []  # dicts: id, name, start, end, parent, op
        self._stack = []
        self.op_id = None

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "op": self.op_id}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans):
    """Self time per span id: duration minus the time its children cover.

    Children of one span run one after another, so the covered time is the
    sum of their durations.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def per_op_layer_self(spans):
    """{op id: {span name: summed self time}} plus {op id: op span duration}.

    The op's own span appears under the name ``op``; its self time is the
    op span minus every stage span directly inside it.
    """
    own = self_times(spans)
    layers = defaultdict(lambda: defaultdict(float))
    op_span = {}
    for s in spans:
        layers[s["op"]][s["name"]] += own[s["id"]]
        if s["parent"] is None:
            op_span[s["op"]] = s["end"] - s["start"]
    return {k: dict(v) for k, v in layers.items()}, op_span


def summary(spans):
    """Median self seconds per layer over ops, with the closure residual.

    ``max_closure_error_s`` is the largest difference, over ops, between the
    op span and the sum of all self times inside it; it is zero up to float
    rounding because self times partition the op span.
    """
    layers, op_span = per_op_layer_self(spans)
    names = sorted({n for per in layers.values() for n in per})
    table = {n: median(per.get(n, 0.0) for per in layers.values()) for n in names}
    closure = max((abs(op_span[op] - sum(per.values())) for op, per in layers.items()), default=0.0)
    return {"ops": len(op_span), "median_self_s": table, "median_op_s": median(op_span.values()),
            "max_closure_error_s": closure}
