"""In-memory spans recorded by the benchmark around calls into the planner.

A span is ``[name, start, end, parent, request]``: ``parent`` is the
index of the enclosing span (``-1`` for a root) and ``request`` ties
the spans of one plan or serve request together.  Spans stay in memory
while the benchmark measures and are written out once at the end, as
Chrome trace-event JSON that ``python -m repro.obs.check`` validates
and Chrome's trace viewer or Perfetto opens.

The layer of a span is the first dotted component of its name
(``align.axis_stride`` belongs to ``align``).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: int):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, request]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def request(self) -> int:
        """Request id of the innermost open span; ``-1`` when none is open."""
        return self.spans[self._stack[-1]][4] if self._stack else -1

    def self_times(self) -> list[float]:
        """Seconds of each span not covered by its children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_by_name(self, request_filter=None) -> dict[str, list[float]]:
        """Self seconds of every span, grouped by name, in record order."""
        out: dict[str, list[float]] = defaultdict(list)
        for rec, own in zip(self.spans, self.self_times()):
            if request_filter is None or request_filter(rec[4]):
                out[rec[0]].append(own)
        return out

    def to_chrome(self) -> dict:
        """The spans as a Chrome trace-event document."""
        base = min((s[1] for s in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 1,
                "args": {"name": "perfbench"},
            }
        ]
        for name, start, end, parent, request in self.spans:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((start - base) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                    "pid": pid,
                    "tid": 1,
                    "args": {
                        "request": request,
                        "parent": self.spans[parent][0] if parent >= 0 else None,
                    },
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.to_chrome(), f)


_ABSENT = object()


def _traced(tracer: Tracer, name: str, fn, after=None):
    def call(*args, **kwargs):
        if not tracer._stack:
            return fn(*args, **kwargs)
        with tracer.span(name, tracer.request()):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer.request(), args, result)
        return result

    return call


@contextmanager
def spans_around(tracer: Tracer, targets):
    """While the block runs, record a span around every call of each
    ``(owner, attribute, span name[, after])`` target made inside an open
    span, in that span's request, and then call ``after(request, args,
    result)`` if given.  This reaches layer entry points that the
    planner calls internally (``PlanService`` runs its passes itself);
    the attributes are restored afterwards."""
    saved = []
    try:
        for owner, attr, name, *after in targets:
            saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
            setattr(owner, attr, _traced(tracer, name, getattr(owner, attr), *after))
        yield
    finally:
        for owner, attr, old in reversed(saved):
            if old is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def layer_table(tracer: Tracer) -> list[tuple[str, float, float]]:
    """``(layer, self seconds, share of all self time)`` rows, largest first."""
    totals: dict[str, float] = defaultdict(float)
    for rec, own in zip(tracer.spans, tracer.self_times()):
        totals[rec[0].split(".", 1)[0]] += own
    whole = sum(totals.values()) or 1.0
    return sorted(
        ((layer, sec, sec / whole) for layer, sec in totals.items()),
        key=lambda row: -row[1],
    )
