"""Tests of the benchmark's own inputs, spans and metric names.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import time

import pytest

from repro.align.pipeline import align_and_distribute
from repro.lang.parser import parse
from repro.lang.typecheck import typecheck
from repro.obs.check import validate_chrome_trace

from perfbench import worker
from perfbench.check import simulate
from perfbench.kernels import KERNELS
from perfbench.spans import Tracer, layer_table, spans_around
from perfbench.workloads import (
    EXTENTS,
    ServeStream,
    SERVE_REQUESTS,
    corpus_inputs,
    extent_inputs,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernel_parses_typechecks_and_plans(name):
    source, reason = KERNELS[name]
    assert reason
    program = parse(source, name=name)
    typecheck(program)
    plan = align_and_distribute(program, 4)
    assert plan.distribution is not None
    assert simulate(plan.adg, plan.alignments, plan.total_cost, plan.distribution, None) == []


def test_inputs_are_fixed_and_distinct():
    assert corpus_inputs() == corpus_inputs()
    names = [i.name for i in corpus_inputs()]
    assert len(names) == len(set(names))
    assert {i.extent for i in extent_inputs()} == set(EXTENTS)


def _take(stream, n):
    it = iter(stream)
    return [next(it) for _ in range(n)]


def test_serve_stream_is_deterministic_and_mixed():
    a, b = _take(ServeStream(), 200), _take(ServeStream(), 200)
    assert a == b
    assert {r.kind for r in a} == {"repeat", "machine", "edit", "unseen"}
    known = {r.name for r in ServeStream().primed}
    for r in a:
        if r.kind == "edit":
            assert r.base in known
        known.add(r.name)


def test_serve_edits_typecheck_and_reach_structural_classes():
    edits = [r for r in _take(ServeStream(), SERVE_REQUESTS) if r.kind == "edit"]
    assert edits
    for r in edits:
        typecheck(parse(r.source, name=r.name))
    # Not only label edits: an offset or structural edit makes the delta
    # path re-run alignment passes.
    assert {r.edit for r in edits} - {"op_swap", "intrinsic_swap"}


def test_self_time_subtracts_children_and_exports():
    tracer = Tracer()
    with tracer.span("bench.request", 0):
        with tracer.span("align.axis_stride", 0):
            time.sleep(0.01)
        with tracer.span("distrib.distribute", 0):
            time.sleep(0.005)
    own = tracer.self_times()
    root = tracer.spans[0][2] - tracer.spans[0][1]
    assert own[0] == pytest.approx(root - own[1] - own[2])
    assert sum(own) == pytest.approx(root)
    assert [row[0] for row in layer_table(tracer)][0] == "align"
    assert validate_chrome_trace(tracer.to_chrome()) == []


class _Base:
    def run(self, x):
        return x + 1


class _Child(_Base):
    pass


def test_spans_around_wraps_inside_requests_and_restores():
    tracer = Tracer()
    seen = []
    targets = [
        (_Child, "run", "align.axis_stride", lambda rid, args, result: seen.append((rid, args[1], result))),
        (random, "random", "lang.parse"),
    ]
    with spans_around(tracer, targets):
        assert _Child().run(1) == 2  # outside any request: no span
        with tracer.span("serve.handle", 7):
            assert _Child().run(2) == 3
            assert _Base().run(0) == 1  # the base class is not wrapped
            random.random()
    assert seen == [(7, 2, 3)]
    assert "run" not in vars(_Child)
    assert random.random.__name__ == "random"
    assert [(name, parent, rid) for name, _, _, parent, rid in tracer.spans] == [
        ("serve.handle", -1, 7),
        ("align.axis_stride", 0, 7),
        ("lang.parse", 0, 7),
    ]


def test_benchmark_json_names_every_measured_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    layer = {f"{s}.ms" for s in worker.PASS_SPANS} | set(worker.COUNTS)
    layer |= {f"{name}.n{n}" for name in layer for n in EXTENTS}
    layer |= {f"{s}.ms" for s in worker.SERVE_SPANS}
    layer |= {"passes.reuse_check.ms", "serve.hit_ratio", "serve.cache.stores"}
    layer |= {"serve.cache.evictions", "serve.delta_stale", "serve.rejected"}
    layer |= {"machine.check.ms", "machine.check.failures", "trace.overhead_pct"}
    for _, label in worker.SERVE_OUTCOMES:
        layer |= {f"serve.{label}.ms.p50", f"serve.{label}.count"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    e2e = {m["name"] for m in spec["end_to_end"]}
    assert e2e - {"setup_s"} == {
        "plans_per_s",
        "latency_ms.p50",
        "peak_rss_mb",
        "plan_cost.align",
        "plan_cost.hops",
    }
