"""One workload run, in a fresh process so that peak RSS belongs to it.

Run by ``perfbench/run.py``; prints one JSON object as its last line::

    python3 perfbench/worker.py --workload corpus --seed 1 --seconds 15 \
        --trace 0 --workdir perfbench/out/run-1

``--setup-only`` measures set-up (importing ``repro``, and on ``serve``
constructing the ``PlanService`` over the primed disk cache in
``--workdir``) at the reference speed, and stops there.

Load comes from this one thread in a closed loop: the next plan or
request starts only after the previous one returned.  Time spent
between requests (clearing the kernel memo tables and collecting
garbage before a cold plan, timing the reference loop, bookkeeping)
is off the clock.  A run measures in whole passes over the corpus or
extent inputs or over the serve stream, at least ``MIN_PASSES``, until
its summed latencies reach ``--seconds``; an input's or a request's
latency is its median over the passes, at the reference speed.
"""

from __future__ import annotations

import argparse
import collections
import gc
import itertools
import json
import os
import pickle
import random
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Pipeline goals in pass order, each with the span recorded around the
#: ``Pipeline.run`` call that reaches it (exactly one pass per call).
PASS_STEPS = (
    ("typeinfo", "lang.typecheck"),
    ("adg", "adg.build"),
    ("skeletons", "align.axis_stride"),
    ("offsets", "align.replication_offsets"),
    ("plan", "align.assemble"),
    ("profile", "distrib.comm_profile"),
    ("distribution", "distrib.distribute"),
)
PASS_ORDER = [
    "typecheck",
    "build-adg",
    "axis-stride",
    "replication-offsets",
    "assemble",
    "comm-profile",
    "distribute",
]
PASS_SPANS = ("lang.parse",) + tuple(span for _, span in PASS_STEPS)
#: Spans of the serve layer itself on a traced serve run: the service
#: outside the planner's passes, and its disk cache.
SERVE_SPANS = ("serve.handle", "serve.cache")
COUNTS = (
    "align.replication_offsets.rounds",
    "distrib.profile.elements",
    "distrib.candidates",
    "distrib.inexact",
    "adg.nodes",
    "adg.edges",
)
SERVE_OUTCOMES = (("plan", "plan_hit"), ("prefix", "prefix_hit"), ("delta", "delta"), (None, "cold"))


def _distribution_counts(ctx) -> dict:
    dplan = ctx.get("distribution")
    return {"distrib.candidates": dplan.searched, "distrib.inexact": 0 if dplan.exact else 1}


#: The counts of :data:`COUNTS`, read from a context by the pass that
#: produced them: once a plan is solved on corpus and extent, and right
#: after each pass run inside a request on serve.
PASS_COUNTS = {
    "build-adg": lambda ctx: {
        "adg.nodes": len(ctx.get("adg").nodes),
        "adg.edges": len(ctx.get("adg").edges),
    },
    "replication-offsets": lambda ctx: {
        "align.replication_offsets.rounds": ctx.get("replication_rounds")
    },
    "comm-profile": lambda ctx: {"distrib.profile.elements": ctx.get("profile").elements},
    "distribute": _distribution_counts,
}

#: Passes every untraced run completes, over the corpus or extent
#: inputs or over the serve stream: each input's or request's latency
#: is its median over the passes.
MIN_PASSES = 3

#: Processes of the off-the-clock check pool.
CHECK_JOBS = 2

#: Iterations of the reference loop that gauges the host's speed.
REFERENCE_LOOPS = 60_000

#: Seconds the reference loop takes at the reference speed (its median
#: on the 2-vCPU machine the README quotes).  Timing metrics are given
#: as if every sample had run at this speed.
REFERENCE_S = 0.004

#: Samples on each side of a sample whose reference-loop times give the
#: host's speed at that sample.
SPEED_WINDOW = 5

#: Iterations of the reference loops timed just before and just after
#: set-up.  A set-up takes about a second, so the loops around it run
#: about 40 ms each: over 30 fresh processes, set-up time and the mean
#: of two such loops correlated at 0.73.
SETUP_REFERENCE_LOOPS = 10 * REFERENCE_LOOPS


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_loop(loops: int = REFERENCE_LOOPS) -> float:
    """Seconds a fixed pure-Python loop takes now: the host's speed.

    The host's speed drifts by tens of percent over seconds and from
    one run to the next, and all Python code slows and speeds up with
    it.  The loop is the benchmark's own code, so no change to the
    planner moves it.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i * i
    return time.perf_counter() - t0


def at_reference_speed(samples: list[dict]) -> list[float]:
    """Each sample's seconds as if run at the reference speed: scaled by
    ``REFERENCE_S`` over the median reference-loop time of the samples
    within ``SPEED_WINDOW`` of it."""
    refs, w = [s["ref"] for s in samples], SPEED_WINDOW
    return [
        s["s"] * REFERENCE_S / statistics.median(refs[max(0, i - w) : i + w + 1])
        for i, s in enumerate(samples)
    ]


def tally(items) -> str:
    """``"a 3, b 1"``: how often each item occurs, by item."""
    return ", ".join(f"{k} {v}" for k, v in sorted(collections.Counter(items).items()))


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def beyond(n: int, p: int) -> float:
    """Samples above the p-th percentile of n samples."""
    return n * (100 - p) / 100.0


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_repro() -> float:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        # Never measure some other installed copy of the planner.
        raise SystemExit(f"no planner sources under {src}")
    t0 = time.perf_counter()
    sys.path[:0] = [src, ROOT]
    import repro  # noqa: F401
    import repro.machine.executor  # noqa: F401
    import repro.passes  # noqa: F401
    import repro.serve  # noqa: F401

    return time.perf_counter() - t0


def measure_setup(workload: str, workdir: str) -> float:
    """Seconds of set-up at the reference speed: importing ``repro`` and,
    on serve, constructing the ``PlanService`` over the primed cache in
    ``workdir``, scaled by the reference loops timed around them."""
    before = reference_loop(SETUP_REFERENCE_LOOPS)
    took = import_repro()
    if workload == "serve":
        svc, built = open_service(os.path.join(workdir, "primed"))
        svc.close()
        took += built
    after = reference_loop(SETUP_REFERENCE_LOOPS)
    speed = (before + after) / 2 * REFERENCE_LOOPS / SETUP_REFERENCE_LOOPS
    return took * REFERENCE_S / speed


def open_service(cache_dir: str):
    """A one-job ``PlanService`` warm-started from ``cache_dir``, and the
    seconds construction took."""
    from repro.serve import PlanService

    from perfbench.workloads import SERVE_CACHE_ENTRIES

    t0 = time.perf_counter()
    svc = PlanService(cache_dir=cache_dir, max_entries=SERVE_CACHE_ENTRIES, jobs=1)
    return svc, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# corpus and extent: cold plans
# ---------------------------------------------------------------------------


def plan_untraced(inp):
    from repro.align.pipeline import plan_context
    from repro.lang.parser import parse
    from repro.passes import MachineSpec, Pipeline

    ctx = plan_context(parse(inp.source, name=inp.name))
    ctx.put("machine", MachineSpec.of(inp.nprocs, topology=inp.topology))
    Pipeline().run(ctx, goal=("plan", "distribution"))
    return ctx


def plan_traced(inp, tracer, rid: int):
    from repro.align.pipeline import plan_context
    from repro.lang.parser import parse
    from repro.passes import MachineSpec, Pipeline

    with tracer.span("bench.request", rid):
        with tracer.span("lang.parse", rid):
            program = parse(inp.source, name=inp.name)
        ctx = plan_context(program)
        ctx.put("machine", MachineSpec.of(inp.nprocs, topology=inp.topology))
        pipeline = Pipeline()
        for goal, span in PASS_STEPS:
            with tracer.span(span, rid):
                pipeline.run(ctx, goal=goal)
    return ctx


def describe(ctx) -> dict:
    """What a solved context reports: costs, counts and the passes run."""
    dplan = ctx.get("distribution")
    info = {
        "total_cost": ctx.get("total_cost"),
        "directive": dplan.directive(),
        "hops": dplan.cost.hops,
        "ran": [ev["pass"] for ev in ctx.trace if ev["event"] == "run"],
    }
    for read in PASS_COUNTS.values():
        info.update(read(ctx))
    return info


def run_passes(inputs, seed, seconds, min_passes, max_passes=None, tracer=None):
    """Whole passes over ``inputs`` (in seeded order when ``seed`` is
    not None, else as given) until ``seconds`` of
    plan time and ``min_passes`` passes, or ``max_passes`` passes;
    returns per-plan samples, the first pass's descriptions and check
    tasks, reuse-check times and the problems found."""
    from repro import cachestats
    from repro.passes import Pipeline

    rng = None if seed is None else random.Random(seed)
    samples, first, tasks, reuse_ms, problems = [], {}, [], [], []
    clock, done = 0.0, 0
    while (clock < seconds or done < min_passes) and done != max_passes:
        for inp in inputs if rng is None else rng.sample(inputs, len(inputs)):
            cachestats.clear_caches()
            gc.collect()
            rid = len(samples)
            ref = reference_loop()
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    ctx = plan_untraced(inp)
                else:
                    ctx = plan_traced(inp, tracer, rid)
            except Exception as exc:  # noqa: BLE001 - a failed plan is a sample
                dt = time.perf_counter() - t0
                clock += dt
                samples.append(
                    {
                        "key": inp.name,
                        "name": inp.name,
                        "extent": inp.extent,
                        "s": dt,
                        "ref": ref,
                        "ok": False,
                    }
                )
                problems.append(f"{inp.name}: {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            clock += dt
            info = describe(ctx)
            ok = True
            if tracer is not None and info["ran"] != PASS_ORDER:
                ok = False
                problems.append(f"{inp.name}: stepped goals ran passes {info['ran']}")
            if inp.name not in first:
                first[inp.name] = info
                plan = ctx.get("plan")
                tasks.append(
                    (
                        info["distrib.profile.elements"],
                        (
                            inp.name,
                            plan.adg,
                            plan.alignments,
                            plan.total_cost,
                            ctx.get("distribution"),
                            inp.topology,
                        ),
                    )
                )
            elif (first[inp.name]["total_cost"], first[inp.name]["directive"]) != (
                info["total_cost"],
                info["directive"],
            ):
                ok = False
                problems.append(f"{inp.name}: plan differs between passes")
            if tracer is not None:
                with tracer.span("passes.reuse_check", rid):
                    t1 = time.perf_counter()
                    Pipeline().run(ctx, goal=("plan", "distribution"))
                    reuse_ms.append((time.perf_counter() - t1) * 1e3)
            samples.append(
                {
                    "key": inp.name,
                    "name": inp.name,
                    "extent": inp.extent,
                    "s": dt,
                    "ref": ref,
                    "ok": ok,
                    **info,
                }
            )
        done += 1
    tasks.sort(key=lambda t: -t[0])
    return samples, first, [t for _, t in tasks], reuse_ms, problems


def plan_workload(args, inputs, seed) -> dict:
    from perfbench.check import check_plan, run_pool
    from perfbench.spans import Tracer

    out: dict = {}
    if not args.trace:
        samples, first, tasks, _, problems = run_passes(inputs, seed, args.seconds, MIN_PASSES)
        out["rss"] = rss_mb()
    else:
        base, _, _, _, problems0 = run_passes(inputs, seed, args.seconds / 2, 1)
        npasses = len(base) // len(inputs)
        tracer = Tracer()
        samples, first, tasks, reuse_ms, problems = run_passes(
            inputs, seed, 0, npasses, npasses, tracer
        )
        out["tracer"] = tracer
        out["reuse_ms"] = reuse_ms
        problems = problems0 + problems
        for s in base:
            d = first.get(s["name"])
            if s["ok"] and (
                d is None
                or (d["total_cost"], d["directive"]) != (s["total_cost"], s["directive"])
            ):
                s["ok"] = False
                problems.append(f"{s['name']}: untraced plan differs from the traced one")
        out["base"] = base
    t0 = time.perf_counter()
    results = run_pool(check_plan, tasks, CHECK_JOBS)
    out["check_ms"] = (time.perf_counter() - t0) * 1e3
    out["check_ms_by_key"] = {r["key"]: r["ms"] for r in results}
    bad = {r["key"]: r["problems"] for r in results if r["problems"]}
    problems += [f"{k}: {p}" for k, ps in bad.items() for p in ps]
    for s in samples + out.get("base", []):
        if s["name"] in bad:
            s["ok"] = False
    out.update(
        samples=samples,
        problems=problems,
        check_failures=len(bad),
        plan_cost_align=float(sum(d["total_cost"] for d in first.values())),
        plan_cost_hops=float(sum(d["hops"] for d in first.values())),
        distinct=len(first),
    )
    return out


# ---------------------------------------------------------------------------
# serve: a request stream into one PlanService
# ---------------------------------------------------------------------------


def prime(workdir: str) -> dict:
    """Plan the stream's primed programs into ``workdir/primed``; returns
    the program fingerprints the client learned."""
    from repro.serve import PlanService, ServeRequest

    from perfbench.workloads import SERVE_CACHE_ENTRIES, ServeStream

    fps = {}
    with PlanService(
        cache_dir=os.path.join(workdir, "primed"), max_entries=SERVE_CACHE_ENTRIES
    ) as svc:
        for req in ServeStream().primed:
            resp = svc.handle(ServeRequest(req.name, req.source, topology=req.topology))
            if not resp.ok:
                raise RuntimeError(f"priming {req.name} failed: {resp.error}")
            fps[req.name] = resp.fingerprints["program"]
    return fps


def serve_targets(counts: dict, strategies: dict) -> list[tuple]:
    """The layer entry points a request reaches inside ``PlanService``,
    each with its span: parsing, every pass, the disk cache and the
    delta path.  After a pass run inside a request its counts go to
    ``counts[request]``; after a delta replan its strategy goes to
    ``strategies[request]``."""
    from repro.lang import parser
    from repro.passes import delta
    from repro.passes.registry import default_passes
    from repro.serve.cache import PlanCache

    def counted(read):
        return lambda rid, args, _: counts.setdefault(rid, {}).update(read(args[1]))

    def strategy(rid, args, result):
        strategies[rid] = result[1].strategy

    span_of = dict(zip(PASS_ORDER, (span for _, span in PASS_STEPS)))
    passes = [type(p) for p in default_passes() if p.name in span_of]
    targets = []
    for cls in passes:
        after = [counted(PASS_COUNTS[cls.name])] if cls.name in PASS_COUNTS else []
        targets.append((cls, "run", span_of[cls.name], *after))
    targets += [
        (parser, "parse", "lang.parse"),
        (PlanCache, "get", "serve.cache"),
        (PlanCache, "put", "serve.cache"),
        (delta, "replan", "serve.delta", strategy),
    ]
    return targets


def serve_phase(args, fps: dict, live: str, tracer=None):
    """One pass over the request stream, on a fresh copy of the primed
    cache."""
    from repro import cachestats
    from repro.obs.metrics import registry
    from repro.serve import ServeRequest

    from perfbench.spans import spans_around
    from perfbench.workloads import SERVE_REQUESTS, ServeStream

    shutil.copytree(os.path.join(args.workdir, "primed"), live)
    svc, _ = open_service(live)
    fps = dict(fps)
    reg = registry()
    before = {n: reg.counter(f"serve.{n}").value for n in ("delta_stale", "rejected")}
    cachestats.clear_caches()
    samples, counts, strategies = [], {}, {}
    wrapped = (
        nullcontext()
        if tracer is None
        else spans_around(tracer, serve_targets(counts, strategies))
    )
    try:
        with wrapped:
            for i, req in enumerate(itertools.islice(ServeStream(), SERVE_REQUESTS)):
                sreq = ServeRequest(
                    req.name, req.source, topology=req.topology, base_fingerprint=fps.get(req.base)
                )
                ref = reference_loop()
                t0 = time.perf_counter()
                if tracer is None:
                    resp = svc.handle(sreq)
                else:
                    with tracer.span("serve.handle", i):
                        resp = svc.handle(sreq)
                dt = time.perf_counter() - t0
                if resp.ok:
                    fps[req.name] = resp.fingerprints["program"]
                samples.append(
                    {
                        "key": i,
                        "name": req.name,
                        "kind": req.kind,
                        "edit": req.edit,
                        "topology": req.topology,
                        "source": req.source,
                        "s": dt,
                        "ref": ref,
                        "ok": resp.ok,
                        "status": resp.status,
                        "cached": resp.cached,
                        "payload": resp.plan,
                        "error": resp.error,
                    }
                )
        stats = svc.cache.stats.as_dict()
    finally:
        svc.close()
    for rid, sample in enumerate(samples):
        sample.update(counts.get(rid, {}))
        sample["strategy"] = strategies.get(rid)
    after = {n: reg.counter(f"serve.{n}").value for n in ("delta_stale", "rejected")}
    counters = {n: after[n] - before[n] for n in after}
    return samples, stats, counters


def serve_workload(args) -> dict:
    from fractions import Fraction

    from perfbench.check import check_request, run_pool
    from perfbench.spans import Tracer
    from perfbench.workloads import SERVE_REQUESTS, ServeStream

    fps = prime(args.workdir)
    out: dict = {}
    if not args.trace:
        samples, clock, passes = [], 0.0, 0
        while clock < args.seconds or passes < MIN_PASSES:
            live = os.path.join(args.workdir, f"live{passes}")
            run, stats, counters = serve_phase(args, fps, live)
            shutil.rmtree(live, ignore_errors=True)
            passes += 1
            samples += run
            clock += sum(s["s"] for s in run)
        out["rss"] = rss_mb()
    else:
        base, _, _ = serve_phase(args, fps, os.path.join(args.workdir, "live0"))
        tracer = Tracer()
        samples, stats, counters = serve_phase(
            args, fps, os.path.join(args.workdir, "live1"), tracer
        )
        out["tracer"] = tracer
        out["base"] = base
    # The plan-cost sums cover the programs the stream introduces (primed
    # and unseen), each on its home machine: whole blocks of the stream
    # introduce the same programs whatever the seed.
    stream = ServeStream()
    for _ in itertools.islice(stream, SERVE_REQUESTS):
        pass
    sources = {name: src for name, src, _ in stream.programs}
    keys = {key: sources[key[0]] for key in stream.introduced}
    for s in samples + out.get("base", []):
        keys.setdefault((s["name"], s["topology"]), s["source"])
    tasks = [(key, key[0], src, None, key[1]) for key, src in keys.items()]
    t0 = time.perf_counter()
    results = {r["key"]: r for r in run_pool(check_request, tasks, CHECK_JOBS)}
    out["check_ms"] = (time.perf_counter() - t0) * 1e3
    problems = [f"{k}: {p}" for k, r in results.items() for p in r["problems"]]
    for s in samples + out.get("base", []):
        ref = results[(s["name"], s["topology"])]
        if not s["ok"]:
            problems.append(f"{s['name']}: {s['status']}: {s['error']}")
        elif ref["problems"]:
            s["ok"] = False
        elif pickle.dumps(s["payload"], protocol=pickle.HIGHEST_PROTOCOL) != ref["payload"]:
            s["ok"] = False
            problems.append(f"{s['name']} ({s['cached'] or 'cold'}): payload differs from a cold plan")
    costed = [results[key] for key in stream.introduced]
    out.update(
        samples=samples,
        problems=problems,
        check_failures=sum(1 for r in results.values() if r["problems"]),
        plan_cost_align=float(sum(Fraction(r.get("total_cost", 0)) for r in costed)),
        plan_cost_hops=float(sum(r.get("hops", 0) for r in costed)),
        distinct=len(results),
        reuse_ms=[r["reuse_ms"] for r in results.values() if "reuse_ms" in r],
        cache_stats=stats,
        counters=counters,
    )
    return out


# ---------------------------------------------------------------------------
# metrics and report
# ---------------------------------------------------------------------------


def latency_lines(lat_ms: list[float]) -> list[str]:
    """p50/p90/p99 of all samples; a percentile is reported only where at
    least ten samples lie beyond it."""
    n = len(lat_ms)
    lines = [f"latency as measured over all {n} samples:"]
    for p in (50, 90, 99):
        if n >= 2 and beyond(n, p) >= 10:
            lines.append(f"  p{p:<3d} {percentile(lat_ms, p):12.3f} ms")
        else:
            lines.append(
                f"  p{p:<3d} {'not reported':>12s}     ({beyond(n, p):.1f} samples beyond it, needs 10)"
            )
    return lines


def typical_latencies(samples: list[dict], seconds: list[float] | None = None) -> list[float]:
    """Each input's or request's median latency over the passes or
    replays of a run: of ``seconds`` (one per sample), by default the
    samples' times at the reference speed."""
    if seconds is None:
        seconds = at_reference_speed(samples)
    times: dict = {}
    for s, sec in zip(samples, seconds):
        times.setdefault(s["key"], []).append(sec)
    return [statistics.median(t) for t in times.values()]


def e2e_metrics(out: dict) -> dict:
    typical = typical_latencies(out["samples"])
    return {
        "plans_per_s": len(typical) / sum(typical),
        "latency_ms.p50": statistics.median(typical) * 1e3,
        "peak_rss_mb": out["rss"],
        "plan_cost.align": out["plan_cost_align"],
        "plan_cost.hops": out["plan_cost_hops"],
    }


def self_ms(tracer, samples: list[dict], spans, suffix: str = "", keep=lambda s: True) -> dict:
    """Mean self ms per request of each span, over the samples ``keep``
    selects (a span's request id is its sample's index)."""
    chosen = {i for i, s in enumerate(samples) if keep(s)}
    own = tracer.self_by_name(lambda rid: rid in chosen)
    n = max(1, len(chosen))
    return {f"{span}.ms{suffix}": sum(own.get(span, [])) * 1e3 / n for span in spans}


def count_metrics(samples: list[dict], suffix: str = "", keep=lambda s: True) -> dict:
    """Mean counts per run of the pass that gives them, and the number of
    distinct (program, machine) plans found inexact, over the correct
    plans or requests ``keep`` selects.  A plan runs every pass once; a
    serve request runs only the passes its cache outcome needs."""
    ok = [s for s in samples if keep(s) and s["ok"]]
    m = {}
    for c in COUNTS:
        have = [s for s in ok if c in s]
        if c == "distrib.inexact":
            distinct = {(s["name"], s.get("topology")): s[c] for s in have}
            m[c + suffix] = sum(distinct.values())
        else:
            m[c + suffix] = statistics.fmean(s[c] for s in have) if have else 0.0
    return m


def layer_metrics(args, out: dict) -> dict:
    from perfbench.workloads import EXTENTS

    samples, tracer = out["samples"], out["tracer"]
    m = self_ms(tracer, samples, PASS_SPANS + SERVE_SPANS)
    m.update(count_metrics(samples))
    for n in EXTENTS:
        at_n = lambda s, n=n: s.get("extent") == n  # noqa: E731
        m.update(self_ms(tracer, samples, PASS_SPANS, f".n{n}", at_n))
        m.update(count_metrics(samples, f".n{n}", at_n))
    m["passes.reuse_check.ms"] = statistics.median(out["reuse_ms"]) if out["reuse_ms"] else 0.0
    served = [s for s in samples if s.get("status") == "ok"]
    for cached, label in SERVE_OUTCOMES:
        lat = [s["s"] * 1e3 for s in served if s["cached"] == cached]
        m[f"serve.{label}.ms.p50"] = statistics.median(lat) if lat else 0.0
        m[f"serve.{label}.count"] = len(lat)
    m["serve.hit_ratio"] = (
        sum(1 for s in served if s["cached"] is not None) / len(served) if served else 0.0
    )
    stats, counters = out.get("cache_stats", {}), out.get("counters", {})
    m["serve.cache.stores"] = stats.get("stores", 0)
    m["serve.cache.evictions"] = stats.get("evictions", 0)
    m["serve.delta_stale"] = counters.get("delta_stale", 0)
    m["serve.rejected"] = counters.get("rejected", 0)
    m["machine.check.ms"] = out["check_ms"]
    m["machine.check.failures"] = out["check_failures"]
    traced, untraced = (statistics.fmean(at_reference_speed(x)) for x in (samples, out["base"]))
    m["trace.overhead_pct"] = 100.0 * (1.0 - untraced / traced)
    return m


def trace_report(args, out: dict, layer: dict) -> list[str]:
    from perfbench.spans import layer_table
    from perfbench.workloads import EXTENTS

    tracer, samples = out["tracer"], out["samples"]
    lines = [f"self time by layer ({len(samples)} traced requests)"]
    for name, sec, share in layer_table(tracer):
        lines.append(f"  {name:<10s} {sec * 1e3:12.1f} ms  {share:7.1%}")
    if args.workload != "serve":
        # Span times are as measured; scale them by the traced samples'
        # own factor so that they add up against the untraced plans.
        traced = statistics.fmean(at_reference_speed(samples)) * 1e3
        scale = traced / (statistics.fmean(s["s"] for s in samples) * 1e3)
        passes = sum(layer[f"{s}.ms"] for s in PASS_SPANS) * scale
        own = tracer.self_by_name()
        bench = sum(own.get("bench.request", [])) * 1e3 / len(samples) * scale
        untraced = statistics.fmean(at_reference_speed(out["base"])) * 1e3
        lines.append(
            f"per plan at the reference speed: passes {passes:.2f} ms + harness "
            f"{bench:.2f} ms = traced {traced:.2f} ms, untraced {untraced:.2f} ms: "
            f"trace.overhead_pct {layer['trace.overhead_pct']:.2f}"
        )
    if args.workload == "serve":
        edits = [s for s in samples if s["kind"] == "edit" and s["status"] == "ok"]
        lines.append(f"edits: {len(edits)} ({tally(s['edit'] for s in edits)})")
        lines.append(
            "  replanned by delta strategy: "
            + (tally(s["strategy"] for s in edits if s["strategy"]) or "none")
        )
    unit = "request" if args.workload == "serve" else "plan"
    lines.append(f"self time by span (mean ms per {unit})")
    for span in PASS_SPANS + (SERVE_SPANS if args.workload == "serve" else ()):
        lines.append(f"  {span:<28s} {layer[span + '.ms']:10.3f}")
    if args.workload == "extent":
        lines.append("extent scaling (mean per plan over the three shapes)")
        head = "  " + f"{'pass':<28s}" + "".join(f"{'n=' + str(n):>12s}" for n in EXTENTS)
        lines.append(head)
        for key in [s + ".ms" for s in PASS_SPANS] + ["distrib.profile.elements"]:
            lines.append(
                "  " + f"{key:<28s}" + "".join(f"{layer[f'{key}.n{n}']:12.1f}" for n in EXTENTS)
            )
        per_n = {
            n: statistics.fmean(s["s"] for s in samples if s["extent"] == n) for n in EXTENTS
        }
        growth = per_n[EXTENTS[-1]] / per_n[EXTENTS[-2]]
        lines.append(
            "  plan seconds per n: "
            + ", ".join(f"n={n}: {v:.2f}" for n, v in per_n.items())
            + f" (x{growth:.1f} per doubling at the top)"
        )
        checks = out["check_ms_by_key"]
        slowest = max(checks, key=checks.get)
        shape = slowest.rsplit("_n", 1)[0]
        top, prev = checks[slowest] / 1e3, checks[f"{shape}_n{EXTENTS[-2]}"] / 1e3
        lines.append(
            "  not run: n = 800, 1600, 3200, 6400.  The simulator check of "
            f"{shape} grew x{top / prev:.1f} from n={EXTENTS[-2]} to n={EXTENTS[-1]} "
            f"({prev:.1f} s -> {top:.1f} s), so n=800 alone would need about "
            f"{top * top / prev:.0f} s of checking, and plan time grows faster with "
            "every doubling: no n >= 800 fits one 180-s run"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("corpus", "extent", "serve"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if args.setup_only:
        print(json.dumps({"setup_s": measure_setup(args.workload, args.workdir)}))
        return 0
    import_repro()

    from perfbench.workloads import corpus_inputs, extent_inputs

    if args.workload == "serve":
        out = serve_workload(args)
    elif args.workload == "corpus":
        out = plan_workload(args, corpus_inputs(), args.seed)
    else:
        out = plan_workload(args, extent_inputs(), None)
    samples = out["samples"] + out.get("base", [])
    failed = sum(1 for s in samples if not s["ok"])
    problems = out["problems"]
    report = [
        f"workload {args.workload}, seed {args.seed}: {len(out['samples'])} "
        f"{'traced ' if args.trace else ''}requests, {out['distinct']} distinct plans checked "
        f"in {out['check_ms'] / 1e3:.1f} s, error_rate {failed}/{len(samples)} = "
        f"{failed / len(samples):.4f}"
    ]
    if args.workload == "serve":
        outcomes = {label: 0 for _, label in SERVE_OUTCOMES}
        for s in out["samples"]:
            if s["status"] == "ok":
                outcomes[dict(SERVE_OUTCOMES)[s["cached"]]] += 1
        report.append("outcomes: " + ", ".join(f"{k} {v}" for k, v in outcomes.items()))
    result = {"attempted": len(samples), "failed": failed}
    if args.trace:
        layer = layer_metrics(args, out)
        result["layer"] = layer
        report += trace_report(args, out, layer)
        doc = out["tracer"].to_chrome()
        from repro.obs.check import validate_chrome_trace

        problems += [f"trace file: {e}" for e in validate_chrome_trace(doc)[:5]]
        if args.trace_out:
            out["tracer"].write_chrome(args.trace_out)
            report.append(f"trace written to {args.trace_out}")
    else:
        result["e2e"] = e2e_metrics(out)
        refs = [s["ref"] for s in out["samples"]]
        report.append(
            f"host speed: reference loop {statistics.median(refs) * 1e3:.3f} ms median "
            f"({min(refs) * 1e3:.3f}-{max(refs) * 1e3:.3f}), {REFERENCE_S * 1e3:.3f} ms at the "
            "reference speed; plans_per_s and latency_ms.p50 are at the reference speed"
        )
        raw = typical_latencies(out["samples"], [s["s"] for s in out["samples"]])
        report.append(
            f"as measured: plans_per_s {len(raw) / sum(raw):.4f}, "
            f"latency_ms.p50 {statistics.median(raw) * 1e3:.4f}"
        )
        report += latency_lines([s["s"] * 1e3 for s in out["samples"]])
    if problems:
        report.append(f"{len(problems)} correctness problems:")
        report += [f"  {p}" for p in problems[:20]]
    result["correct"] = not problems and failed == 0
    result["report"] = "\n".join(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
