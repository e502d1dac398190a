"""Off-the-clock correctness checks, run in a small process pool.

Every distinct plan is checked once per invocation against the
``repro.machine`` simulator:

* under the identity distribution on the paper's L1 grid, the
  equation-1 cost must equal measured hops + broadcasts + general
  elements;
* under the chosen distribution on the plan's machine, measured hops,
  moved and broadcast elements must equal the modeled ``CostVector``.

For serve, each distinct request is also planned cold on a fresh
in-memory ``PlanService``; every payload the measured service returned
for that request must pickle to the same bytes.  The functions here are
module-level so a spawn pool can run them.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Optional


def simulate(adg, alignments, total_cost, dplan, topology: Optional[str]) -> list[str]:
    """Problems found by the two simulator checks; empty when both hold."""
    from repro.machine.distribution import Distribution
    from repro.machine.executor import measure_traffic
    from repro.topology import parse_topology

    problems = []
    ident = measure_traffic(adg, alignments, Distribution.identity(adg.template_rank))
    measured = ident.hop_cost + ident.broadcast_elements + ident.general_elements
    if total_cost != measured:
        problems.append(f"equation-1 cost {total_cost} != simulated {measured}")
    topo = parse_topology(topology) if topology else None
    rep = measure_traffic(adg, alignments, dplan.to_distribution(), topology=topo)
    got = (rep.hop_cost, rep.elements_moved, rep.broadcast_elements)
    want = (dplan.cost.hops, dplan.cost.moved, dplan.cost.broadcast)
    if got != want:
        problems.append(f"simulated (hops, moved, broadcast) {got} != modeled {want}")
    return problems


def check_plan(task: tuple) -> dict:
    """Simulator checks of one plan solved in the measuring process."""
    key, adg, alignments, total_cost, dplan, topology = task
    t0 = time.perf_counter()
    problems = simulate(adg, alignments, total_cost, dplan, topology)
    return {"key": key, "problems": problems, "ms": (time.perf_counter() - t0) * 1e3}


def check_request(task: tuple) -> dict:
    """Cold reference plan of one serve request, plus the simulator checks.

    Returns the pickled reference payload, the plan's costs, and the
    time of a ``Pipeline.run`` on the fully solved context (the pass
    manager's reuse check).
    """
    from repro.passes import MachineSpec, Pipeline
    from repro.serve import PlanService, ServeRequest
    from repro.serve.cache import MISS

    key, name, source, nprocs, topology = task
    with PlanService() as svc:
        resp = svc.handle(ServeRequest(name, source, nprocs=nprocs, topology=topology))
        if not resp.ok:
            return {"key": key, "problems": [f"cold reference failed: {resp.error}"]}
        fp = resp.fingerprints
        prefix = svc.cache.get("prefix", (fp["program"], fp["options"]))
    if prefix is MISS:
        return {"key": key, "problems": ["cold reference left no prefix in its cache"]}
    ctx = prefix.fork()
    ctx.put("machine", MachineSpec.of(nprocs, topology=topology))
    pipeline = Pipeline()
    pipeline.run(ctx, goal=("plan", "distribution"))
    t0 = time.perf_counter()
    pipeline.run(ctx, goal=("plan", "distribution"))
    reuse_ms = (time.perf_counter() - t0) * 1e3
    plan, dplan = ctx.get("plan"), ctx.get("distribution")
    t0 = time.perf_counter()
    problems = simulate(plan.adg, plan.alignments, plan.total_cost, dplan, topology)
    return {
        "key": key,
        "problems": problems,
        "ms": (time.perf_counter() - t0) * 1e3,
        "reuse_ms": reuse_ms,
        "payload": pickle.dumps(resp.plan, protocol=pickle.HIGHEST_PROTOCOL),
        "total_cost": str(plan.total_cost),
        "hops": dplan.cost.hops,
    }


def run_pool(fn, tasks: list, jobs: int = 2) -> list[dict]:
    """Run ``fn`` over ``tasks`` (largest first) in a spawn pool of ``jobs``."""
    import multiprocessing

    if not tasks:
        return []
    # The simulator allocates and frees large arrays at every iteration
    # point.  In a fresh process glibc maps and unmaps each one, which
    # more than doubles the check's time in page faults; a process that
    # has already grown its heap does not pay that.  Keep the pool's
    # allocations on the heap.
    env = {"MALLOC_MMAP_THRESHOLD_": str(256 << 20), "MALLOC_TRIM_THRESHOLD_": str(1 << 30)}
    saved = {k: os.environ.get(k) for k in env}
    os.environ.update(env)
    try:
        pool = multiprocessing.get_context("spawn").Pool(jobs)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    with pool:
        results = list(pool.imap_unordered(fn, tasks, chunksize=1))
        pool.close()
        pool.join()
    return results
