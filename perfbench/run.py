"""The planner's end-to-end benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 15 --trace 0

The workload runs in a fresh worker process (``perfbench/worker.py``),
so its peak RSS is its own.  Set-up time is the median over
:data:`SETUP_SAMPLES` further fresh processes that only set up, at
the reference speed.  The command prints the workload's report, then, as its last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  It exits
non-zero when a plan fails its correctness check or the run cannot
complete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")

#: Set-up-only processes per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Wall-clock limits of the child processes (seconds).
WORKER_TIMEOUT = 160
SETUP_TIMEOUT = 20


def child(args: list[str], timeout: float) -> dict:
    """Run a worker process; its last stdout line is a JSON object."""
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args[:2])} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="end-to-end planner benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir]
    try:
        os.makedirs(workdir, exist_ok=True)
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += [
                "--trace-out",
                os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
            ]
        result = child(common + extra, WORKER_TIMEOUT)
        setups = [
            child(common + ["--setup-only"], SETUP_TIMEOUT)["setup_s"]
            for _ in range(SETUP_SAMPLES)
        ]
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values, wanted = result["layer"], spec["per_layer"]
    else:
        values = dict(result["e2e"], setup_s=statistics.median(setups))
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"worker did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(result["report"])
    print(f"set-up samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    width = max(len(m) for m in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}s} {m['value']:16.4f} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
