"""Seeded inputs of the three workloads.

Every input is source text plus a machine.  Only the order of the
corpus passes follows ``--seed``; the programs, machines and serve
stream are fixed draws, so that the spread between seeds is the
planner's and not the draw's.  Why each input was chosen is recorded
in ``perfbench/README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.lang import programs
from repro.lang.generate import FAMILIES, generate_corpus, generate_scenario, topology_corpus
from repro.lang.parser import parse
from repro.lang.pretty import pretty

from benchmarks.bench_editstream import random_edit

from .kernels import KERNELS

#: Processor count of the corpus and serve machines.
CORPUS_NPROCS = 4

#: The generated part of the corpus is one fixed draw of two programs
#: per family, not a draw per ``--seed``.  A single-statement reduction
#: or a two-dimensional program with an unused array sends axis-stride
#: into its exhaustive labeling search for 2-4 s, against a 0.1 s median,
#: and draws differ in how many such programs they hold (0 to 4 of 14
#: for draw seeds 0-7), which would swing plans_per_s by several times
#: from one seed to the next.  Draw seed 3 holds exactly one
#: (``reduction_300017``), near the six in 70 of a 70-program draw, so
#: the search's tail is measured on every run at the same weight.
CORPUS_DRAW_SEED = 3
CORPUS_DRAW_SIZE = 2 * len(FAMILIES)

#: Extents of the extent sweep and its processor count.
EXTENTS = (100, 200, 400)
EXTENT_NPROCS = 16

#: Times a pass plans each program at the extents below the largest.
#: The sweep's median input is a cheap one (``skewed_wavefront`` at
#: n=100), and ``latency_ms.p50`` is the median of its samples: planning
#: the n=100 and n=200 programs twice per pass gives them six samples
#: in three passes instead of three, for a quarter more plan time.
SMALL_EXTENT_REPEATS = 2

#: Program shapes of the extent sweep: name -> generator of the extent.
EXTENT_SHAPES = {
    "figure1": programs.figure1,
    "skewed_wavefront": programs.skewed_wavefront,
    "stencil_sweep": programs.stencil_sweep,
}


@dataclass(frozen=True)
class PlanInput:
    """One cold plan: a named program source on a machine."""

    name: str
    source: str
    nprocs: Optional[int]
    topology: Optional[str]
    extent: Optional[int] = None


def corpus_inputs() -> list[PlanInput]:
    """Paper programs, named kernels and a draw over all seven families,
    each paired with a ``topology_corpus`` machine.  The pairing is fixed
    too: the chosen distribution's hops differ by machine, so a pairing
    per ``--seed`` would move ``plan_cost.hops`` by a fifth between seeds."""
    named = [(fn().name, pretty(fn())) for fn in programs.ALL_PAPER_FRAGMENTS.values()]
    named += [(name, src) for name, (src, _) in KERNELS.items()]
    named += [
        (sc.name, sc.source)
        for sc in generate_corpus(CORPUS_DRAW_SIZE, seed=CORPUS_DRAW_SEED)
    ]
    machines = topology_corpus(len(named), seed=CORPUS_DRAW_SEED, nprocs=CORPUS_NPROCS)
    return [
        PlanInput(name, src, None, topo)
        for (name, src), topo in zip(named, machines)
    ]


def extent_inputs() -> list[PlanInput]:
    """One pass of the extent sweep: every program at every extent, on
    the L1 grid of :data:`EXTENT_NPROCS` processors, in the order a sweep
    plans them, the smaller extents :data:`SMALL_EXTENT_REPEATS` times.
    No seed changes them: the sweep is the same scaling curve on every
    run, in the same order, so the allocator state each plan starts from
    is the same too."""
    return [
        PlanInput(f"{shape}_n{n}", pretty(make(n)), EXTENT_NPROCS, None, extent=n)
        for n in EXTENTS
        for _ in range(1 if n == EXTENTS[-1] else SMALL_EXTENT_REPEATS)
        for shape, make in EXTENT_SHAPES.items()
    ]


# ---------------------------------------------------------------------------
# serve: a skewed request stream
# ---------------------------------------------------------------------------

#: Families whose cold plans stay near the 0.1 s median.  The reduction
#: and two-dimensional families hold the axis-stride tail that the corpus
#: workload measures; here a single 3 s cold plan would stand for most
#: of a run's time and the serve layer would no longer be what is timed.
SERVE_FAMILIES = ("multiphase", "shift1d", "spread", "strided", "wavefront")

#: Seed of the whole serve stream: its program pool, machines, picks of
#: repeats, new machines and edits, and its order.  Like the extent
#: sweep, the stream does not change with ``--seed``.  Which keys a
#: seed repeats, and even the order of a block alone, decide how many
#: requests find their key evicted: with the picks drawn per seed, the
#: median plan hit took 1.30 ms on some seeds and 1.52 ms on others;
#: with only the blocks shuffled per seed, a pass held 39 cold plans on
#: one seed and 49 on another, and ``plans_per_s`` read 43 and 31.
#: Seed 1, not 0: of the 108 edits in the streams of seeds 0-5, one
#: reached the axis-stride search tail, seed 0's duplicated statement
#: of ``strided_3``, a 9.8 s replan that was 63% of a pass.  That tail
#: is measured on the corpus workload; seed 1's stream has none.
SERVE_SEED = 1

# The repo holds no record of real serve traffic, so the mix below is
# an assumption, not a measurement.  Each proportion has this one
# source; README.md names each as an assumption.  The repeat-to-unseen
# ratio (13:3) is close to the 4:1 of ``benchmarks/bench_serve.py``'s
# default stream (14 programs, each asked 5 times), the only traffic
# shape the repo states.  The edits are ``bench_editstream.random_edit``
# drawn with that module's class weights, so every replan strategy of
# ``repro.passes.delta`` is reached.

#: Request kinds per block of 20; each block is shuffled.  Assumed.
SERVE_BLOCK = (("repeat", 13), ("machine", 2), ("edit", 2), ("unseen", 3))

#: Requests in one pass over the stream: nine whole blocks, the same
#: requests whatever the host's speed, introducing 27 unseen programs.
SERVE_REQUESTS = 9 * sum(count for _, count in SERVE_BLOCK)

#: Programs planned into the disk cache before the measured stream.  Assumed.
SERVE_PRIMED = 16

#: Entries the disk cache holds (prefix and plan namespaces together);
#: the stream touches several hundred, so stores evict.  Assumed.
SERVE_CACHE_ENTRIES = 64

#: Zipf exponent of the popularity skew over programs and keys.  Assumed.
SERVE_SKEW = 1.2

#: Machines a serve request may name.
SERVE_MACHINES = 10


@dataclass(frozen=True)
class ServeInput:
    """One request of the stream.  ``base`` names the program an edit was
    made from; the client sends that program's fingerprint with it.
    ``edit`` is the edit's class in ``bench_editstream``."""

    kind: str
    name: str
    source: str
    topology: str
    base: Optional[str] = None
    edit: Optional[str] = None


class ServeStream:
    """The deterministic request stream.

    Unseen programs come from a fixed pool in a fixed order, each with a
    fixed home machine; ``introduced`` lists them as (name, machine).
    Popularity follows a Zipf law over creation order, so the primed
    programs and the first keys stay hot while later ones go cold and
    are evicted.  ``primed`` holds the requests planned into the cache
    before the stream starts; iterating yields the stream itself.
    """

    def __init__(self) -> None:
        self.rng = random.Random(SERVE_SEED)
        self.machines = topology_corpus(
            SERVE_MACHINES, seed=SERVE_SEED, nprocs=CORPUS_NPROCS
        )
        self.programs: list[tuple[str, str, str]] = []  # name, source, home machine
        self.keys: list[tuple[int, str]] = []  # program index, machine
        self._key_set: set[tuple[int, str]] = set()
        self.introduced: list[tuple[str, str]] = []
        self._edits = 0
        self._block: list[str] = []
        self.primed = [self._unseen() for _ in range(SERVE_PRIMED)]

    def _zipf(self, n: int) -> int:
        weights = [1.0 / (i + 1) ** SERVE_SKEW for i in range(n)]
        return self.rng.choices(range(n), weights)[0]

    def _add(self, prog: int, machine: str) -> None:
        if (prog, machine) not in self._key_set:
            self._key_set.add((prog, machine))
            self.keys.append((prog, machine))

    def _unseen(self) -> ServeInput:
        i = len(self.introduced)
        fam = SERVE_FAMILIES[i % len(SERVE_FAMILIES)]
        sc = generate_scenario(SERVE_SEED * 100_003 + i, family=fam)
        machine = self.machines[i % len(self.machines)]
        self.introduced.append((sc.name, machine))
        self.programs.append((sc.name, sc.source, machine))
        self._add(len(self.programs) - 1, machine)
        return ServeInput("unseen", sc.name, sc.source, machine)

    def _next(self) -> ServeInput:
        if not self._block:
            self._block = [kind for kind, count in SERVE_BLOCK for _ in range(count)]
            self.rng.shuffle(self._block)
        kind = self._block.pop()
        if kind == "repeat":
            prog, machine = self.keys[self._zipf(len(self.keys))]
            name, source, _ = self.programs[prog]
            return ServeInput("repeat", name, source, machine)
        if kind == "machine":
            prog = self._zipf(len(self.programs))
            name, source, _ = self.programs[prog]
            machine = self.machines[self.rng.randrange(len(self.machines))]
            self._add(prog, machine)
            return ServeInput("machine", name, source, machine)
        if kind == "edit":
            prog = self._zipf(len(self.programs))
            base, source, machine = self.programs[prog]
            self._edits += 1
            name = f"{base.split('~')[0]}~e{self._edits}"
            cls, program = random_edit(parse(source, name=name), self.rng)
            edited = pretty(program)
            self.programs.append((name, edited, machine))
            self._add(len(self.programs) - 1, machine)
            return ServeInput("edit", name, edited, machine, base=base, edit=cls)
        return self._unseen()

    def __iter__(self) -> Iterator[ServeInput]:
        while True:
            yield self._next()

