"""The full alignment pipeline — stable wrappers over :mod:`repro.passes`.

Phases, in the paper's order (each one a registered pass):

1. build the ADG (Section 2.2);
2. axis + mobile stride alignment under the discrete metric (Section 3);
3. replication labeling by min-cut, iterated with
4. mobile offset alignment by RLP (Sections 4 and 5) until quiescence —
   the paper's resolution of the chicken-and-egg between replication
   (which needs to know which offsets are mobile) and offsets (which
   skip edges with replicated endpoints) — an explicit
   :class:`~repro.passes.core.FixpointPass`;
5. assembly of full per-port alignments and exact cost accounting;
6. *(optional, beyond the paper)* automatic distribution planning —
   the phase the paper defers — via :func:`align_and_distribute`,
   which attaches a :class:`repro.distrib.DistributionPlan`.

:func:`align_program` and :func:`align_and_distribute` keep their
historical signatures and produce byte-identical results to the old
monolithic driver; they build a :class:`~repro.passes.core.PlanContext`
and run the staged pipeline.  Callers that sweep machines should use
the pipeline directly (``ctx.fork()`` + goal ``"distribution"``) to
reuse the machine-independent prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (distrib uses align)
    from ..distrib.plan import DistributionPlan

from ..adg.graph import ADG, Port
from ..lang.ast import Program
from ..lang.typecheck import TypeInfo
from .axis_stride import AxisStrideResult
from .cost import AlignmentMap, EdgeCost, cost_breakdown
from .offset_mobile import MobileOffsetResult
from .position import Alignment
from .replication import ReplicationResult

#: Planner keywords that belong in ``distrib_options`` — used to catch
#: machine options smuggled into the alignment keywords (and vice versa).
_DISTRIB_ONLY_KEYS = frozenset(
    {"topology", "block_sizes", "exhaustive_limit", "seed", "restarts",
     "vectorize"}
)
#: Alignment keywords that belong in ``align_kw`` — the other direction.
_ALIGN_ONLY_KEYS = frozenset(
    {"algorithm", "replication", "mobile", "max_replication_rounds",
     "info"}
)


class DistributionOptionsError(ValueError):
    """Conflicting machine/metric options between ``align_kw`` and
    ``distrib_options`` — raised instead of silently preferring one."""


@dataclass
class AlignmentPlan:
    """Everything the pipeline decided, plus cost accounting."""

    program: Program
    adg: ADG
    axis_stride: AxisStrideResult
    replication: Optional[ReplicationResult]
    offsets: MobileOffsetResult
    alignments: AlignmentMap
    total_cost: Fraction
    replication_rounds: int = 1
    distribution: Optional["DistributionPlan"] = None

    def alignment_of(self, p: Port) -> Alignment:
        return self.alignments[p.key]

    def source_alignments(self) -> dict[str, Alignment]:
        """Final alignment of each declared array (at its source port)."""
        from ..adg.nodes import NodeKind, SourcePayload

        out = {}
        for n in self.adg.nodes:
            if n.kind is NodeKind.SOURCE and isinstance(n.payload, SourcePayload):
                out[n.payload.array] = self.alignments[n.outputs()[0].key]
        return out

    def breakdown(self) -> list[EdgeCost]:
        return cost_breakdown(self.adg, self.alignments)

    def report(self) -> str:
        lines = [
            f"program {self.program.name}: total realignment cost {self.total_cost}",
            f"  axis/stride discrete cost: {self.axis_stride.cost}",
        ]
        for arr, al in sorted(self.source_alignments().items()):
            lines.append(f"  {arr}: {al!r}")
        nonzero = [ec for ec in self.breakdown() if ec.cost != 0]
        if nonzero:
            lines.append("  costed edges:")
            for ec in nonzero:
                lines.append(
                    f"    {ec.kind:10s} {str(ec.cost):>12s}  "
                    f"{ec.edge.tail.uid} -> {ec.edge.head.uid}"
                )
        if self.distribution is not None:
            lines.append(self.distribution.render())
        return "\n".join(lines)


def plan_context(program: Program, info: TypeInfo | None = None, **align_kw):
    """A :class:`~repro.passes.core.PlanContext` seeded for ``program``.

    The shared front door for every consumer of the staged pipeline
    (wrappers, CLI, batch engine, benchmarks): puts the program, the
    frozen alignment options and — when supplied — a precomputed
    :class:`TypeInfo` onto a fresh context.  ``align_kw`` are the
    keywords of :meth:`repro.passes.AlignOptions.of`, which owns their
    defaults.
    """
    from ..passes import AlignOptions, PlanContext

    ctx = PlanContext()
    ctx.put("program", program)
    if info is not None:
        ctx.put("typeinfo", info)
    ctx.put("align_options", AlignOptions.of(**align_kw))
    return ctx


def align_program(
    program: Program, *, info: TypeInfo | None = None, **align_kw
) -> AlignmentPlan:
    """Run the complete alignment analysis on a program.

    ``algorithm`` selects the Section 4.2 mobile-offset algorithm;
    ``mobile=False`` computes the best *static* alignment baseline
    (program variables pinned, derived positions still track sections);
    ``replication=False`` disables Section 5 labeling (every port N);
    ``max_replication_rounds`` caps the replication fixpoint; any other
    keyword goes to the algorithm (e.g. ``m`` for fixed partitioning).

    Thin wrapper: builds a plan context and runs the registered pass
    pipeline to the ``"plan"`` goal.
    """
    from ..passes import Pipeline

    ctx = plan_context(program, info=info, **align_kw)
    Pipeline().run(ctx, goal="plan")
    return ctx.get("plan")


def _validate_distrib_options(
    distrib_options: Optional[dict], align_kw: dict
) -> None:
    """Reject conflicting machine/metric specs instead of ignoring one.

    Two historical silent footguns: a distribution-planner keyword
    (``topology`` above all) smuggled into the alignment keywords — the
    alignment phases always price on the paper's unbounded L1 grid, so
    the option would be dropped on the floor — and a finite-topology
    machine in ``distrib_options`` whose processor count contradicts the
    explicit ``nprocs`` argument.  Both now raise a single named error
    listing the two sides of the conflict.
    """
    misplaced = sorted(_DISTRIB_ONLY_KEYS & set(align_kw))
    if misplaced:
        raise DistributionOptionsError(
            f"distribution option(s) {misplaced} passed in align_kw="
            f"{sorted(align_kw)} but belong in distrib_options="
            f"{sorted(distrib_options or {})}; the alignment metric is "
            "always the paper's L1 grid, so they would be silently ignored"
        )
    misplaced = sorted(_ALIGN_ONLY_KEYS & set(distrib_options or {}))
    if misplaced:
        raise DistributionOptionsError(
            f"alignment option(s) {misplaced} passed in distrib_options="
            f"{sorted(distrib_options or {})} but belong in align_kw="
            f"{sorted(align_kw)}; the distribution planner does not "
            "accept them"
        )


def align_and_distribute(
    program: Program,
    nprocs: int,
    distrib_options: Optional[dict] = None,
    **align_kw,
) -> AlignmentPlan:
    """Alignment plus the paper's deferred phase: distribution planning.

    Runs the full staged pipeline to the ``"distribution"`` goal for
    ``nprocs`` processors and attaches the chosen
    :class:`~repro.distrib.plan.DistributionPlan` to the returned plan
    (``plan.distribution``); ``distrib_options`` forwards keyword
    arguments to :func:`repro.distrib.search.plan_distribution`.

    Raises :class:`DistributionOptionsError` when the two option sets
    conflict — a planner option in ``align_kw``, or a finite
    ``distrib_options`` topology whose size contradicts ``nprocs``.
    """
    from ..passes import MachineSpec, Pipeline

    _validate_distrib_options(distrib_options, align_kw)
    machine = MachineSpec.of(nprocs, **(distrib_options or {}))
    topo = machine.topology_object()
    if topo is not None and topo.shape and topo.nprocs != nprocs:
        raise DistributionOptionsError(
            f"distrib_options topology {machine.topology!r} is a "
            f"{topo.nprocs}-processor machine but nprocs={nprocs} was "
            "requested; make the two agree (or drop one)"
        )
    info = align_kw.pop("info", None)
    ctx = plan_context(program, info=info, **align_kw)
    ctx.put("machine", machine)
    Pipeline().run(ctx, goal=("plan", "distribution"))
    plan = ctx.get("plan")
    plan.distribution = ctx.get("distribution")
    return plan
