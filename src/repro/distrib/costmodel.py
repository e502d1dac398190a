"""Communication-cost model for distribution planning.

The planner must compare hundreds of candidate distributions, so it
cannot afford to re-walk the ADG (re-evaluating affine offsets over
every iteration space) per candidate the way
:func:`repro.machine.executor.measure_traffic` does.  Instead,
:func:`build_profile` compiles the aligned ADG **once** into a
:class:`CommProfile` — a deduplicated list of move records, each
holding the template coordinates of one object move's elements per
active axis (exactly the arrays :func:`repro.machine.comm.count_move`
would build) plus a multiplicity.  Alignments are affine in the LIVs,
so a move is fixed by a few evaluated numbers — its geometry key, the
shape plus (axis, stride, offset) per template axis at each end — and
the compiler does array work once per distinct recorded geometry, not
once per element per iteration point.

Because the records hold the *same coordinates* the executor maps, the
model is exact by construction: for any distribution,
``profile.evaluate(dist)`` equals the executor's measured counts, and
under the identity distribution the hop count equals the paper's
equation-1 cost.  The end-to-end tests assert both equalities.

Distribution-independent traffic is folded into the profile up front:

* *general* communication (axis or stride mismatch) moves the object
  regardless of where cells live; it has no routing distance on any
  interconnect, so it contributes moves but zero hops (matching
  :func:`repro.machine.comm.count_move`);
* *broadcasts* along replicated axes cost the object size once.

Hop pricing is topology-aware: ``evaluate`` and ``axis_hops`` accept
the interconnect metrics of :mod:`repro.topology`, defaulting to the
paper's L1 grid.  The per-axis memo keys include the metric, so one
profile serves any number of machine models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..adg.graph import ADG
from ..align.cost import AlignmentMap
from ..align.position import Alignment
from ..cachestats import MISS, BoundedCache, _cell
from ..ir.itspace import IterationSpace
from ..machine.comm import _axis_positions
from ..machine.distribution import AxisDistribution, Distribution
from ..machine.executor import _shape_at
from ..topology import AxisMetric, Topology, distribution_metrics

# Per-axis coordinate arrays are pure functions of (shape, per-axis
# evaluated numbers), so they cache across geometry keys, edges and
# programs.  Cached arrays are shared and read-only.
_POSITIONS = BoundedCache("distrib.move_records", maxsize=2048)
_AXIS_HOPS_STATS = _cell("distrib.axis_hops")


def _axis_key(align: Alignment, env) -> tuple:
    parts = []
    for ax in align.axes:
        if ax.is_replicated:
            parts.append("R")
        elif ax.is_body:
            assert ax.stride is not None
            # The exact stride decides a stride mismatch; coordinates
            # use its integer part, as _axis_positions does.
            stride = ax.stride.evaluate(env)
            parts.append(
                (
                    ax.array_axis,
                    int(stride) if stride.denominator == 1 else stride,
                    int(ax.offset.evaluate(env)),
                )
            )
        else:
            parts.append((None, int(ax.offset.evaluate(env))))
    return tuple(parts)


def _cached_axis_positions(
    align: Alignment, shape: tuple[int, ...], env
) -> tuple[np.ndarray, ...]:
    """Memoized :func:`repro.machine.comm._axis_positions`, keyed on the
    evaluated per-axis numbers, not on the LIV environment.

    Entries are a **tuple** of **read-only** arrays, frozen on the one
    store path (re-stores after an eviction included), so no consumer
    can swap an element or write through a cached array.
    """
    key = (shape, _axis_key(align, env))
    pos = _POSITIONS.lookup(key)
    if pos is MISS:
        arrays = tuple(_axis_positions(align, shape, env))
        for a in arrays:
            a.setflags(write=False)  # shared cache entries: enforce read-only
        pos = _POSITIONS.store(key, arrays)
    return pos  # type: ignore[return-value]


@dataclass(frozen=True, order=True)
class CostVector:
    """Modeled communication of one distribution choice.

    Ordering is lexicographic (hops, moved, broadcast): processor hops
    are the paper's grid metric made operational and the planner's
    primary objective; element moves break ties.
    """

    hops: int = 0
    moved: int = 0
    broadcast: int = 0

    def __add__(self, other: "CostVector") -> "CostVector":
        # NotImplemented (not an AttributeError mid-add) for foreign
        # operands, so mixed-type adds fail with a proper TypeError and
        # other types get a chance at their own __radd__.
        if not isinstance(other, CostVector):
            return NotImplemented
        return CostVector(
            self.hops + other.hops,
            self.moved + other.moved,
            self.broadcast + other.broadcast,
        )

    def __radd__(self, other) -> "CostVector":
        # sum(costs) starts from int 0; absorb that identity so cost
        # lists aggregate without a start-value dance.
        if other == 0:
            return self
        return NotImplemented


@dataclass
class MoveRecord:
    """One distinct object move: coordinates per active template axis.

    ``axes`` lists the template axes that participate (both endpoints
    non-replicated); ``src``/``dst`` hold, per listed axis, the template
    coordinate of every element (full-shape integer arrays).  ``count``
    is the number of identical moves folded into this record — static
    offsets repeat the same move every loop iteration, so deduplication
    routinely collapses an O(iterations) walk to O(1) records.
    """

    axes: tuple[int, ...]
    src: tuple[np.ndarray, ...]
    dst: tuple[np.ndarray, ...]
    count: int = 1

    @property
    def elements(self) -> int:
        return int(self.src[0].size) if self.src else 0


@dataclass
class CommProfile:
    """The compiled communication behaviour of one aligned program."""

    template_rank: int
    records: list[MoveRecord] = field(default_factory=list)
    window: tuple[tuple[int, int], ...] = ()  # per-axis (lo, hi) cells
    fixed: CostVector = CostVector()  # general comm: distribution-independent
    broadcast: int = 0
    elements: int = 0  # total elements flowing over all edges
    # General (axis/stride-mismatch) moves, counted per iteration point —
    # unlike TrafficReport.general_edges, which counts edges.
    general_moves: int = 0
    # Per-profile memo of axis_hops results: the search layer re-prices
    # the same (axis, candidate) pair once per grid factorization and
    # again per local-search restart.  Keyed on the candidate's scheme
    # parameters; excluded from equality/repr.
    _hops_cache: dict = field(default_factory=dict, repr=False, compare=False)
    # Folded coordinate tuples for the vectorized front-pricing path
    # (:mod:`repro.distrib.vectorized`), compiled lazily once per
    # profile; excluded from equality/repr like the hop memo.
    _front_tensors: object = field(default=None, repr=False, compare=False)

    # -- evaluation --------------------------------------------------------

    def evaluate(
        self, dist: Distribution, topology: Topology | None = None
    ) -> CostVector:
        """Exact modeled cost of ``dist``: matches the executor's counts.

        ``topology`` prices hops with the machine's interconnect
        metrics; ``None`` is the paper's L1 grid.
        """
        if dist.rank != self.template_rank:
            raise ValueError(
                f"distribution rank {dist.rank} != template rank "
                f"{self.template_rank}"
            )
        metrics = (
            None if topology is None else distribution_metrics(topology, dist)
        )
        hops = self.fixed.hops
        moved = self.fixed.moved
        for r in self.records:
            sub = Distribution(tuple(dist.axes[t] for t in r.axes))
            sub_metrics = (
                None
                if metrics is None
                else tuple(metrics[t] for t in r.axes)
            )
            moved += int(np.sum(sub.moved_mask(r.src, r.dst))) * r.count
            hops += (
                int(np.sum(sub.hop_distance(r.src, r.dst, sub_metrics)))
                * r.count
            )
        return CostVector(hops, moved, self.broadcast)

    def evaluate_front(
        self,
        dists: Sequence[Distribution],
        topology: Topology | None = None,
    ) -> np.ndarray:
        """Exact cost of a whole candidate front, as one matrix.

        Vectorized batch counterpart of :meth:`evaluate`: an int64
        ``(len(dists), 3)`` array with columns ``(hops, moved,
        broadcast)``, row ``i`` equal to ``self.evaluate(dists[i],
        topology)`` — priced in a handful of broadcasted array ops over
        the profile's folded coordinate tuples
        (:mod:`repro.distrib.vectorized`).
        """
        from .vectorized import evaluate_front

        return evaluate_front(self, dists, topology)

    def axis_hops(
        self,
        axis: int,
        axdist: AxisDistribution,
        metric: AxisMetric | None = None,
    ) -> int:
        """Hops contributed by one template axis under one axis scheme.

        Every topology in :mod:`repro.topology` is separable — its hop
        distance decomposes over axes — so per-axis hop costs can be
        optimized independently once the processor count per axis is
        fixed, for any interconnect, not just the L1 grid.  This is
        what makes the exhaustive search a per-axis dynamic program
        rather than a cross-product sweep.
        """
        # Axis distributions and metrics are frozen value objects, so
        # the instances themselves are the key: every scheme/metric
        # parameter participates, and a future class can never collide
        # with an existing one.
        key = (axis, axdist, metric)
        cached = self._hops_cache.get(key)
        if cached is not None:
            _AXIS_HOPS_STATS[0] += 1
            return cached
        _AXIS_HOPS_STATS[1] += 1
        total = 0
        for r in self.records:
            if axis not in r.axes:
                continue
            j = r.axes.index(axis)
            d = axdist.processor_coordinate_distance(
                r.src[j], r.dst[j], metric
            )
            total += int(np.sum(d)) * r.count
        if len(self._hops_cache) >= 4096:
            self._hops_cache.clear()
        self._hops_cache[key] = total
        return total

    # -- introspection -----------------------------------------------------

    @property
    def distinct_moves(self) -> int:
        return len(self.records)

    @property
    def total_moves(self) -> int:
        return sum(r.count for r in self.records)

    def describe(self) -> str:
        win = ", ".join(f"[{lo}, {hi}]" for lo, hi in self.window)
        return (
            f"profile: rank={self.template_rank} window=({win}) "
            f"records={self.distinct_moves} (of {self.total_moves} moves) "
            f"fixed_hops={self.fixed.hops} broadcast={self.broadcast}"
        )


def _edge_points(e, src: Alignment, dst: Alignment):
    """``(env, multiplicity)`` over the LIVs an edge's geometry reads.

    Loops the shape and both alignments do not mention repeat the same
    move, so only the read LIVs are walked (outermost first, which meets
    geometries in the full walk's order) and each point counts the trip
    count of the rest: an edge with no LIV terms is one point.
    """
    forms = [*e.tail.shape, *(ax.offset for ax in src.axes + dst.axes)]
    forms += [ax.stride for ax in src.axes + dst.axes if ax.stride is not None]
    read = frozenset().union(*(f.livs() for f in forms))
    keep = [i for i, liv in enumerate(e.space.livs) if liv in read]
    sub = IterationSpace(
        tuple(e.space.livs[i] for i in keep),
        tuple(e.space.triplets[i] for i in keep),
    )
    mult = e.space.count // sub.count if sub.count else 0
    for env in sub.points() if mult else ():
        yield env, mult


def _body(part) -> tuple | None:
    """(array axis, stride) of a body axis key part, None otherwise: two
    ends differ here exactly on an axis or stride mismatch."""
    return None if part == "R" or part[0] is None else part[:2]


def _part_bounds(part, shape: tuple[int, ...]) -> tuple[int, int]:
    """(lo, hi) coordinate of a non-replicated axis key part."""
    if part[0] is None:
        return part[1], part[1]
    axis, stride, off = part
    ends = (off + int(stride), off + int(stride) * (shape[axis] if shape else 1))
    return min(ends), max(ends)


def build_profile(adg: ADG, alignments: AlignmentMap) -> CommProfile:
    """Compile an aligned ADG into a :class:`CommProfile`.

    Mirrors the classification of :func:`repro.machine.comm.count_move`
    move for move, but records distribution-dependent moves (coordinates
    kept) instead of counting them under one distribution.  A move is a
    function of its geometry key ``(shape, _axis_key(src),
    _axis_key(dst))``: the walk over iteration points only counts keys,
    then each distinct key is classified once, its window bounds are
    read off (stride, offset, extent), and coordinate arrays are built
    for recorded moves only.
    """
    rank = adg.template_rank
    profile = CommProfile(template_rank=rank)
    keys: dict[tuple, list] = {}  # key -> [count, src, dst, first env]
    for e in adg.edges:
        src = alignments[e.tail.key]
        dst = alignments[e.head.key]
        for env, mult in _edge_points(e, src, dst):
            key = (_shape_at(e.tail, env), _axis_key(src, env), _axis_key(dst, env))
            entry = keys.setdefault(key, [0, src, dst, env])
            entry[0] += mult
    lo = [math.inf] * rank
    hi = [-math.inf] * rank
    dedup: dict[tuple, MoveRecord] = {}
    for (shape, skey, dkey), (count, src, dst, env) in keys.items():
        n = math.prod(shape)
        profile.elements += n * count
        # Window bounds (same rule as executor.coordinate_bounds): every
        # coordinate either end of a nonempty move reaches on a
        # non-replicated axis.
        for part_key in (skey, dkey) if n else ():
            for t, part in enumerate(part_key):
                if part != "R":
                    a, b = _part_bounds(part, shape)
                    lo[t], hi[t] = min(lo[t], a), max(hi[t], b)
        if any(_body(a) != _body(b) for a, b in zip(skey, dkey)):
            # General comm has no routing distance: moves, not hops
            # (mirrors count_move, keeping topology costs well-defined).
            profile.fixed = profile.fixed + CostVector(moved=n * count)
            profile.general_moves += count
            continue
        profile.broadcast += n * count * sum(
            a != "R" and b == "R" for a, b in zip(skey, dkey)
        )
        active = tuple(
            t for t, (a, b) in enumerate(zip(skey, dkey)) if "R" not in (a, b)
        )
        # Axes and strides agree, so equal parts are equal coordinates:
        # no axis shifts (or no elements), free under every distribution.
        if not n or all(skey[t] == dkey[t] for t in active):
            continue
        src_pos = _cached_axis_positions(src, shape, env)
        dst_pos = _cached_axis_positions(dst, shape, env)
        s = tuple(np.ascontiguousarray(src_pos[t]) for t in active)
        d = tuple(np.ascontiguousarray(dst_pos[t]) for t in active)
        rkey = (
            active,
            tuple(a.shape for a in s),
            tuple(a.tobytes() for a in s),
            tuple(a.tobytes() for a in d),
        )
        rec = dedup.get(rkey)
        if rec is None:
            rec = dedup[rkey] = MoveRecord(active, s, d, 0)
            profile.records.append(rec)
        rec.count += count
    profile.window = tuple(
        (0, 0) if l > h else (l, h) for l, h in zip(lo, hi)
    )
    return profile


def window_extents(profile: CommProfile) -> tuple[int, ...]:
    """Occupied cells per axis (window size), at least 1 per axis."""
    return tuple(hi - lo + 1 for lo, hi in profile.window)
