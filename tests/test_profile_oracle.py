"""Differential harness for the comm-profile compiler and front pricing.

:func:`oracle_profile` is the element-walking profile compiler: it
visits every iteration point of every edge, builds both endpoints'
coordinate arrays there, and deduplicates moves by their bytes.  It is
slow (array work per element per point) but obviously right, so it is
kept here as the oracle for :func:`repro.distrib.build_profile`, which
counts geometry keys and builds each distinct move once.  The harness
asserts the two agree field by field — records in the same order with
the same arrays and counts — and that the folded front tuples price
every topology family exactly like the scalar path and the simulator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.align import align_program
from repro.distrib import build_profile, compile_front, costmodel, evaluate_front
from repro.distrib.costmodel import CommProfile, CostVector, MoveRecord, window_extents
from repro.distrib.enumerate import candidate_spaces
from repro.lang import parse, programs
from repro.lang.generate import FAMILIES, generate_corpus, topology_corpus
from repro.machine import Distribution
from repro.machine.comm import _axis_positions
from repro.machine.executor import _shape_at, measure_traffic
from repro.topology import parse_topology


def oracle_profile(adg, alignments) -> CommProfile:
    """The per-point element walk: one array build per iteration point."""
    rank = adg.template_rank
    profile = CommProfile(template_rank=rank)
    lo: list = [None] * rank
    hi: list = [None] * rank
    dedup: dict = {}
    for e in adg.edges:
        src = alignments[e.tail.key]
        dst = alignments[e.head.key]
        for env in e.space.points():
            shape = _shape_at(e.tail, env)
            n = int(np.prod(shape)) if shape else 1
            profile.elements += n
            src_pos = _axis_positions(src, shape, env)
            dst_pos = _axis_positions(dst, shape, env)
            for align, pos in ((src, src_pos), (dst, dst_pos)):
                for t, (ax, arr) in enumerate(zip(align.axes, pos)):
                    if ax.is_replicated or arr.size == 0:
                        continue
                    a_lo, a_hi = int(arr.min()), int(arr.max())
                    lo[t] = a_lo if lo[t] is None else min(lo[t], a_lo)
                    hi[t] = a_hi if hi[t] is None else max(hi[t], a_hi)
            general = src.axis_signature() != dst.axis_signature()
            if not general:
                general = any(
                    a1.is_body and a1.stride.evaluate(env) != a2.stride.evaluate(env)
                    for a1, a2 in zip(src.axes, dst.axes)
                )
            if general:
                profile.fixed = profile.fixed + CostVector(moved=n)
                profile.general_moves += 1
                continue
            for a1, a2 in zip(src.axes, dst.axes):
                if a2.is_replicated and not a1.is_replicated:
                    profile.broadcast += n
            active = tuple(
                t
                for t, (a1, a2) in enumerate(zip(src.axes, dst.axes))
                if not (a1.is_replicated or a2.is_replicated)
            )
            if not active:
                continue
            s = tuple(np.ascontiguousarray(src_pos[t]) for t in active)
            d = tuple(np.ascontiguousarray(dst_pos[t]) for t in active)
            if all(np.array_equal(a, b) for a, b in zip(s, d)):
                continue
            key = (
                active,
                tuple(a.shape for a in s),
                tuple(a.tobytes() for a in s),
                tuple(a.tobytes() for a in d),
            )
            rec = dedup.get(key)
            if rec is None:
                rec = MoveRecord(active, s, d)
                dedup[key] = rec
                profile.records.append(rec)
            else:
                rec.count += 1
    profile.window = tuple(
        (0, 0) if l is None else (l, h) for l, h in zip(lo, hi)
    )
    return profile


def assert_same_profile(got: CommProfile, want: CommProfile) -> None:
    assert got.template_rank == want.template_rank
    assert got.elements == want.elements
    assert got.general_moves == want.general_moves
    assert got.fixed == want.fixed
    assert got.broadcast == want.broadcast
    assert got.window == want.window
    assert len(got.records) == len(want.records)
    for i, (g, w) in enumerate(zip(got.records, want.records)):
        assert g.axes == w.axes, i
        assert g.count == w.count, i
        for a, b in zip(g.src + g.dst, w.src + w.dst):
            assert a.shape == b.shape and a.dtype == b.dtype, i
            assert np.array_equal(a, b), i


def _aligned(prog, **kw):
    plan = align_program(prog, **kw)
    return plan.adg, plan.alignments


PAPER = [
    pytest.param(make, kw, id=name)
    for name, make in programs.ALL_PAPER_FRAGMENTS.items()
    for kw in ({}, {"replication": False})
]
EXTENT = [
    pytest.param(make, n, id=f"{make.__name__}-n{n}")
    for make in (programs.figure1, programs.skewed_wavefront, programs.stencil_sweep)
    for n in (8, 33)
]
CORPUS = generate_corpus(len(FAMILIES), seed=0)
EDGE_CASES = {
    "zero_trip_loop": "real A(8), B(8)\ndo k = 1, 0\n  A(1:4) = B(k:k+3)\nenddo\n",
    "zero_trip_inner": (
        "real A(8), B(8)\ndo k = 1, 4\n  do j = 3, 2\n"
        "    A(1:4) = B(k:k+3)\n  enddo\nenddo\n"
    ),
    "extent_one": "real A(1), B(1)\ndo k = 1, 5\n  A(1:1) = B(1:1) + A(1:1)\nenddo\n",
    "extent_one_shift": (
        "real A(8), B(8)\ndo k = 1, 5\n  A(k:k) = B(k+1:k+1)\nenddo\n"
    ),
    "unread_outer_loop": (
        "real A(16), B(16)\ndo j = 1, 3\n  do k = 1, 4\n"
        "    A(1:8) = B(k:k+7)\n  enddo\nenddo\n"
    ),
}


@pytest.mark.parametrize("make,kw", PAPER)
def test_paper_programs_match_oracle(make, kw):
    adg, aligns = _aligned(make(), **kw)
    assert_same_profile(build_profile(adg, aligns), oracle_profile(adg, aligns))


@pytest.mark.parametrize("make,n", EXTENT)
def test_extent_programs_match_oracle(make, n):
    adg, aligns = _aligned(make(n=n))
    assert_same_profile(build_profile(adg, aligns), oracle_profile(adg, aligns))


@pytest.mark.parametrize("scenario", CORPUS, ids=[sc.name for sc in CORPUS])
def test_corpus_families_match_oracle(scenario):
    adg, aligns = _aligned(scenario.parse())
    assert_same_profile(build_profile(adg, aligns), oracle_profile(adg, aligns))


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_oracle(name):
    adg, aligns = _aligned(parse(EDGE_CASES[name]))
    assert_same_profile(build_profile(adg, aligns), oracle_profile(adg, aligns))


# -- compacted front pricing against the scalar path and the simulator -------

PRICED = {
    "figure1": lambda: programs.figure1(n=12),
    "skewed_wavefront": lambda: programs.skewed_wavefront(n=10),
    "stencil_sweep": lambda: programs.stencil_sweep(n=24, iters=3),
    "figure4": lambda: programs.figure4(nt=8, nk=6),
    **{sc.name: sc.parse for sc in CORPUS},
}


def _sample_dists(profile, topo):
    """First, middle and last candidate per axis on every realizable grid:
    block, cyclic and block-cyclic schemes all appear."""
    dists = []
    for _, cands in candidate_spaces(profile, topo.nprocs, topology=topo):
        for pick in (0, len, -1):
            dists.append(
                Distribution(
                    tuple(
                        c[len(c) // 2 if pick is len else pick].to_axis_distribution()
                        for c in cands
                    )
                )
            )
    return dists


@pytest.mark.parametrize("spec", topology_corpus(5, seed=0, nprocs=4))
def test_front_prices_equal_scalar_and_simulator(spec):
    topo = parse_topology(spec)
    for name, make in PRICED.items():
        adg, aligns = _aligned(make())
        profile = build_profile(adg, aligns)
        dists = _sample_dists(profile, topo)
        assert dists, (name, spec)
        front = evaluate_front(profile, dists, topo)
        for dist, row in zip(dists, front):
            cv = profile.evaluate(dist, topo)
            rep = measure_traffic(adg, aligns, dist, topology=topo)
            got = tuple(int(x) for x in row)
            assert got == (cv.hops, cv.moved, cv.broadcast), (name, spec)
            assert got == (
                rep.hop_cost,
                rep.elements_moved,
                rep.broadcast_elements,
            ), (name, spec)


# -- deterministic work bounds -------------------------------------------------


class TestWorkBound:
    """Profile work grows with distinct move geometries, not elements."""

    N = 200

    def _geometry_keys(self, adg, aligns) -> set:
        keys = set()
        for e in adg.edges:
            src, dst = aligns[e.tail.key], aligns[e.head.key]
            for env in e.space.points():
                keys.add(
                    (
                        _shape_at(e.tail, env),
                        costmodel._axis_key(src, env),
                        costmodel._axis_key(dst, env),
                    )
                )
        return keys

    def test_arrays_built_at_most_once_per_geometry_key(self, monkeypatch):
        adg, aligns = _aligned(programs.figure1(n=self.N))
        built = []

        def counting(align, shape, env):
            built.append((shape, costmodel._axis_key(align, env)))
            return _axis_positions(align, shape, env)

        costmodel._POSITIONS.clear()
        monkeypatch.setattr(costmodel, "_axis_positions", counting)
        profile = build_profile(adg, aligns)
        keys = self._geometry_keys(adg, aligns)
        assert profile.records
        assert len(built) == len(set(built))  # no endpoint geometry twice
        assert len(built) <= 2 * len(keys)
        # Only recorded moves build arrays: far fewer than one per point.
        points = sum(e.space.count for e in adg.edges)
        assert len(built) <= 2 * len(profile.records) < points

    def test_axis_pairs_bounded_by_window(self):
        adg, aligns = _aligned(programs.figure1(n=self.N))
        profile = build_profile(adg, aligns)
        front = compile_front(profile).axes[1]
        elements = sum(r.count * r.src[0].size for r in profile.records)
        assert front.src.size <= 2 * window_extents(profile)[1] < elements
