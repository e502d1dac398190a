"""Unit tests for the vectorized front-pricing kernels.

The exhaustive scalar/simulator equalities live in
``tests/test_differential.py``; this file covers the machinery itself —
padding of ragged records, tensor caching and its counters, the
empty/single/degenerate fronts, contract-violation parity with the
scalar path, and the ``vectorize=False`` fallback plumbing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import cachestats
from repro.align import align_program
from repro.distrib import (
    axis_front_hops,
    build_profile,
    compile_front,
    evaluate_front,
    front_costs,
    naive_costs,
    plan_distribution,
)
from repro.distrib.costmodel import CostVector
from repro.distrib.enumerate import axis_candidates
from repro.distrib.vectorized import (
    _MODE_BLOCK,
    _MODE_IDENTITY,
    _MODE_WRAP,
    _axis_dist_params,
    _fold,
    _fold_records,
)
from repro.distrib.costmodel import MoveRecord
from repro.lang import programs
from repro.machine import Block, BlockCyclic, Cyclic, Distribution, Identity
from repro.machine.distribution import AxisDistribution
from repro.topology import parse_topology


def _profile(prog, **kw):
    plan = align_program(prog, **kw)
    return build_profile(plan.adg, plan.alignments)


@pytest.fixture(scope="module")
def profile():
    return _profile(programs.figure1(n=12), replication=False)


class TestFold:
    def test_equal_tuples_fold_with_summed_weights(self):
        src = np.array([5, 9, 5, 2, 5])
        dst = np.array([6, 9, 6, 3, 7])
        (s, d), w = _fold([src, dst], np.array([10, 20, 30, 40, 50]))
        # Each distinct (src, dst) pair once, carrying the weight of
        # every element move that makes it.
        assert list(zip(s.tolist(), d.tolist(), w.tolist())) == [
            (2, 3, 40),
            (5, 6, 40),
            (5, 7, 50),
            (9, 9, 20),
        ]

    def test_empty_record_contributes_nothing(self):
        empty = np.array([], dtype=np.int64)
        recs = [
            MoveRecord((0,), (empty,), (empty,), count=7),
            MoveRecord((0,), (np.array([4, 4]),), (np.array([5, 5]),), count=8),
        ]
        (s,), (d,), w = _fold_records([(r, (0,)) for r in recs])
        assert (s.tolist(), d.tolist(), w.tolist()) == ([4], [5], [16])

    def test_all_empty(self):
        empty = np.array([], dtype=np.int64)
        (s, d), w = _fold([empty, empty], empty)
        assert s.shape == d.shape == w.shape == (0,)


class TestAxisDistParams:
    def test_modes(self):
        assert _axis_dist_params(Block(4, 3, 1)) == (_MODE_BLOCK, 4, 3, 1)
        assert _axis_dist_params(Cyclic(4, 2)) == (_MODE_WRAP, 4, 1, 2)
        assert _axis_dist_params(BlockCyclic(4, 2, 0)) == (_MODE_WRAP, 4, 2, 0)
        assert _axis_dist_params(Identity()) == (_MODE_IDENTITY, 1, 1, 0)

    def test_unknown_scheme_rejected_with_fallback_hint(self):
        class Weird(AxisDistribution):
            def owner(self, cell):  # pragma: no cover - never called
                return 0

        with pytest.raises(TypeError, match="vectorize=False"):
            _axis_dist_params(Weird())


class TestCompileFront:
    def test_cached_once_per_profile(self, profile):
        h0, m0 = cachestats._cell("distrib.front_tensors")
        first = compile_front(profile)
        second = compile_front(profile)
        assert first is second
        h1, m1 = cachestats._cell("distrib.front_tensors")
        # At most one compilation for this profile; the second call hit.
        assert h1 > h0

    def test_tensor_shapes_cover_every_record(self, profile):
        tensors = compile_front(profile)
        assert tensors.template_rank == profile.template_rank
        assert {g.axes for g in tensors.groups} == {
            r.axes for r in profile.records
        }
        for front in tensors.axes:
            if front is None:
                continue
            assert front.src.shape == front.dst.shape == front.weight.shape
            assert front.src.ndim == 1 and front.lo <= front.hi
            assert np.all(front.weight > 0)
        for g in tensors.groups:
            for a in g.src + g.dst:
                assert a.shape == g.weight.shape

    def test_weights_sum_to_element_moves(self, profile):
        # Reconstruct total moved elements from the group tuples: the
        # sum of weights must equal count * len over every record.
        tensors = compile_front(profile)
        want = sum(r.count * r.src[0].size for r in profile.records if r.axes)
        got = sum(int(g.weight.sum()) for g in tensors.groups if g.axes)
        assert got == want
        for t, front in enumerate(tensors.axes):
            if front is None:
                continue
            want_t = sum(
                r.count * r.src[0].size for r in profile.records if t in r.axes
            )
            assert int(front.weight.sum()) == want_t


class TestFrontEdgeCases:
    def test_empty_front_prices_to_empty_matrix(self, profile):
        out = evaluate_front(profile, [])
        assert out.shape == (0, 3)
        assert front_costs(profile, [], None) == []

    def test_single_candidate_equals_scalar(self, profile):
        ident = Distribution.identity(profile.template_rank)
        out = evaluate_front(profile, [ident])
        cv = profile.evaluate(ident)
        assert out.shape == (1, 3)
        assert tuple(int(x) for x in out[0]) == (cv.hops, cv.moved, cv.broadcast)

    def test_communication_free_profile(self):
        # A single self-assignment has no realignment communication at
        # all: no groups, yet the front must still price correctly.
        from repro.lang import parse

        prof = _profile(parse("real A(8)\nA(1:8) = A(1:8) * 2.0"))
        ident = Distribution.identity(prof.template_rank)
        out = evaluate_front(prof, [ident, ident])
        for row in out:
            cv = prof.evaluate(ident)
            assert tuple(int(x) for x in row) == (cv.hops, cv.moved, cv.broadcast)

    def test_rank_mismatch_rejected_like_scalar(self, profile):
        bad = Distribution.identity(profile.template_rank + 1)
        with pytest.raises(ValueError, match="rank"):
            evaluate_front(profile, [bad])

    def test_contract_violation_raises_like_scalar(self, profile):
        # A base above the window's low cell violates the ownership
        # contract; the batch checker must refuse exactly like
        # validate_cells does on the scalar path.
        lo, hi = profile.window[0]
        axes = [
            Block(2, (hi - lo + 1), lo + 1) if t == 0 else Identity()
            for t in range(profile.template_rank)
        ]
        bad = Distribution(tuple(axes))
        with pytest.raises(ValueError, match="below distribution base"):
            evaluate_front(profile, [bad])
        with pytest.raises(ValueError):
            profile.evaluate(bad)

    def test_axis_front_hops_matches_scalar_per_candidate(self, profile):
        for t, (lo, hi) in enumerate(profile.window):
            cands = axis_candidates(lo, hi - lo + 1, 4)
            hops = axis_front_hops(profile, t, cands)
            assert hops.shape == (len(cands),)
            for i, c in enumerate(cands):
                assert int(hops[i]) == profile.axis_hops(
                    t, c.to_axis_distribution()
                ), (t, i)

    def test_axis_front_hops_with_metric(self, profile):
        topo = parse_topology("ring:4")
        metric = topo.axis_metric(4, 0)
        lo, hi = profile.window[0]
        cands = axis_candidates(lo, hi - lo + 1, 4)
        hops = axis_front_hops(profile, 0, cands, metric)
        for i, c in enumerate(cands):
            assert int(hops[i]) == profile.axis_hops(
                0, c.to_axis_distribution(), metric
            )

    def test_axis_front_hops_empty_candidates(self, profile):
        assert axis_front_hops(profile, 0, []).shape == (0,)

    def test_evaluate_front_method_on_profile(self, profile):
        ident = Distribution.identity(profile.template_rank)
        out = profile.evaluate_front([ident])
        cv = profile.evaluate(ident)
        assert tuple(int(x) for x in out[0]) == (cv.hops, cv.moved, cv.broadcast)


class TestCountersAndFallback:
    def test_front_price_counter_tracks_both_paths(self, profile):
        cell = cachestats._cell("distrib.front_price")
        v0, s0 = cell
        plan_distribution(profile, 4, vectorize=True)
        v1, s1 = cell
        assert v1 > v0  # fast-path candidate pricings
        plan_distribution(profile, 4, vectorize=False)
        v2, s2 = cell
        assert s2 > s1  # scalar-fallback candidate pricings
        assert v2 == v1

    def test_naive_costs_fallback_equality(self, profile):
        topo = parse_topology("torus:2x2")
        fast = naive_costs(profile, 4, topo, vectorize=True)
        slow = naive_costs(profile, 4, topo, vectorize=False)
        assert fast == slow
        assert all(isinstance(c, CostVector) for c in fast.values())

    def test_front_costs_are_costvectors_summable(self, profile):
        ident = Distribution.identity(profile.template_rank)
        costs = front_costs(profile, [ident, ident], None)
        total = sum(costs)  # exercises CostVector.__radd__
        assert total == costs[0] + costs[1]
