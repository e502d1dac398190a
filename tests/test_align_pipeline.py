"""Integration tests for the full pipeline and the cost evaluator."""

from fractions import Fraction

import pytest

from repro.align import align_program, cost_breakdown, total_cost
from repro.lang import parse
from repro.lang import programs


class TestPipeline:
    def test_figure1_mobile_beats_static(self):
        static = align_program(programs.figure1(), replication=False, mobile=False)
        mobile = align_program(programs.figure1(), replication=False)
        assert mobile.total_cost == 39600
        assert static.total_cost > mobile.total_cost * 10

    def test_figure1_replication_beats_mobile(self):
        mobile = align_program(programs.figure1(), replication=False)
        full = align_program(programs.figure1(), replication=True)
        assert full.total_cost < mobile.total_cost

    def test_quiescence_terminates(self):
        plan = align_program(programs.figure1(), max_replication_rounds=10)
        assert plan.replication_rounds <= 10

    def test_source_alignments_exposed(self):
        plan = align_program(programs.example1())
        src = plan.source_alignments()
        assert set(src) == {"A", "B"}
        assert src["B"].axes[0].offset - src["A"].axes[0].offset == -1

    def test_report_is_readable(self):
        plan = align_program(programs.example1())
        text = plan.report()
        assert "total realignment cost" in text
        assert "A:" in text and "B:" in text

    def test_zero_cost_programs(self):
        for src in [
            "real A(10), B(10)\nA = A + B",
            "real A(10,10), B(10,10)\nB = B + transpose(A)",
            "real A(10)\nA = 0",
        ]:
            plan = align_program(parse(src))
            assert plan.total_cost == 0, src

    def test_alignment_map_covers_all_ports(self):
        plan = align_program(programs.figure4())
        for p in plan.adg.ports():
            al = plan.alignments[p.key]
            assert al.template_rank == plan.adg.template_rank

    def test_breakdown_sums_to_total(self):
        plan = align_program(programs.figure1(), replication=False)
        parts = cost_breakdown(plan.adg, plan.alignments)
        assert sum((ec.cost for ec in parts), Fraction(0)) == plan.total_cost

    def test_branch_program(self):
        plan = align_program(programs.conditional_update(n=16))
        assert plan.total_cost >= 0

    def test_nested_loops(self):
        plan = align_program(programs.doubly_nested(n=4))
        assert plan.total_cost >= 0

    def test_algorithm_parameter_passthrough(self):
        plan = align_program(programs.figure1(n=16), algorithm="fixed", m=5)
        assert "m=5" in plan.offsets.algorithm

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError):
            align_program(programs.example1(), algorithm="zzz")


class TestCostEvaluator:
    def test_edge_kinds(self):
        plan = align_program(programs.figure4(), replication=False)
        kinds = {ec.kind for ec in plan.breakdown()}
        assert "broadcast" in kinds
        assert "aligned" in kinds

    def test_general_kind_on_stride_mismatch(self):
        plan = align_program(programs.example5(iters=10, m=4))
        kinds = [ec.kind for ec in plan.breakdown() if ec.cost > 0]
        assert "general" in kinds


class TestMomentReuse:
    """Every closed-form moment sum goes through ``cached_moments``."""

    def _plan(self):
        return align_program(programs.figure1(n=16))

    def test_moments_hit_within_one_plan(self):
        from repro import cachestats
        from repro.align.cost import _MOMENTS

        _MOMENTS.clear()
        before = cachestats.snapshot()
        self._plan()
        hits, misses = cachestats.delta(before).get("align.moments", (0, 0))
        # The offset LPs, the replication cut and the axis-stride weights
        # re-ask for the same few (space, weight) sums every round: most
        # lookups hit.
        assert misses > 0 and hits > misses

    def test_plan_unchanged_without_the_memo(self, monkeypatch):
        from repro.align import axis_stride, cost, offset_static, replication
        from repro.ir.closedform import weighted_moments

        cached = self._plan()
        for mod in (axis_stride, cost, offset_static, replication):
            monkeypatch.setattr(mod, "cached_moments", weighted_moments)
        fresh = self._plan()
        assert fresh.alignments == cached.alignments
        assert fresh.total_cost == cached.total_cost
