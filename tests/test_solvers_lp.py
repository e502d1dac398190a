"""Unit tests for the LP layer: HiGHS solves, every optimum certified."""

import numpy as np
import pytest
from scipy.optimize import linprog

from repro.align.pipeline import plan_context
from repro.lang import programs
from repro.passes import Pipeline
from repro.solvers import LPCertificateError, LPModel
from repro.solvers.lp import CERT_TOL, certify

# HiGHS through scipy is the one LP solver; the parameter keeps the test
# ids these cases had when a second solver ran beside it.
SOLVERS = ["scipy"]


@pytest.mark.parametrize("solver", SOLVERS)
class TestBasicLPs:
    def test_bounded_minimum(self, solver):
        m = LPModel()
        x = m.var("x")
        y = m.var("y", lower=0)
        m.add(x - y, ">=", 1)
        m.add(x + y, ">=", 3)
        m.minimize(x + 2 * y)
        s = m.solve()
        assert s.status == "optimal"
        assert s.objective == pytest.approx(3.0)

    def test_equality_constraints(self, solver):
        m = LPModel()
        x = m.var("x", lower=0)
        y = m.var("y", lower=0)
        m.add(x + y, "==", 10)
        m.minimize(3 * x + y)
        s = m.solve()
        assert s.objective == pytest.approx(10.0)
        assert s.values[y] == pytest.approx(10.0)

    def test_free_variable_negative_optimum(self, solver):
        m = LPModel()
        x = m.var("x")
        m.add(x, ">=", -7)
        m.minimize(x)
        s = m.solve()
        assert s.objective == pytest.approx(-7.0)

    def test_upper_bounds(self, solver):
        m = LPModel()
        x = m.var("x", lower=0, upper=4)
        m.minimize(-1 * x)
        s = m.solve()
        assert s.objective == pytest.approx(-4.0)

    def test_infeasible(self, solver):
        m = LPModel()
        x = m.var("x", lower=0)
        m.add(x, "<=", -1)
        m.minimize(x)
        assert m.solve().status == "infeasible"

    def test_unbounded(self, solver):
        m = LPModel()
        x = m.var("x")
        m.minimize(x)
        s = m.solve()
        assert s.status == "unbounded"

    def test_abs_bound_pair(self, solver):
        # minimize |x - 5| + |x - 9| -> 4 anywhere in [5, 9]
        m = LPModel()
        x = m.var("x")
        t1 = m.var("t1", lower=0)
        t2 = m.var("t2", lower=0)
        m.add_abs_bound(t1, x - 5)
        m.add_abs_bound(t2, x - 9)
        m.minimize(t1 + t2)
        s = m.solve()
        assert s.objective == pytest.approx(4.0)
        assert 5 - 1e-6 <= s.values[x] <= 9 + 1e-6

    def test_weighted_median(self, solver):
        # minimize sum w_i |x - a_i|: optimum at weighted median (a=3)
        m = LPModel()
        x = m.var("x")
        total = None
        for w, a in [(1, 0), (5, 3), (1, 10)]:
            t = m.var(f"t{a}", lower=0)
            m.add_abs_bound(t, x - a)
            total = t * w if total is None else total + t * w
        m.minimize(total)
        s = m.solve()
        assert s.values[x] == pytest.approx(3.0, abs=1e-6)


class TestBackendsAgree:
    """Random bounded LPs: every optimum HiGHS returns certifies, and its
    values satisfy the model's own constraints and objective."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        m = LPModel()
        n = 5
        xs = [m.var(f"x{i}", lower=0, upper=10) for i in range(n)]
        for _ in range(6):
            coeffs = rng.integers(-3, 4, size=n)
            expr = None
            for c, x in zip(coeffs, xs):
                term = x * int(c)
                expr = term if expr is None else expr + term
            m.add(expr, ">=", int(rng.integers(-10, 5)))
        obj = None
        for x in xs:
            c = int(rng.integers(1, 5))
            obj = x * c if obj is None else obj + x * c
        m.minimize(obj)
        s = m.solve()
        assert s.status in ("optimal", "infeasible")
        if s.status == "infeasible":
            return
        cert = s.certificate
        assert max(cert.primal_residual, cert.stationarity, cert.rel_gap) <= CERT_TOL

        def value(expr):
            return sum(c * s.values[v] for v, c in expr.coeffs.items()) + expr.const

        assert value(m.objective) == pytest.approx(s.objective, abs=1e-6)
        for con in m.constraints:
            assert value(con.expr) >= con.rhs - 1e-6
        for x in xs:
            assert -1e-6 <= s.values[x] <= 10 + 1e-6


class TestCertificate:
    def _highs(self, m):
        dense = m.to_dense()
        c, a_ub, b_ub, a_eq, b_eq, bounds = dense
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        duals = (
            res.ineqlin.marginals,
            res.eqlin.marginals,
            res.lower.marginals,
            res.upper.marginals,
        )
        return dense, res, duals

    def test_corrupted_solution_rejected(self):
        # min x + 2y  s.t.  x - y >= 1, x + y >= 3, y >= 0: optimum (3, 0)
        m = LPModel()
        x = m.var("x")
        y = m.var("y", lower=0)
        m.add(x - y, ">=", 1)
        m.add(x + y, ">=", 3)
        m.minimize(x + 2 * y)
        dense, res, duals = self._highs(m)
        c = dense[0]
        assert certify(dense, res.x, res.fun, *duals).rel_gap <= CERT_TOL

        def corrupt(vec, i, delta):
            out = np.array(vec, dtype=float)
            out[i] += delta
            return out

        infeasible = corrupt(res.x, 0, -1.0)  # x = 2 violates x + y >= 3
        with pytest.raises(LPCertificateError, match="primal residual"):
            certify(dense, infeasible, c @ infeasible, *duals)
        suboptimal = corrupt(res.x, 0, +1.0)  # feasible, objective 4 > 3
        with pytest.raises(LPCertificateError, match="duality gap"):
            certify(dense, suboptimal, c @ suboptimal, *duals)
        with pytest.raises(LPCertificateError, match="objective error"):
            certify(dense, res.x, res.fun + 1.0, *duals)
        y_ub, y_eq, z_lo, z_hi = duals
        with pytest.raises(LPCertificateError, match="stationarity"):
            certify(dense, res.x, res.fun, corrupt(y_ub, 0, 0.5), y_eq, z_lo, z_hi)

    @pytest.mark.parametrize(
        "name, cost", [("figure1", 20000), ("skewed_wavefront", 28672)]
    )
    def test_paper_programs_certify(self, name, cost):
        ctx = plan_context(getattr(programs, name)())
        Pipeline().run(ctx, goal="plan")
        assert ctx.get("plan").total_cost == cost
        lp_stats = ctx.get("offsets").lp_stats
        assert lp_stats
        for st in lp_stats:
            assert max(st.primal_residual, st.stationarity, st.rel_gap) <= CERT_TOL
        (ev,) = [e for e in ctx.trace if e["pass"] == "replication-offsets"]
        assert ev["lp_vars"] >= sum(st.num_vars for st in lp_stats) > 0
        assert ev["lp_rows"] >= sum(st.num_constraints for st in lp_stats) > 0
        worst = (ev["lp_primal_residual"], ev["lp_stationarity"], ev["lp_rel_gap"])
        assert max(worst) <= CERT_TOL


class TestModelLayer:
    def test_constraint_const_folding(self):
        m = LPModel()
        x = m.var("x")
        con = m.add(x + 5, "<=", 8)
        assert con.rhs == 3.0

    def test_linexpr_ops(self):
        m = LPModel()
        x = m.var("x")
        y = m.var("y")
        e = 2 * x - (y - 1)
        assert e.coeffs[x] == 2.0
        assert e.coeffs[y] == -1.0
        assert e.const == 1.0

    def test_unconstrained_zero_objective(self):
        m = LPModel()
        m.var("x")
        m.minimize(LPModel().var("y") * 0 if False else m.var("t", lower=0))
        s = m.solve()
        assert s.status == "optimal"
        assert s.objective == pytest.approx(0.0)
