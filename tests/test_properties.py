"""Property-based tests (hypothesis) on the core data structures."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    LIV,
    AffineForm,
    Polynomial,
    Triplet,
    sigma0,
    sigma1,
    sigma2,
    sum_powers,
)
from repro.align.span import split_at_crossing
from repro.solvers import LPModel

k = LIV("k")
j = LIV("j")

small_ints = st.integers(min_value=-50, max_value=50)
coeffs = st.integers(min_value=-10, max_value=10)


def affine_forms(livs=(k, j)):
    return st.builds(
        lambda c, cs: AffineForm(c, dict(zip(livs, cs))),
        coeffs,
        st.lists(coeffs, min_size=len(livs), max_size=len(livs)),
    )


def triplets():
    return st.builds(
        lambda lo, n, s: Triplet(lo, lo + (n - 1) * s, s),
        st.integers(-20, 20),
        st.integers(1, 40),
        st.sampled_from([-3, -2, -1, 1, 2, 3]),
    )


class TestAffineAlgebra:
    @given(affine_forms(), affine_forms(), st.integers(-5, 5), st.integers(-5, 5))
    def test_evaluation_is_linear(self, f, g, kv, jv):
        env = {k: kv, j: jv}
        assert (f + g).evaluate(env) == f.evaluate(env) + g.evaluate(env)
        assert (f - g).evaluate(env) == f.evaluate(env) - g.evaluate(env)
        assert (f * 3).evaluate(env) == 3 * f.evaluate(env)

    @given(affine_forms(), st.integers(-5, 5), st.integers(-5, 5), st.integers(-4, 4))
    def test_substitution_commutes_with_evaluation(self, f, kv, jv, delta):
        g = f.shift_liv(k, delta)
        assert g.evaluate({k: kv, j: jv}) == f.evaluate({k: kv + delta, j: jv})

    @given(affine_forms())
    def test_vector_roundtrip(self, f):
        vec = f.coefficient_vector([k, j])
        assert AffineForm.from_coefficient_vector(vec, [k, j]) == f

    @given(affine_forms(), affine_forms())
    def test_addition_commutes(self, f, g):
        assert f + g == g + f


class TestPolynomialAlgebra:
    @given(affine_forms(), affine_forms(), st.integers(-4, 4), st.integers(-4, 4))
    def test_product_evaluates_pointwise(self, f, g, kv, jv):
        p = Polynomial.from_affine(f) * Polynomial.from_affine(g)
        env = {k: kv, j: jv}
        assert p.evaluate(env) == f.evaluate(env) * g.evaluate(env)

    @given(triplets(), st.integers(0, 3))
    @settings(max_examples=40)
    def test_sum_over_matches_enumeration(self, t, deg):
        p = Polynomial.variable(k) ** deg
        s = p.sum_over(k, t.lo, t.hi, t.step)
        assert s.const == sum(Fraction(v) ** deg for v in t)

    @given(st.integers(0, 60), st.integers(0, 6))
    def test_faulhaber(self, n, p):
        assert sum_powers(n, p) == sum(Fraction(t) ** p for t in range(n))


class TestTripletProperties:
    @given(triplets())
    def test_sigmas_match_enumeration(self, t):
        assert sigma0(t) == len(list(t))
        assert sigma1(t) == sum(t)
        assert sigma2(t) == sum(v * v for v in t)

    @given(triplets(), st.integers(1, 8))
    def test_split_partitions(self, t, m):
        parts = t.split(m)
        assert [v for p in parts for v in p] == list(t)

    @given(triplets(), st.fractions(min_value=-100, max_value=100))
    @settings(max_examples=60)
    def test_split_at_crossing_covers(self, t, cross):
        parts = split_at_crossing(t, cross)
        assert [v for p in parts for v in p] == list(t.normalized())
        # each side is sign-pure wrt (v - cross)
        for p in parts:
            signs = {(v > cross) - (v < cross) for v in p}
            assert len(signs - {0}) <= 1


class TestLPProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 9), st.integers(-20, 20)),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_weighted_median_objective(self, points):
        """min sum w|x-a| solved by LP equals brute force over candidates."""
        m = LPModel()
        x = m.var("x")
        obj = None
        for i, (w, a) in enumerate(points):
            t = m.var(f"t{i}", lower=0)
            m.add_abs_bound(t, x - a)
            obj = t * w if obj is None else obj + t * w
        m.minimize(obj)
        s = m.solve()
        best = min(
            sum(w * abs(c - a) for w, a in points)
            for c in {a for _, a in points}
        )
        assert s.objective == __import__("pytest").approx(best, abs=1e-6)
