"""Linear-program model layer.

Section 4.1 reduces offset alignment to linear programming: minimize
``sum w_xy * theta_xy`` subject to ``theta_xy >= +-(pi_x - pi_y)`` plus the
linear node constraints.  This module is the declarative model those
reductions target.  :meth:`LPModel.solve` hands it to HiGHS (through
``scipy.optimize.linprog``), the single LP solver, and trusts no answer
it has not checked: every optimal solution is certified against the
model's own dense arrays — primal feasibility, the reported objective,
dual stationarity with the sign conditions on the multipliers, and the
duality gap — before it is returned (solve fast in floating point, then
verify, as Etessami, Stewart & Yannakakis advocate).  A failed check
raises :class:`LPCertificateError`.

Variables are free (unbounded both ways) by default, matching offsets
which may be negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal, Mapping, Union

import numpy as np
from scipy.optimize import linprog

Number = Union[int, float, Fraction]

#: Relative tolerance of every certificate check (:func:`certify` scales
#: each residual by the magnitudes it sums).  HiGHS works to 1e-7 on its
#: scaled model; over the paper programs, kernels, generator families
#: and the n = 100…400 extent sweep its worst residuals are 3.6e-9
#: (primal), 1.7e-10 (stationarity) and 1.7e-14 (gap), so 1e-6 leaves a
#: wide margin for round-off while a wrong answer misses it by far.
CERT_TOL = 1e-6


class LPError(RuntimeError):
    """The LP solver failed to return an answer."""


class LPCertificateError(LPError):
    """An answer reported optimal failed its certificate check."""


@dataclass(frozen=True)
class Variable:
    """A decision variable.  Identity is by index within its model.

    Arithmetic operators lift to :class:`LinExpr` so constraints read
    naturally (``m.add(x - y, ">=", 1)``).
    """

    index: int
    name: str

    def __repr__(self) -> str:
        return self.name

    def __add__(self, other):
        return LinExpr.of(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        return LinExpr.of(self) - other

    def __rsub__(self, other):
        return -LinExpr.of(self) + other

    def __neg__(self):
        return -LinExpr.of(self)

    def __mul__(self, k):
        return LinExpr.of(self) * k

    __rmul__ = __mul__


class LinExpr:
    """A linear expression ``sum c_j x_j + const`` over model variables."""

    __slots__ = ("coeffs", "const")

    def __init__(
        self,
        coeffs: Mapping[Variable, Number] | None = None,
        const: Number = 0,
    ) -> None:
        self.coeffs: dict[Variable, float] = {}
        if coeffs:
            for v, c in coeffs.items():
                fc = float(c)
                if fc != 0.0:
                    self.coeffs[v] = fc
        self.const = float(const)

    @classmethod
    def of(cls, v: "Variable | LinExpr | Number") -> "LinExpr":
        if isinstance(v, LinExpr):
            return v
        if isinstance(v, Variable):
            return cls({v: 1.0})
        return cls({}, v)

    def __add__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        o = LinExpr.of(other)
        coeffs = dict(self.coeffs)
        for v, c in o.coeffs.items():
            coeffs[v] = coeffs.get(v, 0.0) + c
        return LinExpr(coeffs, self.const + o.const)

    __radd__ = __add__

    def __neg__(self) -> "LinExpr":
        return LinExpr({v: -c for v, c in self.coeffs.items()}, -self.const)

    def __sub__(self, other: "Variable | LinExpr | Number") -> "LinExpr":
        return self + (-LinExpr.of(other))

    def __rsub__(self, other: Number) -> "LinExpr":
        return (-self) + other

    def __mul__(self, k: Number) -> "LinExpr":
        kf = float(k)
        return LinExpr({v: c * kf for v, c in self.coeffs.items()}, self.const * kf)

    __rmul__ = __mul__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{c:+g}*{v.name}" for v, c in self.coeffs.items()]
        if self.const or not parts:
            parts.append(f"{self.const:+g}")
        return " ".join(parts)


Sense = Literal["<=", ">=", "=="]


@dataclass
class Constraint:
    """``expr (sense) rhs`` with the expression's constant folded into rhs."""

    expr: LinExpr
    sense: Sense
    rhs: float
    name: str = ""


@dataclass(frozen=True)
class LPCertificate:
    """Relative residuals of a certified optimum, each at most
    :data:`CERT_TOL`."""

    primal_residual: float
    stationarity: float
    rel_gap: float


@dataclass
class LPSolution:
    status: Literal["optimal", "infeasible", "unbounded"]
    objective: float = 0.0
    values: dict[Variable, float] = field(default_factory=dict)
    certificate: LPCertificate | None = None

    def __getitem__(self, v: Variable) -> float:
        return self.values[v]


class LPModel:
    """A minimization LP built incrementally.

    Typical use::

        m = LPModel()
        x = m.var("x"); y = m.var("y", lower=0)
        m.add(x - y, ">=", 1)
        m.minimize(x + 2*y)
        sol = m.solve()
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.lower: list[float | None] = []
        self.upper: list[float | None] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()

    def var(
        self,
        name: str | None = None,
        lower: Number | None = None,
        upper: Number | None = None,
    ) -> Variable:
        """Create a variable; default bounds are free (-inf, +inf)."""
        idx = len(self.variables)
        v = Variable(idx, name or f"x{idx}")
        self.variables.append(v)
        self.lower.append(None if lower is None else float(lower))
        self.upper.append(None if upper is None else float(upper))
        return v

    def add(
        self,
        expr: "Variable | LinExpr",
        sense: Sense,
        rhs: Number = 0,
        name: str = "",
    ) -> Constraint:
        e = LinExpr.of(expr)
        con = Constraint(
            LinExpr(e.coeffs), sense, float(rhs) - e.const, name
        )
        self.constraints.append(con)
        return con

    def add_abs_bound(
        self, bound: Variable, inner: "Variable | LinExpr", name: str = ""
    ) -> None:
        """Add ``bound >= |inner|`` via the paper's two inequalities.

        Section 4.1: ``theta + pi_x - pi_y >= 0`` and
        ``theta - pi_x + pi_y >= 0`` guarantee ``theta >= |pi_x - pi_y|``;
        at optimality equality holds whenever theta has positive objective
        weight.
        """
        e = LinExpr.of(inner)
        self.add(LinExpr.of(bound) + e, ">=", 0, name=f"{name}+")
        self.add(LinExpr.of(bound) - e, ">=", 0, name=f"{name}-")

    def minimize(self, expr: "Variable | LinExpr") -> None:
        self.objective = LinExpr.of(expr)

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def solve(self) -> LPSolution:
        """Solve with HiGHS; certify and return an optimal answer.

        Raises :class:`LPError` when HiGHS fails outright and
        :class:`LPCertificateError` when it reports an optimum that does
        not pass :func:`certify`.
        """
        dense = self.to_dense()
        c, a_ub, b_ub, a_eq, b_eq, bounds = dense
        res = linprog(
            c,
            A_ub=a_ub if a_ub.size else None,
            b_ub=b_ub if b_ub.size else None,
            A_eq=a_eq if a_eq.size else None,
            b_eq=b_eq if b_eq.size else None,
            bounds=bounds,
            method="highs",
        )
        if res.status == 2:
            return LPSolution("infeasible")
        if res.status == 3:
            return LPSolution("unbounded")
        if not res.success:
            raise LPError(f"{self.name}: HiGHS failed: {res.message}")
        y_ub, y_eq = res.ineqlin.marginals, res.eqlin.marginals
        z_lo, z_hi = res.lower.marginals, res.upper.marginals
        cert = certify(dense, res.x, res.fun, y_ub, y_eq, z_lo, z_hi, name=self.name)
        values = {v: float(res.x[v.index]) for v in self.variables}
        return LPSolution(
            "optimal", float(res.fun) + self.objective.const, values, cert
        )

    # -- dense export -----------------------------------------------------------

    def to_dense(self):
        """Return ``(c, A_ub, b_ub, A_eq, b_eq, bounds)`` as numpy arrays.

        All constraints are normalized: ``<=`` rows in A_ub, ``==`` rows in
        A_eq (``>=`` rows are negated into ``<=``).
        """
        n = self.num_vars

        def dense_row(expr: LinExpr, sign: float) -> np.ndarray:
            row = np.zeros(n)
            for v, coef in expr.coeffs.items():
                row[v.index] = sign * coef
            return row

        rows: dict[str, tuple[list, list]] = {"<=": ([], []), "==": ([], [])}
        for con in self.constraints:
            sign = -1.0 if con.sense == ">=" else 1.0
            a, b = rows["==" if con.sense == "==" else "<="]
            a.append(dense_row(con.expr, sign))
            b.append(sign * con.rhs)
        (a_ub, b_ub), (a_eq, b_eq) = rows["<="], rows["=="]
        return (
            dense_row(self.objective, 1.0),
            np.array(a_ub).reshape(len(a_ub), n),
            np.array(b_ub, dtype=float),
            np.array(a_eq).reshape(len(a_eq), n),
            np.array(b_eq, dtype=float),
            list(zip(self.lower, self.upper)),
        )


def _max(v: np.ndarray) -> float:
    """Largest entry (NaN if any entry is NaN), 0 for an empty vector."""
    return float(v.max()) if v.size else 0.0


def certify(dense, x, objective, y_ub, y_eq, z_lo, z_hi, name="lp") -> LPCertificate:
    """Certify ``x`` as an optimum of ``dense`` (:meth:`LPModel.to_dense`).

    ``objective`` is the solver's reported ``c·x``.  The multipliers use
    HiGHS's marginal convention for ``min c·x`` subject to
    ``A_ub x <= b_ub``, ``A_eq x == b_eq``, ``lo <= x <= hi``:
    ``y_ub <= 0``, ``z_lo >= 0``, ``z_hi <= 0``, zero on an infinite bound.
    Primal feasibility (rows and bounds), the reported objective against
    ``c·x``, stationarity ``c − A_ubᵀy_ub − A_eqᵀy_eq − z_lo − z_hi = 0``
    with those sign conditions, and the duality gap are each measured
    relative to the magnitudes they sum; together they prove optimality.
    Returns the residuals, or raises :class:`LPCertificateError` naming
    the worst check over :data:`CERT_TOL`.
    """
    c, a_ub, b_ub, a_eq, b_eq, bounds = dense
    x, y_ub, y_eq, z_lo, z_hi = (
        np.asarray(v, dtype=float) for v in (x, y_ub, y_eq, z_lo, z_hi)
    )
    lo = np.array([-np.inf if b is None else b for b, _ in bounds], dtype=float)
    hi = np.array([np.inf if b is None else b for _, b in bounds], dtype=float)
    has_lo, has_hi = np.isfinite(lo), np.isfinite(hi)
    a, b = np.vstack([a_ub, a_eq]), np.concatenate([b_ub, b_eq])
    y = np.concatenate([y_ub, y_eq])
    ax, abs_a = np.abs(x), np.abs(a)

    excess = a @ x - b
    n_ub = len(b_ub)
    excess[:n_ub] = np.maximum(excess[:n_ub], 0.0)  # slack <= rows are fine
    out_of_bounds = np.maximum(np.maximum(lo - x, x - hi), 0.0)
    primal_residual = _max(np.concatenate([
        np.abs(excess) / (1 + np.abs(b) + abs_a @ ax),
        out_of_bounds / (1 + ax),
    ]))

    grad = c - a.T @ y - z_lo - z_hi
    grad_scale = 1 + np.abs(c) + abs_a.T @ np.abs(y) + np.abs(z_lo) + np.abs(z_hi)
    wrong_sign = np.concatenate([
        np.maximum(y_ub, 0.0),
        np.where(has_lo, np.maximum(-z_lo, 0.0), np.abs(z_lo)),
        np.where(has_hi, np.maximum(z_hi, 0.0), np.abs(z_hi)),
    ])
    dual_scale = 1 + _max(np.abs(np.concatenate([y, z_lo, z_hi])))
    stationarity = _max(
        np.concatenate([np.abs(grad) / grad_scale, wrong_sign / dual_scale])
    )

    primal = float(c @ x)
    lo_f, hi_f = np.where(has_lo, lo, 0.0), np.where(has_hi, hi, 0.0)
    dual = float(b @ y + lo_f @ z_lo + hi_f @ z_hi)
    checks = {
        "primal residual": primal_residual,
        "objective error": abs(float(objective) - primal) / (1 + float(np.abs(c) @ ax)),
        "stationarity": stationarity,
        "duality gap": abs(primal - dual) / (1 + abs(primal) + abs(dual)),
    }
    failed = {k: v for k, v in checks.items() if not v <= CERT_TOL}  # NaN fails
    if failed:
        what = max(failed, key=lambda k: np.nan_to_num(failed[k], nan=np.inf))
        raise LPCertificateError(
            f"{name}: {what} {failed[what]:.3g} exceeds {CERT_TOL:g}"
        )
    return LPCertificate(primal_residual, stationarity, checks["duality gap"])
