"""Optimization substrates: LP (HiGHS, certified), max-flow/min-cut, DP.

These are the "standard packages" the paper assumes.  Max-flow/min-cut
and the labeling DP are implemented from scratch here, with networkx used
only as a cross-check in the tests.  Linear programs are solved by HiGHS
(through scipy), the single LP solver; every optimal answer is
certified against the model before it is returned.
"""

from .lp import (
    Constraint, LinExpr, LPCertificateError, LPError, LPModel, LPSolution, Variable
)
from .maxflow import INF, FlowNetwork
from .dp import (
    DiscreteLabelingProblem,
    LabelEdge,
    LabelingResult,
    identity_relation,
)

__all__ = [
    "Constraint",
    "LinExpr",
    "LPCertificateError",
    "LPError",
    "LPModel",
    "LPSolution",
    "Variable",
    "INF",
    "FlowNetwork",
    "DiscreteLabelingProblem",
    "LabelEdge",
    "LabelingResult",
    "identity_relation",
]
