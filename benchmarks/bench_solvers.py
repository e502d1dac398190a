"""E15 — solver substrates: scaling and cross-validation.

Not a paper table; supports every experiment above.  Regenerates:
HiGHS timing and certificates on alignment-shaped LPs, and
Dinic vs Edmonds-Karp vs networkx on replication-shaped flow networks.
"""

import numpy as np
import networkx as nx
import pytest

from repro.solvers import FlowNetwork, LPModel
from repro.solvers.lp import CERT_TOL


def _alignment_shaped_lp(n_ports: int, seed: int) -> LPModel:
    """min sum w|x_i - x_j - c_ij| chains, like the offset LP."""
    rng = np.random.default_rng(seed)
    m = LPModel()
    xs = [m.var(f"x{i}") for i in range(n_ports)]
    m.add(xs[0], "==", 0)
    obj = None
    for e in range(2 * n_ports):
        i, j = rng.integers(0, n_ports, size=2)
        if i == j:
            continue
        c = int(rng.integers(-5, 6))
        w = int(rng.integers(1, 10))
        t = m.var(f"t{e}", lower=0)
        m.add_abs_bound(t, xs[int(i)] - xs[int(j)] - c)
        obj = t * w if obj is None else obj + t * w
    m.minimize(obj)
    return m


def test_lp_timing(benchmark):
    m = _alignment_shaped_lp(24, seed=7)
    sol = benchmark(m.solve)
    assert sol.status == "optimal"


def test_alignment_shaped_lps_certify():
    for seed in range(5):
        sol = _alignment_shaped_lp(30, seed).solve()
        assert sol.status == "optimal"
        cert = sol.certificate
        assert max(cert.primal_residual, cert.stationarity, cert.rel_gap) <= CERT_TOL


def _random_flow_network(n: int, seed: int):
    rng = np.random.default_rng(seed)
    g = FlowNetwork()
    G = nx.DiGraph()
    for _ in range(4 * n):
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        c = int(rng.integers(1, 50))
        g.add_edge(int(u), int(v), c)
        if G.has_edge(int(u), int(v)):
            G[int(u)][int(v)]["capacity"] += c
        else:
            G.add_edge(int(u), int(v), capacity=c)
    g.node(0)
    g.node(n - 1)
    G.add_node(0)
    G.add_node(n - 1)
    return g, G


@pytest.mark.parametrize("method", ["dinic", "edmonds-karp"])
def test_maxflow_timing(benchmark, method):
    g, _ = _random_flow_network(60, seed=3)
    value = benchmark(lambda: g.max_flow(0, 59, method=method))
    assert value >= 0


def test_maxflow_agrees_with_networkx_at_scale():
    for seed in range(4):
        g, G = _random_flow_network(40, seed)
        ours = g.max_flow(0, 39)
        theirs = nx.maximum_flow_value(G, 0, 39)
        assert ours == pytest.approx(theirs)
