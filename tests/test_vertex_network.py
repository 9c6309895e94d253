"""Goldberg's vertex network and its push-relabel flow against two oracles.

``_edge_node_exceeds`` is the edge-node construction with the recursive
Dinic that solved it, kept verbatim, and ``oracles.dinic_exceeds`` is the
vertex network solved by the iterative Dinic that push-relabel replaced.
Each reads the smallest maximiser of 2q*e(H) - p*|H| from its own residual
graph, and ``_density_exceeds`` must return that same set, so
``density_at_least`` and ``mad_witness`` must not move either.
"""

import random
from collections import deque
from fractions import Fraction

from aecolor import density
from aecolor.cli import generate_sparse
from aecolor.density import (
    _density_exceeds,
    _Dinic,
    _vertex_network,
    density_at_least,
    mad_exact,
    mad_witness,
)
from conftest import hex_lattice, ladder, random_graph
from oracles import dinic_exceeds


class _RecursiveDinic:
    def __init__(self, n):
        self.n = n
        self.adj = [[] for _ in range(n)]
        self.to = []
        self.cap = []

    def add_edge(self, u, v, cap):
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s, t):
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                for i in self.adj[u]:
                    if self.cap[i] > 0 and level[self.to[i]] == -1:
                        level[self.to[i]] = level[u] + 1
                        q.append(self.to[i])
            if level[t] == -1:
                return flow
            it = [0] * self.n

            def dfs(u, pushed):
                if u == t:
                    return pushed
                while it[u] < len(self.adj[u]):
                    i = self.adj[u][it[u]]
                    v = self.to[i]
                    if self.cap[i] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[i]))
                        if got > 0:
                            self.cap[i] -= got
                            self.cap[i ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 200)
                if pushed == 0:
                    break
                flow += pushed

    def source_side(self, s):
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for i in self.adj[u]:
                if self.cap[i] > 0 and self.to[i] not in seen:
                    seen.add(self.to[i])
                    q.append(self.to[i])
        return seen


def _edge_node_exceeds(g, p, q):
    m, n = g.m, g.n
    if m == 0:
        return None
    big = 2 * q * m + 1  # effectively infinite
    net = _RecursiveDinic(1 + m + n + 1)
    src, snk = 0, 1 + m + n
    for e, (u, v) in enumerate(g.edges):
        net.add_edge(src, 1 + e, 2 * q)
        net.add_edge(1 + e, 1 + m + u, big)
        net.add_edge(1 + e, 1 + m + v, big)
    for v in range(n):
        net.add_edge(1 + m + v, snk, p)
    flow = net.max_flow(src, snk)
    if flow >= 2 * q * m:
        return None
    side = net.source_side(src)
    return {v for v in range(n) if 1 + m + v in side}


def _corpus(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 14)
        m = rng.randint(0, min(n * (n - 1) // 2, 3 * n))
        yield rng, random_graph(rng, n, m)


def test_vertex_network_cuts_the_same_set():
    """Same set (None included) as both oracles on 1,500 random graphs and
    thresholds: a random p/q around the densities that occur, the graph's
    own density 2m/n where Dinkelbach starts, and (pn-1)/(qn), just below a
    random target p/q, so that sets of density exactly p/q count as
    denser."""
    found = checked = 0
    for rng, g in _corpus(60, 1500):
        q = rng.randint(1, g.n)
        cases = [(rng.randint(0, 2 * g.max_degree() * q + 1), q),
                 (2 * g.m, g.n)]
        target = Fraction(rng.randint(1, 2 * g.n), rng.randint(1, g.n))
        cases.append((target.numerator * g.n - 1, target.denominator * g.n))
        for p, q in cases:
            got = _density_exceeds(g, p, q)
            assert got == _edge_node_exceeds(g, p, q), (g.edges, p, q)
            assert got == dinic_exceeds(g, p, q), (g.edges, p, q)
            found += got is not None
            checked += 1
    assert 1000 < found < checked - 1000  # both answers are well represented


def test_witnesses_unchanged(monkeypatch):
    """density_at_least and mad_witness give the same answers on either
    network."""
    rng = random.Random(61)
    graphs = [g for _, g in _corpus(62, 300)]
    targets = [Fraction(rng.randint(1, 2 * g.n), rng.randint(1, g.n)) for g in graphs]
    new = [(density_at_least(g, t), mad_witness(g)) for g, t in zip(graphs, targets)]
    monkeypatch.setattr(density, "_density_exceeds", _edge_node_exceeds)
    old = [(density_at_least(g, t), mad_witness(g)) for g, t in zip(graphs, targets)]
    assert new == old


def test_flow_follows_a_path_deeper_than_the_recursion_limit():
    length = 20_000
    net = _Dinic(length + 1)
    for v in range(length):
        net.add_edge(v, v + 1, 3 if v == length // 2 else 5 + v % 7, v % 3)
    assert net.max_flow(0, length) == 3
    # the excess stranded before the bottleneck marks exactly its side
    reached = {v for v, side in enumerate(net.source_side) if side}
    assert reached == set(range(length // 2 + 1))


def test_every_dinkelbach_step_cuts_the_oracle_set(monkeypatch):
    """At each threshold that Dinkelbach's iteration reaches on uniform
    graphs with n = 2,000 and m = 3,000, the cut is the oracle's set.  A
    flow that ends its preflow early still lets the iteration reach mad,
    so only a test of each step catches it."""
    steps = []

    def checked(g, p, q):
        got = _density_exceeds(g, p, q)
        assert got == dinic_exceeds(g, p, q), (p, q)
        steps.append(got)
        return got

    monkeypatch.setattr(density, "_density_exceeds", checked)
    for seed in range(2):
        steps.clear()
        mad_exact(generate_sparse(2000, 3000, seed))
        assert len(steps) >= 2 and steps[-1] is None


def _certify(g):
    """mad's upper certificate from the flow at p/q = mad: each edge's 2q
    units split between its ends, and no vertex receives more than p."""
    value = mad_exact(g)
    p, q = value.numerator, value.denominator
    net, excess = _vertex_network(g, p, q)
    assert net.max_flow(g.n, g.n + 1) == excess
    load = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        to_u, to_v = net.cap[2 * e], net.cap[2 * e + 1]
        assert 0 <= to_u <= 2 * q and 0 <= to_v <= 2 * q
        assert to_u + to_v == 2 * q
        load[u] += to_u
        load[v] += to_v
    assert max(load) <= p
    return value


def test_last_flow_splits_each_edge_within_mad():
    """The flow at p/q = mad is a fractional orientation of in-degree at
    most mad (Hakimi 1965): v's share of uv, q + f(u->v) - f(v->u), is the
    residual capacity of the arc v -> u.  On the random small graphs, the
    ladder and the hexagonal lattice."""
    for _, g in _corpus(60, 1500):
        if g.m:
            _certify(g)
    assert _certify(ladder(2000)) == Fraction(2999, 1000)
    assert _certify(hex_lattice(8, 8)) == Fraction(215, 77)
