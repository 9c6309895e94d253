"""Exact maximum average degree via max-flow density feasibility tests.

All arithmetic is exact: densities are fractions.Fraction values and the
flow network is scaled to integer capacities, so strict hypotheses like
mad < 4 or mad < 3 are never misclassified by rounding.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from .graph import Graph

INF = float("inf")


class _Dinic:
    """Max flow with integer capacities and deterministic arc order."""

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
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

            def dfs(u: int, pushed: int) -> int:
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

    def source_side(self, s: int) -> set[int]:
        seen = {s}
        q = deque([s])
        while q:
            u = q.popleft()
            for i in self.adj[u]:
                if self.cap[i] > 0 and self.to[i] not in seen:
                    seen.add(self.to[i])
                    q.append(self.to[i])
        return seen


def _density_exceeds(g: Graph, p: int, q: int) -> set[int] | None:
    """Vertex set H with 2*q*e(H) > p*|H| if one exists, else None.

    Goldberg construction: source -> edge node (cap 2q), edge node -> its
    endpoints (cap inf), vertex -> sink (cap p); the min cut equals
    2q*m - max_H (2q*e(H) - p*|H|).
    """
    m, n = g.m, g.n
    if m == 0:
        return None
    big = 2 * q * m + 1  # effectively infinite
    net = _Dinic(1 + m + n + 1)
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


def subgraph_edge_count(g: Graph, vertices: set[int]) -> int:
    return sum(1 for u, v in g.edges if u in vertices and v in vertices)


def density_at_least(g: Graph, target: Fraction) -> tuple[bool, list[int] | None]:
    """Is there a nonempty vertex set H with 2*e(H)/|H| >= target?

    Returns (answer, witness vertex list).  The non-strict test reduces to a
    strict one: with integer edge counts and |H| <= n,
    2q*e(H) >= p*|H|  iff  2qn*e(H) > (pn-1)*|H|.
    """
    if target < 0:
        raise ValueError("density target must be nonnegative")
    if g.n == 0:
        return False, None
    if target == 0:
        return True, [0]
    n = g.n
    p, q = target.numerator, target.denominator
    witness = _density_exceeds(g, p * n - 1, q * n)
    if witness is None:
        return False, None
    h = sorted(witness)
    if 2 * q * subgraph_edge_count(g, witness) < p * len(h):
        raise ValueError(f"min-cut witness has density below {target}")
    return True, h


def _dinkelbach(g: Graph) -> tuple[Fraction, set[int]]:
    """mad(g) and the vertex set of density mad found with it (empty when g
    has no edges).

    Dinkelbach's iteration on Goldberg's cut: from lambda = 2m/n, the
    density of H = V, jump to the density of the min-cut source side H,
    which maximizes 2q*e(H) - p*|H| at lambda = p/q, until no set is
    denser.  Each lambda is the density of one of the finitely many vertex
    sets and strictly increases (checked), so it ends.

    The last H is the largest set of density mad, the one
    ``density_at_least(g, mad)`` returns: sets of maximum density are
    closed under union, so one largest such set D contains all others.  If
    the first test finds no denser set, H = V = D.  Otherwise H was cut at
    some lambda < mad, where each set S scores |S| * (density(S) -
    lambda) / 2 up to a positive factor; H has density mad and scores at
    least D's score, so |H| >= |D|, and H is inside D, so H = D.
    """
    if g.m == 0:
        return Fraction(0), set()
    lam = Fraction(2 * g.m, g.n)
    best = set(range(g.n))
    while (h := _density_exceeds(g, lam.numerator, lam.denominator)) is not None:
        nxt = Fraction(2 * subgraph_edge_count(g, h), len(h)) if h else lam
        if nxt <= lam:
            raise ValueError(f"min-cut witness is not denser than {lam}")
        lam, best = nxt, h
    return lam, best


def mad_exact(g: Graph) -> Fraction:
    """Exact maximum average degree max_H 2|E(H)|/|V(H)| (see
    ``_dinkelbach``)."""
    return _dinkelbach(g)[0]


def mad_witness(g: Graph) -> tuple[Fraction, list[int]]:
    """mad value together with the largest vertex set achieving it, from
    the same min-cuts that compute the value."""
    value, witness = _dinkelbach(g)
    return value, sorted(witness)


def mad_brute(g: Graph) -> Fraction:
    """Brute-force oracle: maximum density over all nonempty vertex subsets.

    Exponential; intended for graphs with at most ~20 vertices.
    """
    if g.n > 22:
        raise ValueError("brute-force mad limited to small graphs")
    if g.m == 0:
        return Fraction(0)
    adj_mask = [0] * g.n
    for u, v in g.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u
    best = Fraction(0)
    for s in range(1, 1 << g.n):
        edges = 0
        size = 0
        rest = s
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            rest ^= low
            size += 1
            edges += (adj_mask[v] & s & (low - 1)).bit_count()
        best = max(best, Fraction(2 * edges, size))
    return best


def planar_girth_bound(girth: int | float) -> Fraction:
    """The Euler-formula bound 2g/(g-2) on mad for planar graphs of girth g."""
    if girth == INF or not isinstance(girth, int):
        raise ValueError("girth bound needs a finite integer girth")
    if girth <= 2:
        raise ValueError("girth must be at least 3")
    return Fraction(2 * girth, girth - 2)
