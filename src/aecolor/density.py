"""Exact maximum average degree via max-flow density feasibility tests.

All arithmetic is exact: densities are fractions.Fraction values and the
flow network is scaled to integer capacities, so strict hypotheses like
mad < 4 or mad < 3 are never misclassified by rounding.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import Graph


class _Dinic:
    """Max flow with integer capacities and deterministic arc order.

    Arc i and its reverse i ^ 1 are stored side by side; ``cap`` holds
    residual capacities.  After ``max_flow``, ``level`` is its last BFS,
    which ran to completion, so the nodes with a level >= 0 are those
    reachable from s in the residual graph: a minimum cut's source side.
    """

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.level: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, back: int = 0) -> None:
        """Arc u -> v of capacity ``cap`` and its reverse of capacity
        ``back`` (0 for a directed arc, ``cap`` for an undirected edge)."""
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(back)

    def _levels(self, s: int, t: int) -> list[int]:
        """BFS distances from s in the residual graph, stopped as soon as t
        is labelled: every node nearer than t is labelled by then, and no
        other node at t's distance or beyond lies on a shortest s-t path."""
        adj, to, cap = self.adj, self.to, self.cap
        level = [-1] * self.n
        level[s] = 0
        frontier = [s]
        depth = 0
        while frontier:
            depth += 1
            nxt = []
            for u in frontier:
                for i in adj[u]:
                    if cap[i] and level[to[i]] < 0:
                        v = to[i]
                        level[v] = depth
                        if v == t:
                            return level
                        nxt.append(v)
            frontier = nxt
        return level

    def max_flow(self, s: int, t: int) -> int:
        """Dinic's algorithm with an explicit path stack, so the depth of
        the level graph is not limited by the interpreter's recursion limit.

        Each phase walks admissible arcs (positive residual capacity, level
        up by one) from s, each node resuming at its current-arc pointer.
        On reaching t it pushes the path's bottleneck and retreats to the
        tail of the first arc it saturated; a node with no admissible arc
        left is a dead end: its level becomes -1 and the walk backs up one
        arc.  The phase ends when s is a dead end.
        """
        adj, to, cap = self.adj, self.to, self.cap
        flow = 0
        while True:
            level = self._levels(s, t)
            if level[t] < 0:
                self.level = level
                return flow
            it = [0] * self.n
            path: list[int] = []  # arcs from s to u
            u = s
            while True:
                if u == t:
                    pushed = min(cap[i] for i in path)
                    first = -1
                    for j, i in enumerate(path):
                        cap[i] -= pushed
                        cap[i ^ 1] += pushed
                        if first < 0 and not cap[i]:
                            first = j
                    flow += pushed
                    u = to[path[first] ^ 1]
                    del path[first:]
                    continue
                arcs = adj[u]
                k = it[u]
                nxt = level[u] + 1
                end = len(arcs)
                while k < end:
                    i = arcs[k]
                    if cap[i] and level[to[i]] == nxt:
                        break
                    k += 1
                it[u] = k
                if k < end:
                    path.append(i)
                    u = to[i]
                elif u == s:
                    break
                else:
                    level[u] = -1
                    u = to[path.pop() ^ 1]
                    it[u] += 1


def _density_exceeds(g: Graph, p: int, q: int) -> set[int] | None:
    """Vertex set H with 2*q*e(H) > p*|H| if one exists, else None.

    The set returned is the smallest maximiser of 2q*e(H) - p*|H|.

    Goldberg's vertex network (Goldberg 1984, "Finding a maximum density
    subgraph") on the n vertices plus a source s and a sink t.  Each edge
    hands q units to each of its endpoints, so vertex v holds q*d(v) and
    its excess over p is x(v) = q*d(v) - p.  A vertex with x(v) > 0 gets
    an arc s -> v of capacity x(v), one with x(v) < 0 an arc v -> t of
    capacity -x(v), and each edge uv an arc of capacity q each way.  With
    E the sum of the positive excesses, the cut whose source side is
    {s} + H costs

        sum over v not in H of max(x(v), 0) + sum over v in H of
        max(-x(v), 0) + q*d(H, V - H)
      = E - sum over v in H of x(v) + q*d(H, V - H)
      = E + p*|H| - q*(2*e(H) + d(H, V - H)) + q*d(H, V - H)
      = E + p*|H| - 2q*e(H),

    as the degrees in H sum to 2*e(H) + d(H, V - H).  H = {} costs E, so
    a set denser than p/q exists iff the max flow is below E.  Every cut
    is the cut of one H, so the minimum cuts are exactly those of the
    maximisers, and the residual-reachable side of a max flow is the
    smallest minimum-cut source side: the smallest maximiser.
    """
    m, n = g.m, g.n
    if m == 0:
        return None
    net = _Dinic(n + 2)
    src, snk = n, n + 1
    excess = 0
    for v in range(n):
        x = q * g.degree(v) - p
        if x > 0:
            net.add_edge(src, v, x)
            excess += x
        elif x < 0:
            net.add_edge(v, snk, -x)
    for u, v in g.edges:
        net.add_edge(u, v, q, q)
    if net.max_flow(src, snk) >= excess:
        return None
    return {v for v in range(n) if net.level[v] >= 0}


def subgraph_edge_count(g: Graph, vertices: set[int]) -> int:
    return sum(1 for u, v in g.edges if u in vertices and v in vertices)


def density_at_least(g: Graph, target: Fraction) -> tuple[bool, list[int] | None]:
    """Is there a nonempty vertex set H with 2*e(H)/|H| >= target?

    Returns (answer, witness vertex list): whether mad(g) reaches the
    target and, if it does, the largest set of density mad
    (``_dinkelbach``), whose density is re-counted here.
    """
    if target < 0:
        raise ValueError("density target must be nonnegative")
    if g.n == 0:
        return False, None
    if target == 0:
        return True, [0]
    mad, witness = _dinkelbach(g)
    if mad < target:
        return False, None
    h = sorted(witness)
    if 2 * subgraph_edge_count(g, witness) < target * len(h):
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

    The last H is the largest set of density mad, the witness of
    ``mad_witness`` and ``density_at_least``: sets of maximum density are
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
