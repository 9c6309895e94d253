"""Exact maximum average degree via max-flow density feasibility tests.

All arithmetic is exact: densities are fractions.Fraction values and the
flow network is scaled to integer capacities, so strict hypotheses like
mad < 4 or mad < 3 are never misclassified by rounding.  Each test is one
preflow push-relabel max flow on Goldberg's vertex network, and Dinkelbach's
iteration chains the tests to the exact value.
"""

from __future__ import annotations

from fractions import Fraction

from .graph import Graph


class _Dinic:
    """Max flow by preflow push-relabel, with integer capacities.

    The class and method keep the names they had when this was Dinic's
    algorithm: the benchmark's tracer times ``_Dinic.max_flow`` as its
    ``density.flow`` span and cannot follow a rename.

    Arc i and its reverse i ^ 1 are stored side by side; ``cap`` holds
    residual capacities.  After ``max_flow``, ``source_side[v]`` says
    whether node v lies on the source side of the smallest minimum cut.
    """

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.source_side: list[bool] = []

    def add_edge(self, u: int, v: int, cap: int, back: int = 0) -> None:
        """Arc u -> v of capacity ``cap`` and its reverse of capacity
        ``back`` (0 for a directed arc, ``cap`` for an undirected edge)."""
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(back)

    def _levels(self, s: int, t: int) -> tuple[list[int], list[list[int]]]:
        """Residual distances to t, by a BFS from t over reversed arcs, and
        the nodes at each distance.  A node that cannot reach t gets n, and
        s gets n + 1 without being entered."""
        n, adj, to, cap = self.n, self.adj, self.to, self.cap
        height = [n] * n
        height[s] = n + 1
        height[t] = 0
        levels = [[t]]
        frontier = levels[0]
        depth = 1
        while True:
            nxt = []
            for v in frontier:
                for i in adj[v]:
                    if cap[i ^ 1]:
                        u = to[i]
                        if height[u] == n:
                            height[u] = depth
                            nxt.append(u)
            if not nxt:
                return height, levels
            levels.append(nxt)
            frontier = nxt
            depth += 1

    def max_flow(self, s: int, t: int) -> int:
        """The value of a maximum flow from s to t: the first phase of
        Goldberg and Tarjan's preflow push-relabel method.

        s saturates its arcs.  A node other than s and t is active while it
        holds excess and its height is below n; the active node of greatest
        height is discharged: it pushes excess down admissible arcs
        (positive residual capacity, height down by one), resuming at its
        current-arc pointer, and relabels to one above its lowest residual
        neighbour when none is left.  Heights stay a valid labelling
        (height(u) <= height(v) + 1 on every residual arc u -> v), so a
        node at n or above cannot reach t.  Two rules lift such nodes at
        once (Cherkassky and Goldberg 1997): a global relabel, a BFS from
        t, sets every height to its distance at the start and after every
        n relabels, and when a relabel empties a height h, no node above h
        can reach t (the gap rule) and each goes to n.

        The phase ends with no active node.  Excess is then left only on
        nodes that cannot reach t, so the excess at t is the capacity of a
        minimum cut: the flow value.  The smallest minimum cut's source
        side is s, the nodes left with excess and every node they reach in
        the residual graph (see ``_density_exceeds``); ``source_side``
        marks it.  The excess is not sent back to s, as the cut needs no
        second phase.
        """
        n, adj, to, cap = self.n, self.adj, self.to, self.cap
        excess = [0] * n
        for i in adj[s]:
            c = cap[i]
            if c:
                cap[i] = 0
                cap[i ^ 1] += c
                excess[to[i]] += c
        relabels = n  # the first pass starts with a global relabel
        while True:
            if relabels >= n:
                # members[h] lists the nodes of height h, and after
                # relabels also nodes that have left it; count[h] is exact
                relabels = 0
                height, members = self._levels(s, t)
                count = [len(level) for level in members]
                active = [[v for v in level if excess[v]] for level in members]
                active[0] = []
                current = [0] * n
                top = len(active) - 1
            bucket = active[top]
            if not bucket:
                if top:
                    top -= 1
                    continue
                break
            u = bucket.pop()
            ex = excess[u]
            h = height[u]
            arcs = adj[u]
            k = current[u]
            end = len(arcs)
            while True:
                below = h - 1
                while k < end:
                    i = arcs[k]
                    c = cap[i]
                    if c:
                        v = to[i]
                        if height[v] == below:
                            if not excess[v] and v != t:
                                active[below].append(v)
                            if c > ex:
                                cap[i] = c - ex
                                cap[i ^ 1] += ex
                                excess[v] += ex
                                ex = 0
                                break
                            cap[i] = 0
                            cap[i ^ 1] += c
                            excess[v] += c
                            ex -= c
                            if not ex:
                                break
                    k += 1
                if not ex:
                    break
                # relabel u: no admissible arc is left
                relabels += 1
                count[h] -= 1
                if not count[h]:
                    # gap: no node above h reaches t
                    for level in members[h + 1:]:
                        for v in level:
                            height[v] = n
                    del members[h + 1:], count[h + 1:], active[h + 1:]
                    h = height[u] = n
                    break
                low = n
                for i in arcs:
                    if cap[i] and height[to[i]] < low:
                        low = height[to[i]]
                h = low + 1
                if h >= n:
                    h = height[u] = n
                    break
                height[u] = h
                if h == len(members):
                    members.append([])
                    count.append(0)
                    active.append([])
                members[h].append(u)
                count[h] += 1
                k = 0
            excess[u] = ex
            current[u] = k
            if below > top:
                top = below
        stack = [s] + [v for v in range(n) if excess[v] and v != t]
        side = [False] * n
        for v in stack:
            side[v] = True
        while stack:
            u = stack.pop()
            for i in adj[u]:
                if cap[i] and not side[to[i]]:
                    side[to[i]] = True
                    stack.append(to[i])
        self.source_side = side
        return excess[t]


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
    maximisers, and the smallest minimum-cut source side gives the
    smallest maximiser.

    ``max_flow`` stops at a maximum preflow and marks as that side the
    set X of s, the nodes left with excess and all they reach in the
    residual graph.  t is not in X: s and the excess nodes sit at height n
    or more, so none of them reaches t.  X is a minimum cut: no residual
    arc leaves X, so every arc out of X is saturated and every arc into X
    carries no flow, and outside X only t holds excess, so the flow value
    is the capacity of X.  X is inside every minimum-cut source side Y:
    the excess at t is at most the net flow out of Y, which is at most
    Y's capacity, the flow value, so equality holds throughout.  Then no
    node outside Y but t holds excess and no residual arc leaves Y, so Y
    holds s and the excess nodes and is closed under residual reach.  X
    is thus the set that the residual graph of any maximum flow reaches
    from s, and every step of ``_dinkelbach`` cuts the same set whatever
    maximum flow algorithm runs.
    """
    if g.m == 0:
        return None
    n = g.n
    net, excess = _vertex_network(g, p, q)
    if net.max_flow(n, n + 1) >= excess:
        return None
    return {v for v in range(n) if net.source_side[v]}


def _vertex_network(g: Graph, p: int, q: int) -> tuple[_Dinic, int]:
    """Goldberg's network for threshold p/q (see ``_density_exceeds``) and
    the sum of its source capacities.

    The source is node n and the sink node n + 1.  Edge e = (u, v), u < v,
    is the arc pair 2e (u -> v) and 2e + 1 (v -> u), so after a flow the
    residual capacity of arc 2e is u's share of the edge's 2q units and
    that of arc 2e + 1 is v's: each share starts at q and moves with the
    flow between them.
    """
    n, edges = g.n, g.edges
    net = _Dinic(n + 2)
    net.to = [w for u, v in edges for w in (v, u)]
    net.cap = [q] * (2 * len(edges))
    net.adj = [[2 * e + (edges[e][1] == v) for e in g.incident_edge_ids(v)]
               for v in range(n)] + [[], []]
    excess = 0
    for v in range(n):
        x = q * len(net.adj[v]) - p
        if x > 0:
            net.add_edge(n, v, x)
            excess += x
        elif x < 0:
            net.add_edge(v, n + 1, -x)
    return net, excess


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
