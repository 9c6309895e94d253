"""Reference oracles for the tests: brute force that shares no code with the
algorithms it checks.

``is_connected`` is a breadth-first search from vertex 0; it checks
``aecolor.graph.is_2_connected``, which reads connectivity off its own
DFS, and keeps ``connected_classes`` to connected graphs.  ``mad_brute``
maximises the density over every vertex subset; it checks
``aecolor.density.mad_exact``.  ``Dinic`` is the iterative Dinic max flow
that the package's push-relabel replaced, and ``dinic_exceeds`` runs it on
Goldberg's vertex network; they check ``aecolor.density._density_exceeds``.  ``connected_classes`` lists the connected
graphs on n vertices, one per isomorphism class, without the packaged graph
atlas that ``aecolor.structure.connected_graphs_upto`` reads.  ``replay_trace``
rebuilds a coloring from the colorer's move log on a plain list, without
the coloring kernel that made the moves.  ``union_find_bichromatic_cycle``
and ``_closing_end`` are the union-find validator that the package's
path-end merge replaced, kept as they were; they check
``aecolor.coloring.has_bichromatic_cycle``.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations, permutations

from aecolor.coloring import (
    BichromaticTrace,
    EdgeColoring,
    ImproperColoringError,
    properness_violation,
    trace_bichromatic,
)
from aecolor.graph import Graph, build_graph


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    q = deque([0])
    while q:
        u = q.popleft()
        for w in g.neighbors(u):
            if w not in seen:
                seen.add(w)
                q.append(w)
    return len(seen) == g.n


def mad_brute(g: Graph) -> Fraction:
    """Maximum density 2|E(H)|/|V(H)| over all nonempty vertex subsets.

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


def connected_classes(n: int) -> list[Graph]:
    """The connected graphs on exactly n vertices, one per isomorphism class:
    each class's lowest edge bitmask, in ascending order.

    Bit i of a mask is the i-th pair of ``combinations(range(n), 2)``.  The
    masks are walked in ascending order; a marked mask is skipped, and an
    unmarked connected one is kept and the images of its mask under all n!
    vertex permutations are marked.

    This is exact.  Only a kept graph's images are ever marked, so the marked
    masks are exactly the union of the kept graphs' orbits.  The orbit of a
    mask under vertex permutations is its isomorphism class, so a connected
    graph is skipped iff it is isomorphic to an earlier kept one: the kept
    graphs are pairwise non-isomorphic and every connected class has one.
    Each kept graph is the lowest mask of its class: a lower member is
    connected too and was reached first, so it was kept or was skipped for
    an earlier kept graph of the class, and either way the class was marked
    before this mask.  Listing the lowest mask of each connected class in
    ascending order is what a pairwise isomorphism test over the same walk
    keeps, first member per class.
    """
    pairs = list(combinations(range(n), 2))
    bit = {p: 1 << i for i, p in enumerate(pairs)}
    # images[j][i]: the bit of pair i's image under the j-th permutation
    images = [[bit[min(p[u], p[v]), max(p[u], p[v])] for u, v in pairs]
              for p in permutations(range(n))]
    marked = bytearray(1 << len(pairs))
    kept: list[Graph] = []
    for mask in range(len(marked)):
        if marked[mask]:
            continue
        chosen = [i for i in range(len(pairs)) if mask >> i & 1]
        g = build_graph(n, [pairs[i] for i in chosen])
        if not is_connected(g):
            continue
        kept.append(g)
        for image in images:
            marked[sum(image[i] for i in chosen)] = 1
    return kept


def replay_trace(g: Graph, k: int, trace: list) -> EdgeColoring:
    """Re-apply a committed move log from the empty coloring, one color per
    edge in a plain list: ("assign", e, c) gives e the color c, and
    ("repair", edges, colors) gives each of its edges its new color."""
    colors = [0] * g.m
    for move in trace:
        kind = move[0]
        if kind == "assign":
            colors[move[1]] = move[2]
        elif kind == "repair":
            for e, c in zip(move[1], move[2], strict=True):
                colors[e] = c
        else:
            raise ValueError(f"unknown move {kind!r}")
    return EdgeColoring(k, tuple(colors))


class Dinic:
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


def dinic_exceeds(g: Graph, p: int, q: int) -> set[int] | None:
    """The smallest maximiser of 2q*e(H) - p*|H| when it scores above 0,
    else None: Goldberg's vertex network, built arc by arc, solved by
    ``Dinic``, and read from its residual graph as the vertices its last
    BFS reached from the source."""
    m, n = g.m, g.n
    if m == 0:
        return None
    net = Dinic(n + 2)
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


def union_find_bichromatic_cycle(g: Graph, c: EdgeColoring) -> BichromaticTrace | None:
    """Some bichromatic cycle if one exists; None means the coloring is acyclic.

    Rejects an improper coloring with ImproperColoringError, naming the
    vertex ``properness_violation`` returns, and a coloring of the wrong
    length with ColoringError.  A union-find over each color pair in
    turn (``_closing_end``, one root list of n entries for every pair)
    finds the first pair with a cycle in O(n + k*m).  The edge that closes it
    lies on the cycle, which is the whole (a,b)-component of its ends, so
    tracing from one end finds the cycle; it is reported as traced from its
    lowest vertex.
    """
    bad = properness_violation(g, c)
    if bad is not None:
        raise ImproperColoringError(bad)
    by_color: dict[int, list[tuple[int, int]]] = {}
    for edge, col in zip(g.edges, c.colors):
        by_color.setdefault(col, []).append(edge)
    used = sorted(by_color.keys() - {0})  # class 0 is the uncolored edges
    root = list(range(g.n))
    for i, a in enumerate(used):
        for b in used[i + 1:]:
            v = _closing_end(by_color[a], by_color[b], root)
            if v is not None:
                cycle = trace_bichromatic(g, c, a, b, v)
                return trace_bichromatic(g, c, a, b, min(cycle.vertices))
    return None


def _closing_end(matching: list[tuple[int, int]], edges: list[tuple[int, int]],
                 root: list[int]) -> int | None:
    """An end of the first of ``edges`` that closes a cycle with
    ``matching`` and the edges before it, or None if together they form a
    forest.

    ``root`` is a union-find forest (path halving) over the vertices with
    every vertex its own root on entry.  Only the ends of the two lists
    move, and a None return resets just those, so one list of n entries
    serves every color pair of a call.  ``matching`` is a color class of a
    proper coloring, so no two of its edges share an end: each is linked
    directly, and no find runs for it.
    """
    for x, y in matching:
        root[x] = y
    for end, v in edges:
        u = end
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u == v:
            return end
        root[u] = v
    for x, y in matching:
        root[x] = x
        root[y] = y
    for x, y in edges:
        root[x] = x
        root[y] = y
    return None
