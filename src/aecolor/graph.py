"""Simple undirected graphs with dense integer vertex and edge ids."""

from __future__ import annotations

from math import inf


class GraphError(ValueError):
    """Raised on malformed graph input (self-loops, duplicates, bad ids)."""


class Graph:
    """Immutable simple undirected graph.

    Vertices are 0..n-1.  Edges carry dense ids 0..m-1 in first-seen order.
    Each vertex keeps its neighbors and its incident edge ids, each as an
    ascending tuple.  Mutating operations (delete_edge) return new Graph
    values.  Two graphs are equal when all four fields are.
    """

    __slots__ = ("n", "edges", "_adj", "_inc")
    n: int
    edges: tuple[tuple[int, int], ...]
    _adj: tuple[tuple[int, ...], ...]
    _inc: tuple[tuple[int, ...], ...]

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...],
                 _adj: tuple[tuple[int, ...], ...], _inc: tuple[tuple[int, ...], ...]):
        init = object.__setattr__  # the instance's own __setattr__ refuses
        init(self, "n", n)
        init(self, "edges", edges)
        init(self, "_adj", _adj)
        init(self, "_inc", _inc)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Graph")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Graph")

    def _key(self) -> tuple:
        return self.n, self.edges, self._adj, self._inc

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return Graph, self._key()

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbors of v, in ascending order."""
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max(map(len, self._adj), default=0)

    def endpoints(self, e: int) -> tuple[int, int]:
        if not 0 <= e < len(self.edges):
            raise GraphError(f"edge id {e} out of range")
        return self.edges[e]

    def incident_edge_ids(self, v: int) -> tuple[int, ...]:
        """Ids of the edges at v, in ascending id order."""
        self._check_vertex(v)
        return self._inc[v]

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range [0, {self.n})")


def build_graph(n: int, pairs: list[tuple[int, int]]) -> Graph:
    """Build a simple graph, rejecting self-loops, duplicates and bad ids."""
    if n < 0:
        raise GraphError("vertex count must be nonnegative")
    adj: list[list[int]] = [[] for _ in range(n)]
    inc: list[list[int]] = [[] for _ in range(n)]
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"duplicate edge ({u},{v})")
        seen.add(key)
        e = len(edges)
        edges.append(key)
        adj[u].append(v)
        adj[v].append(u)
        inc[u].append(e)
        inc[v].append(e)
    return Graph(n, tuple(edges), tuple(tuple(sorted(a)) for a in adj),
                 tuple(map(tuple, inc)))


def n_k(g: Graph, v: int, k: int) -> int:
    """Number of neighbors of v with degree exactly k."""
    return sum(1 for w in g.neighbors(v) if g.degree(w) == k)


def girth(g: Graph) -> float:
    """Length of the shortest cycle; math.inf for forests.

    BFS from every vertex; a non-tree edge at BFS levels d1, d2 closes a
    closed walk of length d1 + d2 + 1 through the root, which contains a
    cycle, and from a root on a shortest cycle some non-tree edge closes
    a walk as long as that cycle.

    Each BFS stops when it pops a vertex u with 2 * dist[u] + 1 >= best.
    An edge is seen first from whichever end is popped first: if the other
    end is unvisited then, the edge joins the tree.  So a non-tree edge
    first seen from u or a later pop has its other end not yet popped,
    and BFS pops in level order: both ends lie at level dist[u] or deeper
    and the walk is at least 2 * dist[u] + 1 long.  The stop drops only
    walks no shorter than the best one found, so the minimum over all
    roots is still the girth.
    """
    best = inf
    dist = [-1] * g.n
    parent = [-1] * g.n
    for s in range(g.n):
        dist[s] = 0
        queue = [s]
        for u in queue:  # the queue grows as the loop reads it
            if 2 * dist[u] + 1 >= best:
                break
            for w in g.neighbors(u):
                if dist[w] == -1:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u:
                    best = min(best, dist[u] + dist[w] + 1)
        for v in queue:  # reset what this BFS touched, not all n
            dist[v] = parent[v] = -1
    return best


def is_2_connected(g: Graph) -> bool:
    """Connected, at least 3 vertices, and no cut vertex (Tarjan lowpoints)."""
    if g.n < 3:
        return False
    disc = [-1] * g.n
    low = [0] * g.n
    timer = 0
    # iterative DFS from vertex 0; g is connected iff it reaches all n
    stack: list[tuple[int, int, iter]] = [(0, -1, iter(g.neighbors(0)))]
    disc[0] = low[0] = timer
    timer += 1
    root_children = 0
    while stack:
        v, parent, it = stack[-1]
        advanced = False
        for w in it:
            if disc[w] == -1:
                if v == 0:
                    root_children += 1
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, v, iter(g.neighbors(w))))
                advanced = True
                break
            elif w != parent:
                low[v] = min(low[v], disc[w])
        if not advanced:
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if pv != 0 and low[v] >= disc[pv]:
                    return False
    return root_children <= 1 and timer == g.n


def delete_edge(g: Graph, e: int) -> Graph:
    """New graph with edge e removed.

    Surviving edges keep their relative order, so ids below e are unchanged
    and ids above shift down by one (ids stay dense).
    """
    u, v = g.endpoints(e)
    pairs = [p for i, p in enumerate(g.edges) if i != e]
    return build_graph(g.n, pairs)


# --- edge-list text format ------------------------------------------------
#
#   # comment
#   p <n> <m>
#   e <u> <v>        (0-based, m lines)

class ParseError(ValueError):
    """A malformed edge list; ``lineno`` is None for an error of the whole
    file, which carries no line prefix, as in ``parse_coloring``."""

    def __init__(self, lineno: int | None, msg: str):
        super().__init__(msg if lineno is None else f"line {lineno}: {msg}")
        self.lineno = lineno


def parse_edge_list(text: str) -> Graph:
    n = None
    m = None
    pairs: list[tuple[int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "e":
            if n is None:
                raise ParseError(lineno, "'e' line before 'p' line")
            if len(parts) != 3:
                raise ParseError(lineno, "expected 'e <u> <v>'")
            try:
                pairs.append((int(parts[1]), int(parts[2])))
            except ValueError:
                raise ParseError(lineno, "non-integer vertex id") from None
        elif tag == "p":
            if n is not None:
                raise ParseError(lineno, "duplicate 'p' line")
            if len(parts) != 3:
                raise ParseError(lineno, "expected 'p <n> <m>'")
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(lineno, "non-integer in 'p' line") from None
        elif tag[0] != "#":
            raise ParseError(lineno, f"unknown record {tag!r}")
    if n is None:
        raise ParseError(None, "missing 'p' line")
    if m is not None and m != len(pairs):
        raise ParseError(None, f"'p' line promises {m} edges, found {len(pairs)}")
    try:
        return build_graph(n, pairs)
    except GraphError as exc:
        raise ParseError(None, str(exc)) from None


def load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as f:
        return parse_edge_list(f.read())
