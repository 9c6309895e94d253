import random
from itertools import combinations

import networkx as nx

from aecolor.coloring import EdgeColoring
from aecolor.graph import Graph, build_graph


def cycle(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return build_graph(n, list(combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def cube() -> Graph:
    # Q3: vertices are 3-bit strings, edges flip one bit
    pairs = []
    for v in range(8):
        for bit in range(3):
            w = v ^ (1 << bit)
            if v < w:
                pairs.append((v, w))
    return build_graph(8, pairs)


def hypercube(d: int) -> Graph:
    # Q_d: vertices are d-bit strings, edges flip one bit
    n = 1 << d
    return build_graph(n, [(v, v ^ 1 << b) for v in range(n) for b in range(d)
                           if v < v ^ 1 << b])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)


def random_graph(rng: random.Random, n: int, m: int) -> Graph:
    pairs = rng.sample(list(combinations(range(n), 2)), m)
    return build_graph(n, pairs)


def from_networkx(h) -> Graph:
    """A networkx graph with its vertices renumbered 0..n-1 in sorted order."""
    index = {v: i for i, v in enumerate(sorted(h.nodes()))}
    return build_graph(len(index), [(index[u], index[v]) for u, v in h.edges()])


def ladder(rungs: int) -> Graph:
    """networkx's ladder: two paths of ``rungs`` vertices joined rung by rung."""
    return from_networkx(nx.ladder_graph(rungs))


def hex_lattice(rows: int, cols: int) -> Graph:
    """networkx's hexagonal lattice of rows x cols hexagons."""
    return from_networkx(nx.hexagonal_lattice_graph(rows, cols))


def edge_index(g: Graph) -> dict[tuple[int, int], int]:
    """Edge ids by their ends, under both orientations."""
    return {p: e for e, (u, v) in enumerate(g.edges) for p in ((u, v), (v, u))}


def load(state, c):
    """``state``, a coloring kernel, with each colored edge of ``c`` set."""
    for e, col in enumerate(c.colors):
        if col:
            state.set(e, col)
    return state


def snapshot(search) -> EdgeColoring:
    """The coloring that ``search``, a coloring kernel, holds."""
    return EdgeColoring(search.k, tuple(search.assign))
