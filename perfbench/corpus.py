"""Seeded graph builders for the benchmark corpus.

Every builder returns ``(n, edges)`` with ``edges`` a list of ``(u, v)``
pairs on vertices ``0..n-1``.  Randomness comes only from the
``random.Random`` passed in, so one seed always gives the same corpus.
Nothing here imports ``aecolor``: the inputs do not depend on the code they
measure.  Every builder runs in O(n + m) time and memory.
"""

from __future__ import annotations

import random

import networkx as nx

Edges = list[tuple[int, int]]


def uniform_sparse(n: int, m: int, rng: random.Random) -> tuple[int, Edges]:
    """Uniform simple graph with n vertices and m edges, by rejection.

    Sampling pairs until m distinct ones are drawn takes O(m) expected steps
    while m is at most a quarter of the n(n-1)/2 pairs, which the sparse
    corpus always is (m = 1.5n).
    """
    if 4 * m > n * (n - 1) // 2:
        raise ValueError(f"m={m} is too dense for rejection sampling on n={n}")
    chosen: set[tuple[int, int]] = set()
    edges: Edges = []
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key not in chosen:
            chosen.add(key)
            edges.append(key)
    return n, edges


def from_networkx(g: nx.Graph) -> tuple[int, Edges]:
    """A networkx graph with its vertices renumbered 0..n-1 in sorted order."""
    index = {v: i for i, v in enumerate(sorted(g.nodes()))}
    return len(index), sorted(
        (min(index[u], index[v]), max(index[u], index[v])) for u, v in g.edges()
    )


def hex_lattice(rows: int, cols: int) -> tuple[int, Edges]:
    """Hexagonal lattice of rows x cols hexagons (planar, girth 6, mad < 3)."""
    return from_networkx(nx.hexagonal_lattice_graph(rows, cols))


def random_regular(d: int, n: int, rng: random.Random) -> tuple[int, Edges]:
    """Uniform random d-regular graph on n vertices."""
    return from_networkx(nx.random_regular_graph(d, n, seed=rng.randrange(2**31)))


def complete_bipartite(a: int, b: int, drop: Edges = ()) -> tuple[int, Edges]:
    """K_{a,b} on parts 0..a-1 and a..a+b-1, without the pairs in ``drop``."""
    g = nx.complete_bipartite_graph(a, b)
    g.remove_edges_from(drop)
    return from_networkx(g)


def relabel(n: int, edges: Edges, rng: random.Random) -> tuple[int, Edges]:
    """An isomorphic copy: permuted vertex ids, edge order and orientation.

    Exact answers (chi'_a, criticality, colouring counts) do not change, but
    every label-dependent tie-break in the program sees a new input.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
           for u, v in edges]
    rng.shuffle(out)
    return n, out


def max_degree(n: int, edges: Edges) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg, default=0)


def write_edge_list(path: str, n: int, edges: Edges) -> None:
    """The ``p <n> <m>`` / ``e <u> <v>`` format that ``aecolor`` reads."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"p {n} {len(edges)}\n")
        f.writelines(f"e {u} {v}\n" for u, v in edges)
