"""Reference oracles for the tests: brute force that shares no code with the
algorithms it checks.

``mad_brute`` maximises the density over every vertex subset; it checks
``aecolor.density.mad_exact``.  ``connected_classes`` lists the connected
graphs on n vertices, one per isomorphism class, without the networkx atlas
that ``aecolor.structure.connected_graphs_upto`` reads.  ``replay_trace``
rebuilds a coloring from the colorer's move log on a plain list, without
the coloring kernel that made the moves.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

from aecolor.coloring import EdgeColoring
from aecolor.graph import Graph, build_graph, is_connected


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
