"""Independent check of the colourings ``aecolor`` prints.

Shares no code with the program: it reads the ``coloring`` triples of the
JSON report and the edge list the benchmark wrote, and tests properness and
acyclicity from scratch.  Acyclicity uses one union-find pass per colour
pair over the edges of those two colours: in a proper colouring every
two-coloured component is a path or a cycle, and an edge whose ends are
already joined closes a cycle.
"""

from __future__ import annotations

from itertools import combinations

Edges = list[tuple[int, int]]


def _find(parent: dict[int, int], x: int) -> int:
    root = x
    while parent.get(root, root) != root:
        root = parent[root]
    while x != root:
        parent[x], x = root, parent.get(x, x)
    return root


def check_coloring(n: int, edges: Edges, triples: list, k: int,
                   total: bool) -> tuple[str | None, int]:
    """Validate ``triples`` ([u, v, colour], colour 0 = uncoloured) against
    the graph.  Returns (problem or None, number of colours used).

    ``total`` demands every edge coloured; otherwise uncoloured edges are
    skipped and the partial colouring must still be proper and acyclic.
    """
    wanted = {(min(u, v), max(u, v)) for u, v in edges}
    if len(triples) != len(wanted):
        return f"{len(triples)} triples for {len(wanted)} edges", 0
    by_color: dict[int, Edges] = {}
    seen: set[tuple[int, int]] = set()
    for u, v, c in triples:
        key = (min(u, v), max(u, v))
        if key not in wanted or key in seen:
            return f"edge {u}-{v} is not in the graph or repeated", 0
        seen.add(key)
        if c == 0:
            if total:
                return f"edge {u}-{v} is uncoloured", 0
            continue
        if not 1 <= c <= k:
            return f"colour {c} outside [1..{k}]", 0
        by_color.setdefault(c, []).append(key)
    for c, cls in by_color.items():
        ends = [x for e in cls for x in e]
        if len(ends) != len(set(ends)):
            return f"colour {c} appears twice at a vertex", 0
    for a, b in combinations(sorted(by_color), 2):
        parent: dict[int, int] = {}
        for u, v in by_color[a] + by_color[b]:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                return f"bichromatic cycle in colours {a},{b} through {u}-{v}", 0
            parent[ru] = rv
    return None, len(by_color)
