"""Edge colorings, the independent validator, and the coloring file format.

Colors are 1-based integers from the palette {1, ..., k}; 0 means uncolored
in values and files alike.  ``EdgeColoring`` is a value: the functions
taking one return new values and never mutate their inputs.  This module
defines no mutable state.

``properness_violation``, ``trace_bichromatic`` and ``has_bichromatic_cycle``
form the validator.  The mutable coloring kernel, ``solver._Search``, lives
in another module and this one imports nothing from it, so every coloring
the kernel produces is checked by code that did not produce it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph


class ColoringError(ValueError):
    pass


class ImproperColoringError(ColoringError):
    """A coloring gives two edges at ``vertex`` the same color."""

    def __init__(self, vertex: int):
        super().__init__(f"coloring is not proper at vertex {vertex}")
        self.vertex = vertex


@dataclass(frozen=True)
class EdgeColoring:
    """Palette colors of a graph's edges: ``colors[e]`` is the color of edge
    id e, 0 if it is uncolored."""

    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        for e, c in enumerate(self.colors):
            if not 0 <= c <= self.k:
                raise ColoringError(f"color {c} on edge {e} outside [0..{self.k}]")

    def is_total(self) -> bool:
        return 0 not in self.colors

    def colors_used(self) -> set[int]:
        return set(self.colors) - {0}


@dataclass(frozen=True)
class BichromaticTrace:
    """Maximal two-color component: alternating open path or even cycle."""

    colors: tuple[int, int]
    vertices: tuple[int, ...]
    is_cycle: bool


def _color_at(g: Graph, c: EdgeColoring, v: int) -> dict[int, int]:
    """Map color -> neighbor for colored edges at v (proper colorings only)."""
    out: dict[int, int] = {}
    for e in g.incident_edge_ids(v):
        col = c.colors[e]
        if col:
            a, b = g.edges[e]
            out[col] = a + b - v
    return out


def _check_length(g: Graph, c: EdgeColoring) -> None:
    if len(c.colors) != g.m:
        raise ColoringError(f"coloring has {len(c.colors)} entries, graph has {g.m} edges")


def is_proper(g: Graph, c: EdgeColoring) -> bool:
    """True iff no vertex sees the same color on two incident edges."""
    return properness_violation(g, c) is None


def properness_violation(g: Graph, c: EdgeColoring) -> int | None:
    """Return the lowest vertex with two same-colored incident edges, or None.

    One pass over the colored edges, remembering each (vertex, color) pair
    seen.  Raises ColoringError when ``c`` has other than one entry per edge.
    """
    _check_length(g, c)
    span = c.k + 1  # vertex x with color col is the key x * span + col
    seen: set[int] = set()
    bad = None
    for edge, col in zip(g.edges, c.colors):
        if col:
            for x in edge:
                key = x * span + col
                if key not in seen:
                    seen.add(key)
                elif bad is None or x < bad:
                    bad = x
    return bad


def trace_bichromatic(
    g: Graph, c: EdgeColoring, alpha: int, beta: int, v: int
) -> BichromaticTrace | None:
    """The maximal (alpha,beta)-component containing v, or None.

    Requires a proper coloring (so each vertex has at most one alpha edge and
    one beta edge, and the component is a path or cycle by Fact-1 structure).
    Cycle traces start at v and head toward its lower-numbered neighbor.
    Raises ColoringError on equal colors or a coloring of the wrong length.
    """
    if alpha == beta:
        raise ColoringError("the two trace colors must differ")
    _check_length(g, c)
    at_v = _color_at(g, c, v)
    ends = sorted((at_v[col], col) for col in (alpha, beta) if col in at_v)
    if not ends:
        return None

    def walk(col: int) -> list[int]:
        # Properness bounds each vertex to one alpha and one beta edge, so
        # the colors, alternating from col, pin every step.
        seq, cur = [v], v
        while (nxt := _color_at(g, c, cur).get(col)) is not None:
            seq.append(nxt)
            if nxt == v:
                break  # closed a cycle
            cur, col = nxt, alpha + beta - col
        return seq

    seq = walk(ends[0][1])
    if len(ends) == 1 or seq[-1] == v:
        return BichromaticTrace((alpha, beta), tuple(seq), seq[-1] == v)
    # open path through v: extend the other way and stitch
    back = walk(ends[1][1])
    return BichromaticTrace((alpha, beta), tuple(back[:0:-1] + seq), False)


def has_bichromatic_cycle(g: Graph, c: EdgeColoring) -> BichromaticTrace | None:
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


# --- coloring file format ---------------------------------------------------
#
#   k <K>
#   <u> <v> <color>     (color 0 = uncolored)

def parse_coloring(text: str, g: Graph) -> EdgeColoring:
    # g's edge ids by their ends, under both orientations
    by_ends = {p: e for e, (u, v) in enumerate(g.edges) for p in ((u, v), (v, u))}
    k = None
    colors = [0] * g.m
    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        if parts[0] == "k":
            if k is not None:
                raise ColoringError(f"line {lineno}: duplicate 'k' header")
            if len(parts) != 2:
                raise ColoringError(f"line {lineno}: expected 'k <K>'")
            try:
                k = int(parts[1])
            except ValueError:
                raise ColoringError(f"line {lineno}: non-integer palette size") from None
            if k < 0:
                raise ColoringError(f"line {lineno}: negative palette size {k}")
        else:
            if k is None:
                raise ColoringError(f"line {lineno}: edge line before 'k' header")
            if len(parts) != 3:
                raise ColoringError(f"line {lineno}: expected '<u> <v> <color>'")
            try:
                u, v, col = map(int, parts)
            except ValueError:
                raise ColoringError(f"line {lineno}: non-integer in edge line") from None
            e = by_ends.get((u, v))
            if e is None:
                raise ColoringError(f"line {lineno}: edge {u}-{v} not in graph")
            if col == 0:
                continue
            if not 1 <= col <= k:
                raise ColoringError(f"line {lineno}: color {col} outside [1..{k}]")
            if colors[e]:
                raise ColoringError(f"line {lineno}: edge {u}-{v} colored twice")
            colors[e] = col
    if k is None:
        raise ColoringError("missing 'k' header")
    return EdgeColoring(k, tuple(colors))


def format_coloring(g: Graph, c: EdgeColoring) -> str:
    return f"k {c.k}\n" + "".join(
        f"{u} {v} {col}\n" for (u, v), col in zip(g.edges, c.colors))
