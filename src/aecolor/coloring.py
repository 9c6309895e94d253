"""Edge colorings, the independent validator, and the coloring file format.

Colors are 1-based integers from the palette {1, ..., k}; 0 means uncolored
in values and files alike.  ``EdgeColoring`` is a value: the functions
taking one return new values and never mutate their inputs.  This module
defines no mutable state.

``properness_violation``, ``trace_bichromatic`` and ``has_bichromatic_cycle``
form the validator.  ``has_bichromatic_cycle`` takes the colors in order,
numbers each color's edge ends, which finds any vertex the color meets
twice, and merges each later color's edges into the paths of its matching,
one comparison of two path ends per edge, skipping the pairs with a
one-edge class, which hold no cycle: O(k*m) in all, with properness
checked in the same pass.  ``properness_violation`` runs only once a clash
is found, to name the lowest clashing vertex.  The mutable coloring
kernel, ``solver._Search``, lives in another module and this one imports nothing from it, so every
coloring the kernel produces is checked by code that did not produce it.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph


class ColoringError(ValueError):
    pass


class ImproperColoringError(ColoringError):
    """A coloring gives two edges at ``vertex`` the same color."""

    def __init__(self, vertex: int):
        super().__init__(f"coloring is not proper at vertex {vertex}")
        self.vertex = vertex


class EdgeColoring:
    """Palette colors of a graph's edges: ``colors[e]`` is the color of edge
    id e, 0 if it is uncolored.  Immutable; two colorings are equal when
    their k and colors are."""

    __slots__ = ("k", "colors")
    k: int
    colors: tuple[int, ...]

    def __init__(self, k: int, colors: tuple[int, ...]):
        if colors and not 0 <= min(colors) <= max(colors) <= k:
            # name the first edge out of range
            e, c = next((e, c) for e, c in enumerate(colors) if not 0 <= c <= k)
            raise ColoringError(f"color {c} on edge {e} outside [0..{k}]")
        init = object.__setattr__  # the instance's own __setattr__ refuses
        init(self, "k", k)
        init(self, "colors", colors)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable EdgeColoring")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable EdgeColoring")

    def _key(self) -> tuple:
        return self.k, self.colors

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return EdgeColoring, self._key()

    def __repr__(self) -> str:
        return f"EdgeColoring(k={self.k!r}, colors={self.colors!r})"

    def is_total(self) -> bool:
        return 0 not in self.colors

    def colors_used(self) -> set[int]:
        return set(self.colors) - {0}


class BichromaticTrace(NamedTuple):
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
    length with ColoringError.  The color pairs (a, b), a < b, are taken in
    order, and the first pair with a cycle is reported.

    For each color a, the ends of a's edges are numbered into 2|A| slots,
    the i-th edge's ends getting slots 2i and 2i + 1, so slot t's partner
    across its a-edge is t ^ 1.  ``where``, the slot of each vertex, is
    written and cleared once per color, so a vertex whose slot is already
    written when a's edges are numbered meets two a-edges: that is exactly
    a properness clash, and every used color, the last one included, is
    numbered.  Only then is ``properness_violation`` run, to name the
    lowest clashing vertex; a proper coloring never pays for it.

    Each later color b's edges are merged, in order, into ``end``, a fresh
    copy of the partners.  When the coloring is proper, the (a,b)-subgraph
    is a union of disjoint paths and even cycles (Fact 1), and two rules
    keep the merge exact:

    - A b-edge with an end x outside a's matching lies on no (a,b)-cycle:
      every vertex of such a cycle has an a-edge.  x has no other edge in
      the subgraph, so the edge only adds x as a leaf, joins no two
      vertices that another edge meets, and is skipped.
    - Every other b-edge joins two path ends.  Before it, each end has its
      a-edge and, properness again, no b-edge yet, so each end is the end
      of a path of the subgraph built so far, which holds the whole
      matching and the b-edges before it.  Each path's two end slots name
      each other in the copy, which the merge keeps true: two different
      paths become one whose ends are their far ends.  When the two slots
      end one path, the edge closes it into a cycle.  That is the first
      edge whose ends are already connected, the edge that a union-find
      over the same edges closes first.

    A clash in a color b > a is only seen when b is numbered, after the
    (a, b) merge has run.  So a cycle is only noted, with its pair and the
    end u of the closing edge; the merges stop, the remaining colors are
    still numbered, and the cycle is traced once every class has been
    found to be a matching.  An improper coloring thus raises whichever
    pair closes a cycle first, and ``trace_bichromatic``, which needs
    properness, only ever reads a proper one.

    A pair (a, b) in which either class has fewer than two edges is not
    merged.  Along a bichromatic cycle the colors alternate, so the cycle
    has even length at least 4 and at least two edges of each color; a
    class of one edge can lie on none.  A skipped pair thus holds no cycle,
    and the first pair with one, the pair reported, is the same as with
    every pair merged.  Every color is still numbered, so properness is
    still checked whole.  A coloring with many colors of one edge each, as
    the exact search's colorings of small graphs have, pays only for the
    pairs of its larger classes.

    So the cost is O(|A| + |B|) for a pair, O(k*m) in all, with no per-pair
    reset, and nothing is sized by k.  The edge that closes a cycle lies on
    it, and the cycle is the whole (a,b)-component of its ends, so tracing
    from one end finds the cycle; it is reported as traced from its lowest
    vertex.
    """
    _check_length(g, c)
    by_color: dict[int, list[tuple[int, int]]] = {}
    for edge, col in zip(g.edges, c.colors):
        by_color.setdefault(col, []).append(edge)
    used = sorted(by_color.keys() - {0})  # class 0 is the uncolored edges
    pairable = [a for a in used if len(by_color[a]) > 1]  # may hold a cycle
    where = [-1] * g.n
    flip = [t ^ 1 for t in range(g.n)]  # a matching has at most n ends
    cycle = None  # (a, b, u): the first pair's colors and a closing end
    i = 0  # the pairable colors numbered so far
    for a in used:
        matching = by_color[a]
        slots = 0
        for x, y in matching:
            if where[x] >= 0 or where[y] >= 0:
                raise ImproperColoringError(properness_violation(g, c))
            where[x] = slots
            where[y] = slots + 1
            slots += 2
        if len(matching) > 1:  # a is pairable[i], paired with the pairable colors above it
            i += 1
            if cycle is None:
                for b in pairable[i:]:
                    end = flip[:slots]  # end[t]: the far end slot of the path ending at t
                    for u, v in by_color[b]:
                        s, t = where[u], where[v]
                        if s < 0 or t < 0:
                            continue
                        p = end[s]
                        if p == t:
                            cycle = a, b, u
                            break
                        q = end[t]
                        end[p] = q
                        end[q] = p
                    if cycle is not None:
                        break
        for x, y in matching:
            where[x] = where[y] = -1
    if cycle is None:
        return None
    a, b, u = cycle
    first = trace_bichromatic(g, c, a, b, u)
    return trace_bichromatic(g, c, a, b, min(first.vertices))


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
