"""Incremental acyclic edge colorer.

Edges are inserted in reverse deletion order (smallest-last).  Each edge is
first placed by direct assignment (M1): the lowest color free at both ends
that passes the kernel's Fact-1 cycle test.  M1 is ``color_graph``'s
insertion loop itself, one bitmask and at most one two-color walk per color
tried.  An edge M1 cannot place gets a local exact repair (``place``):
uncolor the colored edges of the ball of radius r around it, keep every
other color fixed, and search the ball exhaustively for colors that extend
the rest, committing only a full extension.  Radii 1 and 2 run under the
move budget; with the fallback on, the solver's decision on the edge's
whole component, under the solver's budget, makes the procedure total.  A
finished coloring is re-checked by the independent validator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Literal

from .coloring import ColoringError, EdgeColoring, has_bichromatic_cycle
from .graph import Graph, Record, build_graph
from .solver import (SolveBudget, _Search, deletion_edge_order,
                     is_acyclically_k_colorable, walk_peel)

Move = tuple  # ("assign", e, c) | ("repair", (edges...), (colors...))


class ColoringReport(Record):
    """What ``color_graph`` did: the coloring, partial on failure, and the
    moves that built it; the trace list is the report's own."""

    __slots__ = ("outcome", "k", "coloring", "colors_used", "move_counts",
                 "moves_spent", "trace")

    def __init__(self, outcome: Literal["success", "fallback-success", "failure"],
                 k: int, coloring: EdgeColoring, colors_used: int,
                 move_counts: dict[str, int], moves_spent: int,
                 trace: list[Move] | None = None):
        super().__init__(outcome, k, coloring, colors_used, move_counts, moves_spent,
                         [] if trace is None else trace)


def choose_palette(g: Graph, mad: Fraction) -> tuple[int, str]:
    """Palette size from the mad-based bounds: Delta+1 below mad 3, Delta+2
    below mad 4, best-effort Delta+2 (flagged) at mad >= 4."""
    delta = g.max_degree()
    if mad < 3:
        return delta + 1, "mad<3"
    if mad < 4:
        return delta + 2, "mad<4"
    return delta + 2, "no-guarantee"


def peel_palette(g: Graph, order: list[int]) -> tuple[int, str] | None:
    """``choose_palette(g, x)`` for an x on mad(g)'s side of 3 and 4, when
    one walk of g's edge deletion order ``order`` (``walk_peel``) settles
    that side; None when it does not.

    Each peel set is a subgraph of g, so mad >= ``densest``.  By
    ``walk_peel``, every subgraph H with an edge has a vertex of degree at
    most D = ``degeneracy`` in H; deleting such vertices one by one while
    an edge is left takes at most |H| - 1 steps of at most D edges each,
    so e(H) <= D(|H| - 1).  And 2e(H) is the degree sum of H, at most
    Delta |H|.  So each rule answers as mad would:

    - ``densest`` >= 4: mad >= 4, "no-guarantee";
    - D <= 1: 2e(H)/|H| < 2D <= 2; or Delta <= 2: 2e(H)/|H| <= 2.
      Either way mad < 3, "mad<3";
    - ``densest`` >= 3, so mad >= 3, and D <= 2 (2e(H)/|H| < 4) or
      Delta <= 3 (2e(H)/|H| <= 3), so mad < 4, and ``densest`` is in
      [3, 4): "mad<4".
    """
    peel = walk_peel(g, order)
    delta = g.max_degree()
    if peel.densest >= 4:
        return choose_palette(g, Fraction(4))
    if peel.degeneracy <= 1 or delta <= 2:
        return choose_palette(g, Fraction(0))
    if peel.densest >= 3 and (peel.degeneracy <= 2 or delta <= 3):
        return choose_palette(g, peel.densest)
    return None


class _Colorer(_Search):
    """The search kernel plus the colorer's insertion order, move budget,
    move log and repairs.  One node counter, ``nodes``, counts M1's color
    tries (made by ``color_graph``) and the bounded repairs' search nodes
    against the move budget, which has no time limit: runs repeat exactly."""

    def __init__(self, g: Graph, k: int, move_budget: int,
                 order: list[int] | None = None):
        if move_budget < 1:
            raise ValueError("move budget must be positive")
        super().__init__(g, k, SolveBudget(move_budget, math.inf))
        if order is None:
            order = deletion_edge_order(g)
        self.insertion = order[::-1]
        self.trace: list[Move] = []
        self.repairs = 0  # the trace's repair moves; the rest are assigns

    def _log_repair(self, edges: list[int]) -> bool:
        self.trace.append(("repair", tuple(edges), tuple(self.assign[e] for e in edges)))
        self.repairs += 1
        return True

    def near(self, e: int, r: int) -> set[int]:
        """The vertices within distance r - 1 of an end of e (r >= 1)."""
        near = frontier = set(self.g.edges[e])
        while frontier and r > 1:
            frontier = {w for x in frontier for w in self.g.neighbors(x)} - near
            near |= frontier
            r -= 1
        return near

    def ball(self, e: int, r: int) -> list[int]:
        """e and the colored edges at ``near(e, r)``, in insertion order."""
        assign, inc = self.assign, self.g.incident_edge_ids
        edges = {f for x in self.near(e, r) for f in inc(x) if assign[f]} | {e}
        return sorted(edges, key=self.pos.__getitem__)

    @cached_property
    def pos(self) -> dict[int, int]:
        """Each edge's position in the insertion order, built by the first
        ``ball`` or fallback: M1 alone never needs it."""
        return {e: i for i, e in enumerate(self.insertion)}

    def place(self, e: int) -> bool:
        """The exact repairs of radius 1 and 2 of an edge M1 could not
        place, under the move budget.  A radius whose ball is no larger
        than the last one's is skipped, so a ball of e alone, which M1 has
        already tried, is never searched.  Nothing runs once the budget is
        spent."""
        size = 1
        for r in (1, 2):
            if self.nodes > self.max_nodes:
                return False
            ball = self.ball(e, r)
            if len(ball) > size and self.extend_over(ball) == "yes":
                return self._log_repair(ball)
            size = len(ball)
        return False

    def place_component(self, e: int, budget: SolveBudget) -> bool:
        """The fallback: decide e's component C, built as a graph of its own
        (vertices relabelled in ascending order, edges in id order), with
        ``is_acyclically_k_colorable`` under the solver's budget, and on
        "yes" recolor C.  Its nodes do not count against the move budget.
        The decision is handed C's edges in reverse insertion order, mapped
        to the sub-graph's ids, rather than recomputing their order.  The
        colors are those of the search over C's edges in insertion order on
        this kernel at min(k, m) colors, renaming reduction on:

        - nothing colored touches a whole component;
        - ``deletion_edge_order`` restricted to C is C's own under the
          order-preserving relabelling: other components never change C's
          queue keys (d, v), and the incident ids stay ascending, so the
          order handed over is the one the decision would compute;
        - the reduction offers the i-th edge no color above i + 1 <= m_C,
          so min(k, m) and min(k, m_C) colors try the same colors, with
          the same nodes, coloring and trace.
        """
        g = self.g
        vertices = sorted(self.near(e, g.n))  # distance < n reaches all of C
        label = {v: i for i, v in enumerate(vertices)}
        edges = sorted({f for v in vertices for f in g.incident_edge_ids(v)})
        sub = build_graph(len(vertices), [(label[u], label[v]) for u, v in
                                          map(g.edges.__getitem__, edges)])
        inserted = sorted(edges, key=self.pos.__getitem__)
        sub_id = {f: i for i, f in enumerate(edges)}
        result = is_acyclically_k_colorable(sub, self.k, budget,
                                            [sub_id[f] for f in reversed(inserted)])
        if result.status != "yes":
            return False
        for f in filter(self.assign.__getitem__, edges):
            self.unset(f)
        for f, c in zip(edges, result.coloring.colors):
            self.set(f, c)
        return self._log_repair(inserted)


def color_graph(
    g: Graph,
    k: int,
    move_budget: int | None = None,
    fallback: bool = True,
    solve_budget: SolveBudget = SolveBudget(),
    order: list[int] | None = None,
) -> ColoringReport:
    """Color all edges of g with palette [1..k], acyclically.

    Processes edges in reverse smallest-last deletion order (``order``, if
    the caller already has ``deletion_edge_order(g)``), placing each by M1
    or a bounded repair; with the fallback on, an edge these cannot place
    gets its whole component decided and recolored by the exact solver,
    and the outcome is "fallback-success".  A move budget below 1 raises
    ValueError.  Nothing but the fallback runs once the move budget is
    spent, so a run that runs out reports ``moves_spent`` = budget + 1: the
    node that overran it.

    The engine runs at min(k, m) colors, so its n(k + 1) neighbor slots
    stay O(nm) however large k is; the report carries k.  With k >= m the
    result is the one at m.  M1 skips a color present at an end, or rejects
    one by Fact 1, only if a placed edge has it, and fewer than m edges are
    placed; so it accepts a color <= m after the same tries at k as at m,
    unless the move budget runs out, and ``place`` then stops before any
    ball search.  The fallback decides at the engine's min(k, m) colors.
    So the colors, the trace and ``moves_spent`` are the same.
    """
    if k < g.max_degree():
        raise ValueError("palette smaller than the maximum degree")
    if move_budget is None:
        move_budget = 50 * max(g.m, 1)
    engine = _Colorer(g, min(k, g.m), move_budget, order)
    # M1, run here with the kernel's lists and bound methods in locals: the
    # lowest color free at both ends that passes the Fact-1 cycle test.  The
    # free colors are the bits of one mask, tried from the lowest, each try
    # one node.  A cycle closed by uv leaves u on a color present at both
    # ends (walk_ends_at), so when the ends share none the first free color
    # is placed without a walk.  A one-edge repair would pick the same color
    # in the same nodes, but pays for the search's generator, budget
    # exception and saved colors on every edge.  engine.nodes is written
    # back before place reads it.
    edges, assign, used_mask = g.edges, engine.assign, engine.used_mask
    set_color, walk_ends_at, log = engine.set, engine.walk_ends_at, engine.trace.append
    palette, max_nodes = (2 << engine.k) - 2, engine.max_nodes
    outcome = "success"
    for e in engine.insertion:
        if assign[e]:
            continue
        nodes = engine.nodes
        if nodes <= max_nodes:
            u, v = edges[e]
            mask_u, mask_v = used_mask[u], used_mask[v]
            free, common = palette & ~(mask_u | mask_v), mask_u & mask_v
            while free:
                low = free & -free
                free ^= low
                nodes += 1
                if nodes > max_nodes:
                    break
                c = low.bit_length() - 1
                if not common or not walk_ends_at(u, v, common, c):
                    set_color(e, c)
                    log(("assign", e, c))
                    break
            engine.nodes = nodes
            if assign[e] or engine.place(e):
                continue
        if fallback and engine.place_component(e, solve_budget):
            outcome = "fallback-success"
            continue
        outcome = "failure"
        break
    coloring = EdgeColoring(k, tuple(engine.assign))
    # has_bichromatic_cycle also raises on an improper coloring
    if outcome != "failure" and (
            not coloring.is_total() or has_bichromatic_cycle(g, coloring) is not None):
        raise ColoringError("colorer produced an invalid coloring")
    repairs = engine.repairs
    return ColoringReport(
        outcome, k, coloring, len(coloring.colors_used()),
        {"assign": len(engine.trace) - repairs, "repair": repairs}, engine.nodes, engine.trace,
    )
