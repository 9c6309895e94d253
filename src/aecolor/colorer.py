"""Incremental acyclic edge colorer.

Edges are inserted in reverse deletion order (smallest-last) and each new
edge is colored by a cascade of moves on the ``ColorState`` kernel: direct
assignment filtered by the kernel's Fact-1 cycle test, Kempe component swaps
at a blocked endpoint, recoloring one incident edge at a low-degree
neighbor, and bounded local backtracking.  The move set is sound but not
complete; an exact-solver fallback makes the procedure total when
requested.  A finished coloring is re-checked by the independent validator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal

from .coloring import ColorState, ColoringError, EdgeColoring, has_bichromatic_cycle
from .graph import Graph
from .solver import SolveBudget, deletion_edge_order, is_acyclically_k_colorable

Move = tuple  # ("assign", e, c) | ("swap", a, b, anchor) |
              # ("reassign", e, old, new) | ("backtrack", (edges...))


@dataclass
class ColoringReport:
    outcome: Literal["success", "fallback-success", "failure"]
    k: int
    coloring: EdgeColoring | None
    colors_used: int
    move_counts: dict[str, int]
    moves_spent: int
    trace: list[Move] = field(default_factory=list)


def choose_palette(g: Graph, mad: Fraction) -> tuple[int, str]:
    """Palette size from the mad-based bounds: Delta+1 below mad 3, Delta+2
    below mad 4, best-effort Delta+2 (flagged) at mad >= 4."""
    delta = g.max_degree()
    if mad < 3:
        return delta + 1, "mad<3"
    if mad < 4:
        return delta + 2, "mad<4"
    return delta + 2, "no-guarantee"


class _Colorer(ColorState):
    """The coloring kernel plus the move cascade's budget and move log."""

    def __init__(self, g: Graph, k: int, move_budget: int):
        super().__init__(g, k)
        self.budget = move_budget
        self.spent = 0
        self.trace: list[Move] = []
        self.counts = {"assign": 0, "swap": 0, "reassign": 0, "backtrack": 0}

    def _tick(self) -> bool:
        self.spent += 1
        return self.spent <= self.budget

    # -- moves ---------------------------------------------------------------

    def try_direct(self, e: int) -> bool:
        """M1: lowest free color at both ends passing the cycle filter."""
        u, v = self.g.edges[e]
        taken = self.used_mask[u] | self.used_mask[v]
        for c in range(1, self.k + 1):
            if taken >> c & 1:
                continue
            if not self._tick():
                return False
            if not self.closes_cycle(u, v, c):
                self.set(e, c)
                self.trace.append(("assign", e, c))
                self.counts["assign"] += 1
                return True
        return False

    def try_swap_then_direct(self, e: int) -> bool:
        """M2: Kempe-swap two colors at the blocked endpoint of smaller
        degree, keep the swap only if it stays acyclic and unblocks M1."""
        u, v = self.g.edges[e]
        anchor, other = sorted((u, v), key=lambda x: (self.g.degree(x), x))
        for w in (anchor, other):
            present = [c for c in range(1, self.k + 1) if self.used_mask[w] >> c & 1]
            for i, a in enumerate(present):
                for b in present[i + 1:]:
                    if not self._tick():
                        return False
                    touched = self.swap_component(a, b, w)
                    if touched is None:
                        continue
                    # the coloring was acyclic before the swap, so any new
                    # cycle runs through a flipped edge
                    if not self.touches_cycle(touched):
                        self.trace.append(("swap", a, b, w))
                        self.counts["swap"] += 1
                        if self.try_direct(e):
                            return True
                        self.trace.pop()
                        self.counts["swap"] -= 1
                    self.flip(touched, a, b)  # undo before the next attempt
        return False

    def try_reassign_then_direct(self, e: int) -> bool:
        """M3: recolor one incident edge at a neighbor of small colored
        degree to a free color, then retry M1."""
        u, v = self.g.edges[e]
        for a in sorted((u, v), key=lambda x: (self.g.degree(x), x)):
            for w in sorted(self.g.neighbors(a)):
                ea = self.g.edge_id(a, w)
                if not self.assign[ea] or self.used_mask[w].bit_count() > 3:
                    continue
                old = self.assign[ea]
                free = ~(self.used_mask[a] | self.used_mask[w])
                for c in range(1, self.k + 1):
                    if not free >> c & 1:
                        continue
                    if not self._tick():
                        return False
                    self.unset(ea)
                    if self.closes_cycle(a, w, c):
                        self.set(ea, old)
                        continue
                    self.set(ea, c)
                    self.trace.append(("reassign", ea, old, c))
                    self.counts["reassign"] += 1
                    if self.try_direct(e):
                        return True
                    self.unset(ea)
                    self.set(ea, old)
                    self.trace.pop()
                    self.counts["reassign"] -= 1
        return False

    def backtrack_neighborhood(self, e: int) -> list[int]:
        """M4: uncolor every colored edge incident to either endpoint."""
        u, v = self.g.edges[e]
        dropped = []
        for w in (u, v):
            for x in sorted(self.g.neighbors(w)):
                ee = self.g.edge_id(w, x)
                if self.assign[ee]:
                    self.unset(ee)
                    dropped.append(ee)
        self.trace.append(("backtrack", tuple(dropped)))
        self.counts["backtrack"] += 1
        self._tick()
        return dropped


def extend_one_edge(
    g: Graph, c: EdgeColoring, uv: int, move_budget: int = 1000
) -> tuple[EdgeColoring, list[Move]] | None:
    """Color the single edge uv on top of a proper acyclic partial coloring.

    Runs the M1-M3 cascade (no backtracking at this granularity).  Returns
    the extended coloring and the committed moves, or None when stuck.
    An input that is not proper and acyclic raises ColoringError: the swap
    move checks only for cycles through the edges it flips.
    """
    if c.get(uv) is not None:
        raise ValueError(f"edge {uv} is already colored")
    if has_bichromatic_cycle(g, c) is not None:
        raise ColoringError("input coloring has a bichromatic cycle")
    engine = _Colorer(g, c.k, move_budget)
    engine.load(c)
    if (
        engine.try_direct(uv)
        or engine.try_swap_then_direct(uv)
        or engine.try_reassign_then_direct(uv)
    ):
        return engine.snapshot(), engine.trace
    return None


def color_graph(
    g: Graph,
    k: int,
    move_budget: int | None = None,
    fallback: bool = True,
    solve_budget: SolveBudget | None = None,
) -> ColoringReport:
    """Color all edges of g with palette [1..k], acyclically.

    Processes edges in reverse smallest-last deletion order; falls back to
    the exact solver when the move cascade gets stuck and fallback is on.
    """
    if k < g.max_degree():
        raise ValueError("palette smaller than the maximum degree")
    if move_budget is None:
        move_budget = 50 * max(g.m, 1)
    engine = _Colorer(g, k, move_budget)
    # pop() walks the deletion sequence backwards, i.e. insertion order
    pending = deletion_edge_order(g)
    stuck = False
    while pending:
        e = pending.pop()
        if engine.assign[e]:
            continue
        if engine.spent >= move_budget:
            stuck = True
            break
        if engine.try_direct(e):
            continue
        if engine.try_swap_then_direct(e):
            continue
        if engine.try_reassign_then_direct(e):
            continue
        dropped = engine.backtrack_neighborhood(e)
        if engine.try_direct(e):
            pending.extend(reversed(dropped))
            continue
        stuck = True
        break
    if not stuck and all(engine.assign):
        coloring = engine.snapshot()
        _validate(g, coloring)
        return ColoringReport(
            "success", k, coloring, len(coloring.colors_used()),
            dict(engine.counts), engine.spent, engine.trace,
        )
    if fallback:
        result = is_acyclically_k_colorable(g, k, solve_budget or SolveBudget())
        if result.status == "yes":
            return ColoringReport(
                "fallback-success", k, result.coloring,
                len(result.coloring.colors_used()),
                dict(engine.counts), engine.spent, engine.trace,
            )
    partial = engine.snapshot()
    return ColoringReport(
        "failure", k, partial, len(partial.colors_used()),
        dict(engine.counts), engine.spent, engine.trace,
    )


def _validate(g: Graph, c: EdgeColoring) -> None:
    # has_bichromatic_cycle also raises on an improper coloring
    if not c.is_total(g) or has_bichromatic_cycle(g, c) is not None:
        raise ColoringError("move cascade produced an invalid coloring")


def replay_trace(g: Graph, k: int, trace: list[Move]) -> EdgeColoring:
    """Re-apply a committed move log from the empty coloring."""
    engine = _Colorer(g, k, move_budget=10**9)
    for move in trace:
        kind = move[0]
        if kind == "assign":
            engine.set(move[1], move[2])
        elif kind == "reassign":
            engine.unset(move[1])
            engine.set(move[1], move[3])
        elif kind == "swap":
            if engine.swap_component(move[1], move[2], move[3]) is None:
                raise ColoringError(f"swap move {move} on a cycle component")
        elif kind == "backtrack":
            for e in move[1]:
                engine.unset(e)
        else:
            raise ValueError(f"unknown move {kind!r}")
    return engine.snapshot()
