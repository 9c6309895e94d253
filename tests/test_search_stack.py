"""The exact search against the recursive search it replaced.

``_RecursiveSearch`` keeps the recursive ``_extend``/``_enum``
pair and the ``solve``/``extend_over``/``enumerate`` that drove them, with
``whole_graph`` setting up the smallest-last insertion order.  It
subclasses ``_Search`` for the coloring kernel alone: its own ``_tick``
and ``extend_over`` replace the search's, and it never runs
``_colorings``.  On the same graph, palette and node budget
both must try the same colors in the same order: statuses, node counts,
colorings, enumeration order and the state left after a restore all
match.  Budgets small enough to run out mid-search compare the restore
path too.

The reduction itself is checked against a plain backtracker with none.
"""

import random
import time

from aecolor.coloring import EdgeColoring, has_bichromatic_cycle
from aecolor.colorer import color_graph
from aecolor.graph import build_graph
from aecolor.solver import (
    BudgetExhausted,
    SolveBudget,
    SolveResult,
    _Search,
    deletion_edge_order,
    enumerate_acyclic_colorings,
    is_acyclically_k_colorable,
)
from conftest import complete, complete_bipartite, load, random_graph, snapshot


class _Exhausted(Exception):
    pass


class _RecursiveSearch(_Search):
    def __init__(self, g, k, max_nodes, deadline=None):
        super().__init__(g, k, max_nodes, deadline)
        self.order = []

    @classmethod
    def whole_graph(cls, g, k, budget):
        s = cls(g, k, budget.max_nodes, time.monotonic() + budget.max_seconds)
        s.order = list(reversed(deletion_edge_order(g)))
        return s

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise _Exhausted
        if (self.nodes % 4096 == 0 and self.deadline is not None
                and time.monotonic() > self.deadline):
            raise _Exhausted

    def solve(self):
        try:
            found = self._extend(0, 0)
        except _Exhausted:
            return SolveResult("unknown", None, self.nodes)
        if not found:
            return SolveResult("no", None, self.nodes)
        return SolveResult("yes", snapshot(self), self.nodes)

    def extend_over(self, edges, max_used):
        old = [self.assign[e] for e in edges]
        for e in edges:
            if self.assign[e]:
                self.unset(e)
        self.order = edges
        try:
            if self._extend(0, max_used):
                return True
        except _Exhausted:
            for e in edges:
                if self.assign[e]:
                    self.unset(e)
        for e, c in zip(edges, old):
            if c:
                self.set(e, c)
        return False

    def _extend(self, idx, max_used):
        if idx == len(self.order):
            return True
        e = self.order[idx]
        u, v = self.g.edges[e]
        taken = self.used_mask[u] | self.used_mask[v]
        # colors above max_used are interchangeable: try only the first
        limit = min(self.k, max_used + 1)
        colors = [c for c in range(1, limit + 1) if not taken >> c & 1]
        common = self.used_mask[u] & self.used_mask[v]
        for c in colors:
            self._tick()
            if self.walk_ends_at(u, v, common, c):
                continue
            self.set(e, c)
            if self._extend(idx + 1, max(max_used, c)):
                return True
            self.unset(e)
        return False

    def enumerate(self):
        yield from self._enum(0, 0)

    def _enum(self, idx, max_used):
        if idx == len(self.order):
            yield snapshot(self)
            return
        e = self.order[idx]
        u, v = self.g.edges[e]
        taken = self.used_mask[u] | self.used_mask[v]
        common = self.used_mask[u] & self.used_mask[v]
        # as in _extend, a new color is always the lowest unused one
        for c in range(1, min(self.k, max_used + 1) + 1):
            if taken >> c & 1:
                continue
            self._tick()
            if self.walk_ends_at(u, v, common, c):
                continue
            self.set(e, c)
            yield from self._enum(idx + 1, max(max_used, c))
            self.unset(e)


def _graphs(seed, count, n_max):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, n_max)
        m = rng.randint(1, min(n * (n - 1) // 2, 3 * n))
        yield rng, random_graph(rng, n, m)


def _budgets(rng):
    return [SolveBudget(), SolveBudget(rng.randint(1, 40))]


def test_solve_matches_recursive():
    outcomes = set()
    for rng, g in _graphs(80, 400, 9):
        delta = g.max_degree()
        for k in range(delta, delta + 3):
            for budget in _budgets(rng):
                new = is_acyclically_k_colorable(g, k, budget)
                old = _RecursiveSearch.whole_graph(g, k, budget).solve()
                assert new == old, (g.edges, k, budget)
                outcomes.add(new.status)
    assert outcomes == {"yes", "no", "unknown"}


def _drain(colorings, exhausted):
    got = []
    try:
        for c in colorings:
            got.append(c)
    except exhausted:
        got.append("exhausted")
    return got


def test_enumerate_matches_recursive():
    """The full sequence, and with a small budget the coloring after which
    it runs out.  The node count of a full enumeration is pinned too: a
    budget of exactly the oracle's count drains the same sequence, and one
    node less runs out."""
    total = 0
    for rng, g in _graphs(81, 120, 6):
        delta = g.max_degree()
        for k in range(delta, delta + 2):
            for budget in _budgets(rng):
                new = _drain(enumerate_acyclic_colorings(g, k, budget), BudgetExhausted)
                old = _RecursiveSearch.whole_graph(g, k, budget)
                assert new == _drain(old.enumerate(), _Exhausted), (g.edges, k, budget)
                total += len(new)
                if "exhausted" in new:
                    continue
                exact = enumerate_acyclic_colorings(g, k, SolveBudget(old.nodes))
                assert _drain(exact, BudgetExhausted) == new, (g.edges, k)
                if old.nodes > 1:
                    short = enumerate_acyclic_colorings(g, k, SolveBudget(old.nodes - 1))
                    assert _drain(short, BudgetExhausted)[-1] == "exhausted", (g.edges, k)
    assert total > 1000


def test_extend_over_matches_recursive():
    """A full acyclic coloring, partly erased, then a random edge subset
    recolored in random order, with and without the renaming reduction.
    The oracle's True is "yes"; its False is "unknown" when its budget ran
    out and "no" otherwise."""
    results = set()
    for rng, g in _graphs(82, 300, 10):
        k = g.max_degree() + rng.randint(0, 1)
        report = color_graph(g, k)
        if report.outcome == "failure":
            continue
        base = report.coloring
        kept = tuple(c if rng.random() < 0.8 else 0 for c in base.colors)
        base = type(base)(k, kept)
        edges = rng.sample(range(g.m), rng.randint(1, g.m))
        for max_used in (k, 0):
            for max_nodes in (10**9, rng.randint(1, 30)):
                new = load(_Search(g, k, max_nodes), base)
                old = load(_RecursiveSearch(g, k, max_nodes), base)
                got = new.extend_over(list(edges), max_used)
                found = old.extend_over(list(edges), max_used)
                want = "yes" if found else "unknown" if old.nodes > max_nodes else "no"
                assert (got, new.assign, new.nodes) == (want, old.assign, old.nodes)
                results.add(got)
    assert results == {"yes", "no", "unknown"}


def test_enumerate_deep_path():
    # a 1,500-edge path has one 2-coloring up to renaming
    g = build_graph(1501, [(v, v + 1) for v in range(1500)])
    assert len(list(enumerate_acyclic_colorings(g, 2))) == 1


def has_acyclic_coloring(g, k):
    """Plain backtracking in edge-id order over every color free at both
    ends, with no symmetry reduction; a prefix in which the independent
    validator finds a bichromatic cycle is cut, as every extension keeps
    that cycle."""
    colors = [0] * g.m
    at = [set() for _ in range(g.n)]

    def extend(e):
        if e == g.m:
            return True
        u, v = g.edges[e]
        for col in range(1, k + 1):
            if col in at[u] or col in at[v]:
                continue
            colors[e] = col
            if has_bichromatic_cycle(g, EdgeColoring(k, tuple(colors))) is None:
                at[u].add(col)
                at[v].add(col)
                if extend(e + 1):
                    return True
                at[u].discard(col)
                at[v].discard(col)
            colors[e] = 0
        return False

    return extend(0)


def test_decision_matches_full_search():
    """The decision with the renaming reduction says "yes" iff some acyclic
    k-coloring exists, and its "yes" coloring is the first one the
    enumeration yields: both search the same order from the empty
    coloring."""
    rng = random.Random(83)
    graphs = [complete(4), complete_bipartite(3, 3)]
    for _ in range(60):
        n = rng.randint(3, 7)
        graphs.append(random_graph(rng, n, rng.randint(2, min(10, n * (n - 1) // 2))))
    seen = set()
    for g in graphs:
        delta = g.max_degree()
        for k in range(delta, delta + 3):
            result = is_acyclically_k_colorable(g, k)
            assert (result.status == "yes") == has_acyclic_coloring(g, k), (g.edges, k)
            if result.status == "yes":
                assert result.coloring == next(enumerate_acyclic_colorings(g, k))
            seen.add(result.status)
    assert seen == {"yes", "no"}
