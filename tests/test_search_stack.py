"""The explicit-stack search against the recursive one it replaced.

``_RecursiveSearch`` keeps the recursive ``_extend``/``_enum`` pair and the
``solve``/``extend_over``/``enumerate`` that drove them verbatim, as the
oracle: on the same graph, palette and node budget both searches must try
the same colors in the same order, so statuses, node counts, colorings,
enumeration order and the state left after a restore all match.  Budgets
small enough to run out mid-search compare the restore path too.
"""

import random

from aecolor.colorer import color_graph
from aecolor.graph import build_graph
from aecolor.solver import (
    SolveBudget,
    SolveResult,
    _BudgetExhausted,
    _Search,
    enumerate_acyclic_colorings,
)
from conftest import random_graph


class _RecursiveSearch(_Search):
    def solve(self) -> SolveResult:
        try:
            found = self._extend(0, self.base_colors)
        except _BudgetExhausted:
            return SolveResult("unknown", None, self.nodes)
        if not found:
            return SolveResult("no", None, self.nodes)
        return SolveResult("yes", self.snapshot(), self.nodes)

    def extend_over(self, edges, max_used):
        old = [self.assign[e] for e in edges]
        for e in edges:
            if self.assign[e]:
                self.unset(e)
        self.order = edges
        try:
            if self._extend(0, max_used):
                return True
        except _BudgetExhausted:
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
        if e in self.fixed:
            colors = [self.fixed[e]]
        else:
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
        if self.fixed:
            raise ValueError("enumerate requires symmetry_break=False")
        yield from self._enum(0, 0)

    def _enum(self, idx, max_used):
        if idx == len(self.order):
            yield self.snapshot()
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
                new = _Search.whole_graph(g, k, budget).solve()
                old = _RecursiveSearch.whole_graph(g, k, budget).solve()
                assert new == old, (g.edges, k, budget)
                outcomes.add(new.status)
    assert outcomes == {"yes", "no", "unknown"}


def _drain(search):
    got = []
    try:
        for c in search.enumerate():
            got.append(c)
    except _BudgetExhausted:
        got.append("exhausted")
    return got, search.nodes


def test_enumerate_matches_recursive():
    total = 0
    for rng, g in _graphs(81, 120, 6):
        delta = g.max_degree()
        for k in range(delta, delta + 2):
            for budget in _budgets(rng):
                new = _drain(_Search.whole_graph(g, k, budget, symmetry_break=False))
                old = _drain(_RecursiveSearch.whole_graph(g, k, budget,
                                                          symmetry_break=False))
                assert new == old, (g.edges, k, budget)
                total += len(new[0])
    assert total > 1000


def _start(cls, g, k, coloring, max_nodes):
    s = cls(g, k, max_nodes)
    s.load(coloring)
    return s


def test_extend_over_matches_recursive():
    """A full acyclic coloring, partly erased, then a random edge subset
    recolored in random order, with and without the renaming reduction."""
    results = set()
    for rng, g in _graphs(82, 300, 10):
        k = g.max_degree() + rng.randint(0, 1)
        report = color_graph(g, k)
        if report.outcome == "failure":
            continue
        base = report.coloring
        kept = {e: c for e, c in base.assignment.items() if rng.random() < 0.8}
        base = type(base)(k, kept)
        edges = rng.sample(range(g.m), rng.randint(1, g.m))
        for max_used in (k, 0):
            for max_nodes in (10**9, rng.randint(1, 30)):
                new = _start(_Search, g, k, base, max_nodes)
                old = _start(_RecursiveSearch, g, k, base, max_nodes)
                got = new.extend_over(list(edges), max_used)
                want = old.extend_over(list(edges), max_used)
                assert (got, new.assign, new.nodes) == (want, old.assign, old.nodes)
                results.add((got, new.nodes > max_nodes))
    # found, not found, and restored after the budget ran out
    assert {(True, False), (False, False), (False, True)} <= results


def test_enumerate_deep_path():
    # a 1,500-edge path has one 2-coloring up to renaming
    g = build_graph(1501, [(v, v + 1) for v in range(1500)])
    assert len(list(enumerate_acyclic_colorings(g, 2))) == 1
