"""The orbit-reduced enumeration and Fact-2 sweep, checked against full
enumeration.

The oracle colors edges by plain backtracking in edge-id order, trying
every color free at both ends, and keeps the total colorings in which the
independent validator finds no bichromatic cycle.  It shares no code with
the solver's search.
"""

import math
import random
from collections import Counter

from aecolor.coloring import EdgeColoring, has_bichromatic_cycle
from aecolor.graph import delete_edge
from aecolor.solver import deletion_edge_order, enumerate_acyclic_colorings
from aecolor.structure import fact2_sweep, fact2_verify
from conftest import complete_bipartite, random_graph


def all_acyclic_colorings(g, k):
    """Every total acyclic k-coloring of g, with no symmetry reduction."""
    colors = [0] * g.m
    used = [set() for _ in range(g.n)]

    def extend(e):
        if e == g.m:
            c = EdgeColoring(k, tuple(colors))
            if has_bichromatic_cycle(g, c) is None:
                yield c
            return
        u, v = g.edges[e]
        for col in range(1, k + 1):
            if col in used[u] or col in used[v]:
                continue
            colors[e] = col
            used[u].add(col)
            used[v].add(col)
            yield from extend(e + 1)
            colors[e] = 0
            used[u].discard(col)
            used[v].discard(col)

    yield from extend(0)


def canonical(order, c):
    """The member of c's orbit whose colors first appear in ascending order
    along ``order``, as a tuple of colors by edge id."""
    rank = {}
    for e in order:
        rank.setdefault(c.colors[e], len(rank) + 1)
    return tuple(rank[col] for col in c.colors)


def check_against_full_enumeration(g, k, e):
    """Compare the representatives of g - e with every acyclic k-coloring
    of g - e; return the number of full colorings and the Fact-2 verdicts
    seen."""
    gm = delete_edge(g, e)
    reps = [c.colors for c in enumerate_acyclic_colorings(gm, k)]
    full = list(all_acyclic_colorings(gm, k))
    # the solver's insertion order
    order = list(reversed(deletion_edge_order(gm)))
    orbits = Counter(canonical(order, c) for c in full)
    # one representative per orbit, and each is the canonical member
    assert len(reps) == len(set(reps))
    assert set(reps) == set(orbits)
    for rep in reps:
        assert orbits[rep] == math.perm(k, len(set(rep)))
    assert sum(math.perm(k, len(set(rep))) for rep in reps) == len(full)
    # a Fact-2 verdict and t are the same on every member of an orbit
    verdict = {}
    for rep in reps:
        r = fact2_verify(g, k, e, EdgeColoring(k, rep))
        verdict[rep] = (r.holds, r.t)
    for c in full:
        r = fact2_verify(g, k, e, c)
        assert (r.holds, r.t) == verdict[canonical(order, c)]
    return len(full), set(verdict.values())


def test_k33_orbits_cover_every_coloring():
    g = complete_bipartite(3, 3)
    total = sum(check_against_full_enumeration(g, 4, e)[0] for e in range(g.m))
    assert total == 3888
    assert fact2_sweep(g, 4) == (True, 3888)


def test_random_graph_orbits_cover_every_coloring():
    rng = random.Random(61)
    verdicts = set()
    for _ in range(30):
        n = rng.randint(4, 6)
        g = random_graph(rng, n, rng.randint(n, min(9, n * (n - 1) // 2)))
        e = rng.randrange(g.m)
        k = delete_edge(g, e).max_degree() + rng.randint(0, 1)
        _, seen = check_against_full_enumeration(g, k, e)
        verdicts |= {holds for holds, _ in seen}
    assert verdicts == {True, False}
