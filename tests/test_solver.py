import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aecolor

from aecolor import solver
from aecolor.coloring import EdgeColoring, has_bichromatic_cycle, is_proper
from aecolor.graph import build_graph, delete_edge
from aecolor.solver import (
    SolveBudget,
    SolveResult,
    _Search,
    chi_a_exact,
    counting_lower_bound,
    deletion_edge_order,
    enumerate_acyclic_colorings,
    frontier_rank,
    is_acyclically_k_colorable,
    is_critical,
    walk_peel,
)
from aecolor.density import mad_exact
from aecolor.structure import connected_graphs_upto, fact2_sweep
from conftest import (complete, complete_bipartite, cycle, hypercube, path, petersen,
                      random_graph, star)


def test_c5_three_colorable():
    assert is_acyclically_k_colorable(cycle(5), 3).status == "yes"


def test_k4_not_four_colorable():
    assert is_acyclically_k_colorable(complete(4), 4).status == "no"


def test_k33_five_colorable():
    assert is_acyclically_k_colorable(complete_bipartite(3, 3), 5).status == "yes"


def test_chi_a_cycles():
    for n in range(3, 10):
        assert chi_a_exact(cycle(n)).chi_a == 3


def test_chi_a_k4():
    assert chi_a_exact(complete(4)).chi_a == 5


def test_chi_a_k33():
    assert chi_a_exact(complete_bipartite(3, 3)).chi_a == 5


def test_chi_a_petersen():
    # frozen from this exhaustive backtracking run; consistent with the
    # cubic-graph bound chi'_a <= 4 and the proper lower bound Delta = 3
    assert chi_a_exact(petersen()).chi_a == 4


def test_yes_colorings_validate():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 8)
        m = rng.randint(1, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        result = chi_a_exact(g)
        c = result.coloring
        assert c.is_total()
        assert is_proper(g, c)
        assert has_bichromatic_cycle(g, c) is None
        assert result.chi_a >= g.max_degree()


def test_monotone_in_k():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(3, 7)
        m = rng.randint(2, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        k = chi_a_exact(g).chi_a
        assert is_acyclically_k_colorable(g, k + 1).status == "yes"
        if k > 1:
            assert is_acyclically_k_colorable(g, k - 1).status == "no"


def test_subgraph_monotonicity():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(3, 7)
        m = rng.randint(2, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        whole = chi_a_exact(g).chi_a
        for e in range(g.m):
            assert chi_a_exact(delete_edge(g, e)).chi_a <= whole


def test_k4_critical_at_4():
    report = is_critical(complete(4), 4)
    assert report.is_critical


def test_c5_not_critical_at_3():
    report = is_critical(cycle(5), 3)
    assert report.status == "not-critical"
    assert report.witness_coloring is not None


def test_k4_not_critical_at_3():
    # K4 - e still needs more than 3 colors
    report = is_critical(complete(4), 3)
    assert report.status == "not-critical"
    assert report.witness_edge is not None


def test_critical_graphs_have_delta_at_least_3():
    # every k-critical graph with k > Delta satisfies Delta >= 3
    for g, k in [(complete(4), 4), (complete_bipartite(3, 3), 4)]:
        assert is_critical(g, k).is_critical
        assert g.max_degree() >= 3


@pytest.mark.parametrize("name, g, nodes", [
    ("Q4", hypercube(4), 2081),
    ("petersen", petersen(), 40),
    ("K7", complete(7), 495),
])
def test_refutation_nodes_at_delta(name, g, nodes):
    """The decision's "no" at k = Delta, in smallest-last insertion order
    with the renaming reduction from 0, takes exactly these nodes."""
    result = is_acyclically_k_colorable(g, g.max_degree())
    assert (result.status, result.nodes) == ("no", nodes)


@pytest.mark.parametrize("g, k, coloring, nodes", [
    # values pinned with the list-of-colors frames and a walk on every try
    (complete(4), 5, (5, 4, 3, 3, 2, 1), 8),
    (complete_bipartite(3, 3), 5, (5, 4, 3, 1, 3, 2, 3, 2, 1), 12),
    (cycle(5), 3, (3, 1, 2, 1, 2), 5),
    (petersen(), 4, (1, 4, 2, 1, 4, 2, 3, 1, 3, 3, 3, 2, 2, 1, 1), 15),
], ids=["K4", "K33", "C5", "petersen"])
def test_search_walks_only_when_the_ends_share_a_color(monkeypatch, g, k, coloring,
                                                        nodes):
    """The search skips the Fact-1 walk when the ends share no color, as M1
    does; the walk would answer False, so the colors and nodes stay."""
    calls = []
    walk = _Search.walk_ends_at

    def counted(self, *args):
        calls.append(args)
        return walk(self, *args)

    monkeypatch.setattr(_Search, "walk_ends_at", counted)
    result = is_acyclically_k_colorable(g, k)
    assert (result.status, result.coloring.colors, result.nodes) == ("yes", coloring, nodes)
    assert all(mus for _, _, mus, _ in calls)


def _sorted_edges(g):
    return build_graph(g.n, sorted(g.edges))


@pytest.mark.parametrize("g, chi, nodes", [
    # the benchmark's exact_chi families before relabelling: vertices and
    # sorted edges as its corpus builds them.  Searched in the frontier
    # order; the order with degree ties broken by id took 48, 36, 48, 39, 15
    (build_graph(12, [(i, 6 + j) for i in range(6) for j in range(6) if i != j]), 6, 75),
    (build_graph(10, [(i, 5 + j) for i in range(5) for j in range(5) if i or j]), 6, 125),
    (_sorted_edges(hypercube(4)), 5, 48),
    (complete(7), 7, 39),
    (_sorted_edges(petersen()), 4, 16),
], ids=["K66-M", "K55-e", "Q4", "K7", "petersen"])
def test_chi_a_nodes_on_exact_chi_families(g, chi, nodes):
    result = chi_a_exact(g)
    assert (result.chi_a, result.nodes) == (chi, nodes)


@pytest.mark.parametrize("g", [cycle(5), complete(4), complete_bipartite(3, 3)],
                         ids=["C5", "K4", "K33"])
def test_decision_and_enumeration_above_m_as_at_m(g):
    """At k = 10**6 the decision and the enumeration search as at k = m and
    report k, allocating for m colors: a kernel of n(k + 1) slots would
    peak at n * 8 MB here."""
    k = 10**6
    want = is_acyclically_k_colorable(g, g.m)
    want_all = [c.colors for c in enumerate_acyclic_colorings(g, g.m)]
    tracemalloc.start()
    try:
        got = is_acyclically_k_colorable(g, k)
        enumerated = 0
        for c in enumerate_acyclic_colorings(g, k):
            assert c.k == k and c.colors == want_all[enumerated]
            enumerated += 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    assert enumerated == len(want_all)
    assert got.coloring.k == k
    assert (got.status, got.coloring.colors, got.nodes) == (
        want.status, want.coloring.colors, want.nodes)


def test_budget_exhaustion_is_unknown():
    g = complete(7)
    result = is_acyclically_k_colorable(g, 7, SolveBudget(max_nodes=5))
    assert (result.status, result.nodes) == ("unknown", 6)


@pytest.mark.parametrize("max_nodes", [1, 1000, 4095, 4096, 20000])
def test_unknown_reports_the_node_past_the_budget(max_nodes):
    """The node past the budget raises and is counted: an "unknown"
    decision reports exactly max_nodes + 1 nodes, and so does chi_a_exact,
    whose count 2*25/9 on K5,5 decides k <= 5 with no search."""
    g = complete_bipartite(5, 5)
    budget = SolveBudget(max_nodes)
    result = is_acyclically_k_colorable(g, 6, budget)
    assert (result.status, result.nodes) == ("unknown", max_nodes + 1)
    chi = chi_a_exact(g, budget)
    assert (chi.chi_a, chi.decided_up_to, chi.nodes) == (None, 5, max_nodes + 1)


def _count_clock_reads(monkeypatch) -> list[None]:
    """One entry per read of the search's clock from now on."""
    reads: list[None] = []
    clock = solver.time.monotonic

    def counted():
        reads.append(None)
        return clock()

    monkeypatch.setattr(solver.time, "monotonic", counted)
    return reads


@pytest.mark.parametrize("g, k, max_nodes, status, nodes", [
    (build_graph(10, [(i, 5 + j) for i in range(5) for j in range(5) if i or j]), 5,
     10**9, "no", 4473),
    (complete_bipartite(5, 5), 6, 12287, "unknown", 12288),
    (complete_bipartite(5, 5), 6, 12288, "unknown", 12289),
    (complete_bipartite(5, 5), 6, 20000, "unknown", 20001),
], ids=["K55-e-no", "K55-before-4096x3", "K55-at-4096x3", "K55-20000"])
def test_decision_reads_the_clock_once_per_4096_nodes(monkeypatch, g, k, max_nodes,
                                                      status, nodes):
    """Once at construction, then at each node whose count is a multiple of
    4096, unless that node is already past the budget."""
    reads = _count_clock_reads(monkeypatch)
    result = is_acyclically_k_colorable(g, k, SolveBudget(max_nodes))
    assert (result.status, result.nodes) == (status, nodes)
    assert len(reads) == 1 + min(nodes, max_nodes) // 4096


def test_enumeration_reads_the_clock_once_per_4096_nodes(monkeypatch):
    """C16 has 10,922 3-colorings up to renaming, found in 27,307 nodes.
    At each yield the kernel's count is up to date and the clock has been
    read once at construction and once per 4096 nodes since."""
    g = cycle(16)
    reads = _count_clock_reads(monkeypatch)
    search = _Search(g, 3, SolveBudget())
    assert len(reads) == 1
    yields = 0
    for _ in search._colorings(deletion_edge_order(g)[::-1], 0):
        yields += 1
        assert len(reads) == 1 + search.nodes // 4096
    assert (yields, search.nodes, len(reads)) == (10922, 27307, 1 + 27307 // 4096)


def test_is_critical_unknown_on_the_whole_graph():
    budget = SolveBudget(max_nodes=1)
    assert is_acyclically_k_colorable(cycle(5), 3, budget).status == "unknown"
    assert is_critical(cycle(5), 3, budget).status == "unknown"


def test_is_critical_unknown_on_a_deletion():
    # K1,4 at k = 3 is refuted by its degree without a node, but deleting
    # an edge leaves K1,3, whose "yes" needs 3 nodes
    budget = SolveBudget(max_nodes=1)
    g = build_graph(5, [(0, i) for i in range(1, 5)])
    assert is_acyclically_k_colorable(g, 3, budget).status == "no"
    assert is_acyclically_k_colorable(delete_edge(g, 0), 3).nodes > 1
    assert is_critical(g, 3, budget).status == "unknown"


def test_chi_a_coloring_palette_is_chi_a():
    graphs = [build_graph(0, []), build_graph(3, []), build_graph(2, [(0, 1)]),
              cycle(5), complete(4), complete_bipartite(3, 3)]
    for g in graphs:
        result = chi_a_exact(g)
        assert result.coloring.k == result.chi_a
        assert result.coloring.is_total()


def test_unknown_propagates_through_chi_a():
    # K7's count 2*21/6 = 7 decides k <= 6, so the search starts at 7
    g = complete(7)
    result = chi_a_exact(g, SolveBudget(max_nodes=5))
    assert result.chi_a is None
    assert result.decided_up_to == result.lower_bound - 1 == 6


def test_budget_rejects_nonpositive():
    with pytest.raises(ValueError):
        SolveBudget(max_nodes=0)
    # nan <= 0 is false, but a nan deadline never fires
    with pytest.raises(ValueError):
        SolveBudget(10, float("nan"))
    assert SolveBudget(10, float("inf")).max_seconds == float("inf")  # no time limit


def test_enumeration_matches_decision():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(2, 6)
        m = rng.randint(1, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        k = g.max_degree() + 1
        any_found = False
        for c in enumerate_acyclic_colorings(g, k):
            any_found = True
            assert is_proper(g, c)
            assert has_bichromatic_cycle(g, c) is None
            break
        assert any_found == (is_acyclically_k_colorable(g, k).status == "yes")


def test_lower_bound_delta():
    assert is_acyclically_k_colorable(complete(5), 3).status == "no"


def test_enumeration_rejects_k_below_0_and_colors_an_edgeless_graph_with_0():
    for k in (-1, -5):
        for g in (cycle(3), build_graph(3, [])):
            with pytest.raises(ValueError, match="k must be at least 0"):
                list(enumerate_acyclic_colorings(g, k))
            # an edgeless g has no g - e to enumerate, so the sweep checks k first
            with pytest.raises(ValueError, match="k must be at least 0"):
                fact2_sweep(g, k)
    assert list(enumerate_acyclic_colorings(build_graph(3, []), 0)) == [EdgeColoring(0, ())]
    assert list(enumerate_acyclic_colorings(cycle(3), 0)) == []


def test_decision_rejects_k_below_1_and_colors_an_edgeless_graph():
    for k in (0, -2):
        with pytest.raises(ValueError, match="k must be at least 1"):
            is_acyclically_k_colorable(cycle(3), k)
    assert is_acyclically_k_colorable(build_graph(3, []), 2) == SolveResult(
        "yes", EdgeColoring(2, ()), 0)


FORCED_BAD_RESULT = """
import sys
from aecolor import solver
from aecolor.coloring import ColoringError, EdgeColoring
from aecolor.graph import build_graph

# C4 colored 1,2,1,2 is proper and total but one bichromatic cycle
bad = EdgeColoring(2, (1, 2, 1, 2))


def _colorings(self, order, max_used):
    for e, c in enumerate(bad.colors):
        self.set(e, c)
    yield


solver._Search._colorings = _colorings
g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
try:
    solver.is_acyclically_k_colorable(g, 2)
except ColoringError:
    sys.exit(0 if sys.flags.optimize else 3)
sys.exit(1)
"""


def test_invalid_search_result_rejected_under_python_O():
    """The post-check on "yes" answers is an explicit raise, so it still
    runs when the interpreter strips assert statements."""
    src = os.path.dirname(os.path.dirname(aecolor.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", FORCED_BAD_RESULT],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def _deletion_scan_steps(g, rank=None):
    """The definition, scanned directly in O(m*(n+m)): each step's least
    live (degree, vertex) and the lowest live edge it deletes; with
    ``rank``, the least live (degree, rank) and its live edge whose far end
    ranks lowest."""
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.m
    steps = []
    for _ in range(g.m):
        if rank is None:
            v = min((x for x in range(g.n) if deg[x] > 0), key=lambda x: (deg[x], x))
            e = min(e for e in range(g.m) if alive[e] and v in g.edges[e])
        else:
            v = min((x for x in range(g.n) if deg[x] > 0), key=lambda x: (deg[x], rank[x]))
            e = min((e for e in range(g.m) if alive[e] and v in g.edges[e]),
                    key=lambda e: rank[sum(g.edges[e]) - v])
        alive[e] = False
        for w in g.edges[e]:
            deg[w] -= 1
        steps.append((v, e))
    return steps


def _deletion_order_scan(g, rank=None):
    """The oracle for the bucket-queue deletion_edge_order."""
    return [e for _, e in _deletion_scan_steps(g, rank)]


def _frontier_rank_scan(g):
    """The definition of frontier_rank, searched directly: while a vertex
    is unranked, a breadth-first search from the unranked vertex of least
    (degree, id), ranking each vertex's unranked neighbors by (degree, id)."""
    rank = {}
    while len(rank) < g.n:
        start = min((v for v in range(g.n) if v not in rank),
                    key=lambda v: (g.degree(v), v))
        rank[start] = len(rank)
        queue = [start]
        while queue:
            v = queue.pop(0)
            for w in sorted(set(g.neighbors(v)) - rank.keys(),
                            key=lambda w: (g.degree(w), w)):
                rank[w] = len(rank)
                queue.append(w)
    return [rank[v] for v in range(g.n)]


def _relabel(n, pairs, perm):
    return build_graph(n, [(perm[u], perm[v]) for u, v in pairs])


def _order_corpus(rng):
    yield build_graph(0, [])
    yield build_graph(6, [])
    for n in range(2, 12):  # paths and stars labelled in reverse
        rev = list(range(n - 1, -1, -1))
        yield _relabel(n, path(n).edges, rev)
        yield _relabel(n, star(n - 1).edges, rev)
    for n in range(2, 9):  # K2..K8
        yield complete(n)
    for _ in range(150):  # random graphs, many with isolated vertices
        n = rng.randint(1, 16)
        yield random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
    for _ in range(120):  # forests: random parents, some vertices roots
        n = rng.randint(1, 30)
        pairs = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
        rng.shuffle(pairs)
        yield build_graph(n, pairs)
    for _ in range(120):  # regular graphs, edges listed in random order
        d = rng.randint(1, 6)
        n = rng.randint(d + 1, 24)
        if n * d % 2:
            n += 1
        pairs = list(nx.random_regular_graph(d, n, seed=rng.randrange(2**31)).edges())
        rng.shuffle(pairs)
        yield build_graph(n, pairs)
    for _ in range(60):  # regular graphs with shuffled labels
        d = rng.randint(2, 6)
        n = rng.randint(d + 1, 24)
        if n * d % 2:
            n += 1
        perm = rng.sample(range(n), n)
        yield _relabel(n, nx.random_regular_graph(d, n, seed=rng.randrange(2**31)).edges(),
                       perm)
    for _ in range(110):  # sparse graphs with m about 1.5n
        n = rng.randint(10, 60)
        yield random_graph(rng, n, 3 * n // 2)
    # a hub of degree 150 on pendant paths of 1, 2 and 3 edges, as vertex 0
    # and as the last vertex: 151 buckets, and the hub falls through all of
    # them one entry at a time while the scan stays at degree 1
    hub = _pendant_hub(150)
    yield hub
    yield _relabel(hub.n, hub.edges, list(range(hub.n - 1, -1, -1)))
    yield _path_into_k7()


def _pendant_hub(paths):
    pairs, n = [], 1
    for i in range(paths):
        prev = 0
        for _ in range(i % 3 + 1):
            pairs.append((prev, n))
            prev, n = n, n + 1
    return build_graph(n, pairs)


def _path_into_k7():
    """The path 0-1-...-10 whose end 10 is a vertex of the K7 on 10..16:
    the path goes out at degree 1, the scan climbs to 6 past the path's
    stale degree-2 entries, and the K7's runs then each drop the rest a
    bucket lower, two below the first K7 run's bucket after two runs."""
    return build_graph(17, [(v, v + 1) for v in range(10)]
                       + [(u, v) for u in range(10, 17) for v in range(u + 1, 17)])


def test_deletion_order_matches_scan():
    rng = random.Random(41)
    graphs = 0
    for g in _order_corpus(rng):
        assert deletion_edge_order(g) == _deletion_order_scan(g)
        graphs += 1
    assert graphs >= 500


def test_frontier_rank_matches_scan():
    rng = random.Random(45)
    for g in _order_corpus(rng):
        rank = frontier_rank(g)
        assert rank == _frontier_rank_scan(g)
        assert sorted(rank) == list(range(g.n))


def test_ranked_deletion_order_matches_scan():
    """With a rank, the bucket queue's order is the ranked definition's, for the
    frontier rank and for any permutation; the order is a permutation of
    the edge ids either way."""
    rng = random.Random(47)
    graphs = 0
    for g in _order_corpus(rng):
        for rank in (frontier_rank(g), rng.sample(range(g.n), g.n)):
            order = deletion_edge_order(g, rank)
            assert order == _deletion_order_scan(g, rank)
            assert sorted(order) == list(range(g.m))
        graphs += 1
    assert graphs >= 500


def test_ranked_order_ignores_edge_ids():
    """The frontier order reads vertex ids and degrees alone: listing the
    same edges in another order gives the same edges in the same order."""
    rng = random.Random(49)
    for g in _order_corpus(rng):
        shuffled = list(g.edges)
        rng.shuffle(shuffled)
        h = build_graph(g.n, shuffled)
        assert ([g.edges[e] for e in deletion_edge_order(g, frontier_rank(g))]
                == [h.edges[e] for e in deletion_edge_order(h, frontier_rank(h))])


def test_order_corpus_moves_the_scan_down_and_up():
    """The degree at which each run starts, on the scan: the path into K7
    runs at degree 1, then at 6, 5, 4, 3, 2, 1, so the queue's scan climbs
    five empty or stale buckets and is reset down five times in a row; on
    the hub, every run starts at degree 1, and the hub's stale entries in
    buckets 2 to 150 are never popped."""
    def run_degrees(g):
        deg = [g.degree(v) for v in range(g.n)]
        starts, prev = [], None
        for v, e in _deletion_scan_steps(g):
            if v != prev:
                starts.append(deg[v])
                prev = v
            for w in g.edges[e]:
                deg[w] -= 1
        return starts

    path_k7, hub = _path_into_k7(), _pendant_hub(150)
    assert run_degrees(path_k7) == [1] * 10 + [6, 5, 4, 3, 2, 1]
    assert hub.max_degree() == 150 and set(run_degrees(hub)) == {1}
    for g in (path_k7, hub):
        assert deletion_edge_order(g) == _deletion_order_scan(g)


def test_least_vertex_keeps_the_turn_until_its_degree_is_0():
    """The fact deletion_edge_order's runs rest on, checked on the scan:
    once a vertex is least it stays least until its last edge is deleted,
    so each vertex's deletions are one unbroken run and no run ends on a
    tie.  It holds with degree ties broken by id and by frontier rank."""
    rng = random.Random(43)
    for g in _order_corpus(rng):
        for rank in (None, frontier_rank(g)):
            steps = _deletion_scan_steps(g, rank)
            runs = [v for i, (v, _) in enumerate(steps) if i == 0 or steps[i - 1][0] != v]
            assert len(runs) == len(set(runs))
            for v in set(runs):  # a run ends only with its vertex's last edge
                last = max(i for i, (x, _) in enumerate(steps) if x == v)
                assert not any(v in g.edges[e] for _, e in steps[last + 1:])


# --- the counting lower bound ------------------------------------------------

def _chi_a_from_delta(g):
    """chi'_a searched upward from Delta alone: the oracle for the
    bound-started chi_a_exact."""
    if g.m == 0:
        return 0
    k = g.max_degree()
    while is_acyclically_k_colorable(g, k).status != "yes":
        k += 1
    return k


def _recount(g, witness):
    """max(Delta(H), ceil(2e(H)/(|W|-1))) on H = g[witness] built with
    networkx, or Delta(H) when that is at most 1."""
    h = nx.Graph(g.edges).subgraph(witness)
    delta = max((d for _, d in h.degree()), default=0)
    if delta <= 1:
        return delta
    return max(delta, -(-2 * h.number_of_edges() // (len(witness) - 1)))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_counting_bound_is_a_certified_lower_bound(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    all_pairs = list(combinations(range(n), 2))
    pairs = data.draw(
        st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))
        if all_pairs else st.just([])
    )
    g = build_graph(n, pairs)
    bound, witness = counting_lower_bound(g, deletion_edge_order(g))
    assert g.max_degree() <= bound
    # colorability is monotone in k, so bound <= chi'_a iff bound - 1 fails
    assert bound == g.max_degree() or is_acyclically_k_colorable(g, bound - 1).status == "no"
    assert _recount(g, witness) >= bound


def test_chi_a_matches_delta_start_on_atlas():
    graphs = list(connected_graphs_upto(7))
    assert len(graphs) == 996
    above_delta = 0
    for g in graphs:
        result = chi_a_exact(g)
        assert result.chi_a == _chi_a_from_delta(g)
        # the frontier order's peel counts what the id order's counts
        assert result.lower_bound == counting_lower_bound(g, deletion_edge_order(g))[0]
        above_delta += result.lower_bound > g.max_degree()
    assert above_delta == 78  # the peel misses one of the 79 exact maxima


@pytest.mark.parametrize("pairs", [1, 2, 5])
def test_counting_bound_on_matchings_is_delta(pairs):
    # K2 counts 2/(2-1) = 2 but has chi'_a = 1: the k >= 2 step is needed
    g = build_graph(2 * pairs, [(2 * i, 2 * i + 1) for i in range(pairs)])
    assert counting_lower_bound(g, deletion_edge_order(g)) == (1, list(range(2 * pairs)))
    result = chi_a_exact(g)
    assert result.chi_a == result.lower_bound == 1
    assert result.nodes == pairs


@pytest.mark.parametrize("name, g, bound", [
    ("K7", complete(7), 7),
    ("K3,3", complete_bipartite(3, 3), 4),
    ("petersen", petersen(), 4),
    ("Q4", hypercube(4), 5),
])
def test_counting_bound_values(name, g, bound):
    got, witness = counting_lower_bound(g, deletion_edge_order(g))
    assert got == bound
    assert _recount(g, witness) >= bound


def _counting_bound_alone(g):
    """counting_lower_bound as it was written before walk_peel: its own walk
    of the peel, counting nothing else."""
    best = g.max_degree()
    order = deletion_edge_order(g)
    start = 0
    if best >= 2:
        deg = [g.degree(v) for v in range(g.n)]
        live = sum(1 for d in deg if d)
        for i, e in enumerate(order):
            count = -(-2 * (g.m - i) // (live - 1))
            if count > best:
                best, start = count, i
            for w in g.edges[e]:
                deg[w] -= 1
                if not deg[w]:
                    live -= 1
    return best, sorted({v for e in order[start:] for v in g.edges[e]})


def test_walk_peel_on_atlas():
    """The shared walk keeps the counting bound and its witness; its
    degeneracy is networkx's largest core number, and its densest peel set
    is no denser than mad."""
    for a in nx.graph_atlas_g()[1:]:
        g = build_graph(a.number_of_nodes(), sorted(a.edges()))
        assert counting_lower_bound(g, deletion_edge_order(g)) == _counting_bound_alone(g)
        peel = walk_peel(g, deletion_edge_order(g))
        assert peel.degeneracy == max(nx.core_number(a).values())
        assert peel.densest <= mad_exact(g)


def test_walk_peel_densest_is_the_best_peel_set():
    # K4 with a pendant path: the peel strips the path, then K4 has 12/4
    g = build_graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                        (3, 4), (4, 5), (5, 6)])
    peel = walk_peel(g, deletion_edge_order(g))
    assert peel.densest == Fraction(3) == mad_exact(g)
    assert peel.degeneracy == 3
    assert walk_peel(build_graph(3, []), []) == solver.Peel(0, 0, 0, Fraction(0))


def test_forged_bound_is_rejected(monkeypatch):
    """A bound its witness does not re-count to stops chi_a_exact before
    any search."""
    monkeypatch.setattr(solver, "counting_lower_bound", lambda g, order: (4, [0, 1, 2]))
    with pytest.raises(ValueError, match="not re-counted"):
        chi_a_exact(cycle(5))



# --- answers that read the graph, not its labels --------------------------------

def _small_graphs(n_max=9, m_max=12):
    """A strategy for graphs on at most ``n_max`` vertices and ``m_max``
    edges, with edges drawn from all vertex pairs."""
    def with_edges(n):
        all_pairs = list(combinations(range(n), 2))
        pairs = (st.lists(st.sampled_from(all_pairs), unique=True,
                          max_size=min(m_max, len(all_pairs)))
                 if all_pairs else st.just([]))
        return pairs.map(lambda p: build_graph(n, p))
    return st.integers(min_value=1, max_value=n_max).flatmap(with_edges)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_answers_do_not_depend_on_labels(data):
    """A vertex permutation and an edge shuffle keep chi'_a, the
    criticality status one level below it and Fact 2's orbit-weighted
    count, and chi_a_exact's coloring validates on the relabelled graph.
    K4 and K3,3, critical at k = 4, are drawn too, so that Fact 2 holds
    and its count is compared.  The counting bound is sound on both
    labellings but reads the labels (test_counting_bound_reads_the_labels)."""
    g = data.draw(st.one_of(st.sampled_from([complete(4), complete_bipartite(3, 3)]),
                            _small_graphs()))
    perm = data.draw(st.permutations(range(g.n)))
    h = build_graph(g.n, data.draw(st.permutations([(perm[u], perm[v])
                                                    for u, v in g.edges])))
    a, b = chi_a_exact(g), chi_a_exact(h)
    assert a.chi_a == b.chi_a
    assert b.coloring.is_total() and has_bichromatic_cycle(h, b.coloring) is None
    assert b.lower_bound <= b.chi_a and _recount(h, b.lower_bound_witness) >= b.lower_bound
    k = a.chi_a - 1
    if k >= 1:
        assert is_critical(g, k).status == is_critical(h, k).status
        (holds_g, count_g), (holds_h, count_h) = fact2_sweep(g, k), fact2_sweep(h, k)
        assert holds_g == holds_h
        if holds_g:  # a failing sweep stops at the first failure the order meets
            assert count_g == count_h


def test_counting_bound_reads_the_labels():
    """The peel counts the subgraphs its order happens to peel, and the
    order breaks degree ties by label: here K4 minus an edge (5 edges on 4
    vertices, 2*5/3 rounds up to 4) is a peel set under one labelling and
    not under the other, with either tie rule.  chi'_a is 4 both ways."""
    pairs = [(2, 6), (3, 5), (1, 4), (0, 2), (1, 5), (3, 4), (4, 5), (0, 3), (0, 6)]
    swap = {1: 2, 2: 1}
    for relabel, bound in [({}, 3), (swap, 4)]:
        g = build_graph(7, sorted(tuple(sorted(relabel.get(v, v) for v in p))
                                  for p in pairs))
        result = chi_a_exact(g)
        assert (result.chi_a, result.lower_bound) == (4, bound)
        assert counting_lower_bound(g, deletion_edge_order(g))[0] == bound


def _shuffled_lattice(lattice, seed):
    """A networkx lattice with integer labels shuffled by
    ``random.Random(seed).shuffle``."""
    h = nx.convert_node_labels_to_integers(lattice)
    perm = list(range(h.number_of_nodes()))
    random.Random(seed).shuffle(perm)
    return build_graph(len(perm), [(perm[u], perm[v]) for u, v in h.edges()])


@pytest.mark.parametrize("lattice, chi", [
    (nx.grid_2d_graph(10, 10), 4),
    (nx.hexagonal_lattice_graph(8, 8), 3),
], ids=["grid10x10", "hex8x8"])
def test_shuffled_lattices_are_decided(lattice, chi):
    """The paper's triangle-free planar graphs are decided whatever their
    labels: the frontier order keeps the colored region compact.  With
    degree ties broken by id, 12 of these 16 ran past 200K nodes; in the
    frontier order the grid takes 7,129 nodes each time and the hex
    lattice 271-20,134."""
    for seed in range(8):
        result = chi_a_exact(_shuffled_lattice(lattice, seed), SolveBudget(25_000))
        assert result.chi_a == chi, seed
        assert result.nodes < 25_000
