import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aecolor import density
from aecolor.cli import generate_sparse
from aecolor.density import (
    density_at_least,
    mad_exact,
    mad_witness,
    subgraph_edge_count,
)
from aecolor.graph import build_graph
from conftest import (
    complete,
    complete_bipartite,
    cycle,
    hex_lattice,
    ladder,
    path,
    random_graph,
    star,
)
from oracles import mad_brute


def test_mad_k4():
    assert mad_exact(complete(4)) == 3


def test_mad_cycles():
    """A cycle has density 2, where the pruning does not run: the whole
    cycle is the witness."""
    for n in range(3, 10):
        assert mad_witness(cycle(n)) == (Fraction(2), list(range(n)))


def test_mad_star():
    # K_{1,5}: the whole graph is the densest subgraph, 2*5/6
    assert mad_exact(star(5)) == Fraction(5, 3)


def test_mad_tree_below_two():
    for n in range(2, 9):
        assert mad_exact(path(n)) < 2


def test_mad_empty_graph():
    assert mad_exact(build_graph(3, [])) == 0


def test_mad_dense_subgraph_dominates():
    # a triangle with a long pendant path: mad comes from the triangle
    g = build_graph(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6)])
    value, witness = mad_witness(g)
    assert value == 2
    assert set(witness) >= {0, 1, 2}


def test_mad_k33():
    assert mad_exact(complete_bipartite(3, 3)) == 3


def test_density_at_least_witness_is_valid():
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(2, 12)
        m = rng.randint(1, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        target = Fraction(rng.randint(1, 4 * n), rng.randint(1, n))
        ok, witness = density_at_least(g, target)
        if ok:
            h = set(witness)
            assert 2 * subgraph_edge_count(g, h) >= target * len(h)
        else:
            # exhaustively confirm no subset reaches the target
            for size in range(1, n + 1):
                for subset in combinations(range(n), size):
                    assert 2 * subgraph_edge_count(g, set(subset)) < target * size


def test_density_at_least_matches_brute_force():
    """density_at_least(g, t) answers mad_brute(g) >= t, for t = mad itself,
    just above it (densities differ by at least 1/n^2), 0 and a random
    fraction, and every witness reaches t."""
    rng = random.Random(26)
    for _ in range(150):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        mad = mad_brute(g)
        targets = [mad, mad + Fraction(1, n * n), Fraction(0),
                   Fraction(rng.randint(1, 2 * n), rng.randint(1, n))]
        for t in targets:
            ok, witness = density_at_least(g, t)
            assert ok == (mad >= t), (g.edges, t)
            if ok:
                h = set(witness)
                assert h and len(h) == len(witness) and h <= set(range(n))
                assert 2 * subgraph_edge_count(g, h) >= t * len(h)
            else:
                assert witness is None


def test_mad_matches_brute_force():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 10)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        assert mad_exact(g) == mad_brute(g)


def test_mad_monotone_under_edge_insertion():
    rng = random.Random(22)
    for _ in range(40):
        n = rng.randint(3, 10)
        all_pairs = list(combinations(range(n), 2))
        m = rng.randint(1, len(all_pairs) - 1)
        pairs = rng.sample(all_pairs, m + 1)
        smaller = build_graph(n, pairs[:-1])
        larger = build_graph(n, pairs)
        assert mad_exact(smaller) <= mad_exact(larger)


def test_mad_witness_achieves_value():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 14)
        m = rng.randint(1, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        value, witness = mad_witness(g)
        h = set(witness)
        assert h
        assert Fraction(2 * subgraph_edge_count(g, h), len(h)) == value


def test_mad_bounds():
    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(2, 14)
        m = rng.randint(1, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        value = mad_exact(g)
        assert Fraction(2 * g.m, g.n) <= value <= g.max_degree()
        assert value.denominator <= g.n


def test_density_rejects_negative_target():
    with pytest.raises(ValueError):
        density_at_least(path(2), Fraction(-1))


def test_mad_brute_guards_large_input():
    with pytest.raises(ValueError):
        mad_brute(build_graph(23, [(0, 1)]))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_mad_flow_equals_brute_hypothesis(data):
    n = data.draw(st.integers(min_value=1, max_value=9))
    all_pairs = list(combinations(range(n), 2))
    pairs = data.draw(
        st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))
        if all_pairs else st.just([])
    )
    g = build_graph(n, pairs)
    assert mad_exact(g) == mad_brute(g)


@pytest.fixture
def flow_calls(monkeypatch):
    """The list that each ``_Dinic.max_flow`` call appends its source to."""
    calls = []
    max_flow = density._Dinic.max_flow

    def counted(self, s, t):
        calls.append(s)
        return max_flow(self, s, t)

    monkeypatch.setattr(density._Dinic, "max_flow", counted)
    return calls


@pytest.mark.parametrize("n", [300, 1000])
def test_mad_needs_few_flows_on_sparse_graphs(flow_calls, n):
    """Dinkelbach's iteration jumps to the densest violating set, so a
    sparse uniform graph needs a handful of cuts (bisection needs 17-25)."""
    for seed in range(2):
        flow_calls.clear()
        g = generate_sparse(n, 3 * n // 2, seed)
        value = mad_exact(g)
        assert len(flow_calls) <= 4
        ok, witness = density_at_least(g, value)
        assert ok and Fraction(2 * subgraph_edge_count(g, set(witness)), len(witness)) == value


def test_mad_witness_reuses_the_last_cut(flow_calls):
    """mad_witness runs no more min-cuts than mad_exact, and its witness is
    the largest densest set: density mad_brute, and the set that the
    threshold test at that density returns."""
    rng = random.Random(25)
    graphs = [random_graph(rng, n, rng.randint(1, n * (n - 1) // 2))
              for n in (rng.randint(2, 12) for _ in range(60))]
    graphs += [build_graph(7, []), complete(5), generate_sparse(300, 450, 0)]
    for g in graphs:
        flow_calls.clear()
        value = mad_exact(g)
        exact_flows = len(flow_calls)
        flow_calls.clear()
        got, witness = mad_witness(g)
        assert got == value and len(flow_calls) <= exact_flows
        if g.n <= 12:
            assert value == mad_brute(g)
        if g.m == 0:
            assert witness == []
            continue
        assert Fraction(2 * subgraph_edge_count(g, set(witness)), len(witness)) == value
        assert witness == density_at_least(g, value)[1]


def test_mad_rejects_a_witness_that_is_not_denser(monkeypatch):
    # a cut that keeps returning the whole vertex set would never advance
    monkeypatch.setattr(density, "_density_exceeds", lambda g, p, q: set(range(g.n)))
    with pytest.raises(ValueError, match="not denser"):
        mad_exact(cycle(5))


def test_mad_witness_on_a_long_ladder(flow_calls):
    """The 4,000-vertex ladder: the whole graph is densest, and its one
    flow carries each vertex's unit of excess to the four corners, up to
    1,000 arcs away.  No vertex is pruned: its chains are the two
    2-vertices at each end, and 2 * 3/2 = 3 is not below 2999/1000."""
    assert mad_witness(ladder(2000)) == (Fraction(2999, 1000), list(range(4000)))
    assert len(flow_calls) == 1


def test_mad_witness_on_relabelled_hex_lattices(flow_calls):
    """The 8x8 hexagonal lattice, whose palette the peel cannot settle: its
    densest set leaves out six corner vertices of degree 2, under any
    vertex numbering.  They form two chains of three 2-vertices, which the
    chain rule drops (2 * 4/3 < 223/80), so the one flow finds nothing
    denser than the rest."""
    g = hex_lattice(8, 8)
    outside = {0, 1, 17, 142, 158, 159}
    rng = random.Random(23)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        flow_calls.clear()
        value, witness = mad_witness(h)
        assert len(flow_calls) == 1
        assert value == Fraction(215, 77)
        assert witness == sorted(perm[v] for v in range(g.n) if v not in outside)
        assert density._prune(h) == witness


def _largest_densest_set(g):
    """The largest vertex set of maximum density in g, which has an edge,
    by brute force over all subsets."""
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    best_key, best_mask = (Fraction(0), 0), 0
    for mask in range(1, 1 << g.n):
        ends = sum((adj[v] & mask).bit_count() for v in range(g.n) if mask >> v & 1)
        key = (Fraction(ends, mask.bit_count()), mask.bit_count())
        if ends and key > best_key:
            best_key, best_mask = key, mask
    return [v for v in range(g.n) if best_mask >> v & 1]


@st.composite
def chained_graphs(draw):
    """A small random core whose edges are each subdivided 0-4 times, with
    trees hung off it: 2-vertex chains and pendant vertices, which the
    pruning drops or keeps, on at most 11 vertices."""
    core = draw(st.integers(min_value=2, max_value=5))
    pairs = list(combinations(range(core), 2))
    core_edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    n, edges = core, []
    for u, v in core_edges:
        inner = draw(st.integers(min_value=0, max_value=min(4, 11 - n)))
        chain = [u] + list(range(n, n + inner)) + [v]
        n += inner
        edges += zip(chain, chain[1:])
    leaves = draw(st.integers(min_value=0, max_value=11 - n))
    for leaf in range(n, n + leaves):
        edges.append((draw(st.integers(min_value=0, max_value=leaf - 1)), leaf))
    return build_graph(n + leaves, edges)


@given(chained_graphs())
@settings(max_examples=200, deadline=None)
def test_pruned_mad_and_witness_match_brute_force(g):
    """mad and its witness, the largest densest set, on graphs full of
    chains and pendant trees, against brute force over all subsets."""
    value, witness = mad_witness(g)
    assert value == mad_brute(g)
    assert witness == _largest_densest_set(g)


def _k4_with(path_inner):
    """K4 on 0-3 with a path of ``path_inner`` new vertices from 0 to 1."""
    chain = [0] + list(range(4, 4 + path_inner)) + [1]
    return build_graph(4 + path_inner, list(combinations(range(4), 2))
                       + list(zip(chain, chain[1:])))


def test_pruning_keeps_a_chain_at_the_tie():
    """K4 with a path of two 2-vertices between two of its vertices has
    density 18/6 = 3 = mad(K4): the chain's 2 * 3/2 equals lambda, so the
    strict chain test keeps it and the witness is all six vertices.  A
    longer path lowers the density and goes."""
    assert mad_witness(_k4_with(2)) == (Fraction(3), list(range(6)))
    assert mad_witness(_k4_with(3)) == (Fraction(3), list(range(4)))


def test_pruning_keeps_a_2_vertex_at_the_tie():
    """K5 with one more vertex joined to two of its vertices: density
    24/6 = 4 = mad(K5), so neither the core rule (2 * 2 = lambda) nor the
    chain rule (2 * 2/1 = lambda) may drop the 2-vertex."""
    g = build_graph(6, list(combinations(range(5), 2)) + [(0, 5), (1, 5)])
    assert mad_witness(g) == (Fraction(4), list(range(6)))


def test_pruning_waits_for_density_above_2():
    """K5 and 20 disjoint edges start at density 60/45 < 2, so nothing is
    pruned before the first cut, which finds the K5."""
    g = build_graph(45, list(combinations(range(5), 2))
                    + [(5 + 2 * i, 6 + 2 * i) for i in range(20)])
    assert density._prune(g) == list(range(45))
    assert mad_witness(g) == (Fraction(4), list(range(5)))


@pytest.mark.parametrize("inner, value, size", [
    (1, Fraction(28, 9), 9), (2, Fraction(3), 10), (3, Fraction(3), 8), (10, Fraction(3), 8)])
def test_two_k4s_joined_by_a_path(inner, value, size):
    """Two disjoint K4s joined by a path of ``inner`` new vertices.  With
    one or two, the whole graph is densest (with two, at the tie 30/10 =
    3); from three on, the chain rule drops the path (2 * 4/3 < 32/11)
    and the witness is the two K4s."""
    path_ = [3] + list(range(8, 8 + inner)) + [4]
    g = build_graph(8 + inner, list(combinations(range(4), 2))
                    + list(combinations(range(4, 8), 2))
                    + list(zip(path_, path_[1:])))
    assert mad_witness(g) == (value, list(range(size)))
