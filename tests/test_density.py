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
from conftest import complete, complete_bipartite, cycle, path, random_graph, star
from oracles import mad_brute


def test_mad_k4():
    assert mad_exact(complete(4)) == 3


def test_mad_cycles():
    for n in range(3, 9):
        assert mad_exact(cycle(n)) == 2


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


@pytest.mark.parametrize("n", [300, 1000])
def test_mad_needs_few_flows_on_sparse_graphs(monkeypatch, n):
    """Dinkelbach's iteration jumps to the densest violating set, so a
    sparse uniform graph needs a handful of cuts (bisection needs 17-25)."""
    calls = []
    max_flow = density._Dinic.max_flow

    def counted(self, s, t):
        calls.append(s)
        return max_flow(self, s, t)

    monkeypatch.setattr(density._Dinic, "max_flow", counted)
    for seed in range(2):
        calls.clear()
        g = generate_sparse(n, 3 * n // 2, seed)
        value = mad_exact(g)
        assert len(calls) <= 4
        ok, witness = density_at_least(g, value)
        assert ok and Fraction(2 * subgraph_edge_count(g, set(witness)), len(witness)) == value


def test_mad_witness_reuses_the_last_cut(monkeypatch):
    """mad_witness runs no more min-cuts than mad_exact, and its witness is
    the largest densest set: density mad_brute, and the set that the
    threshold test at that density returns."""
    calls = []
    max_flow = density._Dinic.max_flow

    def counted(self, s, t):
        calls.append(s)
        return max_flow(self, s, t)

    monkeypatch.setattr(density._Dinic, "max_flow", counted)
    rng = random.Random(25)
    graphs = [random_graph(rng, n, rng.randint(1, n * (n - 1) // 2))
              for n in (rng.randint(2, 12) for _ in range(60))]
    graphs += [build_graph(7, []), complete(5), generate_sparse(300, 450, 0)]
    for g in graphs:
        calls.clear()
        value = mad_exact(g)
        exact_flows = len(calls)
        calls.clear()
        got, witness = mad_witness(g)
        assert got == value and len(calls) <= exact_flows
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
