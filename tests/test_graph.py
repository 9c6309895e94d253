import random
from itertools import permutations
from math import inf

import networkx as nx
import pytest

from aecolor.cli import generate_sparse
from aecolor.graph import (
    GraphError,
    ParseError,
    build_graph,
    delete_edge,
    girth,
    is_2_connected,
    n_k,
    parse_edge_list,
)
from conftest import complete, cube, cycle, from_networkx, path, random_graph, star
from oracles import is_connected


def test_build_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.m == 3
    assert g.neighbors(0) == (1, 2)


def test_build_k4():
    g = complete(4)
    assert g.m == 6
    assert g.max_degree() == 3


def test_build_rejects_self_loop():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 0)])


def test_build_rejects_duplicate():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError):
        build_graph(2, [(0, 2)])


def test_edge_ids_first_seen_order():
    g = build_graph(4, [(2, 3), (0, 1)])
    assert g.endpoints(0) == (2, 3)
    assert g.endpoints(1) == (0, 1)


def test_build_rejects_negative_vertex_count():
    with pytest.raises(GraphError, match="vertex count must be nonnegative"):
        build_graph(-1, [])


def test_adjacency_tuples_ascending():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 15)
        pairs = rng.sample([(u, v) for u in range(n) for v in range(n) if u < v],
                           rng.randint(0, n * (n - 1) // 2))
        g = build_graph(n, [p if rng.random() < 0.5 else p[::-1] for p in pairs])
        for v in range(n):
            want = sorted(w for e in g.edges for w in e if v in e and w != v)
            assert g.neighbors(v) == tuple(want)
            assert g.incident_edge_ids(v) == tuple(
                e for e, ends in enumerate(g.edges) if v in ends)


def test_degree_profile_k4():
    g = complete(4)
    assert g.degree(0) == 3
    assert [n_k(g, 0, k) for k in range(g.n)] == [0, 0, 0, 3]


def test_degree_profile_star_center():
    g = star(4)
    assert g.degree(0) == 4
    assert [n_k(g, 0, k) for k in range(g.n)] == [0, 4, 0, 0, 0]


def test_degree_profile_path_middle():
    g = path(3)
    assert g.degree(1) == 2
    assert [n_k(g, 1, k) for k in range(g.n)] == [0, 2, 0]


def test_degree_profile_invalid_vertex():
    with pytest.raises(GraphError):
        n_k(path(3), 7, 1)


def test_handshake_sum_random():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 12)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def _girth_brute(g) -> float:
    """Enumerate every cyclic vertex ordering of every subset (|V| <= 8)."""
    best = inf
    verts = list(range(g.n))
    for size in range(3, g.n + 1):
        from itertools import combinations
        for subset in combinations(verts, size):
            first = subset[0]
            for order in permutations(subset[1:]):
                ring = (first,) + order
                if all(ring[(i + 1) % size] in g.neighbors(ring[i])
                       for i in range(size)):
                    best = min(best, size)
                    break
            if best == size:
                break
        if best < inf:
            return best
    return best


def test_girth_k4():
    assert girth(complete(4)) == 3


def test_girth_cube_is_4():
    # frozen from the exhaustive cycle-enumeration oracle
    g = cube()
    assert _girth_brute(g) == 4
    assert girth(g) == 4


def test_girth_tree_is_infinite():
    assert girth(path(5)) == inf
    assert girth(star(6)) == inf


def test_girth_matches_brute_force_small():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(3, 8)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        assert girth(g) == _girth_brute(g)


def _nx_girth(g) -> float:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return nx.girth(h)


def test_girth_matches_networkx_on_sparse_graphs():
    # m = n .. 1.3n leaves short cycles rare, so later roots' searches
    # stop at levels 1 and deeper instead of running to the end
    for n in range(10, 61):
        for m in sorted({n, (23 * n) // 20, (13 * n) // 10}):
            for seed in range(3):
                g = generate_sparse(n, m, seed)
                assert girth(g) == _nx_girth(g), (n, m, seed)


@pytest.mark.parametrize("name", ["petersen_graph", "heawood_graph", "pappus_graph",
                                  "desargues_graph", "dodecahedral_graph"])
def test_girth_matches_networkx_on_named_cages(name):
    h = getattr(nx, name)()
    g = from_networkx(h)
    assert girth(g) == nx.girth(h) in (5, 6)
    for seed in range(5):
        perm = list(range(g.n))
        random.Random(seed).shuffle(perm)
        shuffled = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert girth(shuffled) == nx.girth(h), seed


def test_girth_of_cycles_with_one_chord():
    # the chord (0, j) splits C_n into cycles of lengths j + 1 and n - j + 1
    for n in range(4, 16):
        for j in range(2, n - 1):
            g = build_graph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, j)])
            assert girth(g) == min(j + 1, n - j + 1) == _nx_girth(g), (n, j)


def test_girth_of_forests_is_infinite():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 40)
        # each vertex hangs from an earlier one, or starts a new tree
        pairs = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
        g = build_graph(n, pairs)
        assert girth(g) == _nx_girth(g) == inf


def _has_cut_vertex(g) -> bool:
    def connected_without(skip):
        remaining = [v for v in range(g.n) if v != skip]
        if not remaining:
            return True
        seen = {remaining[0]}
        stack = [remaining[0]]
        while stack:
            u = stack.pop()
            for w in g.neighbors(u):
                if w != skip and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(remaining)

    return any(not connected_without(v) for v in range(g.n))


def test_is_2_connected_k4():
    assert is_2_connected(complete(4))


def test_is_2_connected_path_false():
    assert not is_2_connected(path(3))


def test_two_triangles_sharing_vertex():
    # frozen from the vertex-removal oracle: vertex 0 is an articulation point
    g = build_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    assert _has_cut_vertex(g)
    assert not is_2_connected(g)


def test_is_2_connected_matches_removal_oracle():
    rng = random.Random(2)
    for _ in range(80):
        n = rng.randint(1, 10)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        expected = g.n >= 3 and is_connected(g) and not _has_cut_vertex(g)
        assert is_2_connected(g) == expected


def test_delete_edge_k4():
    g = delete_edge(complete(4), 0)
    assert g.m == 5
    assert g.max_degree() == 3


def test_delete_edge_triangle_gives_path():
    g = delete_edge(cycle(3), 0)
    assert g.m == 2
    assert girth(g) == inf


def test_delete_last_edge_twice_errors():
    g = cycle(3)
    g2 = delete_edge(g, 2)
    with pytest.raises(GraphError):
        delete_edge(g2, 2)


def test_delete_edge_keeps_lower_ids():
    g = complete(4)
    g2 = delete_edge(g, 3)
    assert g2.endpoints(0) == g.endpoints(0)
    assert g2.endpoints(2) == g.endpoints(2)


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse_edge_list("p 3\ne 0 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("e 0 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("p 3 1\ne 0 zero\n")
    with pytest.raises(ParseError):
        parse_edge_list("p 2 1\ne 0 0\n")


def test_parse_line_number_in_error():
    with pytest.raises(ParseError, match="line 3"):
        parse_edge_list("# comment\np 3 1\ne 0 nope\n")


def test_parse_comments_ignored():
    g = parse_edge_list("# hi\np 3 2\ne 0 1\n# mid\ne 1 2\n")
    assert g.m == 2
