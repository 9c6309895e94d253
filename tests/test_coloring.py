import random
from collections import Counter
from itertools import combinations

import pytest

import aecolor.coloring
from aecolor.cli import generate_sparse
from aecolor.coloring import (
    BichromaticTrace,
    ColoringError,
    EdgeColoring,
    ImproperColoringError,
    format_coloring,
    has_bichromatic_cycle,
    is_proper,
    parse_coloring,
    properness_violation,
    trace_bichromatic,
)
from aecolor.graph import build_graph
from aecolor.solver import SolveBudget, _Search
from aecolor.structure import fact2_verify
from conftest import (complete, cycle, edge_index, load, path, random_acyclic_state,
                      random_graph, snapshot)
from oracles import union_find_bichromatic_cycle


def colored_cycle(n, colors):
    g = cycle(n)
    return g, EdgeColoring(max(colors), tuple(colors))


def random_proper_coloring(rng, g, k=None):
    """Greedy proper (not necessarily acyclic) coloring with random choices."""
    if k is None:
        k = 2 * max(g.max_degree(), 1)
    colors = []
    used = [set() for _ in range(g.n)]
    for u, v in g.edges:
        free = [c for c in range(1, k + 1) if c not in used[u] and c not in used[v]]
        c = rng.choice(free)
        colors.append(c)
        used[u].add(c)
        used[v].add(c)
    return EdgeColoring(k, tuple(colors))


def test_is_proper_rejects_shared_color():
    g = path(3)
    assert not is_proper(g, EdgeColoring(2, (1, 1)))


def test_is_proper_c4_alternating():
    g, c = colored_cycle(4, [1, 2, 1, 2])
    assert is_proper(g, c)


def test_is_proper_partial_allowed():
    g = complete(4)
    assert is_proper(g, EdgeColoring(5, (1, 0, 0, 0, 0, 0)))


def _loaded(g, c):
    return load(_Search(g, c.k, SolveBudget(1)), c)  # the kernel alone: nothing searches


def _colors(mask):
    return {col for col in range(mask.bit_length()) if mask >> col & 1}


def test_color_sets_complement():
    # F_v is the kernel's used_mask[v]; C_v is the rest of the palette
    state = _loaded(path(3), EdgeColoring(5, (1, 3)))
    present = _colors(state.used_mask[1])
    assert present == {1, 3}
    assert set(range(1, 6)) - present == {2, 4, 5}


def test_color_sets_s_uv():
    # S_uv = F_v minus phi(uv): what used_mask[v] holds once uv is unset
    state = _loaded(path(3), EdgeColoring(5, (1, 3)))
    state.unset(1)
    assert _colors(state.used_mask[1]) == {1}
    assert state.col_nbr[1][3] == -1


def test_color_sets_isolated_vertex():
    state = _loaded(path(3), EdgeColoring(4, (0, 0)))
    assert state.used_mask[0] == 0
    assert set(range(1, 5)) - _colors(state.used_mask[0]) == {1, 2, 3, 4}


def test_trace_open_path():
    g = path(4)
    c = EdgeColoring(3, (1, 2, 1))
    t = trace_bichromatic(g, c, 1, 2, 0)
    assert not t.is_cycle
    assert t.vertices == (0, 1, 2, 3)


def test_trace_cycle():
    g, c = colored_cycle(4, [1, 2, 1, 2])
    t = trace_bichromatic(g, c, 1, 2, 0)
    assert t.is_cycle
    assert t.vertices[0] == t.vertices[-1] == 0
    assert len(t.vertices) == 5
    # oriented toward the lower-numbered neighbor
    assert t.vertices[1] == 1


def test_trace_absent_colors():
    g = path(2)
    c = EdgeColoring(3, (3,))
    assert trace_bichromatic(g, c, 1, 2, 0) is None


def test_trace_rejects_equal_colors():
    g = path(2)
    with pytest.raises(ColoringError):
        trace_bichromatic(g, EdgeColoring(2, (1,)), 1, 1, 0)


def test_bichromatic_cycle_found():
    g, c = colored_cycle(4, [1, 2, 1, 2])
    t = has_bichromatic_cycle(g, c)
    assert t is not None and t.is_cycle


def test_bichromatic_cycle_none():
    g, c = colored_cycle(4, [1, 2, 1, 3])
    assert has_bichromatic_cycle(g, c) is None


def test_bichromatic_cycle_c6():
    g, c = colored_cycle(6, [1, 2, 1, 2, 1, 2])
    t = has_bichromatic_cycle(g, c)
    assert t is not None and len(t.vertices) == 7


def test_bichromatic_cycle_rejects_improper():
    g = path(3)
    with pytest.raises(ImproperColoringError, match="vertex 1") as exc:
        has_bichromatic_cycle(g, EdgeColoring(2, (1, 1)))
    assert exc.value.vertex == 1


@pytest.mark.parametrize("edges, colors, vertex", [
    # a (1,2)-cycle on 3-4-5-6 and the path 0-1-2 colored 3, 3
    ([(3, 4), (4, 5), (5, 6), (6, 3), (0, 1), (1, 2)], (1, 2, 1, 2, 3, 3), 1),
    # the same cycle on 0-1-2-3, and two 3-colored edges at its vertex 2
    ([(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (2, 5)], (1, 2, 1, 2, 3, 3), 2),
    # the same cycle, one-edge colors 3 and 4, whose pairs are not merged,
    # and color 5 twice at vertex 4
    ([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 5), (4, 5), (4, 6)],
     (1, 2, 1, 2, 3, 4, 5, 5), 4),
])
def test_validator_raises_on_a_clash_above_a_lower_cycle(edges, colors, vertex):
    """Pair (1, 2) closes a cycle before the clashing color is numbered,
    and that color meets a vertex twice: the coloring is improper, so the
    validator raises, naming properness_violation's vertex, as the
    union-find does."""
    g = build_graph(7, edges)
    c = EdgeColoring(max(colors), colors)
    assert properness_violation(g, c) == vertex
    for validator in (has_bichromatic_cycle, union_find_bichromatic_cycle):
        with pytest.raises(ImproperColoringError,
                           match=f"^coloring is not proper at vertex {vertex}$") as exc:
            validator(g, c)
        assert exc.value.vertex == vertex


def test_validator_takes_a_palette_of_10_to_the_8():
    # nothing the validator allocates is sized by k
    k = 10**8
    g = cycle(4)
    assert has_bichromatic_cycle(g, EdgeColoring(k, (1, 2, k, 2))) is None
    assert has_bichromatic_cycle(g, EdgeColoring(k, (k, 2, k, 2))) == BichromaticTrace(
        (2, k), (0, 1, 2, 3, 0), True)
    with pytest.raises(ImproperColoringError, match="vertex 0"):
        has_bichromatic_cycle(g, EdgeColoring(k, (k, 2, 1, k)))


@pytest.mark.parametrize("colors", [(1, 1, 1), (1, 2, 1, 2, 2)], ids=["short", "long"])
def test_validator_rejects_a_coloring_of_other_than_m_edges(colors):
    # read on the edges it has, the short tuple is improper and the long one
    # alternates 1, 2 around C4; both must fail the length check instead,
    # and the short one must not be read past its end
    c = EdgeColoring(2, colors)
    checks = [
        lambda: properness_violation(cycle(4), c),
        lambda: has_bichromatic_cycle(cycle(4), c),
        lambda: trace_bichromatic(cycle(4), c, 1, 2, 0),
        # C5 minus edge 4 is a path with 4 edges
        lambda: fact2_verify(cycle(5), 2, 4, c),
    ]
    for check in checks:
        with pytest.raises(ColoringError,
                           match=f"coloring has {len(colors)} entries, graph has 4 edges") as exc:
            check()
        assert not isinstance(exc.value, ImproperColoringError)


@pytest.mark.parametrize("bad", [-1, 3])
def test_coloring_rejects_colors_outside_0_to_k(bad):
    assert EdgeColoring(2, (0, 1, 2)).colors_used() == {1, 2}
    with pytest.raises(ColoringError, match=f"color {bad} on edge 1 outside \\[0..2\\]"):
        EdgeColoring(2, (1, bad, 0))


@pytest.mark.parametrize("colors, bad, edge", [
    # min and max both out of range: the first bad edge is named
    ((1, 2, -2, 9), -2, 2),
    ((1, 5, -2, 9), 5, 1),
    ((0, 1, 2, 9), 9, 3),
])
def test_coloring_names_the_first_edge_outside_0_to_k(colors, bad, edge):
    with pytest.raises(ColoringError, match=f"^color {bad} on edge {edge} outside \\[0..3\\]$"):
        EdgeColoring(3, colors)
    assert EdgeColoring(3, ()).colors == ()
    assert EdgeColoring(3, (0, 3, 0)).colors_used() == {3}


def _properness_violation_scan(g, c):
    """The vertex-by-vertex scan that properness_violation replaced."""
    edge_id = edge_index(g)
    for v in range(g.n):
        seen = set()
        for w in g.neighbors(v):
            col = c.colors[edge_id[v, w]]
            if not col:
                continue
            if col in seen:
                return v
            seen.add(col)
    return None


def test_one_pass_properness_matches_vertex_scan():
    rng = random.Random(44)
    verdicts = set()
    for i in range(400):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.randint(0, min(3 * n, n * (n - 1) // 2)))
        if i % 2 and g.m:
            c = random_proper_coloring(rng, g)
        else:
            # random colors on a random subset of edges, mostly improper
            k = rng.randint(1, max(g.max_degree(), 1) + 1)
            c = EdgeColoring(k, tuple(rng.randint(1, k) if rng.random() < 0.7 else 0
                                      for _ in range(g.m)))
        want = _properness_violation_scan(g, c)
        assert properness_violation(g, c) == want
        verdicts.add(want is None)
    assert verdicts == {True, False}


def _critical_path(g, c, alpha, beta, u, v):
    """Does the maximal (alpha,beta) path leaving u on an alpha edge end at
    v through an alpha edge?  walk_ends_at needs each mu present at u."""
    state = _loaded(g, c)
    return state.walk_ends_at(u, v, state.used_mask[u] & 1 << alpha, beta)


def test_critical_path_parity():
    # u - a - v colored alpha, beta: ends at v via beta, so no critical path
    g = path(3)
    c = EdgeColoring(3, (1, 2))
    assert not _critical_path(g, c, 1, 2, 0, 2)


def test_critical_path_found():
    # u - a - b - v colored alpha, beta, alpha
    g = path(4)
    c = EdgeColoring(3, (1, 2, 1))
    assert _critical_path(g, c, 1, 2, 0, 3)


def test_critical_path_passes_v_and_continues():
    # u - a - b - v - w colored alpha, beta, alpha, beta: the path reaches v
    # on alpha but goes on to w, where it ends on beta
    g = path(5)
    c = EdgeColoring(3, (1, 2, 1, 2))
    assert not _critical_path(g, c, 1, 2, 0, 3)
    assert not _critical_path(g, c, 1, 2, 0, 4)


def test_critical_path_no_alpha_at_start():
    g = path(4)
    c = EdgeColoring(3, (2, 1, 2))
    assert not _critical_path(g, c, 1, 2, 0, 3)


def test_fact1_two_color_subgraph_degree_bound():
    """Each vertex has at most one alpha and one beta edge, and the trace of
    a component is identical from any of its vertices (uniqueness)."""
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(2, 30)
        m = rng.randint(1, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        c = random_proper_coloring(rng, g)
        used = sorted(c.colors_used())
        edge_id = edge_index(g)
        for a, b in combinations(used[:6], 2):
            for v in range(g.n):
                count = sum(
                    1 for w in g.neighbors(v)
                    if c.colors[edge_id[v, w]] in (a, b)
                )
                assert count <= 2
            for v in range(g.n):
                t = trace_bichromatic(g, c, a, b, v)
                if t is None:
                    continue
                for w in set(t.vertices):
                    t2 = trace_bichromatic(g, c, a, b, w)
                    assert set(t2.vertices) == set(t.vertices)
                    assert t2.is_cycle == t.is_cycle


def test_cycle_scan_agrees_with_pairwise_brute_force():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 12)
        m = rng.randint(1, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        c = random_proper_coloring(rng, g)
        used = sorted(c.colors_used())
        brute = False
        for a, b in combinations(used, 2):
            for v in range(g.n):
                t = trace_bichromatic(g, c, a, b, v)
                if t is not None and t.is_cycle:
                    brute = True
        assert (has_bichromatic_cycle(g, c) is not None) == brute


def _scan_cycles(g, c, a, b):
    """Every (a,b)-cycle of c, lowest vertex first, each traced from its
    lowest vertex: the vertex-by-vertex scan the validator once used to
    locate a cycle, run to the end instead of stopping at the first."""
    edge_id = edge_index(g)
    seen = set()
    cycles = []
    for v in range(g.n):
        if v in seen:
            continue
        nbrs = [w for w in g.neighbors(v) if c.colors[edge_id[v, w]] in (a, b)]
        if len(nbrs) < 2:
            continue
        trace = trace_bichromatic(g, c, a, b, v)
        seen.update(trace.vertices)
        if trace.is_cycle:
            cycles.append(trace)
    return cycles


def _is_closed_alternating(g, c, trace):
    vs = trace.vertices
    edge_id = edge_index(g)
    cols = [c.colors[edge_id[x, y]] for x, y in zip(vs, vs[1:])]
    return (trace.is_cycle and vs[0] == vs[-1] and len(set(vs)) == len(vs) - 1
            and set(cols) == set(trace.colors)
            and all(x != y for x, y in zip(cols, cols[1:] + cols[:1])))


def _random_colors(rng, g, k, uncolored=0.0):
    """A random free color per edge, in random edge order; an edge with
    none, or drawn with probability ``uncolored``, stays uncolored."""
    used = [0] * g.n
    colors = [0] * g.m
    for e in rng.sample(range(g.m), g.m):
        u, v = g.edges[e]
        free = [x for x in range(1, k + 1) if not (used[u] | used[v]) >> x & 1]
        if free and not (uncolored and rng.random() < uncolored):
            colors[e] = col = rng.choice(free)
            used[u] |= 1 << col
            used[v] |= 1 << col
    return colors


def _check_against_scan(g, c):
    """has_bichromatic_cycle against the scan over every color pair in
    order; returns the scan's cycles of the first pair that has one."""
    cycles = []
    for a, b in combinations(sorted(c.colors_used()), 2):
        cycles = _scan_cycles(g, c, a, b)
        if cycles:
            break
    got = has_bichromatic_cycle(g, c)
    if not cycles:
        assert got is None
        return cycles
    assert got is not None and got.colors == cycles[0].colors
    assert _is_closed_alternating(g, c, got)
    assert got.vertices[0] == min(got.vertices)
    if len(cycles) == 1:
        assert got == cycles[0]
    else:
        assert got in cycles
    return cycles


def test_path_end_validator_matches_pairwise_trace_scan():
    """On random proper colorings, partial and total, cyclic and acyclic,
    has_bichromatic_cycle agrees with the pairwise scan: the same verdict,
    the same first color pair, the scan's cycle whenever that pair has only
    one, and otherwise one of its closed alternating cycles."""
    rng = random.Random(43)
    verdicts = set()
    for i in range(300):
        n = rng.randint(2, 16)
        g = random_graph(rng, n, rng.randint(1, min(3 * n, n * (n - 1) // 2)))
        k = max(g.max_degree(), 2) + rng.randint(0, 2)
        if i % 3 == 0:
            c = snapshot(random_acyclic_state(rng, g, k))
        else:
            c = EdgeColoring(k, tuple(_random_colors(rng, g, k)))
        verdicts.add(not _check_against_scan(g, c))
    assert verdicts == {True, False}


def _verdict(validator, g, c):
    """A validator's answer: its trace or None, or the vertex that its
    ImproperColoringError names."""
    try:
        return validator(g, c)
    except ImproperColoringError as exc:
        return ("improper", exc.vertex)


def test_path_end_merge_matches_the_union_find_validator():
    """On seeded random colorings, partial and total, proper and improper,
    cyclic and acyclic, has_bichromatic_cycle answers as the union-find
    validator it replaced: the same BichromaticTrace, the same None, or an
    ImproperColoringError naming the same vertex."""
    rng = random.Random(47)
    kinds = Counter()
    for i in range(600):
        n = rng.randint(2, 24)
        g = random_graph(rng, n, rng.randint(1, min(3 * n, n * (n - 1) // 2)))
        k = max(g.max_degree(), 2) + rng.randint(0, 3)
        mode = i % 4
        if mode == 0:
            colors = snapshot(random_acyclic_state(rng, g, k)).colors
        elif mode == 3:
            # any colors at all: usually improper
            colors = [rng.randint(0, k) for _ in range(g.m)]
        else:
            colors = _random_colors(rng, g, k, uncolored=0.3 if mode == 1 else 0.0)
        c = EdgeColoring(k, tuple(colors))
        want = _verdict(union_find_bichromatic_cycle, g, c)
        assert _verdict(has_bichromatic_cycle, g, c) == want, (i, g.edges, colors)
        kinds["total" if c.is_total() else "partial"] += 1
        kinds["acyclic" if want is None else
              "cyclic" if isinstance(want, BichromaticTrace) else "improper"] += 1
    assert min(kinds[x] for x in ("total", "partial", "acyclic", "cyclic", "improper")) >= 50


def test_path_end_merge_matches_the_union_find_validator_on_many_colors():
    """A sparse graph with at least 200 colors, plus a 6-cycle left
    uncolored or colored alternately with two of them: the validators agree
    on it acyclic, cyclic, partial and improper."""
    rng = random.Random(53)
    sparse = generate_sparse(1000, 1500, 5)
    hexagon = [(1000 + i, 1000 + (i + 1) % 6) for i in range(6)]
    g = build_graph(1006, list(sparse.edges) + hexagon)
    k = 300
    colors = _random_colors(rng, sparse, k) + [0] * 6
    assert len(set(colors) - {0}) >= 200
    cases = {"acyclic": colors[:]}
    colors[-6:] = [150, 151] * 3
    cases["cyclic"] = colors[:]
    cases["partial"] = [0 if rng.random() < 0.2 else col for col in colors]
    u, v = sparse.edges[0]
    clash = next(f for f, (x, y) in enumerate(sparse.edges) if f and u in (x, y))
    improper = colors[:]
    improper[clash] = improper[0]
    cases["improper"] = improper
    verdicts = {}
    for name, cols in cases.items():
        c = EdgeColoring(k, tuple(cols))
        want = _verdict(union_find_bichromatic_cycle, g, c)
        assert _verdict(has_bichromatic_cycle, g, c) == want, name
        verdicts[name] = want
    assert verdicts["acyclic"] is None
    assert verdicts["cyclic"] == BichromaticTrace(
        (150, 151), (1000, 1001, 1002, 1003, 1004, 1005, 1000), True)
    assert verdicts["improper"] == ("improper", u)


def test_validator_finds_a_4_cycle_of_two_edge_classes_among_one_edge_classes():
    # C4 0-1-2-3 colored 2, 4, 2, 4, each of its colors on two edges, and
    # one-edge colors 1, 3, 5, 6, 7 on the pendant edges and 4-5: every pair
    # but (2, 4) has a class of one edge and is not merged
    g = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                        (0, 4), (1, 5), (2, 6), (3, 7), (4, 5)])
    c = EdgeColoring(7, (2, 4, 2, 4, 1, 3, 5, 6, 7))
    want = BichromaticTrace((2, 4), (0, 1, 2, 3, 0), True)
    assert union_find_bichromatic_cycle(g, c) == want
    assert has_bichromatic_cycle(g, c) == want
    # edge 4-5 in color 2 instead: color 2 on three edges, the same cycle
    c = EdgeColoring(7, (2, 4, 2, 4, 1, 3, 5, 6, 2))
    assert has_bichromatic_cycle(g, c) == union_find_bichromatic_cycle(g, c) == want


def _small_class_colors(rng, g, k):
    """A random proper coloring of g whose classes mostly hold one or two
    edges: each edge, in random order, takes the first free one of three
    colors drawn from 1..k, or else a color of its own above k."""
    used = [set() for _ in range(g.n)]
    colors = [0] * g.m
    fresh = k
    for e in rng.sample(range(g.m), g.m):
        u, v = g.edges[e]
        free = [x for x in rng.sample(range(1, k + 1), min(3, k))
                if x not in used[u] and x not in used[v]]
        if free:
            col = free[0]
        else:
            fresh += 1
            col = fresh
        colors[e] = col
        used[u].add(col)
        used[v].add(col)
    return colors


def test_path_end_merge_matches_the_union_find_validator_on_small_classes():
    """Colorings whose classes mostly hold one or two edges, the sizes
    around the merge's skip: a random graph colored from a palette of as
    many colors as it has edges, and a 4-cycle on four more vertices
    colored alternately with two colors drawn from twice that palette (a
    cycle), with a third color on one edge (no cycle there), or with one
    graph edge recolored to clash with a neighbor.  has_bichromatic_cycle
    answers as the union-find validator."""
    rng = random.Random(61)
    kinds = Counter()
    sizes = Counter()
    for i in range(600):
        n = rng.randint(3, 12)
        sparse = random_graph(rng, n, rng.randint(2, min(2 * n, n * (n - 1) // 2)))
        g = build_graph(n + 4, list(sparse.edges) + [(n + j, n + (j + 1) % 4) for j in range(4)])
        k = sparse.m
        colors = _small_class_colors(rng, sparse, k)
        a, b, other = rng.sample(range(1, 2 * k + 3), 3)
        mode = i % 3
        colors += [a, b, a, other if mode == 1 else b]
        adjacent = [(e, f) for e, f in combinations(range(sparse.m), 2)
                    if set(sparse.edges[e]) & set(sparse.edges[f])]
        if mode == 2 and adjacent:
            e, f = rng.choice(adjacent)
            colors[e] = colors[f]
        c = EdgeColoring(max(colors), tuple(colors))
        want = _verdict(union_find_bichromatic_cycle, g, c)
        assert _verdict(has_bichromatic_cycle, g, c) == want, (i, g.edges, colors)
        kinds["acyclic" if want is None else
              "cyclic" if isinstance(want, BichromaticTrace) else "improper"] += 1
        if isinstance(want, BichromaticTrace):
            sizes[max(colors.count(x) for x in want.colors)] += 1
    assert min(kinds.values()) >= 100 and len(kinds) == 3
    assert sizes[2] >= 50  # cycles both of whose classes hold two edges


def test_validator_reports_the_cycle_the_union_find_closes():
    # two disjoint (1,2)-cycles, 0-1-2-3 and 4-5-6-7, with the second's
    # edges listed first, so the union-find closes 4-5-6-7 first; the
    # scan would have reported 0-1-2-3, the cycle with the lowest vertex
    g = build_graph(8, [(4, 5), (5, 6), (6, 7), (7, 4),
                        (0, 1), (1, 2), (2, 3), (3, 0)])
    c = EdgeColoring(2, (1, 2) * 4)
    cycles = _check_against_scan(g, c)
    assert [t.vertices for t in cycles] == [(0, 1, 2, 3, 0), (4, 5, 6, 7, 4)]
    assert has_bichromatic_cycle(g, c).vertices == (4, 5, 6, 7, 4)


# Each color pair merges into a fresh copy of color a's slot partners, and
# the slots of a's ends are cleared before the next a; the next three tests
# fail if the paths of one pair leak into a later one.

def test_validator_finds_a_cycle_in_the_last_pair_only():
    # C4 0-1-2-3 colored 2,3,2,3 plus the chord 0-2 colored 1: pairs (1,2)
    # and (1,3) each join all four vertices into a path, and only the last
    # pair, (2,3), closes a cycle
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    c = EdgeColoring(3, (2, 3, 2, 3, 1))
    assert [_scan_cycles(g, c, a, b) for a, b in [(1, 2), (1, 3)]] == [[], []]
    assert has_bichromatic_cycle(g, c) == BichromaticTrace((2, 3), (0, 1, 2, 3, 0), True)


def test_validator_keeps_no_roots_from_an_earlier_pair():
    # a rainbow triangle is acyclic, but the path 0-1-2 of pair (1,2) left
    # joined would make the (1,3) edge 0-2 close a cycle
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert has_bichromatic_cycle(g, EdgeColoring(3, (1, 2, 3))) is None
    # a rainbow 5-cycle: every pair joins a path, and leftover paths from
    # earlier pairs would close the cycle
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert has_bichromatic_cycle(g, EdgeColoring(5, (1, 2, 3, 4, 5))) is None


def test_validator_calls_in_a_row_answer_as_alone():
    cases = [
        (build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
         EdgeColoring(3, (2, 3, 2, 3, 1))),
        (build_graph(3, [(0, 1), (1, 2), (0, 2)]), EdgeColoring(3, (1, 2, 3))),
        colored_cycle(6, [1, 2, 1, 2, 1, 2]),
        colored_cycle(6, [1, 2, 1, 2, 1, 3]),
        (complete(4), EdgeColoring(3, (1, 2, 3, 3, 2, 1))),
        # as the 6-cycle, with two 3-edges, so that pair (1, 3) is merged
        colored_cycle(8, [1, 2, 1, 2, 1, 3, 1, 3]),
    ]
    alone = [has_bichromatic_cycle(g, c) for g, c in cases]
    assert [t is None for t in alone] == [False, True, False, True, False, True]
    for order in (cases, cases[::-1], cases[1::2] + cases[::2]):
        for g, c in order:
            assert has_bichromatic_cycle(g, c) == alone[cases.index((g, c))]


def test_validator_does_not_use_the_kernel(monkeypatch):
    """has_bichromatic_cycle stays an independent oracle: it answers
    correctly even when every method of the kernel, _Search, raises."""
    def broken(*args, **kwargs):
        raise AssertionError("validator reached the kernel")

    for name, attr in list(vars(_Search).items()):
        if callable(attr):
            monkeypatch.setattr(_Search, name, broken)
    assert not hasattr(aecolor.coloring, "_Search")
    g, c = colored_cycle(6, [1, 2, 1, 2, 1, 2])
    assert has_bichromatic_cycle(g, c) is not None
    g, c = colored_cycle(6, [1, 2, 1, 2, 1, 3])
    assert has_bichromatic_cycle(g, c) is None
    assert trace_bichromatic(g, c, 1, 2, 0) is not None
    with pytest.raises(ColoringError, match="not proper"):
        has_bichromatic_cycle(path(3), EdgeColoring(2, (1, 1)))


def test_coloring_file_roundtrip():
    g = complete(4)
    c = EdgeColoring(5, (1, 0, 4, 0, 0, 0))
    text = format_coloring(g, c)
    assert parse_coloring(text, g) == c


def test_coloring_file_rejects_bad_color():
    g = path(2)
    with pytest.raises(ColoringError):
        parse_coloring("k 2\n0 1 3\n", g)


def test_coloring_file_rejects_a_second_header():
    # a second header must not replace the palette the lines before it used
    with pytest.raises(ColoringError, match="line 3: duplicate 'k' header"):
        parse_coloring("k 3\n0 1 1\nk 5\n1 2 5\n", path(3))


def test_coloring_file_rejects_unknown_edge():
    g = path(3)
    with pytest.raises(ColoringError):
        parse_coloring("k 2\n0 2 1\n", g)


@pytest.mark.parametrize("u, v", [(0, 2), (1, 1), (0, 3), (-1, 0), (3, 1)])
def test_coloring_file_rejects_missing_loop_and_out_of_range(u, v):
    # path 0-1-2: 0-2 is missing, 1-1 a loop, 3 and -1 are no vertices;
    # parse_coloring's lookup is the package's one edge lookup by its ends
    with pytest.raises(ColoringError, match=f"edge {u}-{v} not in graph"):
        parse_coloring(f"k 2\n{u} {v} 1\n", path(3))


def test_coloring_rejects_out_of_palette():
    with pytest.raises(ColoringError):
        EdgeColoring(2, (3,))
