import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aecolor.cli import generate_sparse
from aecolor.colorer import (
    _Colorer,
    choose_palette,
    color_graph,
    peel_palette,
)
from aecolor.coloring import (
    ColoringError,
    EdgeColoring,
    has_bichromatic_cycle,
    is_proper,
    properness_violation,
    trace_bichromatic,
)
from aecolor.density import mad_exact
from aecolor.graph import build_graph, delete_edge
from aecolor.solver import (
    SolveBudget,
    _Search,
    chi_a_exact,
    deletion_edge_order,
    is_acyclically_k_colorable,
)
from conftest import (complete, complete_bipartite, cube, cycle, from_networkx, load,
                      petersen, random_graph, snapshot, star)
from oracles import replay_trace


def sparse_random_graph(rng, n):
    """Connected-ish random graph with m < 2n so that mad < 4."""
    m = rng.randint(n - 1, 2 * n - 1)
    while True:
        g = random_graph(rng, n, m)
        if mad_exact(g) < 4:
            return g


def test_choose_palette_cycle():
    g = cycle(8)
    assert choose_palette(g, mad_exact(g)) == (3, "mad<3")


def test_choose_palette_cube():
    # Q3 has mad exactly 3, so the weaker bound applies
    g = cube()
    assert mad_exact(g) == 3
    assert choose_palette(g, mad_exact(g)) == (5, "mad<4")


def test_choose_palette_dense():
    g = complete(5)
    assert choose_palette(g, mad_exact(g)) == (6, "no-guarantee")


def test_color_cycle_with_three():
    report = color_graph(cycle(7), 3)
    assert report.outcome == "success"
    assert report.colors_used <= 3


def test_color_rejects_small_palette():
    with pytest.raises(ValueError):
        color_graph(complete(4), 2)


def test_k4_fails_at_four_without_fallback():
    report = color_graph(complete(4), 4, fallback=False)
    assert report.outcome == "failure"


def test_k4_fallback_at_four_also_fails():
    # chi'_a(K4) = 5, so even the exact fallback cannot help at k = 4
    report = color_graph(complete(4), 4)
    assert report.outcome == "failure"


def test_k4_succeeds_at_five():
    report = color_graph(complete(4), 5)
    assert report.outcome in ("success", "fallback-success")
    assert has_bichromatic_cycle(complete(4), report.coloring) is None


def test_petersen_at_four():
    g = petersen()
    report = color_graph(g, 4)
    assert report.outcome in ("success", "fallback-success")
    assert report.coloring.is_total()


def loaded_engine(g, c):
    return load(_Colorer(g, c.k, move_budget=1000), c)


def test_engine_places_the_last_cycle_edge():
    # C4 with three edges colored 1,2,1: edge 3 needs a third color
    g = cycle(4)
    engine = loaded_engine(g, EdgeColoring(3, (1, 2, 1, 0)))
    assert engine.place(3)
    assert engine.trace == [("assign", 3, 3)]
    extended = snapshot(engine)
    assert extended.is_total()
    assert has_bichromatic_cycle(g, extended) is None


def test_engine_stuck_with_two_colors():
    # with only two colors the last C4 edge cannot be placed, and the
    # failed repairs leave the loaded colors as they were
    g = cycle(4)
    c = EdgeColoring(2, (1, 2, 1, 0))
    engine = loaded_engine(g, c)
    assert not engine.place(3)
    assert snapshot(engine) == c
    assert engine.trace == []


def test_engine_repairs_with_every_color():
    # k = 3.  Edge 0-1 is blocked: 0-2 has 3, and 1-5, 1-6 have 1, 2.  The
    # radius-1 ball {0-1, 0-2, 1-5, 1-6} has an extension only if 0-2 keeps
    # 3, the one color free at 2, so a search that offered a ball edge only
    # the colors a renaming reduction admits (1 first) would find none.
    g = build_graph(7, [(0, 1), (0, 2), (2, 3), (2, 4), (1, 5), (1, 6)])
    engine = loaded_engine(g, EdgeColoring(3, (0, 3, 1, 2, 1, 2)))
    assert engine.place(0)
    assert [m[0] for m in engine.trace] == ["repair"]
    extended = snapshot(engine)
    assert extended.colors[1:4] == (3, 1, 2)
    assert extended.is_total()
    assert has_bichromatic_cycle(g, extended) is None


@pytest.mark.parametrize("g, k, walks, coloring, spent", [
    # M1 walks only when the ends share a color; values pinned before the
    # short cut, which changes neither the colors nor the node count
    (star(5), 6, 0, (5, 4, 3, 2, 1), 5),
    (build_graph(8, [(0, 1), (2, 3), (4, 5), (6, 7)]), 1, 0, (1, 1, 1, 1), 4),
    (cycle(4), 3, 2, (3, 2, 1, 2), 5),
    # the last edge of an odd cycle joins the two ends of a path colored
    # 1,2,1,2, which share no color: no walk under any labelling of C5
    (cycle(5), 3, 0, (3, 1, 2, 1, 2), 5),
    (cycle(6), 3, 2, (3, 2, 1, 2, 1, 2), 7),
], ids=["star", "matching", "C4", "C5", "C6"])
def test_direct_walks_only_when_the_ends_share_a_color(monkeypatch, g, k, walks,
                                                        coloring, spent):
    calls = []
    walk = _Search.walk_ends_at

    def counted(self, *args):
        calls.append(args)
        return walk(self, *args)

    monkeypatch.setattr(_Search, "walk_ends_at", counted)
    report = color_graph(g, k)
    assert report.coloring.colors == coloring
    assert report.moves_spent == spent
    assert report.move_counts == {"assign": g.m, "repair": 0}
    assert len(calls) == walks


def test_color_graph_validates_its_result(monkeypatch):
    # a place that colors C4 1,2,1,2, a bichromatic cycle, and reports success
    def bad_place(self, e):
        self.set(e, 1 + e % 2)
        return True

    monkeypatch.setattr(_Colorer, "place", bad_place)
    with pytest.raises(ColoringError, match="invalid coloring"):
        color_graph(cycle(4), 3)


@pytest.mark.parametrize("budget", [0, -3])
def test_move_budget_below_1_rejected(budget):
    with pytest.raises(ValueError, match="move budget must be positive"):
        color_graph(complete(2), 1, move_budget=budget)


@pytest.mark.parametrize("g", [cycle(5), complete(4), star(5), complete_bipartite(3, 3),
                               cube()], ids=["C5", "K4", "star", "K33", "Q3"])
def test_palette_above_m_colors_as_at_m(g):
    """color_graph at k = 10**6 gives the colors, trace and moves of k = m,
    reported at k, and allocates for m colors: a kernel of n(k + 1) slots
    would peak at n * 8 MB here.  Two moves run out mid-graph, so the
    fallback and the failure are compared too."""
    k = 10**6
    for move_budget, fallback in [(None, True), (2, True), (2, False)]:
        want = color_graph(g, g.m, move_budget, fallback)
        tracemalloc.start()
        try:
            got = color_graph(g, k, move_budget, fallback)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6
        assert got.k == got.coloring.k == k
        assert (got.outcome, got.coloring.colors, got.trace, got.moves_spent,
                got.move_counts, got.colors_used) == (
            want.outcome, want.coloring.colors, want.trace, want.moves_spent,
            want.move_counts, want.colors_used)


def _blocked_brute(g, c, e, color):
    """Full-scan oracle for the incremental cycle filter: color the edge,
    then run the from-scratch bichromatic cycle detector."""
    trial = EdgeColoring(c.k, c.colors[:e] + (color,) + c.colors[e + 1:])
    return has_bichromatic_cycle(g, trial) is not None


def test_direct_filter_matches_full_scan():
    """The kernel's Fact-1 walk must agree with the exhaustive cycle
    detector on every candidate color of every next edge."""
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(4, 12)
        m = rng.randint(3, min(2 * n, n * (n - 1) // 2))
        g = random_graph(rng, n, m)
        k = g.max_degree() + 2
        state = _Search(g, k, 1)  # the kernel alone: nothing searches
        for e in reversed(deletion_edge_order(g)):
            u, v = g.edges[e]
            held = snapshot(state)
            common = state.used_mask[u] & state.used_mask[v]
            open_colors = []
            for c in range(1, k + 1):
                if (state.used_mask[u] | state.used_mask[v]) >> c & 1:
                    continue
                closes = state.walk_ends_at(u, v, common, c)
                assert closes == _blocked_brute(g, held, e, c)
                # one walk per common color decides the same as the mask
                assert closes == any(
                    state.walk_ends_at(u, v, 1 << mu, c)
                    for mu in range(1, k + 1) if common >> mu & 1
                )
                if not closes:
                    open_colors.append(c)
            if not open_colors:
                break
            state.set(e, rng.choice(open_colors))


def test_replay_assign_only_trace():
    g = cycle(6)
    report = color_graph(g, 3, fallback=False)
    assert report.outcome == "success"
    replayed = replay_trace(g, 3, report.trace)
    assert replayed == report.coloring


def random_regular_graph(rng, d, n):
    g = nx.random_regular_graph(d, n, seed=rng.randrange(2**31))
    return build_graph(n, sorted(g.edges()))


def seeded_regular_graph(d, n, seed):
    g = nx.random_regular_graph(d, n, seed=seed)
    return build_graph(n, sorted(tuple(sorted(e)) for e in g.edges()))


def test_replay_random_traces():
    rng = random.Random(33)
    corpus = [
        (g, g.max_degree() + 2)
        for g in (sparse_random_graph(rng, rng.randint(6, 20)) for _ in range(60))
    ]
    # at Delta+1, random 4- and 5-regular graphs need repairs
    corpus += [
        (random_regular_graph(rng, d, n), d + 1)
        for d in (4, 5) for n in (12, 16, 20) for _ in range(4)
    ]
    replayed = Counter()
    for g, k in corpus:
        report = color_graph(g, k, fallback=False)
        if report.outcome != "success":
            continue
        assert replay_trace(g, k, report.trace) == report.coloring
        replayed.update({move[0] for move in report.trace})
    # the corpus must exercise repairs, not only assignments
    assert replayed["repair"] >= 1


def test_success_colorings_always_validate():
    rng = random.Random(34)
    for _ in range(40):
        g = sparse_random_graph(rng, rng.randint(5, 25))
        k = g.max_degree() + 2
        report = color_graph(g, k)
        assert report.outcome in ("success", "fallback-success")
        c = report.coloring
        assert c.is_total()
        assert is_proper(g, c)
        assert has_bichromatic_cycle(g, c) is None
        assert report.colors_used <= k


def test_palette_guarantee_sound_small():
    """On every graph where choose_palette states a guarantee, the exact
    chromatic index respects it."""
    rng = random.Random(35)
    for _ in range(30):
        n = rng.randint(3, 7)
        m = rng.randint(2, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        k, guarantee = choose_palette(g, mad_exact(g))
        if guarantee == "no-guarantee":
            continue
        assert chi_a_exact(g).chi_a <= k


def _palette_corpus():
    """Seeded sparse graphs on both sides of mad 3: uniform with m = 1.5n,
    grids, hexagonal lattices, and 3- and 4-regular graphs minus an edge."""
    for seed in range(12):
        n = 20 + 40 * seed
        yield generate_sparse(n, 3 * n // 2, seed)
    for rows in range(2, 11, 2):
        for cols in range(2, 11, 3):
            yield from_networkx(nx.grid_2d_graph(rows, cols))
    for rows in range(1, 9, 2):
        for cols in range(1, 9, 3):
            yield from_networkx(nx.hexagonal_lattice_graph(rows, cols))
    for d in (3, 4):
        for n in (10, 30, 60):
            for seed in range(3):
                g = from_networkx(nx.random_regular_graph(d, n, seed=seed))
                yield delete_edge(g, seed)


def test_peel_palette_is_the_mad_palette():
    """Wherever the peel settles the palette, it is the one exact mad picks:
    on every atlas graph with n <= 7 and on the seeded sparse corpus."""
    atlas = [build_graph(a.number_of_nodes(), sorted(a.edges()))
             for a in nx.graph_atlas_g()[1:]]
    assert len(atlas) == 1252
    settled = Counter()
    for name, graphs in (("atlas", atlas), ("seeded", _palette_corpus())):
        for g in graphs:
            palette = peel_palette(g, deletion_edge_order(g))
            if palette is not None:
                assert palette == choose_palette(g, mad_exact(g))
                settled[name, palette[1]] += 1
    assert settled == {
        ("atlas", "mad<3"): 108, ("atlas", "mad<4"): 138,
        ("atlas", "no-guarantee"): 186,
        ("seeded", "mad<3"): 2, ("seeded", "mad<4"): 19,
    }


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_peel_palette_is_sound_on_any_order(data):
    """The rules hold for any deletion order, not only the smallest-last
    one: each answer equals the palette exact mad picks."""
    n = data.draw(st.integers(min_value=1, max_value=10))
    all_pairs = list(combinations(range(n), 2))
    pairs = data.draw(
        st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))
        if all_pairs else st.just([])
    )
    g = build_graph(n, pairs)
    want = choose_palette(g, mad_exact(g))
    for order in (deletion_edge_order(g), data.draw(st.permutations(range(g.m)))):
        assert peel_palette(g, order) in (None, want)


def test_tiny_move_budget_reports_failure_or_falls_back():
    rng = random.Random(36)
    g = sparse_random_graph(rng, 20)
    k = g.max_degree() + 2
    report = color_graph(g, k, move_budget=1, fallback=False)
    assert report.outcome == "failure"
    report2 = color_graph(g, k, move_budget=1, fallback=True)
    assert report2.outcome == "fallback-success"


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_spent_move_budget_is_overrun_by_one_node(budget):
    # C4 has no acyclic 2-coloring, so the run spends its whole budget
    report = color_graph(cycle(4), 2, move_budget=budget, fallback=False)
    assert report.outcome == "failure"
    assert report.moves_spent == budget + 1


def test_spent_move_budget_on_regular_graphs():
    outcomes = Counter()
    for seed in range(4):
        g = seeded_regular_graph(5, 30, seed)
        for budget in (g.m, g.m + 20, 5 * g.m):
            report = color_graph(g, 6, move_budget=budget, fallback=False)
            if report.outcome == "failure":
                assert report.moves_spent == budget + 1, (seed, budget)
            else:
                assert report.moves_spent <= budget, (seed, budget)
            outcomes[report.outcome] += 1
    assert outcomes["failure"] >= 4 and outcomes["success"] >= 1


def test_spent_move_budget_stops_m1_before_each_fallback():
    # two disjoint C4s at k = 3: the budget runs out in the first, and the
    # second goes to the fallback without another M1 node
    two_c4 = build_graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                             (4, 5), (5, 6), (6, 7), (7, 4)])
    report = color_graph(two_c4, 3, move_budget=1)
    assert report.outcome == "fallback-success"
    assert report.moves_spent == 2


def test_move_counts_match_trace():
    rng = random.Random(37)
    for _ in range(20):
        g = sparse_random_graph(rng, rng.randint(5, 15))
        report = color_graph(g, g.max_degree() + 2, fallback=False)
        if report.outcome != "success":
            continue
        counted = Counter(move[0] for move in report.trace)
        for kind, cnt in report.move_counts.items():
            assert counted.get(kind, 0) == cnt


def test_repairs_color_a_tight_7_regular_graph():
    # the swap/reassign/backtrack cascade ran out of its budget here
    g = seeded_regular_graph(7, 100, 201)
    report = color_graph(g, 9, move_budget=5 * g.m, fallback=False)
    assert report.outcome == "success"
    assert report.move_counts["repair"] >= 1
    assert has_bichromatic_cycle(g, report.coloring) is None


def test_repairs_color_5_regular_graphs_at_delta_plus_1():
    # outside the paper's regime (mad = 5); the cascade colored about 88%
    for seed in range(40):
        g = seeded_regular_graph(5, 100, seed)
        report = color_graph(g, 6, fallback=False)
        assert report.outcome == "success", seed
        assert has_bichromatic_cycle(g, report.coloring) is None


def _component_graph(g, e):
    """The connected component of g holding edge e, as (graph, edge ids)."""
    seen, stack = set(g.edges[e]), list(g.edges[e])
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    ids = sorted(f for f, (u, v) in enumerate(g.edges) if u in seen)
    label = {v: i for i, v in enumerate(sorted(seen))}
    return build_graph(len(seen), [(label[g.edges[f][0]], label[g.edges[f][1]]) for f in ids]), ids


def _extends(g, c, edges, colors):
    """Brute-force oracle: is c with ``edges`` recolored proper and acyclic?"""
    recolored = list(c.colors)
    for f, col in zip(edges, colors):
        recolored[f] = col
    trial = EdgeColoring(c.k, tuple(recolored))
    return properness_violation(g, trial) is None and has_bichromatic_cycle(g, trial) is None


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_repair_is_exact_on_components_and_local_on_balls(data):
    """On a random acyclic partial coloring with edge e uncolored, the
    unbounded repair succeeds iff the exact solver colors e's component,
    and a successful bounded repair changes nothing outside its ball and
    leaves the coloring acyclic; a failed one changes nothing, and on small
    balls no recoloring of the ball extends the rest (so turning the
    color-renaming reduction off keeps the search complete)."""
    n = data.draw(st.integers(min_value=2, max_value=8))
    all_pairs = list(combinations(range(n), 2))
    pairs = data.draw(st.lists(st.sampled_from(all_pairs), unique=True, min_size=1,
                               max_size=min(len(all_pairs), 2 * n)))
    g = build_graph(n, pairs)
    k = g.max_degree() + data.draw(st.integers(min_value=0, max_value=1))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32)))
    e = rng.randrange(g.m)
    start = _Colorer(g, k, move_budget=10**6)
    for f in rng.sample(range(g.m), g.m):
        u, v = g.edges[f]
        taken = start.used_mask[u] | start.used_mask[v]
        common = start.used_mask[u] & start.used_mask[v]
        ok = [c for c in range(1, k + 1)
              if not taken >> c & 1 and not start.walk_ends_at(u, v, common, c)]
        if f != e and ok and rng.random() < 0.8:
            start.set(f, rng.choice(ok))
    before = snapshot(start)

    def outside(c, edges):
        return [col for f, col in enumerate(c.colors) if f not in edges]

    bounded = []
    for r in (1, 2):
        engine = load(_Colorer(g, k, move_budget=10**6), before)
        ball = engine.ball(e, r)
        assert e in ball
        bounded.append(engine._recolor(ball, k))
        if bounded[-1]:
            after = snapshot(engine)
            assert after.colors[e]
            assert outside(after, set(ball)) == outside(before, set(ball))
            assert has_bichromatic_cycle(g, after) is None
        else:
            assert snapshot(engine) == before
            if k ** len(ball) <= 1500:
                assert not any(_extends(g, before, ball, cols)
                               for cols in product(range(1, k + 1), repeat=len(ball)))

    # M1 then radii 1 and 2 succeed iff some radius does: M1's color also
    # extends the radius-1 ball
    engine = load(_Colorer(g, k, move_budget=10**6), before)
    assert engine.place(e) == any(bounded)

    engine = load(_Colorer(g, k, move_budget=10**6), before)
    sub, ids = _component_graph(g, e)
    exact = is_acyclically_k_colorable(sub, k)
    assert exact.status != "unknown"
    assert engine.place_component(e, SolveBudget()) == (exact.status == "yes")
    after = snapshot(engine)
    if exact.status == "yes":
        assert all(after.colors[f] for f in ids)
        assert outside(after, set(ids)) == outside(before, set(ids))
        assert has_bichromatic_cycle(g, after) is None
    else:
        assert after == before
