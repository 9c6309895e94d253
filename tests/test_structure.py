import functools
import hashlib
import json
import random
from fractions import Fraction

import networkx as nx
import pytest

import aecolor
from aecolor import coloring, structure
from aecolor.cli import generate_sparse
from aecolor.coloring import EdgeColoring
from aecolor.density import mad_exact
from aecolor.graph import build_graph, delete_edge
from aecolor.solver import SolveBudget, enumerate_acyclic_colorings
from aecolor.structure import (
    check_2and3_count,
    check_2connected,
    check_2vertex_count,
    check_3adj4,
    check_3vertex_neighbors,
    check_5vertex,
    check_2vertex_neighborhood,
    check_neighbor_of_2vertex,
    check_tvertex_2s,
    connected_graphs_upto,
    critical_sweep,
    discharge,
    discharging_contradiction_report,
    fact2_sweep,
    fact2_verify,
    lemma_suite,
)
from conftest import complete, complete_bipartite, cycle, path, random_graph, star
from oracles import connected_classes


def subdivided_star():
    """Center of degree 3 whose neighbors are all 2-vertices."""
    return build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def test_2connected_k4():
    assert check_2connected(complete(4)).holds


def test_2connected_path_fails():
    r = check_2connected(path(4))
    assert not r.holds and r.witness is not None


def test_2vertex_neighborhood_not_applicable_for_cycles():
    # k = 3 > 2*Delta - 2 = 2
    r = check_2vertex_neighborhood(cycle(5), 3)
    assert r.holds and not r.applicable


def test_2vertex_neighborhood_holds_k33():
    assert check_2vertex_neighborhood(complete_bipartite(3, 3), 4).holds


def test_2vertex_count_fails_on_subdivided_star():
    r = check_2vertex_count(subdivided_star())
    assert not r.holds
    assert r.witness["vertex"] == 0
    assert r.witness["n2"] == 3


def test_2vertex_count_fails_on_c6():
    # every vertex of C6 has two 2-neighbors, but Delta - 2 = 0
    assert not check_2vertex_count(cycle(6)).holds


def test_2vertex_count_holds_k4():
    assert check_2vertex_count(complete(4)).holds


def test_2and3_count_vacuous_without_2vertices():
    assert check_2and3_count(complete(4)).holds


def test_2and3_count_fails():
    assert not check_2and3_count(subdivided_star()).holds


def test_neighbor_of_2vertex_fails_on_path():
    # middle 2-vertex of P3 has degree-1 neighbors, threshold is 4 at k=3
    r = check_neighbor_of_2vertex(path(3), 3)
    assert not r.holds
    assert r.witness["threshold"] == 4


def test_3vertex_neighbors_not_applicable_below_delta_plus_2():
    r = check_3vertex_neighbors(complete(4), 4)
    assert r.holds and not r.applicable


def test_3vertex_neighbors_fails():
    # K_{1,3} at k = Delta + 2 = 5: the 3-center has degree-1 neighbors
    r = check_3vertex_neighbors(star(3), 5)
    assert not r.holds


def test_witness_names_the_lowest_failing_neighbor():
    # every neighbor of vertex 0 fails; the witness names the lowest
    r = check_neighbor_of_2vertex(build_graph(19, [(0, 18), (0, 5)]), 3)
    assert r.witness == {"vertex": 0, "neighbor": 5, "degree": 1, "threshold": 4}
    r = check_3vertex_neighbors(build_graph(19, [(0, 18), (0, 9), (0, 5)]), 5)
    assert r.witness == {"vertex": 0, "neighbor": 5, "degree": 1, "threshold": 4}


def test_3adj4_vacuous_without_pattern():
    assert check_3adj4(cycle(5)).holds
    assert check_3adj4(complete(4)).holds  # 3-vertices but no 4-neighbor


def test_3adj4_fails_when_other_neighbors_small():
    # 3-vertex 0 adjacent to a 4-vertex 1 and two leaves
    g = build_graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 6)])
    r = check_3adj4(g)
    assert not r.holds
    assert r.witness["vertex"] == 0
    assert r.witness["four_neighbor"] == 1


def _three_adj_four(dy: int, sy: int, dz: int, sz: int):
    """3-vertex 0 with the 4-neighbor 1 and other neighbors y = 2 and z = 3
    of degrees dy and dz, adjacent to sy and sz vertices of degree 4; every
    other vertex is a leaf."""
    pairs = [(0, 1), (0, 2), (0, 3)]

    def grow(u: int) -> int:
        # each pair after the first three brings one new vertex
        w = len(pairs) + 1
        pairs.append((u, w))
        return w

    for _ in range(3):
        grow(1)
    for w, d, s in ((2, dy, sy), (3, dz, sz)):
        for i in range(d - 1):
            hub = grow(w)
            if i < s:
                for _ in range(3):
                    grow(hub)
    g = build_graph(len(pairs) + 1, pairs)
    assert [g.degree(v) for v in range(4)] == [3, 4, dy, dz]
    return g


@pytest.mark.parametrize("dy, sy, dz, sz, holds", [
    (6, 3, 6, 2, True),   # y takes the three, z the two
    (6, 2, 6, 3, True),   # only the swapped assignment works
    (6, 2, 6, 2, False),  # neither has three
    (6, 3, 5, 2, False),  # z has degree exactly 5, so it needs three
    (6, 3, 5, 3, True),
    (5, 2, 6, 3, False),  # y has degree exactly 5 and two
])
def test_3adj4_role_clause(dy, sy, dz, sz, holds):
    r = check_3adj4(_three_adj_four(dy, sy, dz, sz))
    assert r.holds == holds
    if not holds:
        assert r.witness == {"vertex": 0, "four_neighbor": 1, "others": [2, 3],
                             "strong_counts": [sy, sz]}


def test_tvertex_2s_fails():
    # 5-vertex with two 2-neighbors exceeds the t - 4 = 1 cap
    g = build_graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (2, 7)])
    r = check_tvertex_2s(g)
    assert not r.holds
    assert r.witness["vertex"] == 0


def test_5vertex_fails():
    g = build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (3, 4)])
    assert not check_5vertex(g).holds


def test_5vertex_vacuous():
    assert check_5vertex(complete(4)).holds


def test_lemma_suite_k4_all_hold():
    results = lemma_suite(complete(4), 4)
    assert all(r.holds for r in results)
    assert any(r.lemma_id == "2-vertex-count" for r in results)


def test_lemma_suite_gates_by_k():
    ids_low = {r.lemma_id for r in lemma_suite(complete(4), 4)}
    ids_high = {r.lemma_id for r in lemma_suite(complete(4), 5)}
    assert "2-vertex-count" in ids_low and "2-vertex-count" not in ids_high
    assert "3-adjacent-4" in ids_high and "3-adjacent-4" not in ids_low


@functools.cache
def _lemma_corpus() -> tuple:
    """The connected atlas graphs on at most 7 vertices, then 3,000 seeded
    ``generate_sparse`` graphs on 2 to 40 vertices with n - 1 to 3n edges."""
    sparse = []
    for seed in range(3000):
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, 3 * n))
        sparse.append(generate_sparse(n, m, seed))
    return (*connected_graphs_upto(7), *sparse)


@functools.cache
def _lemma_suites() -> tuple:
    """Each corpus graph with its lemma suites at the levels k = Delta .. Delta+3."""
    return tuple((g, [(k, lemma_suite(g, k))
                      for k in range(g.max_degree(), g.max_degree() + 4)])
                 for g in _lemma_corpus())


def test_lemma_and_discharge_outputs_are_pinned():
    # a digest of every result's fields, witness key order and transfer
    # order included: a change to a witness, a level gate or a transfer
    # changes it
    digest = hashlib.sha256()
    failing = 0
    for _, suites in _lemma_suites():
        for _, results in suites:
            for r in results:
                failing += r.applicable and not r.holds
                line = (r.lemma_id, r.holds, r.applicable, json.dumps(r.witness), r.note)
                digest.update(repr(line).encode())
    for g in _lemma_corpus():
        for rules in ("mad3", "mad4"):
            state = discharge(g, rules)
            line = (rules, sorted(state.initial.items()), sorted(state.final.items()),
                    state.transfers)
            digest.update(repr(line).encode())
    assert failing == 34461
    assert digest.hexdigest() == (
        "516efbc3cc68956d23fdf2c71dbd55eb9694d38f684953c1fa638644c12a1498")


def _recount(g):
    """Neighbor lists, degrees and counts of 2- and 3-neighbors, read off
    ``g.edges`` alone."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    adj = [sorted(a) for a in adj]
    deg = [len(a) for a in adj]
    n2 = [sum(deg[w] == 2 for w in a) for a in adj]
    n3 = [sum(deg[w] == 3 for w in a) for a in adj]
    return adj, deg, n2, n3


def _vertex_fails(lemma_id, v, k, adj, deg, n2, n3) -> bool:
    """Whether vertex v breaks the lemma's local degree pattern at level k."""
    delta = max(deg)
    t = deg[v]

    def strong(w):
        return sum(deg[x] >= 4 for x in adj[w])

    def roles_met(p, q):
        return strong(p) >= 3 and strong(q) >= (3 if deg[q] == 5 else 2)

    if lemma_id == "2-vertex-neighborhood":
        return n2[v] > 0 and sum(deg[w] >= k - delta + 2 for w in adj[v]) < k - delta + 1
    if lemma_id == "2-vertex-count":
        return n2[v] > delta - 2
    if lemma_id == "2-and-3-vertex-count":
        return n2[v] > 0 and n2[v] + n3[v] > delta - 3
    if lemma_id == "neighbor-of-2-vertex":
        return t == 2 and any(deg[w] < k - delta + 3 for w in adj[v])
    if lemma_id == "3-vertex-neighbors":
        return t == 3 and any(deg[w] < k - delta + 2 for w in adj[v])
    if lemma_id == "3-adjacent-4":
        fours = [w for w in adj[v] if deg[w] == 4]
        if t != 3 or not fours:
            return False
        y, z = (w for w in adj[v] if w != fours[0])
        return min(deg[y], deg[z]) < 5 or not (roles_met(y, z) or roles_met(z, y))
    if lemma_id == "t-vertex-2-count":
        return t >= 5 and (n2[v] > t - 4 or n2[v] == t - 4 and n3[v] > 0)
    if lemma_id == "5-vertex":
        return t == 5 and n2[v] + n3[v] > 3
    raise AssertionError(f"no oracle for {lemma_id}")


def test_witnesses_recount_from_the_edge_list():
    # each failing predicate's witness names the lowest vertex the oracle
    # fails, with the counts it names recounted and its inequality broken;
    # a predicate that holds has no vertex the oracle fails
    kinds = set()
    for g, suites in _lemma_suites():
        counts = _recount(g)
        adj, deg, n2, n3 = counts
        delta = max(deg)
        for k, r in ((k, r) for k, results in suites for r in results):
            w = r.witness
            if r.lemma_id == "2-connected":
                assert w == (None if r.holds else {"graph": "not 2-connected"})
                continue
            if not r.applicable:
                continue
            first = next((v for v in range(g.n)
                          if _vertex_fails(r.lemma_id, v, k, *counts)), None)
            if r.holds:
                assert first is None
                continue
            v = w["vertex"]
            assert first == v
            kinds.add((r.lemma_id, *sorted(w)))
            if r.lemma_id == "2-vertex-neighborhood":
                strong = sum(deg[x] >= k - delta + 2 for x in adj[v])
                assert w == {"vertex": v, "strong_neighbors": strong,
                             "required": k - delta + 1}
                assert n2[v] > 0 and w["strong_neighbors"] < w["required"]
            elif r.lemma_id == "2-vertex-count":
                assert w == {"vertex": v, "n2": n2[v], "bound": delta - 2}
                assert w["n2"] > w["bound"]
            elif r.lemma_id == "2-and-3-vertex-count":
                assert w == {"vertex": v, "n2": n2[v], "n3": n3[v], "bound": delta - 3}
                assert w["n2"] > 0 and w["n2"] + w["n3"] > w["bound"]
            elif r.lemma_id in ("neighbor-of-2-vertex", "3-vertex-neighbors"):
                d, slack = (2, 3) if r.lemma_id == "neighbor-of-2-vertex" else (3, 2)
                x = w["neighbor"]
                assert w == {"vertex": v, "neighbor": x, "degree": deg[x],
                             "threshold": k - delta + slack}
                assert deg[v] == d and x in adj[v] and w["degree"] < w["threshold"]
                assert all(deg[y] >= w["threshold"] for y in adj[v] if y < x)
            elif r.lemma_id == "3-adjacent-4":
                x = min(a for a in adj[v] if deg[a] == 4)
                y, z = others = [a for a in adj[v] if a != x]
                assert deg[v] == 3
                assert (w["four_neighbor"], w["others"]) == (x, others)
                if "degrees" in w:
                    assert w["degrees"] == [deg[y], deg[z]] and min(w["degrees"]) < 5
                else:
                    strong = [sum(deg[a] >= 4 for a in adj[b]) for b in others]
                    assert w["strong_counts"] == strong and min(deg[y], deg[z]) >= 5
                    need = [3 if deg[b] == 5 else 2 for b in others]
                    assert not (strong[0] >= 3 and strong[1] >= need[1])
                    assert not (strong[1] >= 3 and strong[0] >= need[0])
            elif r.lemma_id == "t-vertex-2-count":
                t = deg[v]
                if "bound" in w:
                    assert w == {"vertex": v, "n2": n2[v], "bound": t - 4}
                    assert w["n2"] > w["bound"]
                else:
                    assert w == {"vertex": v, "n2": n2[v], "n3": n3[v],
                                 "note": "equality case requires n3 = 0"}
                    assert w["n2"] == t - 4 and w["n3"] > 0
            else:
                assert w == {"vertex": v, "n2_plus_n3": n2[v] + n3[v]}
                assert deg[v] == 5 and w["n2_plus_n3"] > 3
    # every witness shape occurs, so no branch above is vacuous
    assert {kind[0] for kind in kinds} == {
        "2-vertex-neighborhood", "2-vertex-count", "2-and-3-vertex-count",
        "neighbor-of-2-vertex", "3-vertex-neighbors", "3-adjacent-4",
        "t-vertex-2-count", "5-vertex"}
    assert ("3-adjacent-4", "degrees", "four_neighbor", "others", "vertex") in kinds
    assert ("3-adjacent-4", "four_neighbor", "others", "strong_counts", "vertex") in kinds
    assert ("t-vertex-2-count", "bound", "n2", "vertex") in kinds
    assert ("t-vertex-2-count", "n2", "n3", "note", "vertex") in kinds


# --- Fact 2 -------------------------------------------------------------------


def test_fact2_sweep_k4():
    ok, checked = fact2_sweep(complete(4), 4)
    assert ok
    # frozen from this enumeration: 288 total acyclic 4-colorings of K4 - e
    assert checked == 288


def test_fact2_sweep_budget_exhausted_is_public():
    with pytest.raises(aecolor.BudgetExhausted):
        fact2_sweep(complete(4), 4, SolveBudget(5))


def test_fact2_verify_single_coloring():
    g = complete(4)
    from aecolor.graph import delete_edge
    gm = delete_edge(g, 0)
    c = next(iter(enumerate_acyclic_colorings(gm, 4)))
    r = fact2_verify(g, 4, 0, c)
    assert r.holds
    assert 0 <= r.t <= 2


def test_fact2_rejects_improper_coloring():
    # K4 - e has edge ids 0..4; one color on all of them is improper
    g = complete(4)
    bad = EdgeColoring(4, (1,) * 5)
    with pytest.raises(ValueError, match="not proper"):
        fact2_verify(g, 4, 0, bad)


def test_fact2_verify_scans_properness_once(monkeypatch):
    """The validator checks properness inside its per-color pass: a proper
    coloring runs no properness_violation scan, and an improper one runs
    exactly one, only to name the lowest clashing vertex."""
    scans = []
    scan = coloring.properness_violation

    def counted(g, c):
        scans.append(c)
        return scan(g, c)

    monkeypatch.setattr(coloring, "properness_violation", counted)
    # a scan called from structure itself must be counted too
    monkeypatch.setattr(structure, "properness_violation", counted, raising=False)
    g = complete(4)
    gm = delete_edge(g, 0)
    fact2_verify(g, 4, 0, next(iter(enumerate_acyclic_colorings(gm, 4))))
    assert len(scans) == 0
    # every edge of K4 - e colored 1: vertex 0 is the lowest with a clash
    with pytest.raises(ValueError, match="^coloring is not proper at vertex 0$"):
        fact2_verify(g, 4, 0, EdgeColoring(4, (1,) * 5))
    assert len(scans) == 1


def test_fact2_rejects_bichromatic_coloring():
    g = complete(4)
    # edges 1..5 of K4 - edge(0,1): make the 4-cycle 0-2-1-3 bichromatic
    gm_colors = []
    from aecolor.graph import delete_edge
    gm = delete_edge(g, 0)
    # gm edges: (0,2),(0,3),(1,2),(1,3),(2,3)
    for u, v in gm.edges:
        if {u, v} in ({0, 2}, {1, 3}):
            gm_colors.append(1)
        elif {u, v} in ({0, 3}, {1, 2}):
            gm_colors.append(2)
        else:
            gm_colors.append(3)
    with pytest.raises(ValueError):
        fact2_verify(g, 4, 0, EdgeColoring(4, tuple(gm_colors)))


# --- discharging ---------------------------------------------------------------


def test_discharge_rejects_unknown_rules():
    with pytest.raises(ValueError):
        discharge(cycle(4), "mad5")


def test_discharge_conserves_charge():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 14)
        m = rng.randint(1, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        for rules in ("mad4", "mad3"):
            state = discharge(g, rules)
            assert state.total_final == state.total_initial


def test_discharge_c6_mad3():
    # each C6 vertex starts at -1, gives 1/2 twice, receives 1/2 twice
    state = discharge(cycle(6), "mad3")
    assert all(state.initial[v] == -1 for v in range(6))
    assert all(state.final[v] == -1 for v in range(6))
    assert state.total_final == -6


def test_discharge_2vertex_two_big_neighbors():
    # a 2-vertex flanked by two 5-vertices ends exactly at zero under mad4
    pairs = [(0, 1), (0, 2)]
    pairs += [(1, v) for v in range(3, 7)]
    pairs += [(2, v) for v in range(7, 11)]
    g = build_graph(11, pairs)
    state = discharge(g, "mad4")
    assert state.initial[0] == -2
    assert state.final[0] == 0
    assert state.total_final == state.total_initial


def test_discharge_transfers_recorded():
    state = discharge(cycle(4), "mad3")
    assert len(state.transfers) == 8
    assert all(t[0] == "R" and t[3] == Fraction(1, 2) for t in state.transfers)


def test_contradiction_report_rejects_dense():
    with pytest.raises(ValueError):
        discharging_contradiction_report(complete(5), "mad4", mad_exact(complete(5)))
    with pytest.raises(ValueError):
        discharging_contradiction_report(complete(4), "mad3", mad_exact(complete(4)))


@pytest.mark.parametrize("g", [complete(5), cycle(6)], ids=["K5", "C6"])
def test_contradiction_report_rejects_unknown_rules_first(g):
    """The rule set is looked up before the mad hypothesis: K5 (mad 4)
    would fail either bound, and C6 (mad 2) would meet both."""
    with pytest.raises(ValueError, match="unknown rule set 'mad5'"):
        discharging_contradiction_report(g, "mad5", mad_exact(g))


def test_rule_sets_table():
    """Both rule sets read one table: mad < bound, the lemmas at Delta +
    slack, and the 2-vertex rule with its share."""
    assert structure.RULE_SETS == {
        "mad4": structure.RuleSet(4, 2, "R1", Fraction(1)),
        "mad3": structure.RuleSet(3, 1, "R", Fraction(1, 2)),
    }
    for name, rs in structure.RULE_SETS.items():
        state = discharge(path(3), name)
        assert state.initial == {0: 1 - rs.bound, 1: 2 - rs.bound, 2: 1 - rs.bound}
        assert state.transfers == [(rs.rule, 0, 1, rs.share), (rs.rule, 2, 1, rs.share)]


def test_contradiction_report_c6():
    report = discharging_contradiction_report(cycle(6), "mad3", mad_exact(cycle(6)))
    assert report.state.total_initial < 0
    assert report.state.negative_vertices() == list(range(6))
    assert report.failing_predicates  # C6 is far from critical


def test_contradiction_report_total_negative_under_mad4():
    rng = random.Random(42)
    done = 0
    while done < 20:
        n = rng.randint(3, 12)
        m = rng.randint(2, min(2 * n - 1, n * (n - 1) // 2))
        g = random_graph(rng, n, m)
        mad = mad_exact(g)
        if mad >= 4:
            continue
        report = discharging_contradiction_report(g, "mad4", mad)
        assert report.state.total_initial == 2 * g.m - 4 * g.n
        assert report.state.total_initial < 0 or 2 * g.m >= 4 * g.n
        done += 1


# --- enumeration and the critical sweep -----------------------------------------


CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_atlas_counts():
    first = list(connected_graphs_upto(7))
    per_n = {}
    for g in first:
        per_n[g.n] = per_n.get(g.n, 0) + 1
    assert per_n == CONNECTED_COUNTS
    # the class list is built once: a later call yields the same objects
    assert [id(g) for g in connected_graphs_upto(7)] == [id(g) for g in first]
    assert list(connected_graphs_upto(4)) == [g for g in first if g.n <= 4]


def test_atlas_rejects_large_n():
    with pytest.raises(ValueError):
        list(connected_graphs_upto(8))


ATLAS_SHA256 = "73fc416df0164923607751cb759f4ae81deb5f6550bf25be59c86de3b747e41d"


def test_atlas_file_is_pinned():
    """The packaged atlas is the NetworkX developers' atlas.dat.gz, byte for byte."""
    with open(structure.ATLAS_FILE, "rb") as f:
        assert hashlib.sha256(f.read()).hexdigest() == ATLAS_SHA256


def test_class_list_matches_the_atlas():
    direct = [(ag.number_of_nodes(), sorted(ag.edges()))
              for ag in nx.graph_atlas_g()[1:] if nx.is_connected(ag)]
    assert [(g.n, list(g.edges)) for g in connected_graphs_upto(7)] == direct


def test_dedup_matches_atlas_counts():
    for n in range(2, 7):
        assert len(connected_classes(n)) == CONNECTED_COUNTS[n]


def test_critical_sweep_n4():
    records = critical_sweep(4)
    assert [(r.graph.n, r.graph.m, r.k) for r in records] == [(4, 6, 4)]
    assert records[0].report.is_critical


def test_critical_sweep_n6():
    records = critical_sweep(6)
    found = sorted((r.graph.n, r.graph.m, r.k) for r in records)
    # K4, K_{3,3}, the octahedron, and K6 minus an edge -- all at Delta + 1
    assert found == [(4, 6, 4), (6, 9, 4), (6, 12, 5), (6, 14, 6)]
    for r in records:
        assert r.k == r.graph.max_degree() + 1
        assert all(p.holds for p in lemma_suite(r.graph, r.k))
