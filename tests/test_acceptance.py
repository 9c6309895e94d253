"""Release acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line
(visible with ``pytest -s`` or in captured output on failure).
"""

import random
import time
from fractions import Fraction

from aecolor.colorer import color_graph
from aecolor.coloring import has_bichromatic_cycle, is_proper, trace_bichromatic
from aecolor.density import mad_exact
from aecolor.graph import build_graph, is_2_connected
from aecolor.solver import chi_a_exact, is_critical
from aecolor.structure import (
    critical_sweep,
    discharge,
    fact2_sweep,
    lemma_suite,
)
from conftest import complete, complete_bipartite, cycle, edge_index, random_graph
from oracles import connected_classes, mad_brute

_cache = {}


def small_connected_classes():
    """Connected graphs on 2..6 vertices, one per isomorphism class, from the
    orbit enumeration of ``oracles.connected_classes`` (independent of the
    packaged graph atlas that ``critical_sweep`` reads)."""
    if "classes" not in _cache:
        graphs = []
        for n in range(2, 7):
            graphs.extend(connected_classes(n))
        _cache["classes"] = graphs
    return _cache["classes"]


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_exact_paper_values():
    """Exact chromatic index of the anchor graphs, each within 10 seconds."""
    cases = [(cycle(n), 3) for n in range(3, 10)]
    cases += [(complete(4), 5), (complete_bipartite(3, 3), 5)]
    worst = 0.0
    ok = True
    for g, expected in cases:
        start = time.monotonic()
        got = chi_a_exact(g).chi_a
        worst = max(worst, time.monotonic() - start)
        ok = ok and got == expected and worst < 10.0
    report(1, ok, f"9 cycles/K4/K3,3 exact, worst case {worst:.3f}s")


def test_criterion_2_delta_plus_2_bound_sweep():
    """mad < 4 implies chi'_a <= Delta + 2 on all connected graphs, n <= 6."""
    violations = 0
    checked = 0
    for g in small_connected_classes():
        if mad_exact(g) >= 4:
            continue
        checked += 1
        if chi_a_exact(g).chi_a > g.max_degree() + 2:
            violations += 1
    report(2, violations == 0 and checked > 100,
           f"{checked} graphs with mad < 4, {violations} violations")


def test_criterion_3_delta_plus_1_bound_sweep():
    """mad < 3 implies chi'_a <= Delta + 1 on all connected graphs, n <= 6."""
    violations = 0
    checked = 0
    for g in small_connected_classes():
        if mad_exact(g) >= 3:
            continue
        checked += 1
        if chi_a_exact(g).chi_a > g.max_degree() + 1:
            violations += 1
    report(3, violations == 0 and checked > 30,
           f"{checked} graphs with mad < 3, {violations} violations")


def test_criterion_4_mad_oracle_equivalence():
    """Flow-based mad equals the brute-force subset maximum, exactly."""
    rng = random.Random(101)
    mismatches = 0
    for _ in range(500):
        n = rng.randint(1, 12)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        if mad_exact(g) != mad_brute(g):
            mismatches += 1
    report(4, mismatches == 0, f"500 random graphs, {mismatches} mismatches")


def test_criterion_5_critical_graphs_satisfy_structure():
    """Every critical graph found for n <= 7 passes the lemma suite and the
    degree-sum inequalities over all colorings of all edge deletions."""
    ok = True
    details = []
    k4 = complete(4)
    ok = ok and is_critical(k4, 4).is_critical and is_2_connected(k4)
    ok = ok and all(r.holds for r in lemma_suite(k4, 4))
    records = critical_sweep(7)
    ok = ok and len(records) > 0
    for rec in records:
        ok = ok and rec.report.is_critical
        ok = ok and all(r.holds for r in lemma_suite(rec.graph, rec.k))
        holds, checked = fact2_sweep(rec.graph, rec.k)
        ok = ok and holds
        details.append(f"n={rec.graph.n},k={rec.k}:{checked} colorings")
    report(5, ok, f"{len(records)} critical graphs; " + "; ".join(details))


def test_criterion_6_discharging_engine():
    """Exact charge conservation, the worked 2-vertex identity, and negative
    total initial charge under the mad hypotheses."""
    rng = random.Random(102)
    ok = True
    for _ in range(1000):
        n = rng.randint(2, 14)
        m = rng.randint(1, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        for rules in ("mad4", "mad3"):
            state = discharge(g, rules)
            ok = ok and state.total_final == state.total_initial
        value = mad_exact(g)
        if value < 4:
            ok = ok and sum(Fraction(g.degree(v) - 4) for v in range(g.n)) < 0
        if value < 3:
            ok = ok and sum(Fraction(g.degree(v) - 3) for v in range(g.n)) < 0
    # worked identity: a 2-vertex receiving 1 from each of two 5-vertices
    pairs = [(0, 1), (0, 2)]
    pairs += [(1, v) for v in range(3, 7)] + [(2, v) for v in range(7, 11)]
    state = discharge(build_graph(11, pairs), "mad4")
    ok = ok and state.initial[0] == -2 and state.final[0] == 0
    report(6, ok, "1000 graphs conserve charge; worked identity -2+2*1=0")


def test_criterion_7_colorer_at_scale():
    """200 sparse instances, n in [50, 200], colored at Delta + 2."""
    rng = random.Random(103)
    start = time.monotonic()
    produced = 0
    pure = 0
    ok = True
    while produced < 200:
        n = rng.randint(50, 200)
        m = rng.randint(n - 1, 2 * n - 1)
        g = random_graph(rng, n, m)
        if mad_exact(g) >= 4:
            continue
        produced += 1
        report_ = color_graph(g, g.max_degree() + 2)
        ok = ok and report_.outcome in ("success", "fallback-success")
        if report_.outcome == "success":
            pure += 1
        c = report_.coloring
        ok = ok and c.is_total() and is_proper(g, c)
        ok = ok and has_bichromatic_cycle(g, c) is None
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    rate = pure / 200
    report(7, ok,
           f"200/200 colored, pure-move rate {rate:.1%} (target >= 90%), "
           f"{elapsed:.1f}s")


def test_criterion_8_two_color_subgraph_properties():
    """Random proper colorings: two-color subgraphs have max degree <= 2 and
    component traces are independent of the starting vertex."""
    rng = random.Random(104)
    violations = 0
    for _ in range(1000):
        n = rng.randint(2, 30)
        m = rng.randint(1, n * (n - 1) // 2)
        g = random_graph(rng, n, m)
        k = 2 * g.max_degree()
        colors = []
        used = [set() for _ in range(g.n)]
        for u, v in g.edges:
            free = [c for c in range(1, k + 1)
                    if c not in used[u] and c not in used[v]]
            col = rng.choice(free)
            colors.append(col)
            used[u].add(col)
            used[v].add(col)
        from aecolor.coloring import EdgeColoring
        c = EdgeColoring(k, tuple(colors))
        cols = sorted(c.colors_used())
        picks = [(a, b) for i, a in enumerate(cols) for b in cols[i + 1:]]
        rng.shuffle(picks)
        edge_id = edge_index(g)
        for a, b in picks[:4]:
            for v in range(g.n):
                deg = sum(1 for w in g.neighbors(v)
                          if c.colors[edge_id[v, w]] in (a, b))
                if deg > 2:
                    violations += 1
                t = trace_bichromatic(g, c, a, b, v)
                if t is None:
                    continue
                for w in set(t.vertices):
                    t2 = trace_bichromatic(g, c, a, b, w)
                    if set(t2.vertices) != set(t.vertices) or \
                            t2.is_cycle != t.is_cycle:
                        violations += 1
    report(8, violations == 0, f"1000 colorings, {violations} violations")
