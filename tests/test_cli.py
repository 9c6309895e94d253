import argparse
import gzip
import json
import os
import random
import subprocess
import sys
from itertools import combinations

import networkx as nx
import pytest

import aecolor

from aecolor import cli, colorer, solver, structure
from aecolor.cli import (
    generate_sparse,
    main,
    run_experiment,
    write_dot,
)
from aecolor.coloring import (
    EdgeColoring,
    format_coloring,
    has_bichromatic_cycle,
    parse_coloring,
)
from aecolor.graph import build_graph
from aecolor.solver import is_acyclically_k_colorable
from conftest import complete, complete_bipartite, cycle, from_networkx, hypercube
from oracles import replay_trace


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_graph(tmp_path, g, name="g.txt"):
    p = tmp_path / name
    p.write_text(f"p {g.n} {g.m}\n" + "".join(f"e {u} {v}\n" for u, v in g.edges))
    return str(p)


def test_chi_a_c5(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(5))
    code, payload = run(capsys, ["chi-a", path])
    assert code == 0
    assert payload["chi_a"] == 3
    assert len(payload["coloring"]) == 5


def test_chi_a_max_k_exceeded(tmp_path, capsys):
    path = write_graph(tmp_path, complete(4))
    code, payload = run(capsys, ["chi-a", path, "--max-k", "4"])
    assert code == 1
    assert payload == {"chi_a": None, "decided_up_to": 4, "note": "exceeds --max-k 4"}


def test_chi_a_max_k_stops_the_search(tmp_path, capsys, monkeypatch):
    levels = []
    decide = solver.is_acyclically_k_colorable
    monkeypatch.setattr(solver, "is_acyclically_k_colorable",
                        lambda g, k, budget, order: levels.append(k)
                        or decide(g, k, budget, order))
    # K5,5 has chi'_a 7; its count 2*25/9 rounds up to 6, so k <= 5 needs
    # no search and --max-k 6 searches k = 6 alone (the 1.3M nodes of k = 7
    # are never spent)
    path = write_graph(tmp_path, complete_bipartite(5, 5))
    for max_k, searched in [(5, []), (6, [6])]:
        code, payload = run(capsys, ["chi-a", path, "--max-k", str(max_k)])
        assert code == 1
        assert payload == {"chi_a": None, "decided_up_to": max_k,
                           "note": f"exceeds --max-k {max_k}"}
        assert levels == searched


def test_chi_a_reports_its_lower_bound(tmp_path, capsys):
    # Q4 counts 2*32/15, which rounds up to 5
    code, payload = run(capsys, ["chi-a", write_graph(tmp_path, hypercube(4))])
    assert code == 0
    assert payload["chi_a"] == payload["lower_bound"] == payload["decided_up_to"] == 5
    assert payload["lower_bound_witness"] == list(range(16))


def test_chi_a_orders_the_edges_once(tmp_path, capsys, monkeypatch):
    """The counting bound and every level searched share one smallest-last
    order, with degree ties broken by the frontier rank."""
    orders = []
    original = solver.deletion_edge_order

    def counted(graph, rank=None):
        orders.append((graph.m, rank == solver.frontier_rank(graph)))
        return original(graph, rank)

    monkeypatch.setattr(solver, "deletion_edge_order", counted)
    # K4 counts 2*6/3 = 4 but has chi'_a 5: levels 4 and 5 are searched
    code, payload = run(capsys, ["chi-a", write_graph(tmp_path, complete(4))])
    assert code == 0
    assert (payload["lower_bound"], payload["chi_a"]) == (4, 5)
    assert orders == [(6, True)]


def test_chi_a_budget_exhaustion_exit_2(tmp_path, capsys):
    path = write_graph(tmp_path, complete(7))
    code, payload = run(capsys, ["chi-a", path, "--budget-nodes", "5"])
    assert code == 2
    assert payload["chi_a"] is None


def test_chi_a_time_limit_exit_2(tmp_path, capsys):
    """K5,5 counts 6, and refuting k = 6 takes 887K nodes (about 2 s).  The
    deadline, read every 4096 nodes, ends that search: nothing above the
    count is decided, and the nodes spent stop at a multiple of 4096."""
    path = write_graph(tmp_path, complete_bipartite(5, 5))
    code, payload = run(capsys, ["chi-a", path, "--budget-secs", "0.05"])
    assert code == 2
    assert (payload["chi_a"], payload["decided_up_to"]) == (None, 5)
    assert payload["nodes"] % 4096 == 0


def test_mad_k4(tmp_path, capsys):
    path = write_graph(tmp_path, complete(4))
    code, payload = run(capsys, ["mad", path])
    assert code == 0
    assert payload["mad"] == "3"
    assert payload["bounds"] == {"lt4": True, "lt3": False}


def test_check_valid(tmp_path, capsys):
    g = cycle(4)
    gp = write_graph(tmp_path, g)
    cp = tmp_path / "c.txt"
    cp.write_text("k 3\n0 1 1\n1 2 2\n2 3 1\n3 0 3\n")
    code, payload = run(capsys, ["check", gp, str(cp)])
    assert code == 0
    assert payload["valid"] and payload["total"]


def test_check_bichromatic_exit_1(tmp_path, capsys):
    g = cycle(4)
    gp = write_graph(tmp_path, g)
    cp = tmp_path / "c.txt"
    cp.write_text("k 2\n0 1 1\n1 2 2\n2 3 1\n3 0 2\n")
    code, payload = run(capsys, ["check", gp, str(cp)])
    assert code == 1
    assert payload["reason"] == "bichromatic-cycle"
    assert sorted(payload["colors"]) == [1, 2]


def test_check_improper_exit_1(tmp_path, capsys):
    gp = write_graph(tmp_path, cycle(4))
    cp = tmp_path / "c.txt"
    cp.write_text("k 3\n0 1 1\n1 2 1\n")
    code, payload = run(capsys, ["check", gp, str(cp)])
    assert code == 1
    assert payload["reason"] == "not-proper"


@pytest.mark.parametrize("text, line, what", [
    ("k x\n0 1 1\n", 1, "palette size"),
    ("k 3\n0 1 1\n1 2 x\n", 3, "edge line"),
])
def test_check_non_integer_coloring_exit_2(tmp_path, capsys, text, line, what):
    gp = write_graph(tmp_path, cycle(4))
    cp = tmp_path / "c.txt"
    cp.write_text(text)
    code, payload = run(capsys, ["check", gp, str(cp)])
    assert code == 2
    assert payload["error"].startswith(f"line {line}: non-integer")
    assert what in payload["error"]


def test_check_negative_palette_exit_2(tmp_path, capsys):
    gp = write_graph(tmp_path, cycle(4))
    cp = tmp_path / "c.txt"
    cp.write_text("k -3\n0 1 0\n")
    code, payload = run(capsys, ["check", gp, str(cp)])
    assert code == 2
    assert payload["error"] == "line 1: negative palette size -3"


def test_check_second_palette_header_exit_2(tmp_path, capsys):
    gp = write_graph(tmp_path, cycle(4))
    cp = tmp_path / "c.txt"
    cp.write_text("k 3\n0 1 1\nk 5\n1 2 5\n")
    code, payload = run(capsys, ["check", gp, str(cp)])
    assert code == 2
    assert payload["error"] == "line 3: duplicate 'k' header"


@pytest.mark.parametrize("text, error", [
    ("k 3 4\n0 1 1\n", "line 1: expected 'k <K>'"),
    ("0 1 1\nk 3\n", "line 1: edge line before 'k' header"),
    ("k 3\n0 1\n", "line 2: expected '<u> <v> <color>'"),
    ("k 3\n0 1 1\n1 0 2\n", "line 3: edge 1-0 colored twice"),
    ("k 3\n0 2 1\n", "line 2: edge 0-2 not in graph"),
    ("k 3\n1 1 1\n", "line 2: edge 1-1 not in graph"),
    ("k 3\n3 9 1\n", "line 2: edge 3-9 not in graph"),
    ("# no header\n", "missing 'k' header"),
])
def test_check_malformed_coloring_exit_2(tmp_path, capsys, text, error):
    gp = write_graph(tmp_path, cycle(4))
    cp = tmp_path / "c.txt"
    cp.write_text(text)
    code, payload = run(capsys, ["check", gp, str(cp)])
    assert code == 2
    assert payload == {"error": error}


@pytest.mark.parametrize("text, error", [
    ("p 3 1\np 3 1\ne 0 1\n", "line 2: duplicate 'p' line"),
    ("p 3 x\n", "line 1: non-integer in 'p' line"),
    ("p 3 1\ne 0\n", "line 2: expected 'e <u> <v>'"),
    ("p 3 1\nq 0 1\n", "line 2: unknown record 'q'"),
    ("# no p line\n", "missing 'p' line"),
    ("p 3 2\ne 0 1\n", "'p' line promises 2 edges, found 1"),
    ("p -1 0\n", "vertex count must be nonnegative"),
    ("p 3 2\ne 0 1\ne 1 0\n", "duplicate edge (1,0)"),
])
def test_malformed_graph_file_exit_2(tmp_path, capsys, text, error):
    p = tmp_path / "bad.txt"
    p.write_text(text)
    code, payload = run(capsys, ["chi-a", str(p)])
    assert code == 2
    assert payload == {"error": error}


def test_malformed_graph_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("p 3 1\ne 0 zero\n")
    code, payload = run(capsys, ["chi-a", str(p)])
    assert code == 2
    assert "line" in payload["error"]


def test_missing_file_exit_2(tmp_path, capsys):
    code, payload = run(capsys, ["mad", str(tmp_path / "nope.txt")])
    assert code == 2
    assert "error" in payload


def test_color_roundtrips_through_check(tmp_path, capsys):
    g = complete(4)
    gp = write_graph(tmp_path, g)
    out = tmp_path / "col.txt"
    code, payload = run(capsys, ["color", gp, "--k", "5", "--out", str(out)])
    assert code == 0
    assert payload["outcome"] in ("success", "fallback-success")
    c = parse_coloring(out.read_text(), g)
    assert has_bichromatic_cycle(g, c) is None
    code2, payload2 = run(capsys, ["check", gp, str(out)])
    assert code2 == 0 and payload2["valid"]


def test_color_trace_file_replays(tmp_path, capsys):
    # the 7-regular graph with n = 100 and seed 201 needs repairs at k = 9
    nxg = nx.random_regular_graph(7, 100, seed=201)
    g = build_graph(100, sorted(tuple(sorted(e)) for e in nxg.edges()))
    gp = write_graph(tmp_path, g)
    trace = tmp_path / "trace.json"
    code, payload = run(capsys, ["color", gp, "--k", "9", "--no-fallback",
                                 "--move-budget", str(5 * g.m), "--trace", str(trace)])
    assert code == 0 and payload["move_counts"]["repair"] >= 1
    moves = json.loads(trace.read_text())
    assert {m[0] for m in moves} == {"assign", "repair"}
    replayed = replay_trace(g, 9, moves)
    assert [[*edge, c] for edge, c in zip(g.edges, replayed.colors)] == payload["coloring"]


def test_color_auto_palette(tmp_path, capsys):
    gp = write_graph(tmp_path, cycle(6))
    code, payload = run(capsys, ["color", gp])
    assert code == 0
    assert payload["k"] == 3  # mad(C6) = 2 < 3 gives Delta + 1
    assert payload["guarantee"] == "mad<3"


GRID = from_networkx(nx.grid_2d_graph(10, 10))     # mad 3.6, degeneracy 2
HEX = from_networkx(nx.hexagonal_lattice_graph(8, 8))  # mad < 3, degeneracy 2, Delta 3


@pytest.mark.parametrize("g, flags, k, guarantee, palette_from", [
    (GRID, [], 6, "mad<4", "peel"),
    (HEX, [], 4, "mad<3", "mad"),
    (HEX, ["--k", "5"], 5, "explicit", "explicit"),
])
def test_color_palette_from(tmp_path, capsys, monkeypatch, g, flags, k,
                            guarantee, palette_from):
    """The palette comes from the peel when it settles mad's side of 3 and
    4, from exact mad otherwise; either way the edges are ordered once."""
    orders = []
    original = solver.deletion_edge_order

    def counted(graph):
        orders.append(graph.m)
        return original(graph)

    for module in (solver, colorer):
        monkeypatch.setattr(module, "deletion_edge_order", counted)
    code, payload = run(capsys, ["color", write_graph(tmp_path, g), *flags])
    assert code == 0
    assert (payload["k"], payload["guarantee"], payload["palette_from"]) == \
        (k, guarantee, palette_from)
    assert orders == [g.m]


def test_report_is_one_line(tmp_path, capsys):
    assert main(["color", write_graph(tmp_path, cycle(5))]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    assert '"k": 3' in out


def test_color_failure_exit_1(tmp_path, capsys):
    gp = write_graph(tmp_path, complete(4))
    code, payload = run(capsys, ["color", gp, "--k", "4", "--no-fallback"])
    assert code == 1
    assert payload["outcome"] == "failure"


def test_color_rejects_too_small_k(tmp_path, capsys):
    gp = write_graph(tmp_path, complete(4))
    code, payload = run(capsys, ["color", gp, "--k", "2"])
    assert code == 2
    assert "error" in payload


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_color_rejects_nonpositive_move_budget(tmp_path, capsys, budget):
    gp = write_graph(tmp_path, complete(2))
    code, payload = run(capsys, ["color", gp, "--move-budget", budget, "--no-fallback"])
    assert code == 2
    assert payload == {"error": "move budget must be positive"}


def test_lemmas_k4(tmp_path, capsys):
    gp = write_graph(tmp_path, complete(4))
    code, payload = run(capsys, ["lemmas", gp, "--k", "4"])
    assert code == 0
    assert all(p["holds"] for p in payload["predicates"])


@pytest.mark.parametrize("k", ["-1", "0", "1"])
def test_lemmas_below_delta_exit_2(tmp_path, capsys, k):
    gp = write_graph(tmp_path, cycle(5))
    code, payload = run(capsys, ["lemmas", gp, "--k", k])
    assert code == 2
    assert payload == {"error": f"level k = {k} is below Delta(G) = 2"}


def test_lemmas_violation_exit_1(tmp_path, capsys):
    gp = write_graph(tmp_path, cycle(6))
    code, payload = run(capsys, ["lemmas", gp, "--k", "3"])
    assert code == 1


def test_discharge_c6(tmp_path, capsys):
    gp = write_graph(tmp_path, cycle(6))
    code, payload = run(capsys, ["discharge", gp, "--rules", "mad3"])
    assert code == 0
    assert payload["total_initial"] == payload["total_final"] == "-6"
    assert payload["contradiction_report"]["total_initial_negative"]


def test_discharge_runs_the_rules_once(tmp_path, capsys, monkeypatch):
    calls, original = [], structure.discharge

    def counted(g, rules):
        calls.append(rules)
        return original(g, rules)

    monkeypatch.setattr(cli, "discharge", counted)
    monkeypatch.setattr(structure, "discharge", counted)
    gp = write_graph(tmp_path, cycle(6))
    code, payload = run(capsys, ["discharge", gp, "--rules", "mad3"])
    assert code == 0 and "contradiction_report" in payload
    assert calls == ["mad3"]


def test_discharge_dense_notes_hypothesis(tmp_path, capsys):
    gp = write_graph(tmp_path, complete(5))
    code, payload = run(capsys, ["discharge", gp, "--rules", "mad4"])
    assert code == 0
    assert "note" in payload


def test_critical_sweep_cli(tmp_path, capsys):
    code, payload = run(capsys, ["critical-sweep", "--n-max", "4"])
    assert code == 0
    assert len(payload["critical"]) == 1
    assert payload["critical"][0]["k"] == 4


@pytest.mark.parametrize("n_max", ["0", "-3"])
def test_critical_sweep_n_max_below_1_exit_2(capsys, monkeypatch, n_max):
    """An empty sweep would read as "no critical graph"; the range is
    checked before the packaged atlas file is read."""
    monkeypatch.setattr(structure, "_atlas_classes",
                        lambda: pytest.fail("the atlas was loaded"))
    code, payload = run(capsys, ["critical-sweep", "--n-max", n_max])
    assert code == 2
    assert payload == {"error": f"n_max must be at least 1, got {n_max}"}


@pytest.mark.parametrize("damage, message", [
    ("missing", "No such file or directory"),
    ("cut", "is damaged"),
    ("short", "holds 627 graphs, expected 1253"),
])
def test_critical_sweep_damaged_atlas_exit_2(tmp_path, capsys, monkeypatch, damage, message):
    """A missing atlas file, one cut off mid-stream, and a whole gzip file
    of the first half of the atlas each end in a JSON error, not a
    traceback or a sweep over too few graphs."""
    with open(structure.ATLAS_FILE, "rb") as f:
        packaged = f.read()
    path = tmp_path / "atlas.dat.gz"
    if damage == "cut":
        path.write_bytes(packaged[:4000])
    elif damage == "short":
        text = gzip.decompress(packaged)
        path.write_bytes(gzip.compress(text[:text.index(b"GRAPH 627\n")]))
    monkeypatch.setattr(structure, "ATLAS_FILE", str(path))
    structure._atlas_classes.cache_clear()
    try:
        code = main(["critical-sweep", "--n-max", "7"])
    finally:
        structure._atlas_classes.cache_clear()  # later sweeps read the packaged file
    out, err = capsys.readouterr()
    assert code == 2
    assert message in json.loads(out)["error"]
    assert err == ""


def test_color_dot_file(tmp_path, capsys):
    g = complete_bipartite(3, 3)
    out = tmp_path / "g.dot"
    code, payload = run(capsys, ["color", write_graph(tmp_path, g), "--dot", str(out)])
    assert code == 0
    assert payload["dot_file"] == str(out)
    edge_lines = [line for line in out.read_text().splitlines() if " -- " in line]
    assert len(edge_lines) == g.m
    assert all("style=dashed" not in line for line in edge_lines)


def test_chi_a_edgeless_graph(tmp_path, capsys):
    code, payload = run(capsys, ["chi-a", write_graph(tmp_path, build_graph(3, []))])
    assert code == 0
    assert payload == {"chi_a": 0, "decided_up_to": 0, "lower_bound": 0,
                       "lower_bound_witness": [], "coloring": [], "nodes": 0}


def test_dot_export(tmp_path):
    g = cycle(3)
    c = EdgeColoring(3, (1, 2, 0))
    out = tmp_path / "g.dot"
    write_dot(g, c, str(out))
    text = out.read_text()
    assert text.startswith("graph G {")
    assert "color=red" in text and "style=dashed" in text


# K4 on 0..3 with pendant edges 0-4, 1-5 and 2-6, the ids out of sorted order:
# at k = 4 without the fallback the colorer is stuck on 0-1 and leaves it and
# the three pendant edges uncolored
GOLDEN_EDGES = [(0, 4), (1, 5), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 6)]
GOLDEN_COLOR = (
    '{"outcome": "failure", "k": 4, "guarantee": "explicit", "palette_from": "explicit",'
    ' "colors_used": 4, "move_counts": {"assign": 5, "repair": 0}, "moves_spent": 266,'
    ' "coloring": [[0, 4, 0], [1, 5, 0], [0, 1, 0], [0, 2, 4], [0, 3, 3], [1, 2, 3],'
    ' [1, 3, 2], [2, 3, 1], [2, 6, 0]], "coloring_file": "OUT", "dot_file": "DOT"}\n'
)
GOLDEN_FILE = "k 4\n0 4 0\n1 5 0\n0 1 0\n0 2 4\n0 3 3\n1 2 3\n1 3 2\n2 3 1\n2 6 0\n"
GOLDEN_DOT = """graph G {
  0;
  1;
  2;
  3;
  4;
  5;
  6;
  0 -- 4 [style=dashed, label="?"];
  1 -- 5 [style=dashed, label="?"];
  0 -- 1 [style=dashed, label="?"];
  0 -- 2 [color=orange, label="4"];
  0 -- 3 [color=green, label="3"];
  1 -- 2 [color=green, label="3"];
  1 -- 3 [color=blue, label="2"];
  2 -- 3 [color=red, label="1"];
  2 -- 6 [style=dashed, label="?"];
}
"""


def test_partial_coloring_outputs_are_pinned(tmp_path, capsys):
    """Every serialized form of one partial coloring, byte for byte: the
    JSON triples, the ``--out`` file, the DOT text with its dashed "?"
    edges, and ``check``'s verdict on the file read back."""
    g = build_graph(7, GOLDEN_EDGES)
    gp = write_graph(tmp_path, g)
    out, dot = tmp_path / "col.txt", tmp_path / "g.dot"
    code = main(["color", gp, "--k", "4", "--no-fallback",
                 "--out", str(out), "--dot", str(dot)])
    stdout = capsys.readouterr().out
    assert code == 1
    assert stdout.replace(str(out), "OUT").replace(str(dot), "DOT") == GOLDEN_COLOR
    assert out.read_text() == GOLDEN_FILE
    assert dot.read_text() == GOLDEN_DOT
    assert format_coloring(g, parse_coloring(GOLDEN_FILE, g)) == GOLDEN_FILE
    code = main(["check", gp, str(out)])
    assert code == 0
    assert capsys.readouterr().out == '{"valid": true, "total": false, "colors_used": 4}\n'


def test_generate_sparse_deterministic():
    a = generate_sparse(10, 15, seed=7)
    b = generate_sparse(10, 15, seed=7)
    assert a.edges == b.edges
    assert a.m == 15


def test_generate_sparse_matches_sampling_the_pair_list():
    """Ranks sampled and unranked give the graph that the O(n^2) sampler
    over the list of all pairs gave, seed for seed; m = n(n-1)/2 unranks
    every rank."""
    for n in (1, 2, 3, 7, 20, 61, 300):
        limit = n * (n - 1) // 2
        for m in sorted({0, 1, n // 2, n, 3 * n // 2, 3 * n, limit // 2, limit}):
            if m > limit:
                continue
            for seed in range(2):
                rng = random.Random(seed)
                old = build_graph(n, rng.sample(list(combinations(range(n), 2)), m))
                assert generate_sparse(n, m, seed).edges == old.edges, (n, m, seed)


def test_generate_sparse_rejects_too_many_edges():
    with pytest.raises(ValueError):
        generate_sparse(4, 7, seed=0)


def test_experiment_theorem3_small():
    summary = run_experiment("theorem3", n=8, trials=6, seed=1)
    assert summary["violations"] == 0
    assert len(summary["records"]) == 6


def test_experiment_cli_exit_codes(capsys):
    code, payload = run(capsys, ["experiment", "colorer", "--n", "10",
                                 "--trials", "4", "--seed", "2"])
    assert code == 0
    assert payload["violations"] == 0


@pytest.mark.parametrize("name", ["theorem2", "theorem3", "colorer"])
def test_experiment_is_reproducible_from_its_seed(name):
    def strip_timing(summary):
        return {**summary, "records": [{k: v for k, v in r.items() if k != "seconds"}
                                       for r in summary["records"]]}

    first = run_experiment(name, n=9, trials=5, seed=4)
    again = run_experiment(name, n=9, trials=5, seed=4)
    assert strip_timing(first) == strip_timing(again)
    assert [r["seed"] for r in first["records"]] == [4 * 1_000_003 + i for i in range(5)]


def test_experiment_rejects_workers_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "colorer", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_experiment_trials_below_1_exit_2(capsys, trials):
    code, payload = run(capsys, ["experiment", "colorer", "--n", "3", "--trials", trials])
    assert code == 2
    assert payload == {"error": f"trials must be positive, got {trials}"}


def test_unexpected_exception_exit_2_with_json(tmp_path, capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_mad", boom)
    code = main(["mad", write_graph(tmp_path, cycle(5))])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {"error": "RuntimeError: boom"}
    assert captured.err == ""


def test_one_parser_per_process_late_bound_handlers(tmp_path, capsys,
                                                    monkeypatch):
    """Two calls build one parser, and the handler is looked up per call,
    so a handler patched after the parser was built still runs."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    path = write_graph(tmp_path, cycle(5))
    code, payload = run(capsys, ["mad", path])
    assert code == 0 and payload["mad"] == "2"

    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_mad", boom)
    code, payload = run(capsys, ["mad", path])
    assert code == 2
    assert payload == {"error": "RuntimeError: boom"}
    assert built.count("aecolor") == 1


def test_no_parse_state_leaks_between_calls(tmp_path, capsys):
    path = write_graph(tmp_path, GRID)
    out = str(tmp_path / "c.txt")
    code, payload = run(capsys, ["color", path, "--k", "7", "--out", out,
                                 "--no-fallback"])
    assert code == 0
    assert payload["palette_from"] == "explicit" and payload["coloring_file"] == out
    code, payload = run(capsys, ["color", path])
    assert code == 0
    assert payload["palette_from"] in ("peel", "mad")
    assert "coloring_file" not in payload
    # usage errors still exit 2 on the shared parser, and leave it usable
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["color"])
        assert exc.value.code == 2
        assert "required" in capsys.readouterr().err
    code, payload = run(capsys, ["color", path])
    assert code == 0 and payload["outcome"] == "success"


@pytest.mark.parametrize("flag", ["--budget-nodes", "--budget-secs"])
def test_zero_budget_exit_2(tmp_path, capsys, flag):
    path = write_graph(tmp_path, cycle(5))
    # --budget-nodes takes an integer, so only the time limit can be nan,
    # a deadline that would never fire
    for value in ["0", "nan"] if flag == "--budget-secs" else ["0"]:
        code, payload = run(capsys, ["chi-a", path, flag, value])
        assert code == 2
        assert "budget" in payload["error"]


@pytest.mark.parametrize("n", [1200, 10_000])
def test_deep_search_chi_a(tmp_path, capsys, n):
    # n frames deep, past the recursion limit: the search keeps them on a list
    g = cycle(n)
    path = write_graph(tmp_path, g)
    code, payload = run(capsys, ["chi-a", path])
    assert code == 0
    assert payload["chi_a"] == payload["lower_bound"] == 3
    assert payload["nodes"] == n + 1
    # the count 2n/(n-1) decides k = 2; the search still refutes it n deep
    refuted = is_acyclically_k_colorable(g, 2)
    assert (refuted.status, refuted.nodes) == ("no", n)


def test_deep_component_fallback(tmp_path, capsys):
    # one move is spent on the first edge, so every later edge falls to
    # the whole-component search over all 1,200 edges
    path = write_graph(tmp_path, cycle(1200))
    code, payload = run(capsys, ["color", path, "--move-budget", "1"])
    assert code == 0
    assert payload["outcome"] == "fallback-success"


def test_deep_flow_mad_and_color(tmp_path, capsys):
    # K5 with a 3,000-edge path hanging off vertex 4, listed first: the
    # flow's level graph is thousands of arcs deep
    tail = [(v, v + 1) for v in range(4, 3004)]
    path = write_graph(tmp_path, build_graph(3005, tail + list(combinations(range(5), 2))))
    code, payload = run(capsys, ["mad", path])
    assert code == 0
    assert payload["mad"] == "4"
    assert payload["witness"] == [0, 1, 2, 3, 4]
    code, payload = run(capsys, ["color", path])
    assert code == 0
    assert payload["outcome"] == "success"


def test_closed_stdout_exit_2_quietly(tmp_path):
    path = write_graph(tmp_path, cycle(5))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    src = os.path.dirname(os.path.dirname(aecolor.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    try:
        proc = subprocess.run([sys.executable, "-m", "aecolor.cli", "mad", path],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b""
