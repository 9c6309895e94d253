"""The four workloads: generator parameters, expected answers, and why each
was chosen.

A workload's corpus is built from the run's seed in ``rounds`` calls of its
builder, each with a random stream of its own.  Each workload is a closed
loop with one client: the next program call starts only after the previous
one returned.  The ``why`` strings are copied into BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import networkx as nx

from corpus import (
    Edges,
    complete_bipartite,
    from_networkx,
    hex_lattice,
    random_regular,
    relabel,
    uniform_sparse,
)


@dataclass
class Instance:
    """One program call on one generated graph.

    ``command`` is ``color`` or ``chi-a`` (CLI subcommands) or ``critical``
    (``critical-sweep`` followed by the checks on each critical graph it
    returns).  ``expect`` holds the answers the oracle compares against.
    """

    label: str
    command: str
    n: int = 0
    edges: Edges = field(default_factory=list)
    args: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    rounds: int  # builder calls that make one corpus; the run repeats the corpus
    build: Callable[[random.Random, dict], list[Instance]]
    # traced spans and patched call sites this workload must reach
    spans: tuple[str, ...] = ()
    sites: tuple[str, ...] = ()


def _sparse_auto(rng: random.Random, p: dict) -> list[Instance]:
    n = p["uniform_n"]
    rows, cols = p["grid"]
    hrows, hcols = p["hex"]
    return [
        Instance("uniform", "color", *uniform_sparse(n, int(p["edge_factor"] * n), rng)),
        Instance("grid", "color", *relabel(*from_networkx(nx.grid_2d_graph(rows, cols)), rng),
                 expect={"guarantee": "mad<4"}),
        Instance("hex", "color", *relabel(*hex_lattice(hrows, hcols), rng),
                 expect={"guarantee": "mad<3"}),
    ]


# At Delta+1 (k=6) about 15% of random 5-regular graphs end in a colourer
# failure, and on 6- and 7-regular graphs at Delta+2 about one graph in 400
# cycles through backtracks until the budget runs out.  A benchmark
# operation must not fail, so the workload runs 5-regular graphs at Delta+2,
# where none of 6,300 graphs with n=100 failed and swaps and backtracks still
# fire.
def _regular_tight(rng: random.Random, p: dict) -> list[Instance]:
    d, n, k = p["degree"], p["n"], p["k"]
    out = []
    for i in range(p["graphs_per_batch"]):
        nv, edges = random_regular(d, n, rng)
        budget = p["budget_per_edge"] * len(edges)
        out.append(Instance(
            f"regular{i}", "color", nv, edges,
            ("--k", str(k), "--no-fallback", "--move-budget", str(budget)),
            expect={"k": k}))
    return out


# chi'_a of each family; relabelling keeps it.  The values were computed
# once with the exact solver and are recorded so that a later change cannot
# alter them unnoticed.  Families whose search size swings widely with the
# labelling (random regular graphs, K8 minus a matching, the icosahedron:
# 6K-39K nodes) are left out, so that the pass time reflects the solver and
# not the seed.  K5,5 (1.3M nodes, 4 s) is left
# out because one call that long gets too few repeats in a run to time
# steadily on a shared machine; K6,6-M (30K-36K nodes) is the largest search.
# Long cycles are left out: from about C1000 on the recursive search raises
# RecursionError, and a benchmark operation must not fail.
EXACT_FAMILIES: dict[str, tuple[Callable[[], tuple[int, Edges]], int]] = {
    "K66-M": (lambda: complete_bipartite(6, 6, [(i, 6 + i) for i in range(6)]), 6),
    "K55-e": (lambda: complete_bipartite(5, 5, [(0, 5)]), 6),
    "Q4": (lambda: from_networkx(nx.hypercube_graph(4)), 5),
    "K7": (lambda: from_networkx(nx.complete_graph(7)), 7),
    "petersen": (lambda: from_networkx(nx.petersen_graph()), 4),
}


def _exact_chi(rng: random.Random, p: dict) -> list[Instance]:
    out = []
    for _ in range(p["relabellings"]):
        for name in p["families"]:
            make, chi = EXACT_FAMILIES[name]
            out.append(Instance(name, "chi-a", *relabel(*make(), rng),
                                expect={"chi_a": chi}))
    return out


def _critical_fact2(rng: random.Random, p: dict) -> list[Instance]:
    return [Instance("sweep", "critical", args=("--n-max", str(p["n_max"])),
                     expect={"critical": p["critical"],
                             "checked_max_m": p["checked_max_m"],
                             "fact2_colorings": p["fact2_colorings"]})]


WORKLOADS: dict[str, Workload] = {w.name: w for w in [
    Workload(
        "sparse_auto",
        "color with mad-chosen palette on uniform m=1.5n (n=300), 10x10 grid, "
        "8x8 hex lattice: mad flows and smallest-last order dominate, M1 "
        "places every edge",
        {"uniform_n": 300, "edge_factor": 1.5, "grid": (10, 10), "hex": (8, 8)},
        rounds=6, build=_sparse_auto,
        spans=("cli.main", "graph.load", "density.mad", "density.flow",
               "solver.order", "colorer.color", "coloring.validate"),
        sites=("aecolor.cli.mad_exact", "aecolor.colorer.deletion_edge_order",
               "aecolor.colorer.has_bichromatic_cycle")),
    Workload(
        "regular_tight",
        "color --k 7 --no-fallback, budget 5m, on random 5-regular n=100 "
        "graphs: at Delta+2 swaps and backtracks fire and no graph fails; "
        "validation and smallest-last order take most of the time",
        {"degree": 5, "n": 100, "k": 7, "budget_per_edge": 5,
         "graphs_per_batch": 7},
        rounds=12, build=_regular_tight,
        spans=("cli.main", "graph.load", "solver.order", "colorer.color",
               "coloring.validate"),
        sites=("aecolor.colorer.deletion_edge_order",
               "aecolor.colorer.has_bichromatic_cycle")),
    Workload(
        "exact_chi",
        "chi-a on ten relabellings each of K6,6-M, K5,5-e, Q4, K7 and the "
        "Petersen graph: exact search (30K nodes on K6,6-M) dominates",
        {"families": list(EXACT_FAMILIES), "relabellings": 10},
        rounds=1, build=_exact_chi,
        spans=("cli.main", "graph.load", "solver.chi_a", "solver.decide",
               "solver.order", "coloring.validate"),
        sites=("aecolor.solver.deletion_edge_order",
               "aecolor.solver.has_bichromatic_cycle")),
    Workload(
        "critical_fact2",
        "critical-sweep n<=7, then lemmas, fact2_sweep and chi-a on the "
        "relabelled critical graphs with m<=9 (K4, K3,3): colouring "
        "enumeration and the validator dominate",
        {"n_max": 7, "checked_max_m": 9,
         # (n, m, k) of every critical graph on at most 7 vertices
         "critical": [(4, 6, 4), (6, 9, 4), (6, 12, 5), (6, 14, 6)],
         # acyclic k-colourings over all g - e, by (n, m, k)
         "fact2_colorings": {(4, 6, 4): 288, (6, 9, 4): 3888}},
        rounds=1, build=_critical_fact2,
        spans=("cli.main", "structure.sweep", "solver.critical", "solver.decide",
               "structure.lemma", "structure.fact2_sweep", "solver.enum",
               "structure.fact2_verify", "graph.delete_edge", "coloring.validate"),
        sites=("aecolor.solver.deletion_edge_order",
               "aecolor.solver.has_bichromatic_cycle",
               "aecolor.structure.has_bichromatic_cycle",
               "aecolor.structure.delete_edge")),
]}
