"""Command-line interface: file ingestion, solving, checking, experiments.

Every setting is a command-line flag; none is read from a config file or
the environment.  Exit codes: 0 = success / property holds, 1 = checked and
false (invalid coloring, bound violated), 2 = error or undecided within
budget.  Errors include bad input, an out-of-range number (a zero or
negative solver or move budget, fewer than one experiment trial, a lemma
level below Delta(G), a critical-sweep ``--n-max`` outside [1..7]), an
internal check that failed and a closed stdout; any other exception also
exits 2, reported with its type name.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
import time

from . import colorer
from . import coloring as ck
from . import graph as gc
from .colorer import choose_palette, color_graph, peel_palette
from .density import mad_exact, mad_witness
from .graph import Graph, girth, load_graph
from .solver import SolveBudget, chi_a_exact
from .structure import (
    RULE_SETS,
    critical_sweep,
    discharge,
    discharging_contradiction_report,
    lemma_suite,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_ERROR = 2

# fixed visual palette for DOT export; the palette index stays authoritative
DOT_COLORS = [
    "red", "blue", "green", "orange", "purple", "brown",
    "cyan", "magenta", "gold", "darkgreen", "navy", "gray",
]


def _unrank_pair(n: int, r: int) -> tuple[int, int]:
    """The r-th pair of ``combinations(range(n), 2)``.

    Counted from the last pair, rank b lies in the row of first vertex
    n - 2 - k for the largest k with k(k+1)/2 <= b, since the rows after
    it hold 1, 2, ..., k pairs; its offset from that row's last pair
    (n - 2 - k, n - 1) is b - k(k+1)/2.
    """
    back = n * (n - 1) // 2 - 1 - r
    k = (math.isqrt(8 * back + 1) - 1) // 2
    return n - 2 - k, n - 1 - (back - k * (k + 1) // 2)


def generate_sparse(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple graph with n vertices and m edges, in O(m).

    ``random.sample`` draws the same indices from any population of the
    same length, so sampling ranks and unranking them gives the graph that
    sampling the list of all pairs gave, without building that list.
    """
    limit = n * (n - 1) // 2
    if m > limit:
        raise ValueError(f"m={m} exceeds the {limit} possible edges on {n} vertices")
    rng = random.Random(seed)
    pairs = [_unrank_pair(n, r) for r in rng.sample(range(limit), m)]
    return gc.build_graph(n, pairs)


def _emit(payload: dict) -> None:
    # one line: json.dumps runs the C encoder, json.dump and indent do not.
    # Every payload is a fresh tree built by its command, so the circular
    # reference check has nothing to find.
    sys.stdout.write(json.dumps(payload, default=str, check_circular=False) + "\n")
    sys.stdout.flush()  # a closed stdout fails here, inside main's handlers


def _coloring_triples(g: Graph, c: ck.EdgeColoring) -> list[list[int]]:
    return [[u, v, col] for (u, v), col in zip(g.edges, c.colors)]


def write_dot(g: Graph, c: ck.EdgeColoring, path: str) -> None:
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for (u, v), col in zip(g.edges, c.colors):
        if not col:
            lines.append(f'  {u} -- {v} [style=dashed, label="?"];')
        else:
            name = DOT_COLORS[(col - 1) % len(DOT_COLORS)]
            lines.append(f'  {u} -- {v} [color={name}, label="{col}"];')
    lines.append("}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# --- subcommands --------------------------------------------------------------

def cmd_chi_a(args) -> int:
    g = load_graph(args.file)
    result = chi_a_exact(g, SolveBudget(args.budget_nodes, args.budget_secs), args.max_k)
    # chi_a_exact searches no k above --max-k; only the edgeless graph's 0
    # can exceed a negative one
    if args.max_k is not None and (
            result.decided_up_to >= args.max_k if result.chi_a is None
            else result.chi_a > args.max_k):
        _emit({"chi_a": None, "decided_up_to": args.max_k,
               "note": f"exceeds --max-k {args.max_k}"})
        return EXIT_FALSE
    payload = {
        "chi_a": result.chi_a,
        "decided_up_to": result.decided_up_to,
        "lower_bound": result.lower_bound,
        "lower_bound_witness": result.lower_bound_witness,
        "coloring": _coloring_triples(g, result.coloring) if result.coloring else None,
        "nodes": result.nodes,
    }
    _emit(payload)
    return EXIT_OK if result.chi_a is not None else EXIT_ERROR


def cmd_mad(args) -> int:
    g = load_graph(args.file)
    value, witness = mad_witness(g)
    _emit({
        "mad": str(value),
        "witness": witness,
        "bounds": {"lt4": value < 4, "lt3": value < 3},
    })
    return EXIT_OK


def cmd_check(args) -> int:
    g = load_graph(args.graph)
    with open(args.coloring, encoding="utf-8") as f:
        c = ck.parse_coloring(f.read(), g)
    try:
        cycle = ck.has_bichromatic_cycle(g, c)
    except ck.ImproperColoringError as exc:
        _emit({"valid": False, "reason": "not-proper", "vertex": exc.vertex})
        return EXIT_FALSE
    if cycle is not None:
        _emit({"valid": False, "reason": "bichromatic-cycle",
               "colors": list(cycle.colors), "vertices": list(cycle.vertices)})
        return EXIT_FALSE
    _emit({"valid": True, "total": c.is_total(),
           "colors_used": len(c.colors_used())})
    return EXIT_OK


def cmd_color(args) -> int:
    g = load_graph(args.file)
    # the colorer's smallest-last order, computed once: walked for the
    # palette, then reversed to insert the edges
    order = colorer.deletion_edge_order(g)
    if args.k is not None:
        k, guarantee, palette_from = args.k, "explicit", "explicit"
    elif (palette := peel_palette(g, order)) is not None:
        (k, guarantee), palette_from = palette, "peel"
    else:
        (k, guarantee), palette_from = choose_palette(g, mad_exact(g)), "mad"
    report = color_graph(
        g, k,
        move_budget=args.move_budget,
        fallback=not args.no_fallback,
        solve_budget=SolveBudget(args.budget_nodes, args.budget_secs),
        order=order,
    )
    payload = {
        "outcome": report.outcome,
        "k": k,
        "guarantee": guarantee,
        "palette_from": palette_from,
        "colors_used": report.colors_used,
        "move_counts": report.move_counts,
        "moves_spent": report.moves_spent,
        "coloring": _coloring_triples(g, report.coloring),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(ck.format_coloring(g, report.coloring))
        payload["coloring_file"] = args.out
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            json.dump([list(m) for m in report.trace], f)
        payload["trace_file"] = args.trace
    if args.dot:
        write_dot(g, report.coloring, args.dot)
        payload["dot_file"] = args.dot
    _emit(payload)
    return EXIT_OK if report.outcome != "failure" else EXIT_FALSE


def cmd_lemmas(args) -> int:
    g = load_graph(args.file)
    results = lemma_suite(g, args.k)
    _emit({
        "k": args.k,
        "predicates": [
            {"lemma": r.lemma_id, "holds": r.holds, "applicable": r.applicable,
             "witness": r.witness, "note": r.note}
            for r in results
        ],
    })
    failed = any(r.applicable and not r.holds for r in results)
    return EXIT_FALSE if failed else EXIT_OK


def cmd_discharge(args) -> int:
    g = load_graph(args.file)
    value = mad_exact(g)
    bound = RULE_SETS[args.rules].bound
    # the report runs the discharging pass itself; reuse its charges
    report = discharging_contradiction_report(g, args.rules, value) if value < bound else None
    state = report.state if report is not None else discharge(g, args.rules)
    payload = {
        "rules": args.rules,
        "total_initial": str(state.total_initial),
        "total_final": str(state.total_final),
        "negative_vertices": state.negative_vertices(),
        "transfers": [[r, a, b, str(x)] for r, a, b, x in state.transfers],
        "mad": str(value),
    }
    if report is not None:
        payload["contradiction_report"] = {
            "total_initial_negative": state.total_initial < 0,
            "negative_vertices": state.negative_vertices(),
            "failing_predicates": [r.lemma_id for r in report.failing_predicates],
        }
    else:
        payload["note"] = f"mad(G) = {value} does not meet mad < {bound}"
    _emit(payload)
    return EXIT_OK


def cmd_critical_sweep(args) -> int:
    records = critical_sweep(args.n_max, SolveBudget(args.budget_nodes, args.budget_secs))
    payload = {
        "n_max": args.n_max,
        "critical": [
            {"n": r.graph.n, "edges": [list(e) for e in r.graph.edges],
             "k": r.k, "status": r.report.status}
            for r in records
        ],
    }
    _emit(payload)
    unknown = any(r.report.status == "unknown" for r in records)
    return EXIT_ERROR if unknown else EXIT_OK


# --- experiments ---------------------------------------------------------------

EDGE_FACTOR = 1.9  # a trial's largest m as a fraction of n


def _theorem_trial(name: str, n: int, seed: int) -> dict:
    """One experiment instance on a graph drawn from ``seed``."""
    rng = random.Random(seed)
    m = rng.randint(max(1, n // 2), max(1, int(n * EDGE_FACTOR)))
    m = min(m, n * (n - 1) // 2)
    g = generate_sparse(n, m, seed)
    value = mad_exact(g)
    record = {
        "seed": seed, "n": n, "m": m, "delta": g.max_degree(),
        "girth": str(girth(g)), "mad": str(value),
    }
    start = time.monotonic()
    if name in ("theorem2", "theorem3"):
        bound = 4 if name == "theorem2" else 3
        slack = 2 if name == "theorem2" else 1
        if value >= bound:
            record["skipped"] = f"mad >= {bound}"
            return record
        result = chi_a_exact(g, SolveBudget(50_000_000, 120))
        record["chi_a"] = result.chi_a
        record["bound"] = g.max_degree() + slack
        record["ok"] = result.chi_a is not None and result.chi_a <= record["bound"]
    elif name == "colorer":
        if value >= 4:
            record["skipped"] = "mad >= 4"
            return record
        report = color_graph(g, g.max_degree() + 2)
        record["outcome"] = report.outcome
        record["move_counts"] = report.move_counts
        record["ok"] = report.outcome in ("success", "fallback-success")
    else:
        raise ValueError(f"unknown experiment {name!r}")
    record["seconds"] = round(time.monotonic() - start, 3)
    return record


def run_experiment(name: str, n: int, trials: int, seed: int) -> dict:
    """Run the trials in order; trial i draws its graph from
    ``seed * 1_000_003 + i``.  A trial count below 1 raises ValueError."""
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    records = [_theorem_trial(name, n, seed * 1_000_003 + i) for i in range(trials)]
    usable = [r for r in records if "skipped" not in r]
    failures = [r for r in usable if not r.get("ok")]
    return {
        "experiment": name,
        "trials": trials,
        "usable": len(usable),
        "violations": len(failures),
        "records": records,
    }


def cmd_experiment(args) -> int:
    summary = run_experiment(args.name, args.n, args.trials, args.seed)
    _emit(summary)
    return EXIT_FALSE if summary["violations"] else EXIT_OK


# --- parser --------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one.

    Building it costs about as much as a small ``chi-a``, so in-process
    callers of ``main`` pay it once; it is not built at import.  It holds
    no handlers: ``main`` looks ``cmd_<command>`` up when it is called.
    """
    parser = argparse.ArgumentParser(
        prog="aecolor",
        description="Acyclic edge coloring: exact solver, heuristic colorer, "
                    "mad computation, and critical-graph structure checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    default = SolveBudget()

    def budget_flags(p):
        p.add_argument("--budget-nodes", type=int, default=default.max_nodes)
        p.add_argument("--budget-secs", type=float, default=default.max_seconds)

    p = sub.add_parser("chi-a", help="exact acyclic chromatic index")
    p.add_argument("file")
    p.add_argument("--max-k", type=int, default=None)
    budget_flags(p)

    p = sub.add_parser("mad", help="exact maximum average degree")
    p.add_argument("file")

    p = sub.add_parser("check", help="validate a coloring file")
    p.add_argument("graph")
    p.add_argument("coloring")

    p = sub.add_parser("color", help="constructive acyclic coloring")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--move-budget", type=int, default=None)
    p.add_argument("--no-fallback", action="store_true")
    p.add_argument("--out", default=None, help="write coloring file here")
    p.add_argument("--trace", default=None, help="write move trace JSON here")
    p.add_argument("--dot", default=None, help="write DOT drawing here")
    budget_flags(p)

    p = sub.add_parser("lemmas", help="critical-graph lemma predicates")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("discharge", help="run a discharging rule set")
    p.add_argument("file")
    p.add_argument("--rules", choices=list(RULE_SETS), required=True)

    p = sub.add_parser("critical-sweep", help="find small critical graphs")
    p.add_argument("--n-max", type=int, default=7)
    budget_flags(p)

    p = sub.add_parser("experiment", help="randomized experiment harness")
    p.add_argument("name", choices=["theorem2", "theorem3", "colorer"])
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except BrokenPipeError:
        # the reader closed stdout: nothing can be reported, and the
        # interpreter's exit flush must not fail again on the dead pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except Exception as exc:
        # bad input and failed checks raise ValueError (ParseError, GraphError
        # and ColoringError among them) or OSError with a message that says
        # it all; anything else is named by its type
        known = isinstance(exc, (ValueError, OSError))
        _emit({"error": str(exc) if known else f"{type(exc).__name__}: {exc}"})
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
