"""Trace ``aecolor color`` at the sizes of the ROADMAP baseline table.

Run from the root of a source checkout:

    python3 perfbench/reconcile.py

For each n of the table it builds one uniform sparse graph with m = 1.5n,
runs the CLI once under the span tracer, and prints the four layer times
the table lists.  BASELINE.md records one run and compares it with the
table.
"""

from __future__ import annotations

import json
import os
import random
import tempfile

from corpus import uniform_sparse, write_edge_list
from run import call_cli, import_program
from tracer import Tracer, summarize

SEED = 0
SIZES = (1000, 3000)  # the n of the ROADMAP baseline table


def main() -> None:
    aecolor = import_program(os.getcwd())
    outdir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(outdir, exist_ok=True)
    for n in SIZES:
        nv, edges = uniform_sparse(n, 3 * n // 2, random.Random(f"{SEED}/{n}"))
        with tempfile.TemporaryDirectory(dir=outdir) as tmp:
            path = os.path.join(tmp, "g.txt")
            write_edge_list(path, nv, edges)
            tracer = Tracer()
            tracer.install()
            try:
                rc, report, _, err = call_cli(aecolor, ["color", path])
            finally:
                tracer.uninstall()
        if err:
            raise SystemExit(f"n={n}: {err}")
        s = summarize(tracer.spans)
        row = {
            "n": n, "m": len(edges), "exit": rc, "outcome": report["outcome"],
            "k": report["k"], "move_counts": report["move_counts"],
            "wall_s": round(s["top"], 3),
            "solver.order_s": round(s["inclusive"]["solver.order"], 3),
            "density.mad_s": round(s["inclusive"]["density.mad"], 3),
            "density.flow_calls": s["count"]["density.flow"],
            "colorer.cascade_s": round(s["self"]["colorer.color"], 3),
            "coloring.validate_s": round(s["layer_self"]["coloring"], 3),
        }
        print(json.dumps(row))


if __name__ == "__main__":
    main()
