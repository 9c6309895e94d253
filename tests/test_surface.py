"""The package's public surface, what importing it loads, and the functions
the benchmark traces.

``perfbench/tracer.py`` wraps each of its ``TARGETS`` by name; a target the
package no longer defines is reported as a coverage miss by the traced
benchmark.  Checking the names here makes such a deletion fail the tests.
"""

import copy
import importlib
import importlib.util
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import aecolor
from aecolor.colorer import ColoringReport
from aecolor.coloring import ColoringError, EdgeColoring
from aecolor.graph import build_graph
from aecolor.solver import ChiAResult, SolveBudget
from aecolor.structure import ChargeState
from conftest import petersen

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _resolves(target) -> bool:
    """The tracer's own lookup: a module function, or a method defined in
    the class body for a "Class.method" name."""
    module = importlib.import_module(target.module)
    cls_name, _, attr = target.name.rpartition(".")
    if cls_name:
        holder = getattr(module, cls_name, None)
        return isinstance(holder, type) and callable(vars(holder).get(attr))
    return callable(getattr(module, attr, None))


def test_all_names_resolve():
    missing = [name for name in aecolor.__all__ if not hasattr(aecolor, name)]
    assert missing == []


def test_traced_targets_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # dataclasses looks its defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    missing = [f"{t.module}.{t.name}" for t in tracer.TARGETS if not _resolves(t)]
    assert tracer.TARGETS
    assert missing == []


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's
    package; pytest has loaded networkx into its own."""
    src = os.path.dirname(os.path.dirname(aecolor.__file__))
    return subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)


def test_import_loads_neither_networkx_nor_multiprocessing():
    """Importing the package or its CLI, or running an experiment, loads
    neither networkx (a test dependency only) nor multiprocessing (no
    command uses it)."""
    report = "print(sorted(m for m in ('networkx', 'multiprocessing') if m in sys.modules))"
    for module in ("aecolor", "aecolor.cli"):
        proc = _fresh_python(f"import sys, {module}\n" + report)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module
    proc = _fresh_python(
        "import contextlib, io, sys, aecolor.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = aecolor.cli.main(['experiment', 'colorer', '--n', '8', '--trials', '2'])\n"
        + report + "\n"
        "sys.exit(code)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_and_commands_load_no_dataclasses(tmp_path):
    """Importing the package or its CLI, or running ``chi-a``, ``color`` and
    a small ``critical-sweep`` in process, loads none of dataclasses and the
    modules it pulls in (inspect, ast, dis), which cost every one-shot
    command about 10 ms of start-up."""
    g = petersen()
    graph_file = tmp_path / "petersen.txt"
    graph_file.write_text(f"p {g.n} {g.m}\n" + "".join(f"e {u} {v}\n" for u, v in g.edges))
    report = ("print(sorted(m for m in ('dataclasses', 'inspect', 'ast', 'dis')\n"
              "             if m in sys.modules and m not in before))")
    for module in ("aecolor", "aecolor.cli"):
        proc = _fresh_python(f"import sys\nbefore = set(sys.modules)\nimport {module}\n" + report)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", module
    proc = _fresh_python(
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import aecolor.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [aecolor.cli.main(['chi-a', {str(graph_file)!r}]),\n"
        f"             aecolor.cli.main(['color', {str(graph_file)!r}]),\n"
        "             aecolor.cli.main(['critical-sweep', '--n-max', '5'])]\n"
        "print(codes)\n" + report)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[0, 0, 0]", "[]"]


def test_records_keep_their_value_semantics():
    """Graph, EdgeColoring and SolveBudget are immutable values that check
    their fields, compare by value and survive copy and pickle; the result
    records with a list field give each default-constructed record a list
    of its own."""
    values = [build_graph(3, [(0, 1), (1, 2)]), EdgeColoring(2, (1, 2)), SolveBudget()]
    for value, field in zip(values, ("edges", "colors", "max_nodes")):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 0
        assert copy.copy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value
    # SolveBudget() is the shared default of the search functions' budgets
    assert (SolveBudget().max_nodes, SolveBudget().max_seconds) == (200_000_000, 600.0)
    for bad in (lambda: SolveBudget(0), lambda: SolveBudget(max_seconds=math.nan),
                lambda: SolveBudget(max_nodes=-1), lambda: SolveBudget(10, 0.0)):
        with pytest.raises(ValueError, match="budget limits must be positive"):
            bad()
    with pytest.raises(ColoringError, match=r"color 3 on edge 1 outside \[0..2\]"):
        EdgeColoring(2, (1, 3, -1))
    with pytest.raises(ColoringError, match=r"color -1 on edge 0 outside \[0..2\]"):
        EdgeColoring(2, (-1, 3))
    assert EdgeColoring(2, ()).colors == ()

    g = petersen()
    assert g == petersen() and hash(g) == hash(petersen())
    assert g != build_graph(g.n, g.edges[1:]) and g != (g.n, g.edges)
    assert EdgeColoring(2, (1, 2)) == EdgeColoring(2, (1, 2)) != EdgeColoring(3, (1, 2))
    assert {SolveBudget(5), SolveBudget(5)} == {SolveBudget(5, 600.0)}
    assert repr(build_graph(2, [(0, 1)])) == "Graph(n=2, edges=((0, 1),))"

    for make, field in ((lambda: ChiAResult(None, 0), "lower_bound_witness"),
                        (lambda: ChargeState("mad3", {}, {}), "transfers"),
                        (lambda: ColoringReport("success", 0, EdgeColoring(0, ()), 0, {}, 0),
                         "trace")):
        first, second = make(), make()
        getattr(first, field).append(1)
        assert getattr(second, field) == []
        assert first != second and make() == second


def test_critical_sweep_runs_without_networkx():
    """The sweep reads its graph classes from the packaged atlas file: an
    interpreter that cannot import networkx finds the four critical graphs
    on at most 7 vertices, and never loads it."""
    proc = _fresh_python(
        "import sys\n"
        "sys.modules['networkx'] = None  # any import of networkx now fails\n"
        "import aecolor.cli\n"
        "code = aecolor.cli.main(['critical-sweep', '--n-max', '7'])\n"
        "print(sys.modules['networkx'] is None)\n"
        "sys.exit(code)")
    assert proc.returncode == 0, proc.stderr
    report, blocked = proc.stdout.splitlines()
    critical = json.loads(report)["critical"]
    assert [(r["n"], len(r["edges"]), r["k"]) for r in critical] == [
        (4, 6, 4), (6, 9, 4), (6, 12, 5), (6, 14, 6)]
    assert {r["status"] for r in critical} == {"critical"}
    assert blocked == "True"
