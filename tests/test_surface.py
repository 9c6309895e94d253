"""The package's public surface, what importing it loads, and the functions
the benchmark traces.

``perfbench/tracer.py`` wraps each of its ``TARGETS`` by name; a target the
package no longer defines is reported as a coverage miss by the traced
benchmark.  Checking the names here makes such a deletion fail the tests.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import aecolor

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
