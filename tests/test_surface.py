"""The package's public surface and the functions the benchmark traces.

``perfbench/tracer.py`` wraps each of its ``TARGETS`` by name; a target the
package no longer defines is reported as a coverage miss by the traced
benchmark.  Checking the names here makes such a deletion fail the tests.
"""

import importlib
import importlib.util
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
