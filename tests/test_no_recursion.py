"""No function in ``aecolor`` calls itself, and nothing there leans on the
interpreter's recursion limit.

Every search and flow keeps its state on an explicit stack, so input depth
is bounded by memory, not by ``sys.getrecursionlimit()``: ``chi-a`` on a
10,000-edge cycle returns 3.  This check parses each module and fails on a
call to the enclosing function's own name (directly, or as ``self.`` or
``cls.`` plus that name) and on any mention of ``RecursionError`` or of the
recursion limit.
"""

import ast
from pathlib import Path

import aecolor

SOURCES = sorted(Path(aecolor.__file__).parent.glob("*.py"))


def _self_calls(tree):
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id == fn.name:
                yield fn.name, node.lineno
            elif (isinstance(f, ast.Attribute) and f.attr == fn.name
                  and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                yield fn.name, node.lineno


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"solver.py", "density.py", "colorer.py"}


def test_no_function_calls_itself():
    found = [(p.name, name, line) for p in SOURCES
             for name, line in _self_calls(ast.parse(p.read_text(), str(p)))]
    assert found == []


def test_no_recursion_limit_handling():
    found = [(p.name, word) for p in SOURCES
             for word in ("RecursionError", "recursionlimit")
             if word in p.read_text()]
    assert found == []
