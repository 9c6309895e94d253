"""Span tracer that wraps ``aecolor`` functions from outside the package.

``from x import f`` copies the binding, so wrapping ``f`` in its defining
module would miss every caller that imported it.  ``Tracer.install`` finds
every binding of each target function in every loaded ``aecolor`` module by
identity and replaces each one, so new import sites are covered without
listing them.  Spans (name, start, end, parent) are kept in memory;
``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    module: str          # defining module
    name: str            # function, or "Class.method"
    span: str            # "<layer>.<what>"
    generator: bool = False  # time each next() instead of the call
    nodes: bool = False      # add result.nodes to the "solver.nodes" tally


TARGETS = [
    Target("aecolor.cli", "main", "cli.main"),
    Target("aecolor.graph", "load_graph", "graph.load"),
    Target("aecolor.graph", "delete_edge", "graph.delete_edge"),
    Target("aecolor.density", "mad_exact", "density.mad"),
    Target("aecolor.density", "density_at_least", "density.threshold"),
    Target("aecolor.density", "_Dinic.max_flow", "density.flow"),
    Target("aecolor.solver", "deletion_edge_order", "solver.order"),
    Target("aecolor.solver", "is_acyclically_k_colorable", "solver.decide",
           nodes=True),
    Target("aecolor.solver", "chi_a_exact", "solver.chi_a"),
    Target("aecolor.solver", "is_critical", "solver.critical"),
    Target("aecolor.solver", "enumerate_acyclic_colorings", "solver.enum",
           generator=True),
    Target("aecolor.colorer", "color_graph", "colorer.color"),
    Target("aecolor.coloring", "has_bichromatic_cycle", "coloring.validate"),
    Target("aecolor.coloring", "properness_violation", "coloring.proper"),
    Target("aecolor.coloring", "is_proper", "coloring.is_proper"),
    Target("aecolor.structure", "critical_sweep", "structure.sweep"),
    Target("aecolor.structure", "lemma_suite", "structure.lemma"),
    Target("aecolor.structure", "fact2_sweep", "structure.fact2_sweep"),
    Target("aecolor.structure", "fact2_verify", "structure.fact2_verify"),
]

def _site_name(holder) -> str:
    if isinstance(holder, type):
        return f"{holder.__module__}.{holder.__qualname__}"
    return holder.__name__


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.tally: Counter[str] = Counter()
        self.hits: Counter[str] = Counter()  # site -> calls
        self.sites: list[str] = []
        self.absent: list[str] = []  # targets the program no longer has
        self.broken = ""             # first nesting violation seen
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if not self._stack or self._stack[-1] != idx:
            self.broken = self.broken or f"span {self.spans[idx][0]} closed out of order"
        if idx in self._stack:
            del self._stack[self._stack.index(idx):]

    def reset(self) -> None:
        if self._stack:
            self.broken = self.broken or "spans left open"
        self.spans, self.tally, self._stack = [], Counter(), []

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, target: Target, site: str):
        tracer = self
        if target.generator:
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                tracer.hits[site] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(target.span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.hits[site] += 1
            idx = tracer._open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if target.nodes:
                tracer.tally["solver.nodes"] += result.nodes
            return result
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "aecolor" or name.startswith("aecolor."))]
        for t in TARGETS:
            owner = sys.modules.get(t.module)
            cls_name, _, attr = t.name.rpartition(".")
            if cls_name:
                holder = getattr(owner, cls_name, None)
                original = vars(holder).get(attr) if isinstance(holder, type) else None
                sites = [(holder, attr)] if original is not None else []
            else:
                original = getattr(owner, attr, None)
                sites = [(m, name) for m in modules
                         for name, value in list(vars(m).items()) if value is original]
            if original is None:
                if f"{t.module}.{t.name}" not in self.absent:
                    self.absent.append(f"{t.module}.{t.name}")
                continue
            for holder, name in sites:
                site = f"{_site_name(holder)}.{name}"
                setattr(holder, name, self._wrap(original, t, site))
                self._saved.append((holder, name, original))
                if site not in self.sites:
                    self.sites.append(site)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._saved):
            setattr(holder, name, original)
        self._saved.clear()


def summarize(spans: list[list]) -> dict:
    """Per-span-name count, inclusive time of outermost spans, self time,
    and per-layer self time.  Raises ValueError if a child span does not
    lie inside its parent."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            p = spans[parent]
            if start < p[1] or end > p[2]:
                raise ValueError(f"span {name} lies outside its parent {p[0]}")
            child[parent] += dur[i]
    count: Counter[str] = Counter()
    inclusive: Counter[str] = Counter()
    self_time: Counter[str] = Counter()
    layer_self: Counter[str] = Counter()
    parent_name: Counter[tuple[str, str]] = Counter()
    top = 0.0
    for i, (name, _, _, parent) in enumerate(spans):
        count[name] += 1
        own = dur[i] - child[i]
        self_time[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if parent < 0:
            top += dur[i]
        else:
            parent_name[(spans[parent][0], name)] += 1
        # inclusive time counts only the outermost span of each name
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            inclusive[name] += dur[i]
    return {"count": count, "inclusive": inclusive, "self": self_time,
            "layer_self": layer_self, "top": top, "parent_name": parent_name}
