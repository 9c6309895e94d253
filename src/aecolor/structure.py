"""Executable structure theory: critical-graph lemma predicates, Fact-2
verification, and the two discharging rule sets.

The predicates are pure structural checks evaluable on any graph; whether a
graph actually satisfies the criticality hypothesis is decided separately by
the exact solver, so tests can exhibit both vacuous and violating cases.
A failing predicate's witness names the lowest-numbered failing vertex and,
where it names a neighbor, the lowest-numbered failing neighbor of it.
"""

from __future__ import annotations

import functools
import math
import os
from fractions import Fraction
from typing import Callable, Iterator, Literal, NamedTuple

from .coloring import ColoringError, EdgeColoring, _color_at, has_bichromatic_cycle
from .graph import Graph, build_graph, delete_edge, is_2_connected, n_k
from .solver import (
    CriticalityReport,
    SolveBudget,
    enumerate_acyclic_colorings,
    is_critical,
)


class LemmaPredicateResult(NamedTuple):
    lemma_id: str
    holds: bool
    applicable: bool = True
    witness: dict | None = None
    note: str = ""


def check_2connected(g: Graph) -> LemmaPredicateResult:
    """Critical graphs are 2-connected."""
    ok = is_2_connected(g)
    return LemmaPredicateResult("2-connected", ok,
                                witness=None if ok else {"graph": "not 2-connected"})


def _scan(lemma_id: str, g: Graph,
          failure: Callable[[int], dict | None]) -> LemmaPredicateResult:
    """Holds unless ``failure`` returns a witness for some vertex; the result
    carries the lowest such vertex's witness."""
    for v in range(g.n):
        witness = failure(v)
        if witness is not None:
            return LemmaPredicateResult(lemma_id, False, witness=witness)
    return LemmaPredicateResult(lemma_id, True)


def check_2vertex_neighborhood(g: Graph, k: int) -> LemmaPredicateResult:
    """Every vertex adjacent to a 2-vertex has at least k-Delta+1 neighbors
    of degree at least k-Delta+2.  Hypothesis: k <= 2*Delta - 2."""
    delta = g.max_degree()
    if k > 2 * delta - 2:
        return LemmaPredicateResult("2-vertex-neighborhood", True, applicable=False,
                                    note=f"hypothesis k<=2*Delta-2 fails (k={k}, Delta={delta})")
    need_count = k - delta + 1
    need_deg = k - delta + 2

    def failure(v: int) -> dict | None:
        if n_k(g, v, 2) != 0:
            strong = sum(1 for w in g.neighbors(v) if g.degree(w) >= need_deg)
            if strong < need_count:
                return {"vertex": v, "strong_neighbors": strong, "required": need_count}
        return None
    return _scan("2-vertex-neighborhood", g, failure)


def check_2vertex_count(g: Graph) -> LemmaPredicateResult:
    """At k = Delta+1: every vertex has n_2(v) <= Delta - 2."""
    bound = g.max_degree() - 2

    def failure(v: int) -> dict | None:
        n2 = n_k(g, v, 2)
        return {"vertex": v, "n2": n2, "bound": bound} if n2 > bound else None
    return _scan("2-vertex-count", g, failure)


def check_2and3_count(g: Graph) -> LemmaPredicateResult:
    """At k = Delta+2: if n_2(v) != 0 then n_2(v)+n_3(v) <= Delta - 3."""
    bound = g.max_degree() - 3

    def failure(v: int) -> dict | None:
        n2 = n_k(g, v, 2)
        if n2 != 0 and n2 + n_k(g, v, 3) > bound:
            return {"vertex": v, "n2": n2, "n3": n_k(g, v, 3), "bound": bound}
        return None
    return _scan("2-and-3-vertex-count", g, failure)


def _neighbors_at_least(lemma_id: str, g: Graph, d: int,
                        threshold: int) -> LemmaPredicateResult:
    """Every d-vertex has only neighbors of degree at least ``threshold``."""
    def failure(v: int) -> dict | None:
        if g.degree(v) == d:
            for w in g.neighbors(v):
                if g.degree(w) < threshold:
                    return {"vertex": v, "neighbor": w,
                            "degree": g.degree(w), "threshold": threshold}
        return None
    return _scan(lemma_id, g, failure)


def check_neighbor_of_2vertex(g: Graph, k: int) -> LemmaPredicateResult:
    """At k > Delta: every 2-vertex has only neighbors of degree
    at least k - Delta + 3."""
    return _neighbors_at_least("neighbor-of-2-vertex", g, 2, k - g.max_degree() + 3)


def check_3vertex_neighbors(g: Graph, k: int) -> LemmaPredicateResult:
    """At k >= Delta+2: every 3-vertex has only neighbors of degree
    at least k - Delta + 2."""
    delta = g.max_degree()
    if k < delta + 2:
        return LemmaPredicateResult("3-vertex-neighbors", True, applicable=False,
                                    note=f"hypothesis k>=Delta+2 fails (k={k})")
    return _neighbors_at_least("3-vertex-neighbors", g, 3, k - delta + 2)


def check_3adj4(g: Graph) -> LemmaPredicateResult:
    """At k = Delta+2: a 3-vertex v with a 4-neighbor x has its other two
    neighbors y, z of degree >= 5, with one of them adjacent to at least
    three 4+-vertices and the other to at least two (three if its degree
    is exactly 5).

    The two roles are assigned symmetrically: the predicate holds if some
    assignment of (y, z) to the roles satisfies all clauses.
    """
    def strong(w: int) -> int:
        return sum(1 for x in g.neighbors(w) if g.degree(x) >= 4)

    def roles_met(p: int, q: int) -> bool:
        return strong(p) >= 3 and strong(q) >= (3 if g.degree(q) == 5 else 2)

    def failure(v: int) -> dict | None:
        nbrs = g.neighbors(v)
        if g.degree(v) != 3 or not any(g.degree(x) == 4 for x in nbrs):
            return None
        x = min(w for w in nbrs if g.degree(w) == 4)
        y, z = others = [w for w in nbrs if w != x]
        if g.degree(y) < 5 or g.degree(z) < 5:
            return {"vertex": v, "four_neighbor": x, "others": others,
                    "degrees": [g.degree(y), g.degree(z)]}
        if not (roles_met(y, z) or roles_met(z, y)):
            return {"vertex": v, "four_neighbor": x, "others": others,
                    "strong_counts": [strong(y), strong(z)]}
        return None
    return _scan("3-adjacent-4", g, failure)


def check_tvertex_2s(g: Graph) -> LemmaPredicateResult:
    """At k = Delta+2: a t-vertex with t >= 5 has n_2(v) <= t - 4, and when
    equality holds, n_3(v) = 0."""
    def failure(v: int) -> dict | None:
        t = g.degree(v)
        if t < 5:
            return None
        n2 = n_k(g, v, 2)
        if n2 > t - 4:
            return {"vertex": v, "n2": n2, "bound": t - 4}
        if n2 == t - 4 and n_k(g, v, 3) != 0:
            return {"vertex": v, "n2": n2, "n3": n_k(g, v, 3),
                    "note": "equality case requires n3 = 0"}
        return None
    return _scan("t-vertex-2-count", g, failure)


def check_5vertex(g: Graph) -> LemmaPredicateResult:
    """At k = Delta+2: every 5-vertex has n_2(v) + n_3(v) <= 3."""
    def failure(v: int) -> dict | None:
        if g.degree(v) == 5 and n_k(g, v, 2) + n_k(g, v, 3) > 3:
            return {"vertex": v, "n2_plus_n3": n_k(g, v, 2) + n_k(g, v, 3)}
        return None
    return _scan("5-vertex", g, failure)


def lemma_suite(g: Graph, k: int) -> list[LemmaPredicateResult]:
    """All predicates applicable to a graph hypothesized critical at k.

    Predicates tied to the Delta+2 setting run only when k = Delta+2; the
    Delta+1 corollary runs only at k = Delta+1.  A k below Delta raises
    ValueError: no proper k-coloring exists, so there is nothing critical
    to describe.
    """
    delta = g.max_degree()
    if k < delta:
        raise ValueError(f"level k = {k} is below Delta(G) = {delta}")
    results = [
        check_2connected(g),
        check_2vertex_neighborhood(g, k),
    ]
    if k > delta:
        results.append(check_neighbor_of_2vertex(g, k))
    if k == delta + 1:
        results.append(check_2vertex_count(g))
    if k >= delta + 2:
        results.append(check_3vertex_neighbors(g, k))
    if k == delta + 2:
        results.extend([
            check_2and3_count(g),
            check_3adj4(g),
            check_tvertex_2s(g),
            check_5vertex(g),
        ])
    return results


# --- Fact 2 ------------------------------------------------------------------

class Fact2Result(NamedTuple):
    holds: bool
    t: int


def fact2_verify(g: Graph, k: int, e: int, c: EdgeColoring) -> Fact2Result:
    """Check the degree-sum inequalities for one acyclic k-coloring of g - e.

    With uv = e deleted and F_u, F_v the colors at u and v: if the sets are
    disjoint, d(u) + d(v) >= k + 2 must hold; if they share t colors with
    matched neighbors u_i, v_i, both sums over the matched neighbors'
    degrees plus d(u) + d(v) must reach k + t + 2.

    ``c`` colors g - e (ids as ``delete_edge`` gives them) and is checked
    as the coloring of g that leaves e uncolored, with the same colored edges.
    """
    u, v = g.endpoints(e)
    if len(c.colors) != g.m - 1:
        raise ColoringError(f"coloring has {len(c.colors)} entries, graph has {g.m - 1} edges")
    c = EdgeColoring(c.k, c.colors[:e] + (0,) + c.colors[e:])
    # an improper coloring raises ImproperColoringError, a ValueError
    if has_bichromatic_cycle(g, c) is not None:
        raise ValueError("coloring of g - e is not acyclic")
    fu, fv = _color_at(g, c, u), _color_at(g, c, v)
    shared = sorted(set(fu) & set(fv))
    du, dv = g.degree(u), g.degree(v)
    if not shared:
        return Fact2Result(du + dv >= k + 2, 0)
    t = len(shared)
    sum_v = sum(g.degree(fv[i]) for i in shared)
    sum_u = sum(g.degree(fu[i]) for i in shared)
    bound = k + t + 2
    return Fact2Result(sum_v + du + dv >= bound and sum_u + du + dv >= bound, t)


def fact2_sweep(
    g: Graph, k: int, budget: SolveBudget = SolveBudget()
) -> tuple[bool, int]:
    """Verify Fact 2 over every acyclic k-coloring of every g - e.

    Returns (all_hold, number of colorings covered).  Intended for graphs
    already certified k-critical.

    Only one coloring per orbit of color renamings is checked (see
    ``enumerate_acyclic_colorings``), and it counts for its whole orbit of
    math.perm(k, j) colorings, j the number of colors it uses.  This is
    exact because a Fact-2 verdict is invariant under renaming: it depends
    on t, the number of colors shared by u and v, and on the matched
    neighbors u_i, v_i joined to u and v by the i-th shared color.
    Renaming maps the shared colors one-to-one onto the shared colors of
    the renamed coloring, so t is kept, and each matched pair keeps its
    neighbors (only the name of their color changes), so every degree sum
    is kept.  Properness and acyclicity, which ``fact2_verify`` re-checks,
    are kept too.

    Raises BudgetExhausted when an enumeration runs out of ``budget``, which
    bounds each g - e separately, and ValueError if k < 0, also when g has
    no edge to delete.
    """
    if k < 0:
        raise ValueError("k must be at least 0")
    checked = 0
    for e in range(g.m):
        gm = delete_edge(g, e)
        for c in enumerate_acyclic_colorings(gm, k, budget):
            checked += math.perm(k, len(c.colors_used()))
            if not fact2_verify(g, k, e, c).holds:
                return False, checked
    return True, checked


# --- discharging -------------------------------------------------------------

RuleSetName = Literal["mad4", "mad3"]


class RuleSet(NamedTuple):
    """One discharging argument: a graph with mad < ``bound`` is shown not
    critical at k = Delta + ``slack``.  Each vertex starts with d(v) - bound
    charge, and every 2-vertex takes ``share`` from each neighbor by rule
    ``rule``."""

    bound: int
    slack: int
    rule: str
    share: Fraction


RULE_SETS: dict[str, RuleSet] = {
    "mad4": RuleSet(4, 2, "R1", Fraction(1)),
    "mad3": RuleSet(3, 1, "R", Fraction(1, 2)),
}


def rule_set(name: str) -> RuleSet:
    """The entry of ``RULE_SETS`` named ``name``; ValueError for any other."""
    try:
        return RULE_SETS[name]
    except KeyError:
        raise ValueError(f"unknown rule set {name!r}") from None


class ChargeState:
    """Charges before and after one discharging pass, and each transfer
    (rule, giver, receiver, amount) in the order it was made; the
    transfer list is the state's own."""

    __slots__ = ("rules", "initial", "final", "transfers")

    def __init__(self, rules: RuleSetName, initial: dict[int, Fraction],
                 final: dict[int, Fraction],
                 transfers: list[tuple[str, int, int, Fraction]] | None = None):
        self.rules = rules
        self.initial = initial
        self.final = final
        self.transfers = [] if transfers is None else transfers

    def _key(self) -> tuple:
        return self.rules, self.initial, self.final, self.transfers

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    @property
    def total_initial(self) -> Fraction:
        return sum(self.initial.values(), Fraction(0))

    @property
    def total_final(self) -> Fraction:
        return sum(self.final.values(), Fraction(0))

    def negative_vertices(self) -> list[int]:
        return [v for v in sorted(self.final) if self.final[v] < 0]


def discharge(g: Graph, rules: RuleSetName) -> ChargeState:
    """Apply one simultaneous discharging pass.

    The rule set's table entry (``RULE_SETS``) gives the initial charges
    and the 2-vertex rule; an unknown name raises ValueError.

    mad4: initial d(v)-4; every 2-vertex takes 1 from each neighbor (R1);
    a 3-vertex adjacent to a 4-vertex takes 1/2 from each adjacent
    5+-vertex, any other 3-vertex takes 1/3 from each neighbor (R2).

    mad3: initial d(v)-3; every 2-vertex takes 1/2 from each neighbor (R).

    Rules are applied literally from the initial degrees: on non-critical
    graphs negative final charges are informative output, not an error.
    """
    rs = rule_set(rules)
    initial = {v: Fraction(g.degree(v) - rs.bound) for v in range(g.n)}
    final = dict(initial)
    transfers: list[tuple[str, int, int, Fraction]] = []

    def give(rule: str, giver: int, receiver: int, amount: Fraction) -> None:
        final[giver] -= amount
        final[receiver] += amount
        transfers.append((rule, giver, receiver, amount))

    for v in range(g.n):
        if g.degree(v) == 2:
            for w in g.neighbors(v):
                give(rs.rule, w, v, rs.share)
    if rules == "mad4":
        for v in range(g.n):
            if g.degree(v) != 3:
                continue
            near_4 = any(g.degree(w) == 4 for w in g.neighbors(v))
            for w in g.neighbors(v):
                if not near_4:
                    give("R2", w, v, Fraction(1, 3))
                elif g.degree(w) >= 5:
                    give("R2", w, v, Fraction(1, 2))
    return ChargeState(rules, initial, final, transfers)


class DischargeReport(NamedTuple):
    failing_predicates: list[LemmaPredicateResult]
    state: ChargeState


def discharging_contradiction_report(
    g: Graph, rules: RuleSetName, mad: Fraction
) -> DischargeReport:
    """Run the discharging argument on a graph meeting the mad hypothesis,
    given ``mad`` = mad(g) (``density.mad_exact``).

    The mad bound forces a negative total initial charge; if vertices end
    negative the graph cannot be critical, and the report cross-references
    which lemma predicates fail on it at k = Delta + slack.  An unknown rule
    set is rejected before the mad hypothesis is checked.
    """
    rs = rule_set(rules)
    if mad >= rs.bound:
        raise ValueError(f"mad(G) = {mad} does not satisfy mad < {rs.bound}")
    state = discharge(g, rules)
    k = g.max_degree() + rs.slack
    failing = [r for r in lemma_suite(g, k) if r.applicable and not r.holds]
    return DischargeReport(failing, state)


# --- small-graph enumeration and the critical sweep --------------------------

# Read and Wilson, "An Atlas of Graphs" (1998): every graph on 0..7 vertices,
# in atlas order, as the NetworkX developers distribute it (BSD-3).  Each
# entry is "GRAPH i", "NODES n" and then one "u v" line per edge.
ATLAS_FILE = os.path.join(os.path.dirname(__file__), "atlas.dat.gz")
ATLAS_SIZE = 1253


def _is_connected(g: Graph) -> bool:
    """A search from vertex 0 reaches every vertex (g has at least one)."""
    seen = {0}
    stack = [0]
    while stack:
        for w in g.neighbors(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


@functools.cache
def _atlas_classes() -> tuple[Graph, ...]:
    """The connected classes of the graph atlas in ``ATLAS_FILE``, in atlas
    order, each with its edges sorted.

    gzip is imported here, so only a caller of the enumeration loads it.  A
    file that is missing, cut short or out of order raises OSError or
    ValueError, which the CLI reports as an error.
    """
    import gzip
    import zlib

    try:
        with gzip.open(ATLAS_FILE, "rb") as f:
            entries = f.read().split(b"GRAPH ")[1:]
    except (EOFError, zlib.error) as exc:
        raise ValueError(f"atlas file {ATLAS_FILE} is damaged: {exc}") from None
    if len(entries) != ATLAS_SIZE:
        raise ValueError(f"atlas file {ATLAS_FILE} holds {len(entries)} graphs, "
                         f"expected {ATLAS_SIZE}")
    classes = []
    for i, entry in enumerate(entries[1:], start=1):  # graph 0 has no vertex
        index, nodes, n, *ends = entry.split()
        if int(index) != i or nodes != b"NODES" or len(ends) % 2:
            raise ValueError(f"atlas file {ATLAS_FILE}: entry {i} is malformed")
        ends = list(map(int, ends))
        g = build_graph(int(n), sorted(
            (u, v) if u < v else (v, u) for u, v in zip(ends[::2], ends[1::2])))
        if _is_connected(g):
            classes.append(g)
    return tuple(classes)


def connected_graphs_upto(n_max: int) -> Iterator[Graph]:
    """All connected graphs on 1..n_max vertices, one per isomorphism class.

    Read from the packaged graph atlas (complete through 7 vertices).  The
    class list is built on the first call and reused by every later call in
    the process; a ``Graph`` is immutable, so the callers share its values.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if n_max > 7:
        raise ValueError("atlas enumeration is complete only up to 7 vertices")
    for g in _atlas_classes():
        if g.n > n_max:
            break
        yield g


class SweepRecord(NamedTuple):
    graph: Graph
    k: int
    report: CriticalityReport


def critical_sweep(
    n_max: int, budget: SolveBudget = SolveBudget()
) -> list[SweepRecord]:
    """Find all k-critical graphs with k in {Delta+1, Delta+2} among
    connected graphs on at most n_max vertices."""
    found: list[SweepRecord] = []
    for g in connected_graphs_upto(n_max):
        if g.m == 0:
            continue
        delta = g.max_degree()
        for k in (delta + 1, delta + 2):
            report = is_critical(g, k, budget)
            if report.witness_coloring is not None:
                break  # k-colorable, so colorable and not critical at k + 1
            if report.status != "not-critical":
                found.append(SweepRecord(g, k, report))
    return found
