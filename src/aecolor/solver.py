"""Exact acyclic chromatic index computation by backtracking.

The backtracker is the independent oracle the rest of the package is
validated against, so it favors transparent exhaustive search over clever
encodings.  Pruning is limited to properness, the incremental Fact-1 cycle
check, and one sound symmetry reduction: new colors are introduced in
ascending order, which leaves one coloring per orbit of color renamings.
The decision and the enumerator search the same smallest-last insertion
order as the colorer, degree ties going to the lowest vertex id.
``chi_a_exact`` alone breaks those ties by ``frontier_rank``, a
breadth-first rank, so that the colored region grows as one compact
frontier whatever the labels: with ties by id, relabelled grids and hex
lattices scatter it and ran past 200K nodes.  ``_Search`` is the one
mutable coloring kernel: the decision and the enumerator run its search
from the empty coloring, and ``extend_over`` recolors a ball of the
colorer's partial coloring.  ``chi_a_exact`` starts its upward search at a
counting lower bound, a certificate re-counted on its witness vertex set,
not a guess.
"""

from __future__ import annotations

import heapq
import time
from fractions import Fraction
from typing import Iterator, Literal, NamedTuple

from .coloring import ColoringError, EdgeColoring, has_bichromatic_cycle
from .graph import Graph, Record, delete_edge


class SolveBudget(Record):
    """A search's node and time limits.  Immutable, so that the shared
    default ``SolveBudget()`` of the search functions cannot be changed."""

    __slots__ = ("max_nodes", "max_seconds")
    max_nodes: int
    max_seconds: float

    def __init__(self, max_nodes: int = 200_000_000, max_seconds: float = 600.0):
        # "not >" rejects NaN, a deadline that never fires; inf is no limit
        if not (max_nodes > 0 and max_seconds > 0):
            raise ValueError("budget limits must be positive")
        init = object.__setattr__  # Record's __setattr__ refuses
        init(self, "max_nodes", max_nodes)
        init(self, "max_seconds", max_seconds)


Status = Literal["yes", "no", "unknown"]


class SolveResult(NamedTuple):
    status: Status
    coloring: EdgeColoring | None = None
    nodes: int = 0


class CriticalityReport(NamedTuple):
    k: int
    status: Literal["critical", "not-critical", "unknown"]
    # for not-critical: either a full acyclic k-coloring of G, or an edge
    # whose deletion still needs more than k colors
    witness_coloring: EdgeColoring | None = None
    witness_edge: int | None = None

    @property
    def is_critical(self) -> bool:
        return self.status == "critical"


class BudgetExhausted(Exception):
    """The node or time budget of an enumeration ran out."""


def _incident_by(g: Graph, walk: list[int]) -> list[list[int]]:
    """Each vertex's incident edge ids, listed in the order in which
    ``walk``, a permutation of range(n), visits their far ends.  Appending
    each edge to its other end's list while walking the vertices builds
    every list in O(m), already in that order."""
    edges, inc = g.edges, g._inc
    lists: list[list[int]] = [[] for _ in range(g.n)]
    for x in walk:
        for e in inc[x]:
            a, b = edges[e]
            lists[b if a == x else a].append(e)
    return lists


def frontier_rank(g: Graph) -> list[int]:
    """A breadth-first rank of g's vertices, in the style of Cuthill and
    McKee: each component is searched from its vertex of least degree
    (lowest id among ties), and each vertex's unranked neighbors are ranked
    by ascending degree, ties going to the lower id.  Components follow
    one another in the order of their start vertices.  ``rank[v]`` is v's
    place in the search, a permutation of range(n).  One sort of the n
    vertices by (degree, id) and ``_incident_by`` put every vertex's edges
    in (degree, id) order of their far ends, so the rest costs O(m).
    """
    edges, n = g.edges, g.n
    by_degree = sorted(range(n), key=g.degree)  # stable: ids ascend on ties
    inc = _incident_by(g, by_degree)
    rank = [-1] * n
    r = 0
    for s in by_degree:
        if rank[s] >= 0:
            continue
        rank[s] = r
        r += 1
        queue = [s]
        for v in queue:  # the queue grows as the loop reads it
            for e in inc[v]:
                a, b = edges[e]
                w = b if a == v else a
                if rank[w] < 0:
                    rank[w] = r
                    r += 1
                    queue.append(w)
    return rank


def deletion_edge_order(g: Graph, rank: list[int] | None = None) -> list[int]:
    """Edge deletion sequence: repeatedly take a minimum-degree vertex's
    lowest-id incident edge, ties going to the lowest vertex.  Reversing it
    gives the insertion order used by both the solver and the constructive
    colorer (smallest-last).  The vertices wait in a bucket queue (Matula
    and Beck 1983): ``buckets[d]`` is a heap of the vertex ids pushed at
    degree d, so a pop from the lowest bucket that holds a live entry gives
    the least (degree, id) pair.  An entry of w in ``buckets[d]`` is live
    iff w's degree is still d: degrees only fall, so w is pushed at most
    once per degree, and an entry left behind is skipped when popped.

    A popped vertex v keeps the turn until its degree reaches 0, so its
    live edges go out as one run, in ascending id order.  Before each step
    of the run every live degree is at least v's, d, and every tie belongs
    to a vertex above v.  Deleting v's lowest live edge vw lowers only v
    and w, by one each: w had at least d, so it now has at least d - 1,
    and if it ties v there it tied v before, so w > v.  Both facts hold
    again, and v is still least.  Each step pushes w's new entry alone;
    v's entry is never pushed back.  An edge vw is still live when v's run
    reaches it iff w has not had its run, i.e. iff w's degree is not 0.

    The scan pointer ``low`` never exceeds the least live degree: it
    starts at 1, moves down to a neighbour's new degree whenever that is
    below it, and moves up only past an empty bucket, which holds no live
    vertex.  So the first live entry popped at ``low`` is the least
    (degree, id) pair.  ``left`` counts the live edges and each run lowers
    it by its vertex's degree; the loop ends when it reaches 0, leaving
    only stale entries queued.  The pointer moves down at most once per
    push and up at most Delta times more than it moves down, so the scan
    costs O(m) beside the O(m log n) of the heaps.

    With ``rank``, a permutation of range(n) such as ``frontier_rank(g)``,
    degree ties go to the lower rank and a vertex's run goes out in the
    rank order of the edges' far ends.  The same loop runs on the ends
    renamed by rank, (rank[u], rank[v]), with each renamed vertex's edges
    listed by far-end rank (``_incident_by``, O(m)); the buckets then hold
    ranks, and the key is the pair (degree, rank).  Edge ids are not
    renamed, so the result is a list of g's edge ids all the same.  The
    run proof holds with ranks for ids: before each step of v's run every
    tie belongs to a vertex of higher rank; w, which had at least d, ties
    v at d - 1 only if it tied v at d, so rank[w] > rank[v]; and v stays
    least until its degree is 0, taking its live edges down its list.
    """
    edges, inc, n = g.edges, g._inc, g.n  # ascending ids at each vertex
    if rank is not None:
        by_rank = [0] * n
        for v, r in enumerate(rank):
            by_rank[r] = v
        runs = _incident_by(g, by_rank)
        edges = [(rank[a], rank[b]) for a, b in edges]
        inc = [runs[v] for v in by_rank]
    deg = [len(a) for a in inc]
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        buckets[d].append(v)  # ids ascend, so each bucket is a heap
    push, pop = heapq.heappush, heapq.heappop
    order: list[int] = []
    left, low = len(edges), 1
    while left:
        bucket = buckets[low]
        if not bucket:
            low += 1
            continue
        v = pop(bucket)
        if deg[v] != low:
            continue
        left -= low
        deg[v] = 0
        for e in inc[v]:
            a, b = edges[e]
            w = b if a == v else a
            dw = deg[w]
            if dw:
                order.append(e)
                dw -= 1
                deg[w] = dw
                if dw:
                    push(buckets[dw], w)
                    if dw < low:
                        low = dw
    return order


class _Search:
    """The one mutable coloring kernel, a partial coloring of g with
    palette [1..k], and its node-budgeted exact search.

    ``assign[e]`` is the color of edge e (0 = uncolored), ``col_nbr[v][c]``
    the neighbor of v across its c-colored edge (-1 = none) and bit c of
    ``used_mask[v]`` says whether color c is present at v; ``set`` and
    ``unset`` keep the three consistent and assume the coloring stays
    proper.  ``walk_ends_at`` is the incremental Fact-1 cycle test.  The
    search, ``_colorings``, colors a list of edges, keeping every other
    color fixed.  ``nodes`` counts the colors tried by every search the
    kernel has run; a search counts in a local and writes ``nodes`` back
    whenever its caller regains control.  A search stops at the node past
    ``budget.max_nodes``, which is counted, or, the clock read once here
    and then at every 4096th node, ``budget.max_seconds`` after the kernel
    was built; an infinite ``max_seconds`` never stops it, so node counts
    repeat exactly."""

    def __init__(self, g: Graph, k: int, budget: SolveBudget):
        self.g = g
        self.k = k
        self.col_nbr = [*map(list.copy, [[-1] * (k + 1)] * g.n)]  # n fresh rows
        self.used_mask = [0] * g.n
        self.assign = [0] * g.m
        self.nodes = 0
        self.max_nodes = budget.max_nodes
        self.deadline = time.monotonic() + budget.max_seconds

    def set(self, e: int, c: int) -> None:
        u, v = self.g.edges[e]
        self.assign[e] = c
        bit = 1 << c
        self.used_mask[u] |= bit
        self.used_mask[v] |= bit
        self.col_nbr[u][c] = v
        self.col_nbr[v][c] = u

    def unset(self, e: int) -> None:
        u, v = self.g.edges[e]
        c = self.assign[e]
        self.assign[e] = 0
        bit = 1 << c
        self.used_mask[u] &= ~bit
        self.used_mask[v] &= ~bit
        self.col_nbr[u][c] = -1
        self.col_nbr[v][c] = -1

    def walk_ends_at(self, u: int, v: int, mus: int, gamma: int) -> bool:
        """Fact 1: for some color mu in the bitmask ``mus`` (each present at
        u, none equal to gamma), does the maximal (mu,gamma) path leaving u
        on its mu-edge end at v, arriving on a mu-edge?

        When gamma is free at u and v and ``mus`` holds the colors present
        at both, this is exactly "coloring uv with gamma closes a
        bichromatic cycle".
        """
        col_nbr = self.col_nbr
        while mus:
            low = mus & -mus
            mu = low.bit_length() - 1
            mus ^= low
            cur = col_nbr[u][mu]
            want, other = gamma, mu
            while True:
                nxt = col_nbr[cur][want]
                if nxt == -1:
                    if cur == v and want == gamma:
                        return True
                    break
                if nxt == u:
                    break  # closed into a cycle through u, not a u..v path
                cur = nxt
                want, other = other, want
        return False

    def extend_over(self, edges: list[int]) -> Status:
        """Recolor ``edges``, in this order, keeping every other color
        fixed, so that the coloring stays proper and acyclic.  Returns
        "yes" with the new colors set, or "no" (no recoloring exists) or
        "unknown" (the budget ran out) with the old ones back.  The rest
        must be proper and acyclic: Fact 1 sees only cycles through the
        edge being colored.  Every color is offered to every edge: a fixed
        exterior breaks the renaming symmetry, as colors no edge of
        ``edges`` uses yet differ in which exterior edges carry them.  With
        one colored edge at u, color 1 is illegal on uv, and a search
        offering only 1 would miss color 2.
        """
        old = [self.assign[e] for e in edges]
        for e in filter(self.assign.__getitem__, edges):
            self.unset(e)
        status: Status = "no"
        try:
            for _ in self._colorings(edges, self.k):
                return "yes"
        except BudgetExhausted:
            status = "unknown"
            for e in filter(self.assign.__getitem__, edges):
                self.unset(e)
        for e, c in zip(edges, old):
            if c:
                self.set(e, c)
        return status

    def _colorings(self, order: list[int], max_used: int) -> Iterator[None]:
        """Depth-first search over ``order``, yielding each time every edge
        of it is colored; resuming backtracks to the next coloring.

        A frame is an edge of ``order``: the edge and its ends, the colors
        present at both ends, its untried colors and the peak color before
        it.  Color sets are bitmasks, bit c for color c; the lowest untried
        bit is tried next, so colors go in ascending order.  The frame of
        the edge being colored lives in local variables, and ``stack``
        holds those of the colored edges before it.  Colors above the peak
        are interchangeable, so only the first of them is offered.  Each
        color tried is one node, checked by Fact 1 against the colors at
        both ends; ends that share no color close no cycle, so the walk is
        skipped.  An exhausted search leaves ``order`` uncolored.

        The node count, the budget, the deadline and the depth (the length
        of ``stack``) live in locals too.  The count starts from
        ``self.nodes`` and is written back to it before every yield, return
        and BudgetExhausted, the only points at which a caller can read it.
        The node past ``max_nodes`` raises, so an exhausted budget reports
        ``max_nodes + 1`` nodes; the clock is read at every node whose count
        is a multiple of 4096 and not past the budget.
        """
        edges, k = self.g.edges, self.k
        used_mask = self.used_mask
        walk, set_, unset = self.walk_ends_at, self.set, self.unset
        nodes, max_nodes, deadline = self.nodes, self.max_nodes, self.deadline
        stack: list[tuple[int, int, int, int, int, int]] = []
        push, pop = stack.append, stack.pop
        depth, size = 0, len(order)
        peak = max_used
        while True:
            if depth < size:
                e = order[depth]
                u, v = edges[e]
                mask_u, mask_v = used_mask[u], used_mask[v]
                top = peak + 1 if peak < k else k
                untried = ((2 << top) - 2) & ~(mask_u | mask_v)
                common = mask_u & mask_v
            else:
                self.nodes = nodes
                yield
                untried = 0  # nothing follows a full coloring: backtrack
            # the current edge's next color that closes no cycle, popping
            # frames whose colors have run out
            while True:
                while untried:
                    low = untried & -untried
                    untried ^= low
                    c = low.bit_length() - 1
                    nodes += 1
                    if nodes > max_nodes or (
                            not nodes & 4095 and time.monotonic() > deadline):
                        self.nodes = nodes
                        raise BudgetExhausted
                    if not common or not walk(u, v, common, c):
                        break
                else:
                    if not depth:
                        self.nodes = nodes
                        return
                    e, u, v, common, untried, peak = pop()
                    depth -= 1
                    unset(e)
                    continue
                break
            set_(e, c)
            push((e, u, v, common, untried, peak))
            depth += 1
            if c > peak:
                peak = c


def is_acyclically_k_colorable(
    g: Graph, k: int, budget: SolveBudget = SolveBudget(),
    order: list[int] | None = None,
) -> SolveResult:
    """Decide whether g admits a total acyclic edge k-coloring.

    The search runs from the empty coloring over the reverse of the
    deletion order ``order``, by default ``deletion_edge_order(g)``, with
    the renaming reduction on from 0.  That is the order and reduction
    ``enumerate_acyclic_colorings`` iterates, so a "yes" coloring is the
    enumeration's first.  The reduction's orbit argument holds for any
    edge order, so the search finds a coloring iff g has one whatever
    ``order`` is: a caller may pass any permutation of g's edge ids, such
    as the order it already has (the colorer's fallback) or the frontier
    order (``chi_a_exact``); only the nodes and the coloring found change.

    "yes" answers carry a coloring re-checked by the independent validator
    (an invalid one raises ColoringError); "no" means the search space was
    exhausted; "unknown" means the budget ran out before a decision.  The
    search runs at min(k, m) colors, as the enumeration does (see there);
    the coloring carries k.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if k < g.max_degree():
        return SolveResult("no", None, 0)  # below the proper-coloring bound
    search = _Search(g, min(k, g.m), budget)
    if order is None:
        order = deletion_edge_order(g)
    try:
        for _ in search._colorings(order[::-1], 0):
            break  # the first coloring decides
        else:
            return SolveResult("no", None, search.nodes)
    except BudgetExhausted:
        return SolveResult("unknown", None, search.nodes)
    c = EdgeColoring(k, tuple(search.assign))
    # has_bichromatic_cycle also raises on an improper coloring
    if not c.is_total() or has_bichromatic_cycle(g, c) is not None:
        raise ColoringError(f"exact search returned an invalid {k}-coloring")
    return SolveResult("yes", c, search.nodes)


def enumerate_acyclic_colorings(
    g: Graph, k: int, budget: SolveBudget = SolveBudget()
) -> Iterator[EdgeColoring]:
    """One total acyclic k-coloring of g per orbit of color renamings: the
    one whose colors first appear in ascending order along the smallest-last
    insertion order.

    The symmetric group S_k acts on colorings by renaming colors, and the
    reduction is exact:

    - Renaming colors keeps a coloring proper and acyclic: two edges share
      a color, and a cycle uses two colors, after renaming iff before.
    - A renaming fixes a coloring iff it fixes each of the j colors the
      coloring uses, so the stabiliser is Sym(unused colors) and the orbit
      has k!/(k-j)! = math.perm(k, j) members.
    - Exactly one member of each orbit has its colors first appear in the
      order 1, 2, ..., j along any fixed edge order.  If a member's
      colors first appear as c_1, ..., c_j, a renaming sigma gives colors
      first appearing as sigma(c_1), ..., sigma(c_j), so the renamed
      coloring has the property iff sigma(c_i) = i for every i, and all
      such sigma give the same coloring.
    - The search yields exactly those members.  Letting each edge take a
      color only up to one above the largest used so far (as
      ``_Search._colorings`` does) admits precisely the prefixes whose
      colors first appear in ascending order; every other pruning
      (properness and the Fact-1 cycle test) depends on the prefix alone,
      and each prefix of a proper acyclic coloring is proper and acyclic.

    Each yielded coloring therefore stands for math.perm(k, j) colorings,
    where j = len(c.colors_used()).

    The search runs at min(k, m) colors, so its n(k + 1) neighbor slots stay
    O(nm) however large k is; each coloring carries k.  With k >= m the
    search is the one at m: the reduction offers the i-th edge of the order
    no color above i <= m, so the colors tried, the node counts and the
    colorings are the same.

    Raises BudgetExhausted, after the colorings found so far, once the
    budget's node or time limit runs out.  Raises ValueError, when the
    iteration starts, if k < 0; with k = 0 an edgeless graph has one
    coloring, the empty one, and any other graph none.
    """
    if k < 0:
        raise ValueError("k must be at least 0")
    search = _Search(g, min(k, g.m), budget)
    for _ in search._colorings(list(reversed(deletion_edge_order(g))), 0):
        yield EdgeColoring(k, tuple(search.assign))


class Peel(NamedTuple):
    """What one walk of an edge deletion order finds (see ``walk_peel``)."""

    bound: int          # the counting lower bound on chi'_a
    start: int          # deletions before the first peel set reaching it
    degeneracy: int     # the largest smaller live end degree of a deleted edge
    densest: Fraction   # the largest 2e/|W| of a peel set


def walk_peel(g: Graph, order: list[int]) -> Peel:
    """Walk the edge deletion sequence ``order`` of g once.

    Before each deletion the live edges, e of them, and the |W| vertices
    they touch form a peel set, a subgraph of g.  The walk keeps three
    maxima over the peel sets:

    - ``bound``: max(Delta, ceil(2e / (|W| - 1))), the count of
      ``counting_lower_bound``, which reads Delta alone when Delta <= 1;
      ``start`` is the number of deletions before the first set reaching
      it (0 when none exceeds Delta);
    - ``densest``: 2e / |W|, a lower bound on mad(g) (0 with no edges);
    - ``degeneracy``: the smaller live degree of the ends of the edge being
      deleted.  Every subgraph H of g with an edge has a vertex of degree
      at most ``degeneracy`` in H: at the deletion of H's first edge all of
      H is live, and that edge's end of smaller live degree has at most as
      many edges in H.  For ``deletion_edge_order``, whose deleted edge has
      an end of least live degree, it is the degeneracy of g.

    O(m) on top of the order.
    """
    delta = g.max_degree()
    bound, start = delta, 0
    degeneracy = 0
    dense_e, dense_w = 0, 1
    deg = [len(a) for a in g._inc]
    live = sum(1 for d in deg if d)  # non-isolated vertices
    edges, m = g.edges, g.m
    for i, e in enumerate(order):
        u, w = edges[e]
        du, dw = deg[u], deg[w]
        low = du if du < dw else dw
        if low > degeneracy:
            degeneracy = low
        left = m - i
        if left * dense_w > dense_e * live:
            dense_e, dense_w = left, live
        if delta >= 2:
            count = -(-2 * left // (live - 1))
            if count > bound:
                bound, start = count, i
        deg[u], deg[w] = du - 1, dw - 1
        live -= (du == 1) + (dw == 1)
    return Peel(bound, start, degeneracy, Fraction(2 * dense_e, dense_w))


def counting_lower_bound(g: Graph, order: list[int]) -> tuple[int, list[int]]:
    """A lower bound on chi'_a(g) and the vertex set W that proves it.

    Take an acyclic k-coloring of g with k >= 2 and a subgraph H of g with
    vertex set W.  Any two color classes together form a forest, so they
    hold at most |W| - 1 edges of H.  Summing over the C(k, 2) pairs of
    classes counts each edge of H k - 1 times, once with each other class:

        (k - 1) e(H) <= C(k, 2) (|W| - 1),  so  k >= 2 e(H) / (|W| - 1).

    Dividing by k - 1 needs k >= 2, which every proper coloring of g has
    once Delta(g) >= 2.  The step is required: K2 has chi'_a = 1 but its
    count reads 2.  So with Delta <= 1 the bound is Delta alone.

    The subgraphs counted are the peel sets of ``order``, any edge deletion
    order (``walk_peel``): before each deletion, the live edges and the
    vertices they touch.  The bound is the larger of Delta and the largest
    count.  W is the first peel set reaching the bound, or every
    non-isolated vertex when no count exceeds Delta; either way g[W]
    contains the counted edges, so ``_count_bound(g, W)`` re-counts at
    least the bound.  O(m) on top of the order.
    """
    peel = walk_peel(g, order)
    return peel.bound, sorted({v for e in order[peel.start:] for v in g.edges[e]})


def _count_bound(g: Graph, vertices: list[int]) -> int:
    """The bound of ``counting_lower_bound`` for H = g[vertices], counted
    afresh from g's edge list: max(Delta(H), ceil(2 e(H) / (|W| - 1))), or
    Delta(H) when that is at most 1.  chi'_a(g) >= chi'_a(H) >= it."""
    deg = dict.fromkeys(vertices, 0)
    for u, v in g.edges:
        if u in deg and v in deg:
            deg[u] += 1
            deg[v] += 1
    delta = max(deg.values(), default=0)
    if delta <= 1:
        return delta
    return max(delta, -(-sum(deg.values()) // (len(deg) - 1)))


class ChiAResult(Record):
    """What ``chi_a_exact`` found; the witness list is the result's own."""

    __slots__ = ("chi_a", "decided_up_to", "coloring", "nodes", "lower_bound",
                 "lower_bound_witness")

    def __init__(self, chi_a: int | None, decided_up_to: int,
                 coloring: EdgeColoring | None = None, nodes: int = 0,
                 lower_bound: int = 0, lower_bound_witness: list[int] | None = None):
        super().__init__(chi_a, decided_up_to, coloring, nodes, lower_bound,
                         [] if lower_bound_witness is None else lower_bound_witness)


def chi_a_exact(g: Graph, budget: SolveBudget = SolveBudget(),
                max_k: int | None = None) -> ChiAResult:
    """Smallest k with an acyclic edge k-coloring.

    The counting lower bound of ``counting_lower_bound`` is re-counted on
    its witness, then each k from it upward is decided by
    ``is_acyclically_k_colorable``; the bound and every level share one
    smallest-last order, ``deletion_edge_order(g, frontier_rank(g))``.  Its
    degree ties go to the lower breadth-first rank, so the search colors
    outward from one frontier whatever g's labels are.  Any order decides
    each k exactly (see ``is_acyclically_k_colorable``), so chi'_a is the
    one the order with ties by id finds; the nodes and the coloring differ.
    The count holds for the peel sets of any deletion order, so the bound
    stays sound, though it may count other sets than the id order's and
    read another value; on the atlas of graphs up to 7 vertices that
    ``critical_sweep`` reads, as labelled there, it never does.  Every
    k up to ``decided_up_to`` is
    decided: below the bound "no" by the count, from it on by the search.
    The answer is the first "yes", whose coloring the validator checked.
    An "unknown" ends the run with ``chi_a`` None at ``decided_up_to`` =
    k - 1.  With ``max_k``, no k above it is searched: if none up to it
    suffices, ``chi_a`` is None and ``decided_up_to`` >= ``max_k``.
    """
    if g.m == 0:
        return ChiAResult(0, 0, EdgeColoring(0, ()))
    order = deletion_edge_order(g, frontier_rank(g))
    bound, witness = counting_lower_bound(g, order)
    if _count_bound(g, witness) < bound:
        raise ValueError(f"lower bound {bound} is not re-counted on its witness")
    k = bound
    total_nodes = 0
    while max_k is None or k <= max_k:
        result = is_acyclically_k_colorable(g, k, budget, order)
        total_nodes += result.nodes
        if result.status == "yes":
            return ChiAResult(k, k, result.coloring, total_nodes, bound, witness)
        if result.status == "unknown":
            break
        k += 1
    return ChiAResult(None, k - 1, None, total_nodes, bound, witness)


def is_critical(
    g: Graph, k: int, budget: SolveBudget = SolveBudget()
) -> CriticalityReport:
    """Is g acyclically edge k-critical?

    Critical means chi'_a(g) > k while every single-edge deletion is
    acyclically k-colorable (edge deletion suffices for "any proper
    subgraph" since colorability is monotone under subgraphs).
    """
    whole = is_acyclically_k_colorable(g, k, budget)
    if whole.status == "unknown":
        return CriticalityReport(k, "unknown")
    if whole.status == "yes":
        return CriticalityReport(k, "not-critical", witness_coloring=whole.coloring)
    for e in range(g.m):
        sub = is_acyclically_k_colorable(delete_edge(g, e), k, budget)
        if sub.status == "unknown":
            return CriticalityReport(k, "unknown")
        if sub.status == "no":
            return CriticalityReport(k, "not-critical", witness_edge=e)
    return CriticalityReport(k, "critical")
