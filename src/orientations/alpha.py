"""Orientations with a prescribed outdegree vector: find one, list them all.

Two orientations have the same outdegree vector exactly when one arises from
the other by reversing arc-disjoint directed cycles.  The finder drives
path reversals to the target vector, and the enumeration fixes the edges
one level of ``walk`` each, whose choice generator keeps the edge and then
flips it with a completing cycle.  Both find their paths by the one search
of :mod:`orientations.paths` that returns a path, ``_meeting_path``.  A
level never undoes its flip: after its subtree it hands the orientation up
as it is, and the level above searches on that.  Two orientations of the
class that agree on the fixed edges differ by directed cycles among the
free ones, so whether a level can flip, and which leaves lie below it, do
not depend on which of them it holds.  Consecutive leaves thus differ by
one cycle reversal.

That holds for any order of the edges, and the levels take a closing order,
``_closing_order``, computed once per run.  It takes the vertices one at a
time: among those that the edges taken so far reach (all, when none is
left), the one with the fewest edges left, the smallest id on ties; and it
takes all the edges left at that vertex, in index order.  Level i fixes
the i-th edge taken.  Each step closes a vertex off, and its neighbours
soon have few free edges left, so a search for a completing cycle fails,
or is skipped, near the top of the walk, where that spares the most: the
fail-first rule of backtracking.  The order follows the graph, not the
order in which the input lists its edges; the emitted lines still list the
edges in index order.  The fixed edges are thus not a prefix of each
incidence row, so the walk keeps per vertex x the mask ``free[x]`` of the
entries of x's row that are still free (see :mod:`orientations.paths`).

The search meets in the middle (see :mod:`orientations.paths`): it grows
BFS layers from the head along free out-arcs and from the tail backward
along free in-arcs.  Whether a level can flip depends only on the
outdegrees and the fixed edges, so any path from head to tail serves;
which one it finds changes only the order of the leaves.

Most of these searches fail, and a failed search leaves a closed set for
the levels above.  At level i the free edges F are those of the levels
i+1..m-1, and a vertex set is closed when no arc of F leaves it.  No path
inside F leaves a closed set, so no vertex of a closed set that misses the
tail reaches the tail.  The head's side treats such a set as reached and
never expands it, and the tail's side, which grows only through vertices
that reach the tail, never meets one; the search still finds a path
exactly when one exists.  When such a set holds the head, no path exists
and the level does not search.  A failed search hands back A, the set the
head's side reached, the closed set included, when that side runs out
first, and otherwise V∖B, B being the set of vertices that reach the tail.
Each holds the head and the closed set, misses the tail, and no arc of F
leaves it.

The sets survive the flips by one lemma.  Let out_F(X) be the number of
F-arcs that leave X: the sum of out_F(x) over x in X, less the number of
F-edges inside X.  Reversing a directed cycle inside F keeps every
out_F(x), so it keeps out_F(X); reversing a path inside F from a to b
changes out_F(X) by [b in X] - [a in X].  Every flip below level i is a
directed cycle inside F.  Three rules follow, e being the edge of level i:

- Closed set.  The set R that level i+1 hands up is closed at level i.  A
  level that flips passes down its closed set, which misses head and tail,
  so the path its flip reverses inside F, from head to tail, keeps it
  closed, and so does every flip below.  The set D passed down by the
  nearest flipping level above is thus closed at every level below it.
  The level's closed set is the union of those of R and D that miss the
  tail.  It skips its search when that set holds the head, and otherwise
  hands it to the search.
- Search outcome.  A failed search hands up A or V∖B, the closed set
  included; a level that does not search hands up its closed set.  Each
  misses the tail, and edge e runs from the tail, so no arc free at level
  i-1 leaves it.
- Flipping level.  After its subtree it hands up the set S that level i+1
  left, closed among the edges of the levels below.  Edge e now runs from
  head to tail, so it leaves S just when S holds the head but not the
  tail; then, and when S is empty, the level hands up its closed set,
  which misses both.

A level searches only when its head lies outside its closed set, has a
free out-arc, and its tail has a free in-arc.  When level i searches, the
set bits of ``free[x]`` are the entries of x's incidence row whose edges
lie below it, those of the levels i+1..m-1, so ``_out[x] & free[x]`` holds
x's free out-arcs and ``free[x] & ~_out[x]`` its free in-arcs.  A path from
head to tail leaves the head and enters the tail by free arcs, so a level
that fails these tests would find none.  At the last level every edge is
fixed, so its search is always skipped.  ``_EdgeLevels`` owns the order,
``free``, the cut and the set passed down.  The sets are vertex bitmasks,
as the sequence search holds its cuts: a union is one OR, V∖B one XOR,
and a test whether a set holds a vertex one bit test.  Like ``free``, the
sets are walk bookkeeping: they touch no arc and are not charged.

``walk`` is the one traversal scheme of the package: the k-connected
search of :mod:`orientations.sequences` and the first-solution finder run on
it too, each with its own per-level choice generator.  ``_emit_leaves`` is
the one emission loop: every enumerator hands it the leaves of its walk and
a callback, called at each leaf with a view that shares the live
orientation's buffers.  A view still held once the call returns or raises,
by the callback or a traceback, gets its own copy, charged m arc touches in
the leaf's gap; one that nobody holds costs nothing.  So an orientation a
caller keeps never changes.
"""
from __future__ import annotations

import heapq
import weakref
from collections.abc import Callable, Iterator, Sequence

from .metering import DelayMeter
from .multigraph import Multigraph, Orientation, _integers
from .paths import _flip, _meeting_path

__all__ = ["find_alpha_orientation", "enumerate_alpha"]


def find_alpha_orientation(
    graph: Multigraph,
    alpha: Sequence[int],
    meter: DelayMeter | None = None,
) -> Orientation | None:
    """An orientation whose outdegree vector equals ``alpha``, or None.

    Starts from the all-forward orientation and moves one unit of outdegree
    at a time: from the first vertex u above its target, it reverses a path
    to a vertex below its target, found by one meeting search (see
    :mod:`orientations.paths`) from u toward all of them, so each unit
    moved costs one BFS run.  When that search fails, its cut holds u and
    no vertex below its target, and no arc leaves it, so its targets sum
    below the edges inside it, which every orientation directs out of that
    set's vertices: none exists.
    """
    if len(alpha) != graph.n:
        raise ValueError("alpha length must equal vertex count")
    target = _integers(alpha)
    if target is None:
        raise ValueError("alpha entries must be integers")
    if any(a < 0 for a in target) or sum(target) != graph.m:
        return None
    d = Orientation(graph)
    out = list(d.outdegrees())
    while True:
        u = next((x for x in range(graph.n) if out[x] > target[x]), None)
        if u is None:
            return d
        deficit = [x for x in range(graph.n) if out[x] < target[x]]
        path, _ = _meeting_path(d, u, deficit, graph._row_mask, 0, meter)
        if path is None:
            return None
        out[u] -= 1
        out[d.head(path[-1])] += 1
        _flip(d, path, meter)


def enumerate_alpha(
    graph: Multigraph,
    alpha: Sequence[int],
    sink: Callable[[Orientation], None],
    *,
    meter: DelayMeter | None = None,
) -> int:
    """Stream every orientation with outdegree vector ``alpha`` exactly once.

    Walks the edges in a closing order (see the module docstring).  At each
    level the current edge is first kept as is, then, when a directed path
    from its head back to its tail avoids all already-fixed edges, flipped
    together with that path (a directed cycle, so the outdegree vector is
    preserved).  Emission happens when every edge is fixed.  No flip is
    undone, so consecutive orientations differ by one cycle reversal.
    Returns the number of solutions.
    """
    meter = meter if meter is not None else DelayMeter()
    d = find_alpha_orientation(graph, alpha, meter)
    leaves = () if d is None else walk(graph.m, _EdgeLevels(d, meter).choices)
    return _emit_leaves(d, leaves, sink, meter)


def _emit_leaves(d: Orientation | None, leaves, emit, meter: DelayMeter) -> int:
    # Calls emit with a view on d at every leaf, closes the run's last gap
    # and returns the number of leaves; an infeasible run hands it none.  A
    # view whose weak reference is still live after the call is held, so it
    # gets its own buffers before the walk moves d on.
    count = 0
    for _ in leaves:
        view = d._share()
        held = weakref.ref(view)
        try:
            emit(view)
        finally:
            del view
            if (kept := held()) is not None:
                kept._own()
                meter.arcs(d.graph.m)
        meter.emitted()
        count += 1
    meter.finished()
    return count


def walk(levels: int, choices: Callable[[int], Iterator[None]]) -> Iterator[None]:
    """Yield once at each leaf of a backtracking tree with ``levels`` levels.

    ``choices(i)`` returns a generator that sets up the shared search state
    for each option at level ``i`` and yields once per option.  A level
    need not restore the state: the alpha expansion's edge levels leave
    their flips, and the level above works on the orientation it is handed
    (see the module docstring).  The open generators sit on
    an explicit stack, so the depth is bounded by memory, not by the
    recursion limit.  With zero levels the single empty assignment is a leaf.
    """
    stack = [iter((None,))]  # the root: one option, no state
    while stack:
        for _ in stack[-1]:
            if len(stack) > levels:
                yield
            else:
                stack.append(choices(len(stack) - 1))
            break
        else:
            stack.pop()


def _closing_order(graph: Multigraph) -> list[int]:
    # The edges in the order the expansion's levels fix them (see the
    # module docstring).  The heap holds (0, edges left, vertex) for the
    # vertices that the edges taken so far reach, and (1, degree, vertex)
    # for every vertex, so a reached vertex always comes first; an entry
    # whose count has fallen since is stale and skipped.
    rows = graph.incidence
    left = [len(row) for row in rows]
    heap = [(1, count, x) for x, count in enumerate(left)]
    heapq.heapify(heap)
    done, taken, order = [False] * graph.n, [False] * graph.m, []
    while heap:
        _, count, x = heapq.heappop(heap)
        if done[x] or count != left[x]:
            continue
        done[x] = True
        for e, w, _ in rows[x]:
            if not taken[e]:
                taken[e] = True
                order.append(e)
                left[w] -= 1
                heapq.heappush(heap, (0, left[w], w))
    return order


class _EdgeLevels:
    # The alpha expansion's edge levels over d, and the walk state they
    # share.  choices(i) handles edge order[i]: it keeps the edge, then
    # flips it with a completing cycle that avoids the edges of the levels
    # above when one exists, and leaves it flipped: the level above searches
    # on the orientation the level hands up.  Each level clears its edge's
    # bit in free at both ends while it is open, so when level i searches,
    # free[x] holds the entries of x's incidence row whose edges belong to
    # the levels i+1..m-1, and the search scans only those.  Clearing e
    # itself changes no search: it is an in-arc at head, whose side scans
    # out-arcs, and an out-arc at tail, whose side scans in-arcs.
    #
    # The sets are vertex bitmasks.  When level i resumes, cut holds the set
    # R that level i+1 handed up (0 at the last level), and down the set D
    # that the nearest flipping level above passed down (0 below none).
    # The level's closed set is the union of those of them that miss tail.
    # It searches only when head lies outside that set, has a free
    # out-arc, and tail has a free in-arc (see the module docstring); the
    # search never expands the set.  A failed search leaves its cut, A or
    # V∖B, in cut; a level that does not search leaves its closed set.  A
    # level that flips passes down its closed set, sets down back to D
    # after its flip subtree, and leaves in cut the set S that the subtree
    # handed up, or its closed set when S is empty or holds head but not
    # tail.
    __slots__ = ("d", "meter", "order", "free", "cut", "down")

    def __init__(self, d: Orientation, meter: DelayMeter):
        self.d, self.meter = d, meter
        self.order, self.free = _closing_order(d.graph), list(d.graph._row_mask)
        self.cut, self.down = 0, 0

    def choices(self, i: int) -> Iterator[None]:
        d, free, out = self.d, self.free, self.d._out
        e = self.order[i]
        u, u_bit, v, v_bit = d.graph._ends[e]
        tail, head = (u, v) if d.forward(e) else (v, u)
        free[u] ^= u_bit
        free[v] ^= v_bit
        self.cut = 0
        yield
        cut, down = self.cut, self.down
        closed = (0 if cut >> tail & 1 else cut) | (0 if down >> tail & 1 else down)
        path, cut = None, closed
        if not closed >> head & 1 and out[head] & free[head] and free[tail] & ~out[tail]:
            path, cut = _meeting_path(d, head, (tail,), free, closed, self.meter)
        if path is None:
            self.cut = cut
        else:
            path.append(e)
            _flip(d, path, self.meter)
            self.down = closed
            yield
            self.down = down
            below = self.cut
            self.cut = below if below and (below >> tail & 1 or not below >> head & 1) else closed
        free[u] ^= u_bit
        free[v] ^= v_bit

