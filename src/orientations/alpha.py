"""Orientations with a prescribed outdegree vector: find one, list them all.

Two orientations have the same outdegree vector exactly when one arises from
the other by reversing arc-disjoint directed cycles.  The initial search
drives path reversals to the target vector; the enumeration fixes edges in
index order, one level of ``walk`` per edge, whose choice generator keeps
the edge and then flips it with a completing cycle.  Since every incidence
row is in edge-index order, the edges fixed so far are a prefix of each
row; the walk keeps the length of that prefix per vertex, and the search for
a completing cycle scans only the rest of each row.

Most of these searches fail, and a failed search leaves a cut for the
search one level up.  Level e searches right after level e+1 closes, on the
orientation that level e kept and level e+1 restored.  If level e+1's
search from its head found no way back to its tail, the set R it reached
holds that head and is left by no arc among edges e+2..m-1.  Edge e+1,
which level e frees, runs into R, so no arc free at level e leaves R
either, and no path into a vertex outside R starts inside it.  When R
misses the level's tail, the level's search treats R as reached and never
expands it.  Outside R that search finds the same vertices, in the
same order and with the same tree, as a fresh one, so every path and the
whole stream are unchanged, and it scans only arcs that the fresh search
would scan.  A failed search hands the next level up the set it reached, R
included.

Such a closed set also survives cycle reversals.  Let F be a set of edges
and out_F(X) the number of F-arcs that leave a vertex set X.  Then out_F(X)
is the sum of out_F(x) over the vertices x of X, less the number of
F-edges inside X.  Reversing a directed cycle inside F keeps every
vertex's outdegree in F, so it keeps out_F(X).  Reversing a path inside F
from a to b changes out_F(X) by [b in X] - [a in X].  Level e flips edge e
together with a path from head to tail inside its free edges e+1..m-1, and
every flip below it is a directed cycle inside those edges.  So a set that
no free arc leaves at level e stays so through every flip below, and
through level e's own flip unless it holds the tail and not the head.
Hence two more rules:

- A level that flips passes down the set its search treated as reached,
  which holds neither head nor tail, to every level of its flip subtree in
  place of the set it inherited.  A level that inherits a set missing its
  tail treats it as it treats R: its search never expands it, and it skips
  the search when the set holds its head.  An inherited set is closed over
  all the edges below the level that passed it down, edge e among them, so
  one that holds the tail holds the head too, and the level does not use
  it.
- After its flip subtree the level undoes its flip, which reverses a path
  from tail to head inside its free edges.  So the set S that level e+1
  handed up on the flipped orientation is closed again when it holds
  neither head nor tail.  Edge e runs from the tail, so it leaves neither
  S nor the set the level passed down.  The level hands up S when S is
  not empty and misses both head and tail, and otherwise the set it
  passed down.

An R that holds the tail is not dropped whole.  Every set the levels carry
is a chain of closed sets in insertion order: a search adds the set it
treats as reached, then its root, the head, mapped to None, then the
vertices it reaches.  So each prefix that ends just before a root is a set
that a search treated as reached, closed when that search ran.  The rules
above keep a set closed only when it misses given vertices, so they keep
each such prefix closed too.  Where R holds the tail, the level keeps the
longest prefix that ends before a root and misses the tail, and uses it as
it would R.  A level that searches adds the set it inherited to R, or to
that prefix, and the union of two closed sets is closed.  That merge adds
only the vertices R lacks, after R's own, so no root moves and none is
made: a vertex overwritten with None would end a prefix that no search
treated as reached.  The inherited set and S are used whole or not at all:
keeping their prefixes too, or adding the set passed down to S, spares
few searches for the scans and merges it costs.

Every set a search skips thus holds no vertex with a path to its target, so
the paths and the stream stay as a fresh search would make them.  A level
clears the cut when it opens, so it reads only a set that level e+1 handed
up on the orientation the level now holds.

A level searches only when its head lies outside R and outside the set it
inherited, has a free out-arc, and its tail has a free in-arc.  When level
e searches, ``fixed[x]`` is the number of x's edges among 0..e, the fixed
prefix of x's incidence row, so ``_out[x] >> fixed[x]`` (see
:mod:`orientations.paths`) holds x's out-arcs among the free edges
e+1..m-1, and ``(_row_mask[x] ^ _out[x]) >> fixed[x]`` its free in-arcs.
No path into the tail starts inside R, and a path from head to tail leaves
head and enters tail by free arcs, so a level that does not search would
find no path.  It hands up the set it received, R or the prefix it kept,
which is empty when level e+1 handed up none.  That set is a cut one level
up: no free arc leaves it, and edge e, which the level above frees, runs
from tail to head, so it leaves the set only when the set holds its tail.
(When the head has no free out-arc, the set with the head added is a cut
too, but one level up the tail is often this head, and that level would
keep only a prefix without it.)  At the last level every edge is fixed, so
its search is always skipped.
``_EdgeLevels`` owns ``fixed``, the cut and the set passed down.  A search
adds the vertices it reaches after those it treats as reached, so a level
that flips takes the set it passes down as the head of its search tree, a
slice of a dict in insertion order.  Like ``fixed``, the sets, the kept
prefix and the merge are walk bookkeeping: they touch no arc and are not
charged.

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

import weakref
from collections.abc import Callable, Iterator, Sequence
from itertools import islice

from .metering import DelayMeter
from .multigraph import Multigraph, Orientation, _integers
from .paths import _flip, _shortest_path

__all__ = ["find_alpha_orientation", "enumerate_alpha"]


def find_alpha_orientation(
    graph: Multigraph,
    alpha: Sequence[int],
    meter: DelayMeter | None = None,
) -> Orientation | None:
    """An orientation whose outdegree vector equals ``alpha``, or None.

    Starts from the all-forward orientation and repeatedly reverses a
    shortest directed path from a vertex above its target outdegree to one
    below it; each reversal moves one unit of outdegree.  When no such path
    remains while targets are unmet, none exists (the set reachable from the
    overfull vertices certifies infeasibility).
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
        surplus = [v for v in range(graph.n) if out[v] > target[v]]
        if not surplus:
            return d
        deficit = {v for v in range(graph.n) if out[v] < target[v]}
        path = _shortest_path(d, surplus, deficit, None, meter)
        if path is None:
            return None
        out[d.tail(path[0])] -= 1
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

    Walks the edges in index order (see ``walk``).  At each level the current
    edge is first kept as is, then, when a directed path from its head back
    to its tail avoids all already-fixed edges, flipped together with that
    path (a directed cycle, so the outdegree vector is preserved).  Emission
    happens when every edge is fixed.  Returns the number of solutions.
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
    for each option at level ``i``, yields once per option, and restores the
    state before it moves on and before it ends.  The open generators sit on
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


class _EdgeLevels:
    # The alpha expansion's edge levels over d, and the walk state they
    # share.  choices(e) keeps edge e, then flips it with a completing cycle
    # that avoids the fixed edges 0..e-1 when one exists.  Each level counts
    # its edge in fixed at both ends while it is open, so when level e
    # searches, fixed[x] counts the edges at x among 0..e, which lead x's
    # incidence row, and the search skips them.  Skipping e itself changes
    # no search: at the source, head, it is an in-arc, and the target, tail,
    # is never scanned.
    #
    # When level e resumes, cut holds the set R that level e+1 handed up ({}
    # at the last level), and down the set that the nearest flipping level
    # above passed down ({} below none).  Of an R that holds tail the level
    # keeps only the longest prefix that ends before a root and misses tail,
    # and a down that holds tail it does not use.  It searches only when
    # head lies outside both, has a free out-arc, and tail has a free in-arc
    # (see the module docstring); the search never expands them.  A failed
    # search leaves the set it reached in cut, and a level that does not
    # search leaves R or its kept prefix.  A level that flips passes down
    # the union its search skipped, restores down after its flip subtree,
    # and leaves in cut the set the subtree handed up when that is not
    # empty and misses head and tail, and otherwise that union.
    __slots__ = ("d", "meter", "fixed", "cut", "down")

    def __init__(self, d: Orientation, meter: DelayMeter):
        self.d, self.meter = d, meter
        self.fixed, self.cut, self.down = [0] * d.graph.n, {}, {}

    def choices(self, e: int) -> Iterator[None]:
        d, fixed, out, rows = self.d, self.fixed, self.d._out, self.d.graph._row_mask
        u, v = d.graph.edges[e]
        tail, head = (u, v) if d.forward(e) else (v, u)
        fixed[u] += 1
        fixed[v] += 1
        self.cut = {}
        yield
        reached = self.cut
        if tail in reached:
            reached = _closed_prefix(reached, tail)
        path = None
        if head not in reached and out[head] >> fixed[head] and (rows[tail] ^ out[tail]) >> fixed[tail]:
            down = self.down
            inherited = {} if tail in down else down
            if head not in inherited:
                if inherited:
                    _merge(reached, inherited)
                searched = len(reached)
                path = _shortest_path(d, (head,), (tail,), fixed, self.meter, reached)
        if path is None:
            self.cut = reached
        else:
            reached = dict(islice(reached.items(), searched)) if searched else {}
            path.append(e)
            _flip(d, path, self.meter)
            self.down = reached
            yield
            self.down = down
            _flip(d, path, self.meter)
            below = self.cut
            self.cut = below if below and head not in below and tail not in below else reached
        fixed[u] -= 1
        fixed[v] -= 1


def _closed_prefix(members: dict, x: int) -> dict:
    # The longest prefix of members that ends before a root, a vertex
    # mapped to None, and misses x.
    end = i = 0
    for y, via in members.items():
        if via is None:
            end = i
        if y == x:
            break
        i += 1
    return dict(islice(members.items(), end)) if end else {}


def _merge(into: dict, more: dict) -> None:
    # Adds the vertices of more that into lacks, after its own, so that no
    # root moves and none is made.
    if into.keys().isdisjoint(more):
        into.update(more)
    else:
        for x, via in more.items():
            into.setdefault(x, via)
