"""Orientations with a prescribed outdegree vector: find one, list them all.

Two orientations have the same outdegree vector exactly when one arises from
the other by reversing arc-disjoint directed cycles.  The initial search
drives path reversals to the target vector; the enumeration fixes edges in
index order, one level of ``walk`` per edge, whose choice generator keeps
the edge and then flips it with a completing cycle.  Since every incidence
row is in edge-index order, the edges fixed so far are a prefix of each
row; the walk keeps the length of that prefix per vertex, and the search for
a completing cycle scans only the rest of each row.

``walk`` is the one traversal scheme of the package: the k-connected
search of :mod:`orientations.sequences` and the first-solution finder run on
it too, each with its own per-level choice generator.  ``_emit_leaves`` is
the one emission loop: every enumerator hands it the leaves of its walk and
a callback that receives a copy of the orientation at each leaf.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from .metering import DelayMeter
from .multigraph import Multigraph, Orientation
from .paths import _flip, _reverse, _shortest_path

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
    target = [int(a) for a in alpha]
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
        _reverse(d, out, path, d.tail(path[0]), d.head(path[-1]), meter)


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
    fixed = [0] * graph.n
    leaves = () if d is None else walk(graph.m, lambda e: _edge_choices(d, e, meter, fixed))
    return _emit_leaves(d, leaves, sink, meter)


def _emit_leaves(d: Orientation | None, leaves, emit, meter: DelayMeter) -> int:
    # Calls emit with a copy of d at every leaf, closes the run's last gap
    # and returns the number of leaves; an infeasible run hands it none.
    count = 0
    for _ in leaves:
        meter.arcs(d.graph.m)
        emit(d.copy())
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


def _edge_choices(d: Orientation, e: int, meter: DelayMeter, fixed: list[int]) -> Iterator[None]:
    # Keep edge e, then flip it with a completing cycle that avoids the
    # fixed edges 0..e-1 when one exists.  Each level counts its edge in
    # fixed at both ends while it is open, so when level e searches, fixed[x]
    # counts the edges at x among 0..e, which lead x's incidence row, and
    # the search skips them.  Skipping e itself changes no search: at the
    # source, head, it is an in-arc, and the target, tail, is never scanned.
    # The counts are walk bookkeeping, like the walk's stack, and are not
    # charged.
    u, v = d.graph.edges[e]
    fixed[u] += 1
    fixed[v] += 1
    yield
    tail, head = (u, v) if d.forward(e) else (v, u)
    path = _shortest_path(d, (head,), (tail,), fixed, meter)
    if path is not None:
        path.append(e)
        _flip(d, path, meter)
        yield
        _flip(d, path, meter)
    fixed[u] -= 1
    fixed[v] -= 1
