"""Orientations with a prescribed outdegree vector: find one, list them all.

Two orientations have the same outdegree vector exactly when one arises from
the other by reversing arc-disjoint directed cycles, which is what both the
initial search (path-reversal rebalancing driven to the target vector) and
the enumeration (fix edges one by one, branching on a completing cycle)
lean on.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence

from .metering import DelayMeter
from .multigraph import Multigraph, Orientation
from .paths import _shortest_path, find_directed_path

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
        path = _shortest_path(d, surplus, deficit, (), meter)
        if path is None:
            return None
        out[d.tail(path[0])] -= 1
        out[d.head(path[-1])] += 1
        d._flip(path)
        if meter is not None:
            meter.arcs(len(path))


def enumerate_alpha(
    graph: Multigraph,
    alpha: Sequence[int],
    sink: Callable[[Orientation], None],
    *,
    meter: DelayMeter | None = None,
    check_invariants: bool = False,
) -> int:
    """Stream every orientation with outdegree vector ``alpha`` exactly once.

    Depth-first over edges in index order: at each level the current edge is
    first kept as is, then, when a directed path from its head back to its
    tail avoids all already-fixed edges, flipped together with that path
    (a directed cycle, so the outdegree vector is preserved).  Emission
    happens when every edge is fixed.  Returns the number of solutions.
    """
    meter = meter if meter is not None else DelayMeter()
    start = find_alpha_orientation(graph, alpha, meter)
    if start is None:
        meter.finished()
        return 0
    run = AlphaBacktrack(start, tuple(alpha), sink, meter, check_invariants)
    run.recurse(0)
    meter.finished()
    return run.count


class AlphaBacktrack:
    __slots__ = ("d", "alpha", "sink", "meter", "check", "count")

    def __init__(self, d: Orientation, alpha, sink, meter, check):
        self.d = d
        self.alpha = alpha
        self.sink = sink
        self.meter = meter
        self.check = check
        self.count = 0

    def recurse(self, fixed: int) -> None:
        d = self.d
        graph = d.graph
        if fixed == graph.m:
            if self.check and d.outdegrees() != self.alpha:
                raise AssertionError("emitted orientation misses the target outdegrees")
            self.meter.arcs(graph.m)
            self.sink(d.copy())
            self.meter.emitted()
            self.count += 1
            return
        prefix = bytes(d._dirs[:fixed]) if self.check else b""

        self.recurse(fixed + 1)

        e = fixed
        u, v = graph.edges[e]
        tail, head = (u, v) if d.forward(e) else (v, u)
        path = find_directed_path(d, head, tail, range(fixed), self.meter)
        if path.found:
            flips = path.edges + (e,)
            d._flip(flips)
            self.meter.arcs(len(flips))
            self.recurse(fixed + 1)
            d._flip(flips)
            self.meter.arcs(len(flips))

        if self.check and bytes(d._dirs[:fixed]) != prefix:
            raise AssertionError("fixed edge prefix changed within a branch")
