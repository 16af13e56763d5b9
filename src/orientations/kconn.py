"""Finding one k-arc-connected orientation and enumerating them all.

A k-connected orientation exists iff the multigraph is 2k-edge-connected
(Nash-Williams), which gives a sound fast reject; the witness itself comes
from a pruned backtracking search over edge directions.  Enumeration then
walks the outdegree-sequence search tree and expands each sequence into all
orientations attaining it, which keeps solutions of equal outdegree vector
contiguous in the output stream.
"""
from __future__ import annotations

from collections.abc import Callable

from .alpha import AlphaBacktrack
from .connectivity import edge_connectivity, is_k_connected
from .metering import DelayMeter
from .multigraph import Multigraph, Orientation
from .sequences import OutdegreeSearch

__all__ = ["find_k_connected_orientation", "enumerate_k_connected"]


def find_k_connected_orientation(
    graph: Multigraph,
    k: int,
    meter: DelayMeter | None = None,
) -> Orientation | None:
    """Some k-connected orientation of ``graph``, or None when there is none.

    Rejects immediately when the edge connectivity is below 2k; otherwise a
    witness is guaranteed to exist and backtracking over edges in index
    order finds it, pruning partial assignments that already starve a
    vertex of out- or in-capacity.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if graph.n <= 1:
        return Orientation(graph)
    if edge_connectivity(graph) < 2 * k:
        return None

    out = [0] * graph.n
    inn = [0] * graph.n
    remaining = [graph.degree(v) for v in range(graph.n)]
    dirs = bytearray(graph.m)

    def viable(w: int) -> bool:
        return out[w] + remaining[w] >= k and inn[w] + remaining[w] >= k

    def assign(e: int) -> Orientation | None:
        if e == graph.m:
            d = Orientation(graph, dirs)
            return d if is_k_connected(d, k, meter) else None
        u, v = graph.edges[e]
        remaining[u] -= 1
        remaining[v] -= 1
        result = None
        for fwd in (1, 0):
            tail, head = (u, v) if fwd else (v, u)
            out[tail] += 1
            inn[head] += 1
            dirs[e] = fwd
            if meter is not None:
                meter.arcs(1)
            if viable(u) and viable(v):
                result = assign(e + 1)
            out[tail] -= 1
            inn[head] -= 1
            if result is not None:
                dirs[e] = fwd
                break
        remaining[u] += 1
        remaining[v] += 1
        return result

    return assign(0)


def enumerate_k_connected(
    graph: Multigraph,
    k: int,
    sink: Callable[[Orientation], None],
    *,
    seed: Orientation | None = None,
    meter: DelayMeter | None = None,
    check_invariants: bool = False,
) -> int:
    """Stream every k-connected orientation of ``graph`` exactly once.

    Runs the outdegree-sequence search and, at each of its leaves, expands
    the full set of orientations sharing that sequence (all of which are
    k-connected exactly when one is).  Orientations with equal outdegree
    vectors are therefore contiguous in the stream.  Returns the count;
    infeasible input yields an empty stream.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    meter = meter if meter is not None else DelayMeter()
    if seed is None:
        start = find_k_connected_orientation(graph, k, meter)
        if start is None:
            meter.finished()
            return 0
    else:
        if seed.graph != graph:
            raise ValueError("seed orients a different graph")
        if not is_k_connected(seed, k):
            raise ValueError("seed orientation is not k-connected")
        start = seed.copy()
    count = 0

    def leaf(search: OutdegreeSearch) -> None:
        nonlocal count
        expand = AlphaBacktrack(
            search.d.copy(),
            tuple(search.out),
            sink,
            meter,
            check_invariants,
        )
        expand.recurse(0)
        count += expand.count

    OutdegreeSearch(start, k, leaf, meter, check_invariants).run()
    meter.finished()
    return count
