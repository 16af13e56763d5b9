"""Finding one k-arc-connected orientation and enumerating them all.

A k-connected orientation exists iff the multigraph is 2k-edge-connected
(Nash-Williams), which gives a sound fast reject; the witness itself comes
from a pruned backtracking search over edge directions.  Enumeration is one
``walk`` over a single orientation with ``n + m`` levels: the vertex levels
of the outdegree-sequence search, then the edge levels of the alpha
expansion of the sequence reached.  Solutions of equal outdegree vector are
therefore contiguous in the output stream.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator

from .alpha import _edge_choices, _emit_leaves, walk
from .connectivity import _edge_connectivity, is_k_connected
from .metering import DelayMeter
from .multigraph import Multigraph, Orientation
from .sequences import _vertex_choices

__all__ = ["find_k_connected_orientation", "enumerate_k_connected"]


def find_k_connected_orientation(
    graph: Multigraph,
    k: int,
    meter: DelayMeter | None = None,
) -> Orientation | None:
    """Some k-connected orientation of ``graph``, or None when there is none.

    Rejects immediately when the edge connectivity, counted only up to 2k,
    is below 2k; otherwise a witness is guaranteed to exist and a ``walk``
    over edge directions in index order finds it, pruning partial
    assignments that already starve a vertex of out- or in-capacity.
    Returns at the first complete assignment that is k-connected.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if graph.n <= 1:
        return Orientation(graph)
    if _edge_connectivity(graph, 2 * k) < 2 * k:
        return None

    out = [0] * graph.n
    inn = [0] * graph.n
    remaining = [graph.degree(v) for v in range(graph.n)]
    dirs = bytearray(graph.m)

    def viable(w: int) -> bool:
        return out[w] + remaining[w] >= k and inn[w] + remaining[w] >= k

    def directions(e: int) -> Iterator[None]:
        u, v = graph.edges[e]
        remaining[u] -= 1
        remaining[v] -= 1
        for fwd in (1, 0):
            tail, head = (u, v) if fwd else (v, u)
            out[tail] += 1
            inn[head] += 1
            dirs[e] = fwd
            if meter is not None:
                meter.arcs(1)
            if viable(u) and viable(v):
                yield
            out[tail] -= 1
            inn[head] -= 1
        remaining[u] += 1
        remaining[v] += 1

    for _ in walk(graph.m, directions):
        d = Orientation(graph, dirs)
        if is_k_connected(d, k, meter):
            return d
    return None


def enumerate_k_connected(
    graph: Multigraph,
    k: int,
    sink: Callable[[Orientation], None],
    *,
    seed: Orientation | None = None,
    meter: DelayMeter | None = None,
) -> int:
    """Stream every k-connected orientation of ``graph`` exactly once.

    Below each leaf of the outdegree-sequence search, expands the full set
    of orientations sharing that sequence (all of which are k-connected
    exactly when one is).  Orientations with equal outdegree vectors are
    therefore contiguous in the stream.  Returns the count; infeasible input
    yields an empty stream.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    meter = meter if meter is not None else DelayMeter()
    if seed is None:
        d = find_k_connected_orientation(graph, k, meter)
        if d is None:
            meter.finished()
            return 0
    else:
        if seed.graph != graph:
            raise ValueError("seed orients a different graph")
        if not is_k_connected(seed, k):
            raise ValueError("seed orientation is not k-connected")
        d = seed.copy()
    n = graph.n
    out = list(d.outdegrees())

    def choices(i: int) -> Iterator[None]:
        if i < n:
            return _vertex_choices(d, out, i, k, meter)
        return _edge_choices(d, i - n, meter)

    return _emit_leaves(d, walk(n + graph.m, choices), sink, meter)
