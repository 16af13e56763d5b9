"""Finding one k-arc-connected orientation.

A k-connected orientation exists iff the multigraph is 2k-edge-connected
(Nash-Williams), which gives a sound fast reject; the witness itself comes
from a pruned backtracking search over edge directions.  The finder seeds
the k-connected search of :mod:`orientations.sequences` when the caller
gives no seed.
"""
from __future__ import annotations

from collections.abc import Iterator

from .alpha import walk
from .connectivity import _edge_connectivity, is_k_connected
from .metering import DelayMeter
from .multigraph import Multigraph, Orientation
from .paths import _check_positive

__all__ = ["find_k_connected_orientation"]


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
    Returns at the first complete assignment that is k-connected.  A ``k``
    that is not an integer of at least 1 is rejected with ``ValueError``.
    """
    _check_positive(k, "k")
    if _edge_connectivity(graph, 2 * k) < 2 * k:
        return None

    # The walk directs the edges of d, the orientation it returns.  With
    # remaining[w] of its edges undirected, w ends with at most
    # out[w] + remaining[w] out-arcs and degree(w) - out[w] in-arcs.
    d = Orientation(graph)
    out = [0] * graph.n
    remaining = [graph.degree(v) for v in range(graph.n)]

    def viable(w: int) -> bool:
        return out[w] + remaining[w] >= k and graph.degree(w) - out[w] >= k

    def directions(e: int) -> Iterator[None]:
        u, v = graph.edges[e]
        remaining[u] -= 1
        remaining[v] -= 1
        for fwd in (True, False):
            tail = u if fwd else v
            out[tail] += 1
            if d.forward(e) != fwd:
                d._flip((e,))
            if meter is not None:
                meter.arcs(1)
            if viable(u) and viable(v):
                yield
            out[tail] -= 1
        remaining[u] += 1
        remaining[v] += 1

    for _ in walk(graph.m, directions):
        if is_k_connected(d, k, meter):
            return d
    return None
