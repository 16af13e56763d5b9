"""k-arc-connectivity of orientations and edge connectivity of multigraphs.

Both count arc-disjoint paths with the reverse-and-repeat scheme of
:mod:`orientations.paths`: the paths are flipped in place and every one of
them is undone, so an orientation passed in is unchanged on return.  Strong
connectivity, k = 1, needs no count: two sweeps from one vertex, one along
out-arcs and one backward along in-arcs, flip nothing and scan each arc at
most once each way.
"""
from __future__ import annotations

from .metering import DelayMeter
from .multigraph import Multigraph, Orientation
from .paths import _check_positive, _count_paths, _grow, lambda_at_least

__all__ = ["is_k_connected", "edge_connectivity"]


def is_k_connected(orientation: Orientation, k: int, meter: DelayMeter | None = None) -> bool:
    """True iff every nonempty proper vertex subset has at least ``k`` leaving arcs.

    Checked as: at least ``k`` arc-disjoint directed paths from a fixed root
    to every other vertex and back (every cut separates the root from some
    vertex in one of the two directions).  For k = 1 that is a sweep into
    the root and, when every vertex reaches it, a sweep out of it, each one
    BFS run and one arc touch per arc scanned.  A single-vertex graph has no
    valid cut and is k-connected for every k.  A ``k`` that is not an
    integer of at least 1 is rejected with ``ValueError``.
    """
    _check_positive(k, "k")
    n = orientation.graph.n
    if k == 1:
        # Inward first: the finder tries each edge forward first, and edges
        # tend to be listed from their lower end, so most candidates it
        # rejects have a vertex that cannot reach vertex 0, and the sweep
        # into 0 finds that after few arcs.
        return n < 2 or all(_reaches_all(orientation, inward, meter) for inward in (True, False))
    for v in range(1, n):
        if not lambda_at_least(orientation, 0, v, k, meter):
            return False
        if not lambda_at_least(orientation, v, 0, k, meter):
            return False
    return True


class _Last:
    # The targets of a sweep: the vertex whose discovery leaves none
    # unreached.  A search asks once about each vertex it discovers.
    def __init__(self, n: int):
        self.unreached = n - 1  # every vertex but the root

    def __contains__(self, w: int) -> bool:
        self.unreached -= 1
        return not self.unreached


def _reaches_all(orientation: Orientation, inward: bool, meter: DelayMeter | None) -> bool:
    # One ``_grow`` over one queue from vertex 0, along out-arcs or backward
    # along in-arcs, that stops once it has reached every vertex: it hits
    # the last vertex it discovers exactly when that is every vertex.
    graph, queue = orientation.graph, [0]
    rows, free = graph.incidence, graph._row_mask
    hit, touched = _grow(rows, orientation._out, free, inward, queue, queue, {0: None}, _Last(graph.n))
    if meter is not None:
        meter.bfs()
        meter.arcs(touched)
    return hit is not None


def edge_connectivity(graph: Multigraph) -> int:
    """Minimum number of edges crossing any cut of the multigraph.

    Computed on the bidirected orientation, which lists every edge twice
    with the copies pointing opposite ways, so edge-disjoint paths become
    arc-disjoint paths: the minimum over all vertices v of the arc-disjoint
    path count from a fixed root to v.  Returns 0 for disconnected graphs.
    Requires at least two vertices.
    """
    if graph.n < 2:
        raise ValueError("edge connectivity needs at least two vertices")
    return _edge_connectivity(graph, graph.m)


def _edge_connectivity(graph: Multigraph, limit: int) -> int:
    # The edge connectivity capped at ``limit``: a caller that only asks
    # whether it reaches ``limit`` stops counting paths there.
    arcs = [a for u, v in graph.edges for a in ((u, v), (v, u))]
    bidirected = Orientation(Multigraph(graph.n, arcs))
    best = limit
    for v in range(1, graph.n):
        # Counting past the running minimum cannot lower it.
        best = len(_count_paths(bidirected, 0, v, best)[0])
    return best
