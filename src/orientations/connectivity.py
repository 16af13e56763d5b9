"""k-arc-connectivity of orientations and edge connectivity of multigraphs.

Both count arc-disjoint paths with the reverse-and-repeat scheme of
:mod:`orientations.paths`: the paths are flipped in place and restored, so
an orientation passed in is unchanged on return.
"""
from __future__ import annotations

from .metering import DelayMeter
from .multigraph import Multigraph, Orientation
from .paths import _count_paths, lambda_at_least

__all__ = ["is_k_connected", "edge_connectivity"]


def is_k_connected(orientation: Orientation, k: int, meter: DelayMeter | None = None) -> bool:
    """True iff every nonempty proper vertex subset has at least ``k`` leaving arcs.

    Checked as: at least ``k`` arc-disjoint directed paths from a fixed root
    to every other vertex and back (every cut separates the root from some
    vertex in one of the two directions).  A single-vertex graph has no
    valid cut and is k-connected for every k.  ``k = 0`` is rejected.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    for v in range(1, orientation.graph.n):
        if not lambda_at_least(orientation, 0, v, k, meter):
            return False
        if not lambda_at_least(orientation, v, 0, k, meter):
            return False
    return True


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
