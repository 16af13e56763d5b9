"""Finding one k-arc-connected orientation.

A k-connected orientation exists iff the multigraph is 2k-edge-connected
(Nash-Williams), which gives a sound fast reject; the witness itself comes
from a pruned backtracking search over edge directions.  For k = 1 the
reject needs no path count: a graph is 2-edge-connected exactly when the
orientation a depth-first search gives it, tree edges away from the root
and every other edge toward its end discovered first, is strongly
connected (Robbins 1939), which one search and the two sweeps of
``is_k_connected`` decide in linear time.  The finder seeds
the k-connected search of :mod:`orientations.sequences` when the caller
gives no seed.

The search directs the edges in index order, and every incidence row is
in index order, so the edges it has directed at a vertex w are a prefix of
w's row, the first ``fixed[w]``, and w's decided out-arcs are the bits of
``_out[w]`` in that prefix; it keeps no other count.  (The alpha
expansion fixes its edges in another order and keeps masks of the free
entries instead.)  Trying a
direction costs an arc touch only when it flips the edge, through
``paths._flip``.
"""
from __future__ import annotations

from collections.abc import Iterator

from .alpha import walk
from .connectivity import _edge_connectivity, is_k_connected
from .metering import DelayMeter
from .multigraph import Multigraph, Orientation
from .paths import _check_positive, _flip

__all__ = ["find_k_connected_orientation"]


def find_k_connected_orientation(
    graph: Multigraph,
    k: int,
    meter: DelayMeter | None = None,
) -> Orientation | None:
    """Some k-connected orientation of ``graph``, or None when there is none.

    Rejects immediately when the edge connectivity, counted only up to 2k
    (for k = 1 decided by Robbins' theorem), is below 2k; otherwise a
    witness is guaranteed to exist and a ``walk`` over edge directions in
    index order finds it, pruning partial assignments that already starve
    a vertex of out- or in-capacity.
    Returns at the first complete assignment that is k-connected.  A ``k``
    that is not an integer of at least 1 is rejected with ``ValueError``.
    """
    _check_positive(k, "k")
    if k == 1:
        if not is_k_connected(_robbins_orientation(graph), 1):
            return None
    elif _edge_connectivity(graph, 2 * k) < 2 * k:
        return None

    # The walk directs the edges of d; the first fixed[w] edges of w's row
    # are directed.  When ``out`` of them leave w, w ends with at most
    # out + degree(w) - fixed[w] out-arcs and degree(w) - out in-arcs.
    d = Orientation(graph)
    fixed = [0] * graph.n

    def viable(w: int) -> bool:
        out = (d._out[w] & (1 << fixed[w]) - 1).bit_count()
        return out + graph.degree(w) - fixed[w] >= k and graph.degree(w) - out >= k

    def directions(e: int) -> Iterator[None]:
        u, v = graph.edges[e]
        fixed[u] += 1
        fixed[v] += 1
        for fwd in (True, False):
            if d.forward(e) != fwd:
                _flip(d, (e,), meter)
            if viable(u) and viable(v):
                yield
        fixed[u] -= 1
        fixed[v] -= 1

    for _ in walk(graph.m, directions):
        if is_k_connected(d, k, meter):
            return d
    return None


def _robbins_orientation(graph: Multigraph) -> Orientation:
    # A depth-first search from vertex 0 directs each edge away from the
    # vertex that scans it first: a tree edge away from the root, any other
    # edge toward an ancestor, the end discovered first.  Edges it does not
    # reach point backward.
    dirs, found = [None] * graph.m, [v == 0 for v in range(graph.n)]
    stack = [iter(row) for row in graph.incidence[:1]]
    while stack:
        for e, w, first in stack[-1]:
            if dirs[e] is None:
                dirs[e] = first
                if not found[w]:
                    found[w] = True
                    stack.append(iter(graph.incidence[w]))
                    break
        else:
            stack.pop()
    return Orientation(graph, dirs)
