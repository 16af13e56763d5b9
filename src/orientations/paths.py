"""Directed path search and arc-disjoint path counting over orientations.

This is the primitive layer under both enumerators and the only module that
searches for paths.  The search is a plain BFS that explores out-arcs in
edge-index order, so among shortest paths the one through the lowest-indexed
arcs is found first and every caller inherits that determinism.

A search may be told that a prefix of each vertex's incidence row is fixed:
``fixed[x]`` entries of ``incidence[x]``, which is in edge-index order.  It
scans only the rest of each row and neither uses nor counts the fixed
entries.  The alpha expansion fixes edges in index order, so below its edge
level e the fixed edges 0..e are exactly such a prefix at every vertex.

The number of pairwise arc-disjoint directed u-to-v paths is counted by the
reverse-and-repeat scheme: find a path, reverse it, and iterate.  Each
reversal lowers the u-to-v path count by exactly one, so the count is the
number of iterations that find a path.  The paths are flipped in place and
restored before they are returned; the first of them is a shortest path of
the orientation as given, so a caller that tests a pair and then reverses a
path between it needs no second search.  Path i is the first path of a fresh
count once paths 0..i-1 are reversed, so the paths are successive reversals.
A count that falls short also hands back the vertices its last search
reached: a cut that certifies the shortfall for other pairs too.

Every search moves by ``_flip``: reverse a path or cycle, or undo that, and
pay one arc touch per edge.  ``_reverse`` adds the unit of outdegree that a
path reversal moves.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Collection, KeysView, Sequence

from .metering import DelayMeter
from .multigraph import Orientation

__all__ = ["lambda_at_least"]


def _shortest_path(
    orientation: Orientation,
    sources: Sequence[int],
    targets: Collection[int],
    fixed: Sequence[int] | None,
    meter: DelayMeter | None,
    reached: dict | None = None,
) -> list[int] | None:
    # Multi-source BFS along current arcs, skipping the first fixed[x]
    # entries of each row (none when ``fixed`` is None), to the first
    # discovered target; a source is never reported as its own target.
    # ``reached``, when given, is an empty dict that receives the search
    # tree, so its keys are the vertices the search reached.  Vertex ids are
    # not checked: callers take them from the graph or from lambda_at_least.
    parent: dict[int, tuple[int, int] | None] = {} if reached is None else reached
    for x in sources:
        parent[x] = None
    dirs = orientation._dirs
    rows = orientation.graph.incidence
    if meter is not None:
        meter.bfs()
    touched = 0
    queue = deque(sources)
    hit = None
    while queue and hit is None:
        x = queue.popleft()
        for e, w, x_is_first in rows[x] if fixed is None else rows[x][fixed[x] :]:
            touched += 1
            # dirs[e] (0 or 1) equals x_is_first exactly when the arc leaves x.
            if dirs[e] != x_is_first or w in parent:
                continue
            parent[w] = (x, e)
            if w in targets:
                hit = w
                break
            queue.append(w)
    if meter is not None:
        meter.arcs(touched)
    if hit is None:
        return None
    edges: list[int] = []
    step = parent[hit]
    while step is not None:
        x, e = step
        edges.append(e)
        step = parent[x]
    edges.reverse()
    return edges


def _flip(d: Orientation, edges: list[int], meter: DelayMeter | None) -> None:
    # Reverses the edges and charges one arc touch per edge (none without a meter).
    d._flip(edges)
    if meter is not None:
        meter.arcs(len(edges))


def _reverse(d: Orientation, out: list[int], edges: list[int], src: int, dst: int, meter) -> None:
    # Reverses a directed src-to-dst path and moves one unit of outdegree
    # from src to dst in ``out``, the caller's mirror of d's outdegrees.
    _flip(d, edges, meter)
    out[src] -= 1
    out[dst] += 1


def _count_paths(
    orientation: Orientation,
    u: int,
    v: int,
    limit: int,
    meter: DelayMeter | None = None,
) -> tuple[list[list[int]], KeysView[int] | None]:
    # Arc-disjoint u-to-v paths, up to ``limit`` of them, found by reversing
    # one shortest path at a time; the first is a path of the orientation as
    # given.  Every flip, the undo flips included, is an arc touch; the
    # orientation is restored even when the search raises.
    #
    # Returned with the paths is a cut when fewer than ``limit`` exist, else
    # None: the vertices the last, failing search reached.  That set R holds
    # u but not v, and exactly len(paths) arcs leave it in the orientation as
    # given: none leave it after the flips, and each flipped path, running
    # out of R, had lowered that number by one.  Reversing a path whose ends
    # lie on one side of R leaves the number unchanged.
    paths: list[list[int]] = []
    try:
        while len(paths) < limit:
            reached: dict = {}
            path = _shortest_path(orientation, (u,), (v,), None, meter, reached)
            if path is None:
                return paths, reached.keys()
            _flip(orientation, path, meter)
            paths.append(path)
        return paths, None
    finally:
        for path in paths:
            _flip(orientation, path, meter)


def lambda_at_least(
    orientation: Orientation,
    u: int,
    v: int,
    threshold: int,
    meter: DelayMeter | None = None,
) -> bool:
    """True iff there are at least ``threshold`` pairwise arc-disjoint directed u-to-v paths.

    Raises ``ValueError`` when ``u`` or ``v`` is not a vertex or both are equal.
    """
    n = orientation.graph.n
    for x in (u, v):
        if not 0 <= x < n:
            raise ValueError(f"vertex {x} out of range for {n} vertices")
    if u == v:
        raise ValueError("u and v must differ")
    if threshold < 1:
        raise ValueError("threshold must be at least 1")
    return len(_count_paths(orientation, u, v, threshold, meter)[0]) == threshold
