"""Enumeration of the outdegree sequences attained by k-arc-connected orientations.

The search fixes vertices in index order, one ``walk`` level per vertex.  The
choice generator of a vertex first lowers its outdegree as far as it will
go, reversing a directed path leaving it whenever the path's endpoints admit
more than k arc-disjoint paths, so connectivity survives; it then yields
once per step on the way back, deepest first, undoing one reversal per
yield.  It does the same for raising, and finally keeps the vertex as it
is.  A leaf, where every vertex is fixed, emits one sequence.  Completeness
rests on the witness fact that whenever two k-connected orientations
disagree at a vertex, a connectivity-preserving path reversal moves one
toward the other without touching fixed vertices.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator

from .alpha import walk
from .connectivity import is_k_connected
from .metering import DelayMeter
from .multigraph import Multigraph, Orientation
from .paths import find_directed_path, is_flippable_pair

__all__ = ["enumerate_outdegree_sequences"]


def _vertex_choices(d: Orientation, out: list[int], v: int, k: int, meter: DelayMeter) -> Iterator[None]:
    # ``out`` mirrors d's outdegrees and moves with every reversal.
    for lowering in (True, False):
        chain = []
        while (pair := _flippable_pair(d, v, lowering, k, meter)) is not None:
            src, dst = pair
            path = find_directed_path(d, src, dst, (), meter)
            if not path.found:
                raise AssertionError("flippable pair without a directed path")
            _reverse(d, out, path.edges, src, dst, meter)
            chain.append((path.edges, src, dst))
        while chain:
            edges, src, dst = chain.pop()
            yield
            _reverse(d, out, edges, dst, src, meter)
    yield


def _flippable_pair(d: Orientation, v: int, lowering: bool, k: int, meter: DelayMeter):
    # The ordered pair of v with the smallest later (so not yet fixed) vertex
    # that tolerates a reversal, or None.
    for u in range(v + 1, d.graph.n):
        pair = (v, u) if lowering else (u, v)
        if is_flippable_pair(d, *pair, k, meter):
            return pair
    return None


def _reverse(d, out, edges, src, dst, meter) -> None:
    d._flip(edges)
    meter.arcs(len(edges))
    out[src] -= 1
    out[dst] += 1


def enumerate_outdegree_sequences(
    graph: Multigraph,
    k: int,
    seed: Orientation,
    sink: Callable[[tuple[int, ...], Orientation], None],
    *,
    meter: DelayMeter | None = None,
) -> int:
    """Stream every k-connected outdegree sequence of ``graph`` exactly once.

    ``seed`` must be a k-connected orientation of ``graph``; finding one is
    the caller's job.  The sink receives each sequence together with a
    witnessing orientation that attains it.  Returns the number of
    sequences.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if seed.graph != graph:
        raise ValueError("seed orients a different graph")
    if not is_k_connected(seed, k):
        raise ValueError("seed orientation is not k-connected")
    meter = meter if meter is not None else DelayMeter()
    d = seed.copy()
    out = list(d.outdegrees())
    count = 0
    for _ in walk(graph.n, lambda v: _vertex_choices(d, out, v, k, meter)):
        meter.arcs(graph.m)
        sink(tuple(out), d.copy())
        meter.emitted()
        count += 1
    meter.finished()
    return count
