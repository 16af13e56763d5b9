"""Enumeration of k-arc-connected orientations and of their outdegree sequences.

Both enumerators run one search.  It resolves the seed (the finder of
:mod:`orientations.kconn` when none is given), then walks one orientation
through ``n`` vertex levels and, when listing orientations, ``m`` edge
levels more: the alpha expansion of the sequence that the vertex levels
reached.  Listing sequences is thus the first stage of listing
orientations, and orientations of equal outdegree vector are contiguous.
The finder, or ``is_k_connected`` on a given seed, rejects k < 1.

The choice generator of a vertex first lowers its outdegree as far as it
will go, reversing a directed path leaving it whenever the path's endpoints
admit more than k arc-disjoint paths, so connectivity survives; the paths
reversed are ones the count of those paths found.  It then yields once per
step on the way back, deepest first, undoing one reversal per yield.  It does
the same for raising, and finally keeps the vertex as it is; each reversal
and undo is ``paths._reverse``.  Completeness rests on the witness fact that
whenever two k-connected orientations disagree at a vertex, a
connectivity-preserving path reversal moves one toward the other without
touching fixed vertices.

A chain takes the later vertices u in order and makes one count of the
arc-disjoint paths between v and each u that no cut has ruled out: from v
when lowering, into v when raising.  Its limit, the degree of v plus one,
is more than any count can find, so every count ends in a failing search.
The count's paths P_1, ..., P_λ are those of successive reversals: P_i is
the first path found once P_1, ..., P_(i-1) are reversed, and each reversal
lowers λ by exactly one, since it leaves every cut between the pair with
one leaving arc fewer.  Testing the pair afresh after every reversal, and
reversing the first path found while more than k exist, would therefore
reverse P_1, ..., P_(λ-k); the chain reverses just these, with no re-test.
The count's final search runs on the orientation with all λ paths
reversed, the one the last failing re-test would search, so it reaches the
same set R.

R holds the count's source, not its target, and once the chain has
reversed its paths toward u it is left by at most k arcs.  So when lowering
v no later vertex outside R can have more than k paths from v, and when
raising no vertex inside R can have more than k paths into v.  Each path a
chain reverses joins v to a vertex that no earlier cut ruled out, so its
ends lie on one side of every such cut and the number of arcs leaving the
cut does not change: the cuts hold for the rest of the chain, which counts
only toward vertices no cut has ruled out.  It finds the same vertices and
paths as a fresh scan from v+1 after every reversal, and skips only tests
whose answer is already known.  Lowering and raising test pairs in opposite
directions, so each starts afresh.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator

from .alpha import _edge_choices, _emit_leaves, walk
from .connectivity import is_k_connected
from .kconn import find_k_connected_orientation
from .metering import DelayMeter
from .multigraph import Multigraph, Orientation
from .paths import _count_paths, _reverse

__all__ = ["enumerate_outdegree_sequences", "enumerate_k_connected"]


def _vertex_choices(d: Orientation, out: list[int], v: int, k: int, meter: DelayMeter) -> Iterator[None]:
    # One chain per direction: a count for each later (so not yet fixed)
    # vertex that no cut has ruled out and the reversal of the first λ-k of
    # its paths, all before the chain's first yield (see the module
    # docstring); then one yield per reversal, undoing them deepest first.
    # ``out`` mirrors d's outdegrees and moves with every reversal.
    n = d.graph.n
    limit = d.graph.degree(v) + 1
    for lowering in (True, False):
        chain = []
        candidates = set(range(v + 1, n))
        for u in range(v + 1, n):
            if u in candidates:
                src, dst = (v, u) if lowering else (u, v)
                paths, reached = _count_paths(d, src, dst, limit, meter)
                for edges in paths[: len(paths) - k]:  # d stays k-connected: λ >= k
                    _reverse(d, out, edges, src, dst, meter)
                    chain.append((src, dst, edges))
                if lowering:
                    candidates.intersection_update(reached)
                else:
                    candidates.difference_update(reached)
        while chain:
            src, dst, edges = chain.pop()
            yield
            _reverse(d, out, edges, dst, src, meter)
    yield


def _search(graph: Multigraph, k: int, seed: Orientation | None, edge_levels: int, emit, meter) -> int:
    # Walks n vertex levels and ``edge_levels`` edge levels from the seed and
    # calls emit(out, copy) at every leaf; returns the number of leaves.
    meter = meter if meter is not None else DelayMeter()
    if seed is None:
        d = find_k_connected_orientation(graph, k, meter)
        if d is None:
            return _emit_leaves(d, (), emit, meter)
    else:
        if seed.graph != graph:
            raise ValueError("seed orients a different graph")
        if not is_k_connected(seed, k):
            raise ValueError("seed orientation is not k-connected")
        d = seed.copy()
    n = graph.n
    out = list(d.outdegrees())
    fixed = [0] * n

    def choices(i: int) -> Iterator[None]:
        if i < n:
            return _vertex_choices(d, out, i, k, meter)
        return _edge_choices(d, i - n, meter, fixed)

    return _emit_leaves(d, walk(n + edge_levels, choices), lambda copy: emit(out, copy), meter)


def enumerate_outdegree_sequences(
    graph: Multigraph,
    k: int,
    seed: Orientation | None,
    sink: Callable[[tuple[int, ...], Orientation], None],
    *,
    meter: DelayMeter | None = None,
) -> int:
    """Stream every k-connected outdegree sequence of ``graph`` exactly once.

    ``seed`` is a k-connected orientation of ``graph`` to start from, or
    None to find one first (on the same meter).  The sink receives each
    sequence together with a witnessing orientation that attains it.
    Returns the number of sequences; infeasible input yields an empty stream.
    """
    return _search(graph, k, seed, 0, lambda out, d: sink(tuple(out), d), meter)


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
    return _search(graph, k, seed, graph.m, lambda out, d: sink(d), meter)
