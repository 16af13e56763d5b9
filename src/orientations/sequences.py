"""Enumeration of the outdegree sequences attained by k-arc-connected orientations.

The search fixes vertices in index order.  At the current vertex it branches
three ways: lower its outdegree step by step (reversing a directed path
leaving it whenever the path's endpoints admit more than k arc-disjoint
paths, so connectivity survives), raise it symmetrically, and keep it.
Every branch freezes the vertex and recurses; a leaf, where all vertices
are frozen, emits one sequence.  Completeness rests on the witness fact
that whenever two k-connected orientations disagree at a vertex, a
connectivity-preserving path reversal moves one toward the other without
touching frozen vertices.
"""
from __future__ import annotations

from collections.abc import Callable

from .connectivity import is_k_connected
from .metering import DelayMeter
from .multigraph import Multigraph, Orientation
from .paths import find_directed_path, is_flippable_pair

__all__ = ["enumerate_outdegree_sequences"]


class OutdegreeSearch:
    """Depth-first search over outdegree sequences of k-connected orientations.

    Owns a scratch orientation that is mutated with undo; ``leaf`` is called
    with the search itself whenever all vertices are frozen.  Shared by the
    sequence enumerator and the full orientation enumerator.
    """

    __slots__ = ("d", "out", "k", "leaf", "meter", "check")

    def __init__(self, d: Orientation, k: int, leaf, meter: DelayMeter, check: bool):
        self.d = d
        self.out = list(d.outdegrees())
        self.k = k
        self.leaf = leaf
        self.meter = meter
        self.check = check

    def run(self) -> None:
        self._descend(0)

    def _descend(self, frozen: int) -> None:
        if frozen == self.d.graph.n:
            self.leaf(self)
            return
        v = frozen
        self._reverse_branch(v, frozen, lowering=True)
        self._reverse_branch(v, frozen, lowering=False)
        self._descend(frozen + 1)

    def _reverse_branch(self, v: int, frozen: int, lowering: bool) -> None:
        u = self._first_flippable(v, frozen, lowering)
        if u is None:
            return
        src, dst = (v, u) if lowering else (u, v)
        path = find_directed_path(self.d, src, dst, (), self.meter)
        if not path.found:
            raise AssertionError("flippable pair without a directed path")
        self._flip(path, src, dst)
        self._reverse_branch(v, frozen, lowering)
        self._descend(frozen + 1)
        self._flip(path, dst, src)

    def _first_flippable(self, v: int, frozen: int, lowering: bool) -> int | None:
        # Smallest unfrozen partner u (u > v since v is the smallest unfrozen
        # vertex) such that the relevant ordered pair tolerates a reversal.
        for u in range(frozen + 1, self.d.graph.n):
            pair = (v, u) if lowering else (u, v)
            if is_flippable_pair(self.d, *pair, self.k, self.meter):
                return u
        return None

    def _flip(self, path, src: int, dst: int) -> None:
        self.d._flip(path.edges)
        self.meter.arcs(len(path.edges))
        self.out[src] -= 1
        self.out[dst] += 1
        if self.check and not is_k_connected(self.d, self.k):
            raise AssertionError("path reversal broke k-connectivity")


def enumerate_outdegree_sequences(
    graph: Multigraph,
    k: int,
    seed: Orientation,
    sink: Callable[[tuple[int, ...], Orientation], None],
    *,
    meter: DelayMeter | None = None,
    check_invariants: bool = False,
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
    count = 0

    def leaf(search: OutdegreeSearch) -> None:
        nonlocal count
        meter.arcs(graph.m)
        sink(tuple(search.out), search.d.copy())
        meter.emitted()
        count += 1

    OutdegreeSearch(seed.copy(), k, leaf, meter, check_invariants).run()
    meter.finished()
    return count
