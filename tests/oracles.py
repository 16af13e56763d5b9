"""Brute-force references that only the tests use as ground truth.

Each one favors obviousness over speed: it filters the 2^m orientations of
``orientations.oracle`` by outdegree vector or by the cut definition, takes
arc-disjoint path counts from the cut side of Menger's equality, or tries
every completion of a partial orientation.  Hard input-size guards fail fast
instead of running for hours.
"""
from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from itertools import product

from orientations import Multigraph, Orientation
from orientations.oracle import (
    _cut_table,
    _forward_mask,
    _guard_edges,
    _guard_vertices,
    _min_cut_outdegree,
    all_orientations,
)

MAX_FREE_EDGES = 20


@lru_cache(maxsize=None)
def _full_scan(graph: Multigraph) -> tuple[tuple[str, tuple[int, ...], int], ...]:
    # One pass over all orientations: (serialization, outdegrees, min cut outdegree).
    _guard_edges(graph)
    rows = []
    for d in all_orientations(graph):
        mincut = _min_cut_outdegree(graph, _forward_mask(d))
        rows.append((d.serialize(), d.outdegrees(), mincut))
    return tuple(rows)


def oracle_alpha(graph: Multigraph, alpha) -> set[str]:
    """Serializations of every orientation whose outdegree vector equals ``alpha``."""
    target = tuple(alpha)
    if len(target) != graph.n:
        raise ValueError("alpha length must equal vertex count")
    return {text for text, out, _ in _full_scan(graph) if out == target}


def oracle_k_connected(graph: Multigraph, k: int) -> set[str]:
    """Serializations of every k-connected orientation."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return {text for text, _, mincut in _full_scan(graph) if mincut >= k}


def oracle_sequences(graph: Multigraph, k: int) -> set[tuple[int, ...]]:
    """Outdegree vectors attained by the k-connected orientations."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return {out for _, out, mincut in _full_scan(graph) if mincut >= k}


def oracle_lambda(orientation: Orientation, u: int, v: int) -> int:
    """Maximum number of arc-disjoint directed u-to-v paths, via the cut minimum."""
    graph = orientation.graph
    if not (0 <= u < graph.n and 0 <= v < graph.n):
        raise ValueError("u and v must be vertices")
    if u == v:
        raise ValueError("u and v must differ")
    _guard_vertices(graph)
    forward = _forward_mask(orientation)
    best = graph.m
    for x, first_in, second_in in _cut_table(graph):
        if not ((x >> u) & 1) or ((x >> v) & 1):
            continue
        out = (forward & first_in).bit_count() + (second_in & ~forward).bit_count()
        if out < best:
            best = out
    return best


def oracle_mixed_extension(graph: Multigraph, fixed: Mapping[int, bool], k: int) -> bool:
    """True iff some completion of the partially oriented graph is k-connected.

    ``fixed`` maps edge index to direction (True = first-to-second endpoint).
    Every completion of the free edges is tried.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    for e in fixed:
        if not (0 <= e < graph.m):
            raise ValueError(f"fixed edge index out of range: {e}")
    free = [e for e in range(graph.m) if e not in fixed]
    if len(free) > MAX_FREE_EDGES:
        raise ValueError(f"extension oracle limited to {MAX_FREE_EDGES} free edges, got {len(free)}")
    base = 0
    for e, fwd in fixed.items():
        if fwd:
            base |= 1 << e
    for bits in product((1, 0), repeat=len(free)):
        mask = base
        for e, b in zip(free, bits):
            if b:
                mask |= 1 << e
        if _min_cut_outdegree(graph, mask) >= k:
            return True
    return False


def enumerate_k_connected_backtrack(graph: Multigraph, k: int, sink) -> int:
    """Backtrack over edges in index order, keeping a direction only when the
    extension oracle confirms a k-connected completion exists; leaves are
    exactly the k-connected orientations, each produced once, in
    lexicographic serialization order.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if graph.m > MAX_FREE_EDGES:
        raise ValueError(f"backtrack enumeration limited to {MAX_FREE_EDGES} edges, got {graph.m}")
    fixed: dict[int, bool] = {}
    count = 0

    def recurse(depth: int) -> None:
        nonlocal count
        if depth == graph.m:
            sink(Orientation(graph, (1 if fixed[e] else 0 for e in range(graph.m))))
            count += 1
            return
        for fwd in (True, False):
            fixed[depth] = fwd
            if oracle_mixed_extension(graph, fixed, k):
                recurse(depth + 1)
            del fixed[depth]

    if oracle_mixed_extension(graph, fixed, k):
        recurse(0)
    return count
