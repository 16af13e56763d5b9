"""Brute-force reference for the CLI's ``--oracle``.

Everything here favors obviousness over speed: orientations are listed by
binary counting, and connectivity is checked directly against the cut
definition by scanning every vertex subset.  Hard input-size guards fail
fast instead of running for hours.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from .multigraph import Multigraph, Orientation
from .paths import _check_positive

__all__ = [
    "MAX_ORACLE_EDGES",
    "MAX_CUT_VERTICES",
    "all_orientations",
    "brute_is_k_connected",
]

MAX_ORACLE_EDGES = 25
MAX_CUT_VERTICES = 12


def _guard_edges(graph: Multigraph) -> None:
    if graph.m > MAX_ORACLE_EDGES:
        raise ValueError(f"oracle limited to {MAX_ORACLE_EDGES} edges, got {graph.m}")


def _guard_vertices(graph: Multigraph) -> None:
    if graph.n > MAX_CUT_VERTICES:
        raise ValueError(f"cut enumeration limited to {MAX_CUT_VERTICES} vertices, got {graph.n}")


def all_orientations(graph: Multigraph) -> Iterator[Orientation]:
    """All 2^m orientations, lexicographic in the '+'/'-' serialization."""
    _guard_edges(graph)
    m = graph.m
    for code in range(1 << m):
        yield Orientation(graph, (0 if (code >> (m - 1 - j)) & 1 else 1 for j in range(m)))


@lru_cache(maxsize=16)
def _cut_table(graph: Multigraph) -> tuple[tuple[int, int, int], ...]:
    # Per cut X (vertex bitmask): edge masks for crossing edges whose first
    # endpoint is inside, and whose second endpoint is inside.  The cache
    # keeps the tables of the last few graphs only, each up to 2^12 - 2 rows.
    _guard_vertices(graph)
    table = []
    for x in range(1, (1 << graph.n) - 1):
        first_in = 0
        second_in = 0
        for e, (u, v) in enumerate(graph.edges):
            u_in = (x >> u) & 1
            v_in = (x >> v) & 1
            if u_in and not v_in:
                first_in |= 1 << e
            elif v_in and not u_in:
                second_in |= 1 << e
        table.append((x, first_in, second_in))
    return tuple(table)


def _forward_mask(orientation: Orientation) -> int:
    mask = 0
    for e in range(orientation.graph.m):
        if orientation.forward(e):
            mask |= 1 << e
    return mask


def _min_cut_outdegree(graph: Multigraph, forward_mask: int) -> int:
    # Arcs leaving X: forward edges with first endpoint inside, plus
    # non-forward edges with second endpoint inside.  The start, 10**9,
    # stands for "no cut": a graph with fewer than two vertices has none and
    # is k-connected for every k.
    best = 10**9
    for _, first_in, second_in in _cut_table(graph):
        out = (forward_mask & first_in).bit_count() + (second_in & ~forward_mask).bit_count()
        if out < best:
            best = out
    return best


def brute_is_k_connected(orientation: Orientation, k: int) -> bool:
    """k-connectivity straight from the definition: every cut has >= k leaving arcs.

    A ``k`` that is not an integer of at least 1 is rejected with
    ``ValueError``, as by ``is_k_connected``.
    """
    _check_positive(k, "k")
    graph = orientation.graph
    return _min_cut_outdegree(graph, _forward_mask(orientation)) >= k
