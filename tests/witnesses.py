"""Witnesses of proof steps, used by the tests only.

``reverse_path`` checks that a path found by the search really is a directed
path before flipping it, ``same_alpha_cycle_decomposition`` exhibits the
cycle decomposition between two orientations with equal outdegrees, and
``class_size_lower_bound_check`` tests the (k-1)n+2 class-size floor.
"""
from __future__ import annotations

from collections.abc import Sequence

from orientations import (
    Multigraph,
    Orientation,
    PathResult,
    enumerate_alpha,
    find_alpha_orientation,
    is_k_connected,
)


def reverse_path(orientation: Orientation, path: PathResult, source: int) -> Orientation:
    """New orientation with exactly the path's edges flipped.

    Reversing a directed path from ``u`` to ``v`` lowers the outdegree of
    ``u`` by one, raises the outdegree of ``v`` by one, and leaves every
    other vertex unchanged.  Raises if ``path`` is not an arc-simple
    directed path leaving ``source`` in the given orientation.
    """
    if not path.found or not path.edges:
        raise ValueError("path was not found or is empty")
    seen: set[int] = set()
    previous_head = source
    for e in path.edges:
        if e in seen:
            raise ValueError(f"edge {e} repeats; not an arc-simple path")
        seen.add(e)
        if orientation.tail(e) != previous_head:
            raise ValueError(f"edge {e} does not leave the head of the previous arc")
        previous_head = orientation.head(e)
    return orientation.reverse_arcs(path.edges)


def same_alpha_cycle_decomposition(d1: Orientation, d2: Orientation) -> list[list[int]] | None:
    """Arc-disjoint directed cycles of ``d1`` whose reversal yields ``d2``.

    Returns None when the outdegree vectors differ; raises when the two
    orientations belong to different multigraphs.  Cycles are vertex-simple
    and given as edge-index lists in traversal order.
    """
    if d1.graph != d2.graph:
        raise ValueError("orientations have different underlying graphs")
    if d1.outdegrees() != d2.outdegrees():
        return None
    graph = d1.graph
    differing = [e for e in range(graph.m) if d1.forward(e) != d2.forward(e)]
    # The differing arcs form a balanced (Eulerian) subdigraph of d1.
    out_arcs: dict[int, list[tuple[int, int]]] = {}
    for e in differing:
        out_arcs.setdefault(d1.tail(e), []).append((e, d1.head(e)))
    for arcs in out_arcs.values():
        arcs.reverse()  # pop() then takes the lowest edge index first

    cycles: list[list[int]] = []
    for e0 in differing:
        origin = d1.tail(e0)
        if not out_arcs.get(origin):
            continue
        vertex_stack = [origin]
        edge_stack: list[int] = []
        position = {origin: 0}
        while True:
            x = vertex_stack[-1]
            arcs = out_arcs.get(x)
            if not arcs:
                if len(vertex_stack) != 1:
                    raise AssertionError("differing arc set is not balanced")
                break
            e, w = arcs.pop()
            if w in position:
                j = position[w]
                cycles.append(edge_stack[j:] + [e])
                for gone in vertex_stack[j + 1 :]:
                    del position[gone]
                del vertex_stack[j + 1 :]
                del edge_stack[j:]
            else:
                vertex_stack.append(w)
                edge_stack.append(e)
                position[w] = len(vertex_stack) - 1
    return cycles


def class_size_lower_bound_check(graph: Multigraph, alpha: Sequence[int], k: int) -> bool:
    """True iff the number of orientations attaining ``alpha`` meets the
    guaranteed floor of (k-1)*n + 2 for k-connected outdegree sequences.

    Raises when ``alpha`` is not attained by any k-connected orientation.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    witness = find_alpha_orientation(graph, alpha)
    if witness is None or not is_k_connected(witness, k):
        raise ValueError("alpha is not a k-connected outdegree sequence of this graph")
    size = enumerate_alpha(graph, alpha, lambda _d: None)
    return size >= (k - 1) * graph.n + 2
