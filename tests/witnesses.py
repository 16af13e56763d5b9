"""Witnesses of proof steps, used by the tests only.

``reverse_path`` checks that a path found by the search really is a directed
path before flipping it, ``reversed_copy`` flips any edge set of a copy,
``cut_outdegree`` counts the arcs leaving a vertex set straight from the
definition, ``same_alpha_cycle_decomposition`` exhibits the
cycle decomposition between two orientations with equal outdegrees,
``class_size_lower_bound_check`` tests the (k-1)n+2 class-size floor,
``InvariantProbe`` replays the enumeration walks with their proof-step
assertions (``probed_alpha``, ``probed_sequences``, ``probed_k_connected``),
``scanned_sequences`` replays the outdegree-sequence search with a
reference chain: the plain scan that restarts every λ test sweep at v+1, or
the chain that keeps the cuts of failed tests but re-tests a pair after
every reversal it permits, and ``full_scan_choices`` is the alpha
expansion's choice generator with a reference search that scans whole
incidence rows.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from orientations import (
    DelayMeter,
    Multigraph,
    Orientation,
    enumerate_alpha,
    find_alpha_orientation,
    find_k_connected_orientation,
    is_k_connected,
)
from orientations.alpha import _edge_choices, _emit_leaves, walk
from orientations.paths import _count_paths, _reverse
from orientations.sequences import _vertex_choices


def reverse_path(orientation: Orientation, path: Sequence[int], source: int) -> Orientation:
    """New orientation with exactly the path's edges flipped.

    Reversing a directed path from ``u`` to ``v`` lowers the outdegree of
    ``u`` by one, raises the outdegree of ``v`` by one, and leaves every
    other vertex unchanged.  Raises if ``path``, a list of edge indices, is
    not a nonempty arc-simple directed path leaving ``source`` in the given
    orientation.
    """
    if not path:
        raise ValueError("path is empty")
    seen: set[int] = set()
    previous_head = source
    for e in path:
        if e in seen:
            raise ValueError(f"edge {e} repeats; not an arc-simple path")
        seen.add(e)
        if orientation.tail(e) != previous_head:
            raise ValueError(f"edge {e} does not leave the head of the previous arc")
        previous_head = orientation.head(e)
    return reversed_copy(orientation, path)


def reversed_copy(orientation: Orientation, edges: Iterable[int]) -> Orientation:
    """New orientation with exactly ``edges`` flipped."""
    dup = orientation.copy()
    dup._flip(edges)
    return dup


def cut_outdegree(orientation: Orientation, members: Iterable[int]) -> int:
    """Number of arcs leaving the vertex set ``members``.

    ``members`` must be a nonempty proper subset of the vertices.
    """
    inside = set(members)
    if not inside or len(inside) >= orientation.graph.n:
        raise ValueError("cut must be a nonempty proper subset of the vertices")
    for v in inside:
        if not (0 <= v < orientation.graph.n):
            raise ValueError(f"cut member out of range: {v}")
    count = 0
    for e, d in enumerate(orientation._dirs):
        u, v = orientation.graph.edges[e]
        tail, head = (u, v) if d else (v, u)
        if tail in inside and head not in inside:
            count += 1
    return count


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


class InvariantProbe:
    """Replays an enumeration walk and asserts its proof steps as it goes.

    The choice generators of the package run on one orientation, wrapped the
    way the enumerators drive them through ``walk``:

    - ``edge_choices(e)`` asserts at every yield, and when the level ends,
      that the fixed edges 0..e-1 are as they were when the level opened.
      At every yield it also asserts that the walk's prefix count
      ``fixed[x]`` is the number of edges at x with index at most e, the
      length of the fixed prefix of x's incidence row;
    - ``vertex_choices(v)`` asserts at every yield that the orientation is
      still k-connected.  Every state a path reversal reaches is yielded
      once, so this checks that each reversal keeps k-connectivity;
    - ``leaves(levels, choices)`` asserts at every leaf that the orientation
      has the target outdegrees: ``target`` when given, else the outdegree
      mirror ``out`` that the sequence search keeps.  When the walk ends
      it asserts that every prefix count is back at 0.
    """

    def __init__(self, seed: Orientation, k: int = 0, target: Sequence[int] | None = None):
        self.d = seed.copy()
        self.out = list(self.d.outdegrees())
        self.k = k
        self.target = target
        self.meter = DelayMeter()
        self.fixed = [0] * seed.graph.n

    def edge_choices(self, e: int):
        d = self.d
        prefix = bytes(d._dirs[:e])
        rows = d.graph.incidence
        counts = [sum(1 for f, _, _ in row if f <= e) for row in rows]
        for _ in _edge_choices(d, e, self.meter, self.fixed):
            assert bytes(d._dirs[:e]) == prefix, f"fixed edges 0..{e - 1} changed within a branch"
            assert self.fixed == counts, f"prefix counts at edge level {e} are not the fixed edges 0..{e}"
            yield
        assert bytes(d._dirs[:e]) == prefix, f"fixed edges 0..{e - 1} not restored"

    def vertex_choices(self, v: int):
        for _ in _vertex_choices(self.d, self.out, v, self.k, self.meter):
            assert is_k_connected(self.d, self.k), f"a path reversal at vertex {v} broke k-connectivity"
            yield

    def leaves(self, levels: int, choices):
        for _ in walk(levels, choices):
            target = self.out if self.target is None else self.target
            assert self.d.outdegrees() == tuple(target), "emitted orientation misses the target outdegrees"
            yield
        assert not any(self.fixed), "prefix counts not back at 0 when the walk ends"


def probed_alpha(graph: Multigraph, alpha: Sequence[int]) -> list[Orientation]:
    """The stream of ``enumerate_alpha``, replayed under an ``InvariantProbe``."""
    d = find_alpha_orientation(graph, alpha)
    if d is None:
        return []
    probe = InvariantProbe(d, target=alpha)
    return [probe.d.copy() for _ in probe.leaves(graph.m, probe.edge_choices)]


def probed_sequences(graph: Multigraph, k: int, seed: Orientation) -> list[tuple[int, ...]]:
    """The stream of ``enumerate_outdegree_sequences``, replayed under an ``InvariantProbe``."""
    probe = InvariantProbe(seed, k)
    return [tuple(probe.out) for _ in probe.leaves(graph.n, probe.vertex_choices)]


def probed_k_connected(graph: Multigraph, k: int, seed: Orientation) -> list[Orientation]:
    """The stream of ``enumerate_k_connected`` from ``seed``, replayed under an ``InvariantProbe``."""
    probe = InvariantProbe(seed, k)
    n = graph.n

    def choices(i: int):
        return probe.vertex_choices(i) if i < n else probe.edge_choices(i - n)

    return [probe.d.copy() for _ in probe.leaves(n + graph.m, choices)]


def plain_scan_choices(d: Orientation, out: list[int], v: int, k: int, meter: DelayMeter):
    """The per-vertex choice generator with a plain scan, as a reference.

    Same contract and yields as ``sequences._vertex_choices``, but every
    step of a chain tests u = v+1, v+2, ... afresh and keeps nothing that a
    failed λ test proved.
    """
    for lowering in (True, False):
        chain = []
        while True:
            for u in range(v + 1, d.graph.n):
                src, dst = (v, u) if lowering else (u, v)
                paths, _ = _count_paths(d, src, dst, k + 1, meter)
                if len(paths) > k:
                    break
            else:
                break
            _reverse(d, out, paths[0], src, dst, meter)
            chain.append((src, dst, paths[0]))
        while chain:
            src, dst, edges = chain.pop()
            yield
            _reverse(d, out, edges, dst, src, meter)
    yield


def retesting_choices(d: Orientation, out: list[int], v: int, k: int, meter: DelayMeter):
    """The per-vertex choice generator that re-tests a pair after each reversal, as a reference.

    Same contract and yields as ``sequences._vertex_choices``, and it keeps
    the cuts of failed λ tests the same way, but ``retesting_pairs`` tests a
    pair afresh, with a count capped at k+1, after every reversal it permits.
    """
    for lowering in (True, False):
        chain = []
        for found in retesting_pairs(d, v, lowering, k, meter):
            src, dst, edges = found
            _reverse(d, out, edges, src, dst, meter)
            chain.append(found)
        while chain:
            src, dst, edges = chain.pop()
            yield
            _reverse(d, out, edges, dst, src, meter)
    yield


def retesting_pairs(d: Orientation, v: int, lowering: bool, k: int, meter: DelayMeter):
    """One chain of ``retesting_choices``: yields the ordered pair of v with the
    smallest later vertex that has more than k arc-disjoint paths, and the
    first of those paths, which the caller reverses before it asks for the
    next.  A failed test drops every vertex its cut rules out, and the scan
    resumes at the vertex last yielded."""
    candidates = set(range(v + 1, d.graph.n))
    for u in range(v + 1, d.graph.n):
        while u in candidates:
            src, dst = (v, u) if lowering else (u, v)
            paths, reached = _count_paths(d, src, dst, k + 1, meter)
            if reached is None:
                yield src, dst, paths[0]
            elif lowering:
                candidates.intersection_update(reached)
            else:
                candidates.difference_update(reached)


def scanned_sequences(graph: Multigraph, k: int, meter: DelayMeter, choices) -> list[tuple[tuple[int, ...], str]]:
    """The stream of ``enumerate_outdegree_sequences(graph, k, None, ...)``,
    each sequence with its serialized witness, found by the reference choice
    generator ``choices`` (``plain_scan_choices`` or ``retesting_choices``)
    on ``meter``."""
    d = find_k_connected_orientation(graph, k, meter)
    if d is None:
        meter.finished()
        return []
    out = list(d.outdegrees())
    got = []
    leaves = walk(graph.n, lambda v: choices(d, out, v, k, meter))
    _emit_leaves(d, leaves, lambda copy: got.append((tuple(out), copy.serialize())), meter)
    return got


def full_scan_choices(d: Orientation, e: int, meter: DelayMeter):
    """The per-edge choice generator with a whole-row scan, as a reference.

    Same contract, yields and meter charges as ``alpha._edge_choices``, but
    its search for a completing cycle, ``full_scan_path``, keeps no prefix
    counts: it scans every entry of each row it reaches and skips the fixed
    edges 0..e-1 one by one.
    """
    yield
    u, v = d.graph.edges[e]
    tail, head = (u, v) if d.forward(e) else (v, u)
    path = full_scan_path(d, head, tail, e, meter)
    if path is not None:
        path.append(e)
        d._flip(path)
        meter.arcs(len(path))
        yield
        d._flip(path)
        meter.arcs(len(path))


def full_scan_path(d: Orientation, source: int, target: int, e: int, meter: DelayMeter) -> list[int] | None:
    """The edges of the BFS path from ``source`` to ``target`` that uses no
    edge below ``e``, or None.  One BFS run, and one arc touch per incidence
    entry scanned, fixed or not."""
    meter.bfs()
    parent = {source: None}
    queue = deque([source])
    touched = 0
    while queue and target not in parent:
        x = queue.popleft()
        for f, w, x_is_first in d.graph.incidence[x]:
            touched += 1
            if f < e or d._dirs[f] != x_is_first or w in parent:
                continue
            parent[w] = (x, f)
            if w == target:
                break
            queue.append(w)
    meter.arcs(touched)
    if target not in parent:
        return None
    edges = []
    step = parent[target]
    while step is not None:
        x, f = step
        edges.append(f)
        step = parent[x]
    return edges[::-1]

