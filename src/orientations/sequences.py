"""Enumeration of k-arc-connected orientations and of their outdegree sequences.

Both enumerators run one search.  It resolves the seed (the finder of
:mod:`orientations.kconn` when none is given), then walks one orientation
through ``n`` vertex levels and, when listing orientations, ``m`` edge
levels more: the alpha expansion of the sequence that the vertex levels
reached.  Listing sequences is thus the first stage of listing
orientations, and orientations of equal outdegree vector are contiguous.
The edge levels leave their flips, and an expansion does not flip them
back as it ends.  The vertex levels work on an orientation of their own,
``multigraph._Trailing``, which holds the edges as the vertex levels
handed them over; a flip of theirs reverses in the live orientation only
the edges where the two then differ, so an edge that the live orientation
already holds that way is not touched.  The next expansion flips back, one
arc touch each, the edges where the two still differ, so it starts from
the orientation the vertex levels hand it; those of the last expansion are
never flipped back.  An edge that the vertex levels reverse between two
expansions thus costs one touch, where flipping it back at once and
reversing it later cost two.
The finder, or ``is_k_connected`` on a given seed, rejects a k that is
not an integer of at least 1.

The vertex levels take an order computed once per run from the graph
alone, ``_VertexOrder``: a maximum cardinality search (Tarjan and
Yannakakis, SIAM J. Comput. 13(3), 1984), reversed.  The last level fixes
a vertex of largest degree, counting parallel edges, and each level
before it the vertex with the most edges into the vertices after it, the
smallest id on ties.  Level i fixes order[i], and a vertex is later than
v when it comes after v in that order, not when its id is larger: a chain
counts toward the later vertices in that order, and the tight-set rules
below read "later" the same way.  On a connected graph the later
vertices of every level induce a connected subgraph.  Completeness holds
for any order, so the order changes which sequences follow which and what
the search costs, not the set it lists; as it follows the graph, what the
vertex levels cost barely depends on how the input labels its vertices.
The sink still reads each sequence in vertex-id order.

The choice generator of a vertex first keeps the vertex as it is.  Every
node of the walk thus equals its leftmost leaf, which the walk emits on
entry: a seeded run emits the seed first, and no gap waits for the chains
of the levels below a node.  The subtree under that option restores the
orientation, so the generator then lowers the outdegree from where it
entered, as far as it will go, reversing a directed path leaving the
vertex whenever the path's endpoints admit more than k arc-disjoint paths,
so connectivity survives; the paths reversed are ones the count of those
paths found and left reversed.  It then yields once per step on the way
back, deepest first, undoing one reversal per yield with ``paths._flip``,
and does the same for raising.  The two orientations are the search's
only state: a leaf's outdegree sequence is read from the view
``_emit_leaves`` hands the sink, which is copied only if the sink keeps
it.  Completeness rests on the witness fact that whenever two k-connected
orientations disagree at a vertex, a connectivity-preserving path
reversal moves one toward the other without touching fixed vertices.

A chain takes the later vertices u in level order and makes one count of the
arc-disjoint paths between v and each u that no tight set (below) rules
out: from v when lowering, into v when raising.  Its limit, the degree of
v plus one, is more than any count can find, so every count falls short
and hands back a cut.  The count's paths P_1, ..., P_λ are those of
successive reversals: P_i is the path a meeting search finds once
P_1, ..., P_(i-1) are reversed (see :mod:`orientations.paths`), and each
reversal lowers λ by exactly one, since it leaves every cut between the
pair with one leaving arc fewer.  Reversing a path while more than k exist
leaves every set at least k leaving arcs, so the count leaves
P_1, ..., P_(λ-k) reversed, undoing the paths after them, and the chain
takes them over with no re-test.  Which paths those are changes the
orientations a chain yields but not their outdegrees, so only the order of
orientations within one outdegree class depends on it.
The count's cut R is taken on the orientation with all λ paths reversed,
the one the last failing re-test would search.  When the source has no
out-arc or the target no in-arc left there, R is the source alone or
every vertex but the target.  Otherwise R is the cut of the failing
meeting search, which stops as soon as either side runs out: the set the
source reaches, or every vertex that does not reach the target (see
:mod:`orientations.paths`).  Both chains take whichever it hands back.

A tight set is a vertex set X that exactly k arcs leave.  When X holds a
but not b, no more than k arc-disjoint paths run from a to b, so, d being
k-connected, exactly k do; a count's cut R, which holds its source but not
its target, is tight once the count returns.  The search keeps one family
of tight sets for the orientation each level works on, under three rules.

- Skip.  A chain counts toward a later vertex u only when no member of the
  family it starts from, and no cut of its own counts, separates the pair:
  lowering v keeps only the u inside every member that holds v, raising
  drops every u inside a member that misses v.  A skipped pair has exactly
  k paths, so its count would keep none: the stream is that of a chain
  that counts every pair, and the chain finds the same vertices and paths
  as a fresh scan of the later vertices after every reversal.
- Survive.  Reversing a path from a to b changes the number of arcs leaving
  X by [b in X] - [a in X].  A path a count keeps joins a pair with more
  than k paths, so no tight set holds a but not b: the sets that hold b but
  not a stop being tight, and all others stay tight.  So once a count keeps
  paths, the family is the previous one less those sets, plus the count's
  cut.  The sets a chain itself relies on survive: when lowering they hold
  v and, as u was not ruled out, u; when raising they miss v and u.
- Scope.  A count that keeps no path adds its cut to the family of the
  orientation it ran on, and each yield of a chain hands its subtree the
  family of the state it yields; whatever the subtree adds is cut back when
  it returns.  The subtree of the keep option runs on the level's own
  orientation, so the cuts of every level below that shares it rule out
  pairs for the level's chains, and the level's cuts serve the levels above
  that share it in turn.  The lowering chain's cuts all hold v, so they
  rule out nothing for the raising chain.

The families of the orientations on the walk's path are regions of one
list of vertex bitmasks, ``_TightSets``.  A count that keeps paths copies
the sets that survive into a new region at the end, leaving out those that
split no two later vertices, which no level below can use; a chain's yield
names the region its subtree starts from and, once the subtree returns,
deletes all that lies past the end of that state's family.  The list thus
holds one region per count that kept paths in the chains still open, so it
grows with the graph, not with the number of leaves.

A pair with min(out(src), in(dst)) <= k has exactly k paths, as the
orientation is k-connected, and its count returns at once with no path, no
search and its degree cut (see :mod:`orientations.paths`).
"""
from __future__ import annotations

import heapq
from collections.abc import Callable, Iterator
from itertools import islice

from .alpha import _EdgeLevels, _emit_leaves, walk
from .connectivity import is_k_connected
from .kconn import find_k_connected_orientation
from .metering import DelayMeter
from .multigraph import Multigraph, Orientation, _Trailing
from .paths import _count_paths, _flip

__all__ = ["enumerate_outdegree_sequences", "enumerate_k_connected"]


class _TightSets(list):
    # The tight-set families of the orientations on the walk's path, one
    # region each (see the module docstring); the family of the orientation
    # that the next level enters on runs from ``start`` to the end.
    start = 0


class _VertexOrder(list):
    # The vertices in the order the levels fix them, a maximum cardinality
    # search reversed (see the module docstring), and per level i the
    # bitmask ``later[i]`` of the vertices after order[i].  The search's
    # heap holds (-links, vertex), links being the number of edges into the
    # vertices it has placed; the vertex of largest degree enters with a
    # count no other reaches, and an entry whose count has risen since is
    # stale and skipped.
    def __init__(self, graph: Multigraph):
        rows, n = graph.incidence, graph.n
        links, placed = [0] * n, [False] * n
        heap = [(0, x) for x in range(n)]  # sorted, so a heap
        if n:
            heapq.heappush(heap, (-graph.m - 1, min(range(n), key=lambda x: (-len(rows[x]), x))))
        while heap:
            count, x = heapq.heappop(heap)
            if placed[x] or -count < links[x]:
                continue
            placed[x] = True
            self.append(x)
            for _, w, _ in rows[x]:
                if not placed[w]:
                    links[w] += 1
                    heapq.heappush(heap, (-links[w], w))
        self.reverse()
        self.later, mask = [0] * n, 0
        for i in range(n - 1, -1, -1):
            self.later[i] = mask
            mask |= 1 << self[i]


def _vertex_choices(
    d: Orientation, order: _VertexOrder, i: int, k: int, meter: DelayMeter, tight: _TightSets
) -> Iterator[None]:
    # Fixes v = order[i].  Keeps the vertex first, so a level emits on entry
    # the leaf it would reach anyway, and the subtree below restores d and
    # adds to the family only cuts of d.  Then one chain per direction: a
    # count for each later (so not yet fixed) vertex that no tight set rules
    # out, in level order, which leaves the first λ-k of its paths reversed,
    # all before the chain's first yield; then one yield per reversal,
    # undoing them deepest first.  A yield's entry holds the reversed path,
    # the start of the state's family and, for the state before it, where
    # that family ends.
    start = tight.start
    yield
    v, later = order[i], order.later[i]
    if not later:
        return
    limit, inside, outside = d.graph.degree(v) + 1, later, later
    for x in islice(tight, start, None):
        inside, outside = (inside & x, outside) if x >> v & 1 else (inside, outside & ~x)
    for lowering, candidates in ((True, inside), (False, outside)):
        chain, base = [], start
        for u in islice(order, i + 1, None):
            if candidates >> u & 1:
                src, dst = (v, u) if lowering else (u, v)
                paths, cut = _count_paths(d, src, dst, limit, meter, k)
                if len(paths) > k:  # d stays k-connected: λ >= k
                    # A new region: the sets that stay tight, less those that
                    # split no two later vertices.
                    size, ends, head = len(tight), 1 << src | 1 << dst, 1 << dst
                    for x in islice(tight, base, size):
                        if x & ends != head and 0 < x & later < later:
                            tight.append(x)
                    for j, edges in enumerate(paths[: len(paths) - k]):
                        chain.append((edges, size, len(tight) if j else size))
                    base = size
                tight.append(cut)
                candidates &= cut if lowering else ~cut
        while chain:
            edges, tight.start, size = chain.pop()
            yield
            del tight[size:]
            _flip(d, edges, meter)


def _expansion(given: _Trailing, edges: _EdgeLevels) -> Iterator[None]:
    # Flips back in the live orientation the edges where it still differs
    # from given, so it is the orientation the vertex levels hand over, then
    # runs the first edge level.
    _flip(edges.d, given._pending(), edges.meter)
    yield from edges.choices(0)


def _search(graph: Multigraph, k: int, seed: Orientation | None, edge_levels: int, sink, meter) -> int:
    # Walks n vertex levels and ``edge_levels`` edge levels from the seed and
    # calls sink with a view on the orientation at every leaf (see
    # ``_emit_leaves``); returns the number of leaves.
    meter = meter if meter is not None else DelayMeter()
    if seed is None:
        d = find_k_connected_orientation(graph, k, meter)
        if d is None:
            return _emit_leaves(d, (), sink, meter)
    else:
        if seed.graph != graph:
            raise ValueError("seed orients a different graph")
        if not is_k_connected(seed, k):
            raise ValueError("seed orientation is not k-connected")
        d = seed.copy()
    n, tight, order = graph.n, _TightSets(), _VertexOrder(graph)
    given, edges = (_Trailing(d), _EdgeLevels(d, meter)) if edge_levels else (d, None)

    def choices(i: int) -> Iterator[None]:
        if i < n:
            return _vertex_choices(given, order, i, k, meter, tight)
        return edges.choices(i - n) if i > n else _expansion(given, edges)

    return _emit_leaves(d, walk(n + edge_levels, choices), sink, meter)


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
    return _search(graph, k, seed, 0, lambda d: sink(d.outdegrees(), d), meter)


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
    return _search(graph, k, seed, graph.m, sink, meter)
