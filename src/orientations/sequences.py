"""Enumeration of k-arc-connected orientations and of their outdegree sequences.

Both enumerators run one search.  It resolves the seed (the finder of
:mod:`orientations.kconn` when none is given), then walks one orientation
through ``n`` vertex levels and, when listing orientations, ``m`` edge
levels more: the alpha expansion of the sequence that the vertex levels
reached.  Listing sequences is thus the first stage of listing
orientations, and orientations of equal outdegree vector are contiguous.
The edge levels leave their flips, so once an expansion ends it flips
back, one arc touch each, the edges its levels left reversed, and the
vertex levels get back the orientation they handed it: one restore per
sequence.
The finder, or ``is_k_connected`` on a given seed, rejects a k that is
not an integer of at least 1.

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
and does the same for raising.  The orientation is the search's only
state: a leaf's outdegree sequence is read from the view ``_emit_leaves``
hands the sink, which is copied only if the sink keeps it.  Completeness
rests on the witness fact that whenever two k-connected orientations
disagree at a vertex, a connectivity-preserving path reversal moves one
toward the other without touching fixed vertices.

A chain takes the later vertices u in order and makes one count of the
arc-disjoint paths between v and each u that no cut has ruled out: from v
when lowering, into v when raising.  Its limit, the degree of v plus one,
is more than any count can find, so every count falls short and hands back
a cut.  The count's paths P_1, ..., P_λ are those of successive reversals:
P_i is the first path found once P_1, ..., P_(i-1) are reversed, and each
reversal lowers λ by exactly one, since it leaves every cut between the
pair with one leaving arc fewer.  Testing the pair afresh after every
reversal, and reversing the first path found while more than k exist,
would therefore reverse P_1, ..., P_(λ-k).  The count leaves just these
reversed, undoing the paths after them, and the chain takes them over
with no re-test.  (Those later paths are found by meeting searches, so
they need not be P_(λ-k+1), ..., P_λ; see :mod:`orientations.paths`.)
The count's cut R is taken on the orientation with all λ paths reversed,
the one the last failing re-test would search.  When the source has no
out-arc or the target no in-arc left there, R is the source alone or
every vertex but the target.  Otherwise R is the cut of the failing
meeting search, which stops as soon as either side runs out: the set the
source reaches, or every vertex that does not reach the target (see
:mod:`orientations.paths`).  Both chains take whichever it hands back.

R holds the count's source, not its target, and once the count toward u
returns it is left by exactly k arcs.  So when lowering v no later vertex
outside R can have more than k paths from v, and when raising no vertex
inside R can have more than k paths into v.  Each path a chain reverses
joins v to a vertex that no earlier cut ruled out, so its ends lie on one
side of every such cut and the number of arcs leaving the cut does not
change: the cuts hold for the rest of the chain, which counts only toward
vertices no cut has ruled out.  It finds the same vertices and paths as a
fresh scan from v+1 after every reversal, and skips only tests whose answer
is already known.  Lowering and raising test pairs in opposite directions,
so neither keeps the other's cuts.

A pair with min(out(src), in(dst)) <= k has exactly k paths, as the
orientation is k-connected, and its count returns at once with no path, no
search and its degree cut (see :mod:`orientations.paths`).
"""
from __future__ import annotations

from collections.abc import Callable, Iterator

from .alpha import _EdgeLevels, _emit_leaves, walk
from .connectivity import is_k_connected
from .kconn import find_k_connected_orientation
from .metering import DelayMeter
from .multigraph import Multigraph, Orientation
from .paths import _count_paths, _flip

__all__ = ["enumerate_outdegree_sequences", "enumerate_k_connected"]


def _vertex_choices(d: Orientation, v: int, k: int, meter: DelayMeter) -> Iterator[None]:
    # Keeps the vertex first, so a level emits on entry the leaf it would
    # reach anyway, and the subtree below restores d.  Then one chain per
    # direction: a count for each later (so not yet fixed) vertex that no
    # cut has ruled out, which leaves the first λ-k of its paths reversed,
    # all before the chain's first yield; then one yield per reversal,
    # undoing them deepest first.
    yield
    n = d.graph.n
    limit = d.graph.degree(v) + 1
    for lowering in (True, False):
        chain = []
        candidates = (1 << n) - (1 << v + 1)
        for u in range(v + 1, n):
            if candidates >> u & 1:
                src, dst = (v, u) if lowering else (u, v)
                paths, cut = _count_paths(d, src, dst, limit, meter, k)
                chain += paths[: len(paths) - k]  # d stays k-connected: λ >= k
                candidates &= cut if lowering else ~cut
        while chain:
            edges = chain.pop()
            yield
            _flip(d, edges, meter)


def _expansion(edges: _EdgeLevels) -> Iterator[None]:
    # The first edge level, which then gives back the orientation the
    # vertex levels handed the expansion: the edge levels leave their flips.
    yield from edges.choices(0)
    edges.restore()


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
    n, edges = graph.n, _EdgeLevels(d, meter)

    def choices(i: int) -> Iterator[None]:
        if i < n:
            return _vertex_choices(d, i, k, meter)
        return edges.choices(i - n) if i > n else _expansion(edges)

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
