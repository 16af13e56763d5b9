"""Enumeration of k-arc-connected orientations and of their outdegree sequences.

Both enumerators run one search.  It resolves the seed (the finder of
:mod:`orientations.kconn` when none is given), then walks one orientation
through ``n`` vertex levels and, when listing orientations, ``m`` edge
levels more: the alpha expansion of the sequence that the vertex levels
reached.  Listing sequences is thus the first stage of listing
orientations, and orientations of equal outdegree vector are contiguous.
The finder, or ``is_k_connected`` on a given seed, rejects a k that is
not an integer of at least 1.

The choice generator of a vertex first lowers its outdegree as far as it
will go, reversing a directed path leaving it whenever the path's endpoints
admit more than k arc-disjoint paths, so connectivity survives; the paths
reversed are ones the count of those paths found and left reversed.  It
then yields once per step on the way back, deepest first, undoing one
reversal per yield with ``paths._flip``.  It does the same for raising, and
finally keeps the vertex as it is.  The orientation is the search's only
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
reversed, undoing only P_(λ-k+1), ..., P_λ, and the chain takes them over
with no re-test.  The count's cut R is taken on the orientation with all
λ paths reversed, the one the last failing re-test would search: the set
that search would reach, or, when the source has no out-arc or the target
no in-arc left there, the source alone or every vertex but the target.

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

The outdegree vector also decides pairs outright.  A pair has λ <= out(src)
and λ <= in(dst), and λ >= k as the orientation is k-connected, so when
min(out(src), in(dst)) <= k it has exactly k paths and its count would
reverse nothing: the chain skips it, for two popcounts that, like the
tight-set bookkeeping below, are not charged.  Like a pair a kept tight set
rules out, a skipped pair hands back no cut, so a later vertex that only
its cut would rule out is counted instead, and that count too reverses
nothing.  The stream is unchanged.

Cuts also outlive their chain, as tight sets: sets left by exactly k arcs.
The arcs leaving a set X number the sum of out(x) over x in X less the
edges inside X, so they depend on the outdegree vector alone.  Reversing a
path from a to b changes them by [b in X] - [a in X]; reversing a cycle,
as the alpha expansion does, and a count's flips that it undoes change
nothing.  The search keeps the last ``_TIGHT_SETS`` cuts its counts
returned, each with its slack, the arcs leaving it less k: 0 when the count
returns, after the reversals it leaves in place.  Every reversal a chain
keeps or undoes adds [b in X] - [a in X] to every slack, so the slacks are
exact wherever the walk goes between two visits of a level.  A set X of
slack 0 holding v rules out every u outside it when lowering, and one
leaving v out rules out every u inside it when raising, exactly as a cut
does: every path between them crosses X's k leaving arcs, so λ <= k.  So
each chain starts with the candidates those sets leave.  A skipped count
would have found exactly k paths, as the orientation is k-connected, and
reversed none, so every count that still runs sees the orientation and
finds the paths of the chain without the skips, and the stream is
unchanged.  Each set that pruned the candidates holds v and every
remaining candidate, or neither, so the chain's own reversals keep its
slack at 0 and it holds for the whole chain, like the chain's cuts.  A
skipped count hands back no cut, so a later vertex that only its cut rules
out is counted instead; that count too reverses nothing.  Like the alpha
expansion's cut, this is walk bookkeeping that touches no arc and is not
charged: O(C) per reversal and per chain start for C =
``_TIGHT_SETS``, and O(n) per count.  Its memory is C vertex masks and
n + 1 ints of C small fields, however many solutions the run emits.
"""
from __future__ import annotations

from collections.abc import Callable, Iterator

from .alpha import _EdgeLevels, _emit_leaves, walk
from .connectivity import is_k_connected
from .kconn import find_k_connected_orientation
from .metering import DelayMeter
from .multigraph import Multigraph, Orientation
from .paths import _count_paths, _degree_bound, _flip

__all__ = ["enumerate_outdegree_sequences", "enumerate_k_connected"]


_TIGHT_SETS = 24  # the most tight sets a search keeps


class _TightSets:
    # Up to _TIGHT_SETS vertex sets, as bitmasks in slots, each with its
    # slack: the number of arcs leaving it minus k, kept exact as paths are
    # reversed (see the module docstring).  A new set takes the slots in
    # turn, so when all are full it replaces the oldest.  The slacks are
    # packed into one int, slot i's in bits w*i .. w*i+w-1; a slack lies in
    # 0..m, so w = bit_length(m) + 1 leaves the top bit of every field clear.
    # within[x] holds a 1 in the field of every slot whose set holds x, so
    # reversing a path from a to b adds within[b] - within[a] to the slacks.
    # An empty slot holds mask 0 and slack 0, and prunes nothing.
    __slots__ = ("masks", "within", "slacks", "width", "top", "fill", "next")

    def __init__(self, n: int, m: int):
        w = self.width = m.bit_length() + 1
        self.masks = [0] * _TIGHT_SETS
        self.within = [0] * n
        self.slacks = self.next = 0
        fields = sum(1 << w * i for i in range(_TIGHT_SETS))
        self.top = fields << w - 1  # the top bit of every field
        self.fill = self.top - fields  # w-1 ones in every field

    def add(self, mask: int) -> None:
        # A count's cut, left by exactly k arcs once the count returns.  A
        # kept set whose slack falls to 0 within a chain can come back as a
        # cut; it keeps its one slot.
        masks = self.masks
        if mask in masks:
            return
        i, one = self.next, 1 << self.width * self.next
        old, masks[i], within = masks[i], mask, self.within
        for x in range(len(within)):
            within[x] += ((mask >> x & 1) - (old >> x & 1)) * one
        self.slacks &= ~(((1 << self.width) - 1) * one)
        self.next = (i + 1) % _TIGHT_SETS

    def flipped(self, a: int, b: int, times: int = 1) -> None:
        # ``times`` paths from a to b were reversed.
        self.slacks += times * (self.within[b] - self.within[a])

    def candidates(self, v: int, lowering: bool) -> int:
        # The vertices v+1..n-1 that no set of slack 0 rules out, as a mask:
        # lowering, those in every such set that holds v; raising, those in
        # no such set that leaves v out.  A field's top bit is set in
        # slacks + fill exactly when its slack is positive.
        candidates = (1 << len(self.within)) - (1 << v + 1)
        if not candidates:
            return 0
        holds_v = self.within[v] << self.width - 1
        tight = self.top & ~(self.slacks + self.fill) & (holds_v if lowering else ~holds_v)
        while tight:
            bit = tight & -tight
            mask = self.masks[bit.bit_length() // self.width - 1]
            candidates &= mask if lowering else ~mask
            tight ^= bit
        return candidates


def _degree_decides(d: Orientation, src: int, dst: int, k: int) -> bool:
    # True when out(src) or in(dst) is at most k, so that λ(src, dst) = k.
    return _degree_bound(d, src, dst) <= k


def _vertex_choices(d: Orientation, v: int, k: int, meter: DelayMeter, tight: _TightSets) -> Iterator[None]:
    # One chain per direction: a count for each later (so not yet fixed)
    # vertex that neither a kept tight set, a cut nor the outdegrees have
    # ruled out, which leaves the first λ-k of its paths reversed, all
    # before the chain's first yield (see the module docstring); then one
    # yield per reversal, undoing them deepest first.  Every reversal and
    # undo, and every cut, goes to ``tight``.
    n = d.graph.n
    limit = d.graph.degree(v) + 1
    for lowering in (True, False):
        chain = []
        candidates = tight.candidates(v, lowering)
        for u in range(v + 1, n):
            if candidates >> u & 1:
                src, dst = (v, u) if lowering else (u, v)
                if _degree_decides(d, src, dst, k):
                    continue
                paths, reached = _count_paths(d, src, dst, limit, meter, spare=k)
                kept = len(paths) - k  # d stays k-connected: λ >= k
                if kept:
                    tight.flipped(src, dst, kept)
                    chain += [(dst, src, edges) for edges in paths[:kept]]
                cut = sum(1 << x for x in reached)
                tight.add(cut)
                candidates &= cut if lowering else ~cut
        while chain:
            a, b, edges = chain.pop()
            yield
            _flip(d, edges, meter)
            tight.flipped(a, b)
    yield


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
    n, edges, tight = graph.n, _EdgeLevels(d, meter), _TightSets(graph.n, graph.m)

    def choices(i: int) -> Iterator[None]:
        if i < n:
            return _vertex_choices(d, i, k, meter, tight)
        return edges.choices(i - n)

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
