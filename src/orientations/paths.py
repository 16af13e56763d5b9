"""Directed path search and arc-disjoint path counting over orientations.

This is the primitive layer under both enumerators and the only module that
searches for paths.  Every search scans arcs through ``_grow``, the
package's one arc-scanning loop, and every path is found by one search,
``_meeting_path``, which rebuilds it through one tree walk, ``_walk``.  The
k = 1 sweeps of :mod:`orientations.connectivity` are one ``_grow`` each and
rebuild no path.  Each orientation keeps, per vertex x, the bitmask
``_out[x]`` over the positions of ``incidence[x]`` whose entries leave x,
and every flip keeps it exact.  Every search is told which entries of each
vertex's incidence row are still free: ``free[x]`` is a bitmask over the
positions of ``incidence[x]``, like ``_out[x]``, so x's free out-arcs are
``_out[x] & free[x]`` and its free in-arcs ``free[x] & ~_out[x]``, and the
search neither uses nor counts the fixed entries.  The alpha finder, the
sweeps and the counts pass the row masks, which leave every entry free.
The alpha expansion and the k-connected finder of :mod:`orientations.kconn`
fix one edge per level and keep their own masks, one XOR per end of the
edge, read from ``graph._ends``, as a level opens and again as it ends.

A search walks the set bits from low to high, so it meets x's arcs, out
or in, in edge-index order: its path is the same on every run, and every
caller inherits that determinism.  It charges one arc touch per arc
scanned.  ``_meeting_path`` grows BFS layers from the source along
out-arcs and from its targets backward along in-arcs, and finds a path to
whichever target it meets first.  Every caller names one target but the
alpha finder, which names every vertex below its target outdegree, so
that one search per unit moved either moves it or shows that no
orientation attains the vector.  The alpha expansion's meeting search may
also be handed a closed set, a vertex bitmask of vertices none of which
reaches the target: the source's side treats them as reached and never
expands them, and the target's side never meets one (see
:mod:`orientations.alpha`).

The number of pairwise arc-disjoint directed u-to-v paths is counted by the
reverse-and-repeat scheme: find a path, reverse it, and iterate.  Each
reversal lowers the u-to-v path count by exactly one, so the count is the
number of iterations that find a path.  The paths are flipped in place,
and path i is a u-to-v path of the orientation with paths 0..i-1 reversed,
so the paths are successive reversals.  A count that falls short also
hands back a cut, as a vertex bitmask, that certifies the shortfall for
other pairs too.  A caller may have such a count leave its first paths
reversed, all but its last ``spare``; every other count restores the
orientation before it returns.

The count owns the degree certificate: no more than min(out(u), in(v))
paths exist, a bound read with two popcounts that are not charged.  When
that bound lies below its limit, the count stops there, and it neither
flips nor undoes the path that reaches its stop: no search follows it.  Its
cut is then {u} when out(u) is the bound and every vertex but v otherwise,
unless a search fails first.  When the bound is also at most ``spare``, the
count could leave no path reversed, so it returns at once with no path, no
search and that cut.

Every search of a count meets in the middle, the paths it keeps and the
ones that only decide whether one more path exists alike.  A meeting search
grows the smaller of its two layers first; when each holds one vertex it
grows the one with fewer arcs to scan, the source's on a tie, a choice read
with popcounts that are not charged, one per layer of one vertex.  A side
whose layer is one vertex with no arc to scan has run out without growing
it.  Its path need not be a shortest one, but reversing any u-to-v path
lowers the count by exactly one.  The arcs leaving a vertex set number the
sum of its outdegrees less the edges inside it, so every path count, and
with it the stream of outdegree sequences, depends on the outdegrees alone;
only the order of the orientations listed within one outdegree class
depends on which paths were kept.  Once a largest set of paths is reversed,
the vertices u reaches form the set A, the source side of the smallest
minimum u-to-v cut, and the vertices that reach v form the set B, whose
complement V∖B is the source side of the largest one, whichever paths those
are.  A failing meeting search stops as soon as either side runs out.  It
hands back A when u's side runs out first, and otherwise V∖B, B being
complete then.  Either set holds u, not v, and no arc leaves it, so either
is a cut of the count, whichever caller reads it.

A λ test, ``lambda_at_least``, is the count whose ``spare`` is its limit:
it keeps no path reversed, and when its degree bound lies below the
threshold it returns at once.  The k >= 2 connectivity check is made of λ
tests.  The edge connectivity count has no ``spare``, since it needs exact
counts below its cap.

Every search moves by ``_flip``: reverse a path or cycle, or undo that, and
pay one arc touch per edge.  The finder of :mod:`orientations.kconn` flips
its edges through it too, so outside :mod:`orientations.multigraph` no
edge changes direction uncharged.
"""
from __future__ import annotations

import operator
from collections.abc import Sequence

from .metering import DelayMeter
from .multigraph import Orientation

__all__ = ["lambda_at_least"]


def _grow(rows, out, free, inward, layer, following, tree, targets) -> tuple[int | None, int]:
    # The package's one arc-scanning loop.  For each vertex x of ``layer``,
    # scans x's free out-arcs, ``out[x] & free[x]``, in row order, or with
    # ``inward`` its free in-arcs, ``free[x] & ~out[x]``, backward.  Each
    # vertex not yet in ``tree`` is mapped there to the edge it was reached
    # by and appended to ``following``; the first such vertex in
    # ``targets`` ends the scan.  Returns it, or None, and the number of
    # arcs scanned.  Passed as both ``layer`` and ``following``, one list
    # is a FIFO queue and the call a whole BFS.
    touched = 0
    for x in layer:
        row = rows[x]
        arcs = free[x] & ~out[x] if inward else out[x] & free[x]
        while arcs:
            low = arcs & -arcs
            arcs ^= low
            touched += 1
            e, w, _ = row[low.bit_length() - 1]
            if w not in tree:
                tree[w] = e
                if w in targets:
                    return w, touched
                following.append(w)
    return None, touched


def _walk(ends, tree: dict, x: int) -> list[int]:
    # The edges from x back to the root of ``tree``, which maps a vertex to
    # the edge it was reached by (None at the root); ``ends[e]`` holds the
    # endpoints of edge e.
    edges: list[int] = []
    e = tree[x]
    while e is not None:
        edges.append(e)
        a, b = ends[e]
        x ^= a ^ b  # the vertex across e from x
        e = tree[x]
    return edges


def _meeting_path(
    orientation: Orientation,
    u: int,
    targets: Sequence[int],
    free: Sequence[int],
    closed: int,
    meter: DelayMeter | None,
) -> tuple[list[int] | None, int | None]:
    # A path from u to a vertex of ``targets``, which misses u, and None, or
    # None and a cut, found by growing BFS layers from u along out-arcs and
    # from the targets backward along in-arcs, one ``_grow`` per layer,
    # until an arc joins the two trees.  Both sides scan only the entries
    # of free[x].  u's side treats the vertices of the bitmask ``closed``
    # as reached and never expands them: the caller knows that none of
    # them reaches a target, so the targets' side never meets one.
    # Charged as one BFS run and one arc touch per arc scanned in either
    # direction.
    #
    # The smaller layer grows first; when both hold one vertex, the one
    # with fewer arcs to scan (out-arcs on u's side, in-arcs on the
    # targets'), u's on a tie.  Each side keeps its layer's key for that
    # rule, computed once per layer: its size times ``span``, which exceeds
    # every arc count, plus its vertex's arc count when it holds one, so
    # the side with the smaller key grows, u's on equal keys.  A key of at
    # most ``span`` is an empty layer or one vertex with no arc to scan,
    # so that side has run out: a failing search stops there, before it
    # grows that side again.  When u's side runs out first, the cut is the
    # set A that u reaches, ``closed`` included; otherwise the targets'
    # tree holds the set B of vertices that reach a target, and the cut is
    # the mask of V∖B.
    graph = orientation.graph
    rows, out = graph.incidence, orientation._out
    ahead, behind = {u: None}, dict.fromkeys(targets)
    while closed:
        x = closed.bit_length() - 1
        closed ^= 1 << x
        ahead[x] = None
    front, back, span = [u], targets, len(graph.edges) + 1
    front_key = span + (out[u] & free[u]).bit_count()
    back_key = len(back) * span
    if back_key == span:
        y = back[0]
        back_key += (free[y] & ~out[y]).bit_count()
    if meter is not None:
        meter.bfs()
    hit, touched = None, 0
    while hit is None:
        if back_key < front_key:
            if back_key <= span:
                break
            layer: list[int] = []
            hit, scanned = _grow(rows, out, free, True, back, layer, behind, ahead)
            back, back_key = layer, len(layer) * span
            if back_key == span:
                y = layer[0]
                back_key += (free[y] & ~out[y]).bit_count()
        else:
            if front_key <= span:
                break
            layer = []
            hit, scanned = _grow(rows, out, free, False, front, layer, ahead, behind)
            front, front_key = layer, len(layer) * span
            if front_key == span:
                x = layer[0]
                front_key += (out[x] & free[x]).bit_count()
        touched += scanned
    if meter is not None:
        meter.arcs(touched)
    if hit is None:
        inward = back_key < front_key  # the targets' side ran out
        cut = 0
        for x in behind if inward else ahead:
            cut |= 1 << x
        return None, (1 << graph.n) - 1 ^ cut if inward else cut
    edges = _walk(graph.edges, ahead, hit)
    edges.reverse()
    return edges + _walk(graph.edges, behind, hit), None


def _flip(d: Orientation, edges: Sequence[int], meter: DelayMeter | None) -> None:
    # Reverses the edges and charges one arc touch per edge (none without a meter).
    d._flip(edges)
    if meter is not None:
        meter.arcs(len(edges))


def _degree_bound(orientation: Orientation, u: int, v: int) -> int:
    # min(out(u), in(v)), which no u-to-v path count can exceed: every path
    # leaves u by an out-arc and enters v by an in-arc.  Two popcounts.
    out = orientation._out
    return min(out[u].bit_count(), (orientation.graph._row_mask[v] ^ out[v]).bit_count())


def _count_paths(
    orientation: Orientation,
    u: int,
    v: int,
    limit: int,
    meter: DelayMeter | None = None,
    spare: int | None = None,
) -> tuple[list[list[int]], int | None]:
    # Arc-disjoint u-to-v paths, up to ``limit`` of them, found by reversing
    # one meeting path at a time; each is a path of the orientation with the
    # earlier ones reversed.  Every flip, the undo flips included, is an arc
    # touch.  The count stops at min(limit, out(u), in(v)), since no more
    # paths exist, and the path that reaches that stop is neither flipped nor
    # undone: no search follows it.  ``spare`` is None or at least 1.  A count
    # that falls short of ``limit`` undoes only its last ``spare`` paths (all
    # of them when None) and leaves the others reversed; otherwise, and when a
    # search raises, the orientation is restored.  A λ test is the count whose
    # ``spare`` is its ``limit``: it keeps no path reversed.
    #
    # Returned with the paths is a cut when fewer than ``limit`` exist, else
    # None: the vertex bitmask of a set R that holds u but not v and that no
    # arc leaves once the count's paths are reversed.  Each flipped path,
    # running out of R, had lowered the number of arcs leaving R by one, so
    # exactly as many arcs as there are paths leave it in the orientation as
    # given, and on return as many as the count undid paths.  Reversing a
    # path whose ends lie on one side of R leaves the number unchanged.
    # When the count stops at out(u) below its limit, its paths once
    # reversed leave u no out-arc, so R is {u}, the set a next search would
    # reach; else when it stops at in(v), they leave v no in-arc, so R is
    # every vertex but v.  Otherwise R is the cut of the failing search.
    # A count whose degree bound lies below ``limit`` and at most at
    # ``spare`` could leave no path reversed, so it returns at once with no
    # path and that degree cut, which the bound's arcs leave.  A failing
    # search hands back the set u reaches when u's side runs out first, and
    # otherwise every vertex that does not reach v (see the module
    # docstring).
    bound = _degree_bound(orientation, u, v)
    cut = None
    if bound < limit:
        cut = 1 << u if orientation._out[u].bit_count() == bound else (1 << orientation.graph.n) - 1 ^ 1 << v
        if spare is not None and bound <= spare:
            return [], cut
        limit = bound
    paths: list[list[int]] = []
    flipped = kept = 0
    try:
        while len(paths) < limit:
            path, failed = _meeting_path(orientation, u, (v,), orientation.graph._row_mask, 0, meter)
            if path is None:
                cut = failed
                break
            paths.append(path)
            if len(paths) < limit:
                _flip(orientation, path, meter)
                flipped += 1
        if cut is not None and spare is not None:
            kept = max(len(paths) - spare, 0)
        return paths, cut
    finally:
        for path in paths[kept:flipped]:
            _flip(orientation, path, meter)


def _check_integer(value, name: str) -> int:
    # The value as an int; rejects one that is not an integer.
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_positive(value, name: str) -> None:
    # Rejects a path count or connectivity that is not an integer of at least 1.
    if _check_integer(value, name) < 1:
        raise ValueError(f"{name} must be at least 1")


def lambda_at_least(
    orientation: Orientation,
    u: int,
    v: int,
    threshold: int,
    meter: DelayMeter | None = None,
) -> bool:
    """True iff there are at least ``threshold`` pairwise arc-disjoint directed u-to-v paths.

    Raises ``ValueError`` when ``u`` or ``v`` is not a vertex, both are
    equal, or ``threshold`` is not an integer of at least 1.
    """
    n = orientation.graph.n
    u, v = _check_integer(u, "u"), _check_integer(v, "v")
    for x in (u, v):
        if not 0 <= x < n:
            raise ValueError(f"vertex {x} out of range for {n} vertices")
    if u == v:
        raise ValueError("u and v must differ")
    _check_positive(threshold, "threshold")
    return len(_count_paths(orientation, u, v, threshold, meter, threshold)[0]) == threshold
