"""Witnesses of proof steps, used by the tests only.

``reverse_path`` checks that a path found by the search really is a directed
path before flipping it, ``reversed_copy`` flips any edge set of a copy,
``assert_masks_exact`` checks an orientation's out-arc masks against its
directions, ``cut_outdegree`` counts the arcs leaving a vertex set straight
from the definition, ``vertices`` unpacks the vertex bitmask of a λ
count's cut, ``same_alpha_cycle_decomposition`` exhibits the
cycle decomposition between two orientations with equal outdegrees,
``class_size_lower_bound_check`` tests the (k-1)n+2 class-size floor,
``assert_path`` checks a directed u-to-v path, ``free_masks`` gives the
free-entry masks of a set of fixed edges,
``unbounded_count_paths`` is the λ count that goes on past min(out(u),
in(v)) to its limit, ``forward_count_paths`` the λ count whose every search
runs forward, ``closure_count_paths`` the λ count whose deciding searches
are the older meeting search, which grows the smaller layer first and
always hands back the forward closure, ``pairwise_is_k_connected`` the
connectivity check that counts paths from vertex 0 to every other vertex
and back also for k = 1, ``InvariantProbe`` replays the enumeration walks with their
proof-step assertions (``probed_alpha``, ``probed_sequences``,
``probed_k_connected``), ``scanned_sequences`` replays the
outdegree-sequence search with a reference chain: the plain scan that
restarts every λ test sweep at the first later vertex, the chain that
keeps the cuts of failed tests but re-tests a pair after every reversal it
permits, or the chain that makes one count per candidate but also counts
the pairs whose outdegrees already decide them; these keep each vertex
first, as the search does.  Each reference generator fixes ``order[i]`` at
level i of the search's ``_VertexOrder`` and takes the vertices after it,
the later ones, in that order, as the search does.  ``chain_cut_choices``
is the search's generator as it was before its tight sets outlived their
chain, ``keep_last_choices`` the same with the older order that keeps each
vertex last, and ``ignoring_family`` puts either in the search's place.  ``TightSetProbe`` runs the search and
checks every pair that its tight sets rule out.  ``FullScanLevels``,
``UncutLevels``, ``UncountedLevels`` and ``FlipBackLevels`` stand in for
the alpha expansion's ``_EdgeLevels``, in its closing order: the first
with a reference search that scans whole incidence rows, the second with
no cut reaching any search, the third as the expansion was without the
free-arc tests and the sets passed down, running every search that the
cut does not skip, and the fourth as the expansion was before its levels
left their flips: each level undoes its flip, and keeps a closed prefix of
a cut that holds its tail.  The last two search forward, as the
expansion did before its search met in the middle, with ``tree_search``:
the package's BFS that also hands back its search tree.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from itertools import islice
from types import SimpleNamespace
from unittest import mock

from orientations import (
    DelayMeter,
    Multigraph,
    Orientation,
    enumerate_alpha,
    find_alpha_orientation,
    find_k_connected_orientation,
    is_k_connected,
    kconn,
)
from oracles import oracle_lambda
from orientations import alpha as alpha_module
from orientations.alpha import _EdgeLevels, _emit_leaves, walk
from orientations.multigraph import _Trailing
from orientations.paths import _count_paths, _degree_bound, _flip, _grow, _meeting_path, _walk
from orientations.sequences import _expansion, _TightSets, _vertex_choices, _VertexOrder


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


def assert_path(orientation: Orientation, path: Sequence[int], u: int, v: int) -> None:
    """Asserts that ``path`` is a nonempty arc-simple directed u-to-v path."""
    reverse_path(orientation, path, u)  # raises unless it is one leaving u
    assert orientation.head(path[-1]) == v, f"path {path} does not end at {v}"


def free_masks(graph: Multigraph, fixed: Iterable[int]) -> list[int]:
    """Per vertex x, the bitmask over the positions of ``incidence[x]``
    whose edges are not in ``fixed``: the ``free`` masks a search takes."""
    fixed = set(fixed)
    return [sum(1 << i for i, (e, _, _) in enumerate(row) if e not in fixed) for row in graph.incidence]


def reversed_copy(orientation: Orientation, edges: Iterable[int]) -> Orientation:
    """New orientation with exactly ``edges`` flipped."""
    dup = orientation.copy()
    dup._flip(edges)
    return dup


def assert_masks_exact(orientation: Orientation) -> None:
    """Asserts that the out-arc masks are the ones ``_dirs`` gives, and that
    ``outdegrees()`` counts the arcs leaving each vertex."""
    graph, dirs = orientation.graph, orientation._dirs
    masks = [0] * graph.n
    counts = [0] * graph.n
    for x, row in enumerate(graph.incidence):
        for i, (e, _, x_is_first) in enumerate(row):
            if dirs[e] == x_is_first:
                masks[x] |= 1 << i
    for (u, v), d in zip(graph.edges, dirs):
        counts[u if d else v] += 1
    assert orientation._out == masks, f"out-arc masks {orientation._out} are not {masks}"
    assert orientation.outdegrees() == tuple(counts), "outdegrees are not the arcs leaving each vertex"


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


def vertices(mask: int) -> set[int]:
    """The vertices of a vertex bitmask, the form of a λ count's cut."""
    return {x for x in range(mask.bit_length()) if mask >> x & 1}


def unbounded_count_paths(
    orientation: Orientation,
    u: int,
    v: int,
    limit: int,
    meter: DelayMeter | None = None,
    spare: int | None = None,
) -> tuple[list[list[int]], int | None]:
    """``paths._count_paths`` without its degree stop, as a reference.

    Same contract, searches and cut, but it counts up to ``limit`` whatever
    out(u) and in(v) are: it flips the path that reaches min(out(u), in(v))
    below the limit and then stops before the next search, on {u} when u
    has no out-arc left, else on every vertex but v when v has no in-arc
    left, and undoes that path.  Only the path that reaches
    ``limit`` is neither flipped nor undone.  So a pair whose outdegrees
    decide it is counted too, and its paths are returned.
    """
    paths: list[list[int]] = []
    kept = 0
    out, n = orientation._out, orientation.graph.n
    all_in = orientation.graph._row_mask[v]  # _out[v] when v has no in-arc
    try:
        while len(paths) < limit:
            if not out[u]:
                cut: int | None = 1 << u
            elif out[v] == all_in:
                cut = (1 << n) - 1 ^ 1 << v
            else:
                path, cut = _count_search(orientation, u, v, meter)
            if cut is not None:
                kept = 0 if spare is None else max(len(paths) - spare, 0)
                return paths, cut
            if len(paths) + 1 == limit:
                return paths + [path], None
            _flip(orientation, path, meter)
            paths.append(path)
        return paths, None
    finally:
        for path in paths[kept:]:
            _flip(orientation, path, meter)


def forward_count_paths(
    orientation: Orientation,
    u: int,
    v: int,
    limit: int,
    meter: DelayMeter | None = None,
    spare: int | None = None,
) -> tuple[list[list[int]], int | None]:
    """``paths._count_paths`` with forward searches only, as a reference.

    Same contract, and it stops or returns at once where the outdegrees
    decide it the same way, but every search is the forward BFS, so its
    paths are shortest ones and every cut is the forward closure.  It finds
    as many paths, but not the same ones, so it leaves a different
    orientation with the same outdegrees.
    """
    return _reference_count(orientation, u, v, limit, meter, spare, _forward_path, _forward_path)


def closure_count_paths(
    orientation: Orientation,
    u: int,
    v: int,
    limit: int,
    meter: DelayMeter | None = None,
    spare: int | None = None,
) -> tuple[list[list[int]], int | None]:
    """``paths._count_paths`` with the older meeting search, as a reference.

    The searches whose paths it keeps reversed are ``paths._meeting_path``
    as a count makes them, so it keeps the package's paths.  Its deciding
    searches grow the smaller layer first, u's on a tie, and a failing one
    always goes on until u's side runs out and hands back the forward
    closure.  They find a path exactly when ``paths._meeting_path`` does.
    """
    return _reference_count(orientation, u, v, limit, meter, spare, _count_search, _closure_meeting_path)


def _count_search(orientation: Orientation, u: int, v: int, meter) -> tuple[list[int] | None, int | None]:
    # ``paths._meeting_path`` as a count makes it: every entry free and no
    # closed set.
    return _meeting_path(orientation, u, (v,), orientation.graph._row_mask, 0, meter)


def _forward_path(orientation: Orientation, u: int, v: int, meter) -> tuple[list[int] | None, int | None]:
    # The forward BFS as ``paths._meeting_path`` answers: a path and None,
    # or None and the set it reached.
    reached: dict = {}
    path = tree_search(orientation, (u,), (v,), None, meter, reached)
    return path, None if path else sum(1 << x for x in reached)


def tree_search(
    orientation: Orientation,
    sources: Sequence[int],
    targets,
    free: Sequence[int] | None,
    meter: DelayMeter | None,
    reached: dict,
    inward: bool = False,
) -> list[int] | None:
    """A one-sided BFS that hands back its search tree, as a reference.

    One ``paths._grow`` over one queue from ``sources`` to the first target
    it discovers, along out-arcs, or with ``inward`` backward along in-arcs:
    one BFS run and one arc touch per arc scanned, and a shortest path, the
    lowest-indexed arcs winning ties.  It is the search the alpha finder and
    the alpha expansion made before they met in the middle; given ``free``
    masks, it scans only their entries, as the expansion's search did.
    ``reached`` receives the tree, each vertex mapped to the edge it was
    reached by (a source to None), so its keys are the vertices the search
    reached.  It may arrive holding vertices that the search then treats as
    reached and never expands.
    """
    for x in sources:
        reached[x] = None
    graph = orientation.graph
    queue = list(sources)
    if meter is not None:
        meter.bfs()
    scope = graph._row_mask if free is None else free
    hit, touched = _grow(graph.incidence, orientation._out, scope, inward, queue, queue, reached, targets)
    if meter is not None:
        meter.arcs(touched)
    return None if hit is None else _walk(graph.edges, reached, hit)[::-1]


def _closure_meeting_path(orientation: Orientation, u: int, v: int, meter) -> tuple[list[int] | None, int | None]:
    # The meeting search before the narrower end grew first: the smaller
    # layer grows first, u's on a tie, and a failing one hands back every
    # vertex u reaches.
    graph = orientation.graph
    rows, out, ends = graph.incidence, orientation._out, graph.edges
    ahead, behind = {u: None}, {v: None}
    front, back = [u], [v]
    if meter is not None:
        meter.bfs()
    hit, touched = None, 0
    while front and hit is None:
        layer: list[int] = []
        if back and len(back) < len(front):
            hit, scanned = _grow(rows, out, graph._row_mask, True, back, layer, behind, ahead)
            back = layer
        else:
            hit, scanned = _grow(rows, out, graph._row_mask, False, front, layer, ahead, behind)
            front = layer
        touched += scanned
    if meter is not None:
        meter.arcs(touched)
    if hit is None:
        return None, sum(1 << x for x in ahead)
    return _walk(ends, ahead, hit)[::-1] + _walk(ends, behind, hit), None


def _reference_count(orientation, u, v, limit, meter, spare, keeping, deciding) -> tuple[list[list[int]], int | None]:
    # The λ count of ``paths._count_paths`` with ``keeping`` as the search
    # for the paths it may keep reversed and ``deciding`` as the rest, each
    # answering as ``paths._meeting_path`` does.
    bound = _degree_bound(orientation, u, v)
    cut: int | None = None
    if bound < limit:
        cut = 1 << u if orientation._out[u].bit_count() == bound else (1 << orientation.graph.n) - 1 ^ 1 << v
        if spare is not None and bound <= spare:
            return [], cut
        limit = bound
    paths: list[list[int]] = []
    flipped = kept = 0
    kept_searches = limit if spare is None else limit - spare
    try:
        while len(paths) < limit:
            search = keeping if len(paths) < kept_searches else deciding
            path, failed = search(orientation, u, v, meter)
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


def pairwise_is_k_connected(orientation: Orientation, k: int, meter: DelayMeter | None = None) -> bool:
    """``is_k_connected`` by unbounded counts from vertex 0 to every other
    vertex and back, for every k, as a reference: for k = 1 that is up to
    2(n-1) searches where ``is_k_connected`` sweeps once each way."""
    for v in range(1, orientation.graph.n):
        for src, dst in ((0, v), (v, 0)):
            if len(unbounded_count_paths(orientation, src, dst, k, meter)[0]) < k:
                return False
    return True


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

    The choice generators of the package run as in the enumerators, the
    edge levels on the live orientation ``d`` and the vertex levels on
    ``given``, a ``multigraph._Trailing`` of ``d``, wrapped the way the
    enumerators drive them through ``walk``:

    - ``edge_choices(i)`` asserts at every yield, and when the level ends,
      that the edges fixed above level i, those of the levels 0..i-1 in the
      closing order, are as they were when the level opened.  At every
      yield it also asserts that the walk's mask ``free[x]`` holds exactly
      the entries of x's incidence row whose edges belong to the levels
      i+1..m-1, and that ``assert_masks_exact`` holds.  The levels are
      those of one ``_EdgeLevels``, as in the enumerators, and the probe
      reads its state, whose sets are vertex bitmasks.  When a level
      searches, the cut must be what level i+1 left, empty at the last
      level, the free out-arc count derived from the masks,
      ``popcount(_out[x] & free[x])``, must be the number of out-arcs at x
      among the edges of the levels below, and the free in-arc count,
      ``popcount(free[x] & ~_out[x])``, the number of in-arcs.  When a
      level skips its search, an unmetered search on the live orientation
      must find no path either.  No arc of the edges of the levels i..m-1
      may leave the set a level hands up, so no arc free at the level
      above leaves it.  When a level searches, the closed set that its
      search treats as reached must miss the tail and be left by no arc of
      the edges of the levels below either: the probe runs the walk with
      ``alpha._meeting_path`` replaced by its checked ``search``;
    - ``expansion()`` drives ``sequences._expansion`` over the probe's edge
      levels, as the k-connected search does below its last vertex level.
      As the expansion opens edge level 0, right after the expansion's
      restore, ``choices(0)`` asserts that the restore made ``d`` equal
      ``given`` and was charged one arc touch per edge where the two
      differed;
    - ``vertex_choices(i)`` drives the search's own level i on ``given``,
      in the search's level order, the levels sharing one tight-set family
      as in the search, and asserts at every yield that ``given`` is still
      k-connected, that ``assert_masks_exact`` holds for ``given`` and for
      ``d``, and that every edge where the two differ was flipped by an
      edge level since the last restore: the probe runs the walk with
      ``alpha._flip`` replaced by one that records the edges it flips.
      Every state a path reversal reaches is yielded once, so this checks
      that each reversal keeps k-connectivity.  At the last level it makes
      each yield's outdegrees, the sequence the vertex levels reached, the
      target of the leaves below;
    - ``leaves(levels, choices)`` asserts at every leaf that the orientation
      has the target outdegrees: ``target`` when given, else the sequence
      the vertex levels reached, read with ``d.outdegrees()`` like any leaf
      of the sequence search.  When the walk ends it asserts that every
      free mask is back at its row mask.
    """

    def __init__(self, seed: Orientation, k: int = 0, target: Sequence[int] | None = None):
        self.d = seed.copy()
        self.k = k
        self.target = target
        self.meter = DelayMeter()
        self.levels = _EdgeLevels(self.d, self.meter)
        self.given = _Trailing(self.d)  # the orientation of the vertex levels, as in the search
        self.restored = None  # at a restore: the edges where d differed from given, and the touches before it
        self.flipped = set()  # the edges that edge levels flipped since the last restore
        self.left = None  # the cut as the last edge level to end left it
        self.level = None  # the edge level that resumed last, the one that searches
        self.tight = _TightSets()  # the tight-set families the vertex levels share, as in the search
        self.order = _VertexOrder(seed.graph)  # the vertex levels' order, as in the search

    def edge_choices(self, i: int):
        d, levels = self.d, self.levels
        order = levels.order
        e, above, below = order[i], order[:i], order[i + 1 :]
        fixed = [d._dirs[f] for f in above]
        masks = free_masks(d.graph, order[: i + 1])
        options = 0
        for _ in levels.choices(i):
            assert [d._dirs[f] for f in above] == fixed, f"edges fixed above level {i} changed within a branch"
            assert levels.free == masks, f"free masks at edge level {i} are not the edges of the levels below"
            assert_masks_exact(d)
            yield
            options += 1
            if options == 1:
                if below:
                    assert levels.cut == self.left, f"edge level {i} reads a cut that level {i + 1} did not leave"
                else:
                    assert levels.cut == 0, f"the last edge level, {i}, reads a cut"
                fo, fi = [0] * d.graph.n, [0] * d.graph.n
                for f in below:
                    fo[d.tail(f)] += 1
                    fi[d.head(f)] += 1
                free_out = [(d._out[x] & levels.free[x]).bit_count() for x in range(d.graph.n)]
                assert free_out == fo, f"derived free out-arc counts at edge level {i} are not the edges below it"
                free_in = [(levels.free[x] & ~d._out[x]).bit_count() for x in range(d.graph.n)]
                assert free_in == fi, f"derived free in-arc counts at edge level {i} are not the edges below it"
                runs = self.meter.bfs_runs
                self.level = i
        assert [d._dirs[f] for f in above] == fixed, f"edges fixed above level {i} changed"
        tail, head = d.tail(e), d.head(e)
        if options == 1 and self.meter.bfs_runs == runs:
            assert _meeting_path(d, head, (tail,), masks, 0, None)[0] is None, f"edge level {i} skipped a search that finds a path"
        members = vertices(levels.cut)
        leaving = [f for f in order[i:] if d.tail(f) in members and d.head(f) not in members]
        assert not leaving, f"arcs {leaving} leave the set handed up by edge level {i}"
        self.left = levels.cut

    def search(self, d, u, targets, free, closed, meter):
        # The search of the edge level that resumed last, after checking the
        # closed set it is told to treat as reached.
        i, skipped = self.level, vertices(closed)
        below = self.levels.order[i + 1 :]
        leaving = [f for f in below if d.tail(f) in skipped and d.head(f) not in skipped]
        assert not leaving, f"free arcs {leaving} leave the skipped set of edge level {i}"
        assert not skipped & set(targets), f"edge level {i} skips a set that holds its tail"
        return _meeting_path(d, u, targets, free, closed, meter)

    def expansion(self):
        self.restored = self._differ(), self.meter.arc_touches
        return _expansion(self.given, self)

    def choices(self, i: int):
        # Edge level 0 as ``sequences._expansion`` opens it, right after its
        # restore.
        differ, touches = self.restored
        assert self.d == self.given, "the expansion does not start from the orientation of the vertex levels"
        assert self.meter.arc_touches - touches == len(differ), "the restore is not charged one touch per edge it flips"
        self.flipped.clear()
        return self.edge_choices(i)

    def _differ(self) -> list[int]:
        # The edges where d differs from given, asserted to be edges that
        # the edge levels flipped since the last restore.
        d, given = self.d, self.given
        differ = [f for f in range(d.graph.m) if d._dirs[f] != given._dirs[f]]
        assert self.flipped.issuperset(differ), "d differs from given on an edge that no edge level flipped"
        return differ

    def flip(self, d, edges, meter):
        # ``alpha._flip``, recording the edges the edge levels flip.
        self.flipped.update(edges)
        _flip(d, edges, meter)

    def vertex_choices(self, i: int):
        given, v = self.given, self.order[i]
        for _ in _vertex_choices(given, self.order, i, self.k, self.meter, self.tight):
            assert is_k_connected(given, self.k), f"a path reversal at vertex {v} broke k-connectivity"
            assert_masks_exact(given)
            assert_masks_exact(self.d)
            self._differ()
            if i == given.graph.n - 1:
                self.target = given.outdegrees()
            yield

    def leaves(self, levels: int, choices):
        with (
            mock.patch.object(alpha_module, "_meeting_path", self.search),
            mock.patch.object(alpha_module, "_flip", self.flip),
        ):
            for _ in walk(levels, choices):
                if self.target is not None:
                    assert self.d.outdegrees() == tuple(self.target), "emitted orientation misses the target outdegrees"
                yield
        assert self.levels.free == list(self.d.graph._row_mask), "free masks not back at the row masks when the walk ends"


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
    return [probe.d.outdegrees() for _ in probe.leaves(graph.n, probe.vertex_choices)]


def probed_k_connected(graph: Multigraph, k: int, seed: Orientation) -> list[Orientation]:
    """The stream of ``enumerate_k_connected`` from ``seed``, replayed under an ``InvariantProbe``."""
    probe = InvariantProbe(seed, k)
    n = graph.n

    def choices(i: int):
        if i < n:
            return probe.vertex_choices(i)
        return probe.edge_choices(i - n) if i > n else probe.expansion()

    return [probe.d.copy() for _ in probe.leaves(n + graph.m, choices)]


def _after(order: Sequence[int], i: int) -> tuple[int, list[int]]:
    # The vertex of level i, and the vertices after it in level order.
    return order[i], list(order[i + 1 :])


def _mask(members: Iterable[int]) -> int:
    return sum(1 << x for x in members)


def chain_cut_choices(d: Orientation, order: Sequence[int], i: int, k: int, meter: DelayMeter):
    """The per-vertex choice generator whose cuts serve only their chain, as a reference.

    Same options, order, streams and contract as
    ``sequences._vertex_choices``, as the search was before its tight sets
    outlived their chain: each chain starts from every later vertex and
    rules out only what the cuts of its own counts rule out, and no level
    sees another's cuts.  Drive it with ``ignoring_family``.
    """
    # Keeps the vertex first, so a level emits on entry the leaf it would
    # reach anyway, and the subtree below restores d.  Then one chain per
    # direction: a count for each later (so not yet fixed) vertex that no
    # cut has ruled out, which leaves the first λ-k of its paths reversed,
    # all before the chain's first yield; then one yield per reversal,
    # undoing them deepest first.
    yield
    v, later = _after(order, i)
    limit = d.graph.degree(v) + 1
    for lowering in (True, False):
        chain = []
        candidates = _mask(later)
        for u in later:
            if candidates >> u & 1:
                src, dst = (v, u) if lowering else (u, v)
                paths, cut = _count_paths(d, src, dst, limit, meter, k)
                chain += paths[: len(paths) - k]  # d stays k-connected: λ >= k
                candidates &= cut if lowering else ~cut
        while chain:
            edges = chain.pop()
            yield
            _flip(d, edges, meter)


def keep_last_choices(d: Orientation, order: Sequence[int], i: int, k: int, meter: DelayMeter):
    """The per-vertex choice generator that keeps the vertex last, as a reference.

    Same options, counts, reversals and meter charges as
    ``chain_cut_choices``, in the order the search had before it kept each
    vertex first: the lowering chain's counts run before the first yield,
    so a node of the walk emits its leftmost leaf only after the chains of
    every level below it.  Drive it with ``ignoring_family``.
    """
    v, later = _after(order, i)
    limit = d.graph.degree(v) + 1
    for lowering in (True, False):
        chain = []
        candidates = _mask(later)
        for u in later:
            if candidates >> u & 1:
                src, dst = (v, u) if lowering else (u, v)
                paths, cut = _count_paths(d, src, dst, limit, meter, k)
                chain += paths[: len(paths) - k]
                candidates &= cut if lowering else ~cut
        while chain:
            edges = chain.pop()
            yield
            _flip(d, edges, meter)
    yield


def ignoring_family(choices):
    """A reference generator ``choices(d, order, i, k, meter)`` in the place
    of ``sequences._vertex_choices``: it ignores the tight-set family that
    the search hands every level."""
    return lambda d, order, i, k, meter, tight: choices(d, order, i, k, meter)


class TightSetProbe:
    """Runs the outdegree-sequence search and checks every pair its tight sets rule out.

    ``choices`` stands in for ``sequences._vertex_choices`` and ``count``
    for ``sequences._count_paths``; each drives the package's own.  A chain
    counts, in level order, toward every later vertex that neither the
    family it reads when it starts nor the cuts of its own counts rule out,
    so each later vertex it does not count was ruled out.  At each such
    pair, on the orientation the chain had reached when it passed the pair, the probe asserts that
    some member of that family or of those cuts holds the pair's source but
    not its target, and that every such member is left by exactly k arcs
    (``cut_outdegree``).  With ``oracle`` set, it also asserts that the
    pair has exactly k arc-disjoint paths (``oracles.oracle_lambda``).
    ``ruled_out`` counts the pairs checked.
    """

    def __init__(self, oracle: bool = False):
        self.oracle = oracle
        self.ruled_out = 0
        self.chains = None  # the state of the level whose generator runs

    def count(self, d, src, dst, limit, meter=None, spare=None):
        chains = self.chains
        lowering = src == chains.v
        if not lowering:
            self._passed(d, True, d.graph.n)  # the lowering chain ended on d
        at = chains.order.index(dst if lowering else src)
        self._passed(d, lowering, at)
        found, cut = _count_paths(d, src, dst, limit, meter, spare)
        chains.cuts.append(cut)
        chains.next[lowering] = at + 1
        return found, cut

    def _passed(self, d, lowering: bool, end: int) -> None:
        # Checks the pairs that the running chain in this direction passed
        # without a count, from the level after the one it last counted
        # toward up to level ``end``.
        chains = self.chains
        v, k = chains.v, chains.k
        for u in chains.order[chains.next[lowering] : end]:
            src, dst = (v, u) if lowering else (u, v)
            members = [x for x in chains.family + chains.cuts if x >> src & 1 and not x >> dst & 1]
            assert members, f"no tight set rules out {src} to {dst}, which the chain at {v} passed"
            for x in members:
                assert cut_outdegree(d, vertices(x)) == k, f"{sorted(vertices(x))} rules out {src} to {dst} but is not tight"
            if self.oracle:
                assert oracle_lambda(d, src, dst) == k, f"{src} to {dst} was ruled out with more than k paths"
            self.ruled_out += 1
        chains.next[lowering] = max(chains.next[lowering], end)

    def choices(self, d: Orientation, order: _VertexOrder, i: int, k: int, meter: DelayMeter, tight: _TightSets):
        n, start, v = d.graph.n, tight.start, order[i]
        chains = SimpleNamespace(v=v, k=k, order=order, family=None, cuts=[], next=[i + 1, i + 1])
        base = d._out[v].bit_count()
        real = _vertex_choices(d, order, i, k, meter, tight)
        kept = False
        while True:
            if kept and chains.family is None:
                chains.family = tight[start:]  # the family the chains start from
            self.chains = chains
            try:
                next(real)
            except StopIteration:
                break
            if kept:  # a chain's yield: its first shows where its counts ended
                lowering = d._out[v].bit_count() < base
                self._passed(d, True, n)
                if not lowering:
                    self._passed(d, False, n)
            kept = True
            yield
        self.chains = chains
        self._passed(d, True, n)
        self._passed(d, False, n)


def fresh_count_choices(d: Orientation, order: Sequence[int], i: int, k: int, meter: DelayMeter):
    """The per-vertex choice generator without degree certificates, as a reference.

    Same contract and yields as ``chain_cut_choices``, and it makes
    one count per candidate the same way, but its counts are unbounded: it
    searches for every path of a pair whose outdegrees already decide that
    it has exactly k paths.
    """
    yield
    v, later = _after(order, i)
    limit = d.graph.degree(v) + 1
    for lowering in (True, False):
        chain = []
        candidates = _mask(later)
        for u in later:
            if candidates >> u & 1:
                src, dst = (v, u) if lowering else (u, v)
                paths, cut = unbounded_count_paths(d, src, dst, limit, meter, spare=k)
                chain += paths[: len(paths) - k]
                candidates &= cut if lowering else ~cut
        while chain:
            edges = chain.pop()
            yield
            _flip(d, edges, meter)


def plain_scan_choices(d: Orientation, order: Sequence[int], i: int, k: int, meter: DelayMeter):
    """The per-vertex choice generator with a plain scan, as a reference.

    Same contract and yields as ``chain_cut_choices``, but every step of a
    chain tests the vertices after v in level order afresh and keeps
    nothing that a failed λ test proved.
    """
    yield
    v, later = _after(order, i)
    for lowering in (True, False):
        chain = []
        while True:
            for u in later:
                src, dst = (v, u) if lowering else (u, v)
                paths, _ = unbounded_count_paths(d, src, dst, k + 1, meter)
                if len(paths) > k:
                    break
            else:
                break
            _flip(d, paths[0], meter)
            chain.append(paths[0])
        while chain:
            edges = chain.pop()
            yield
            _flip(d, edges, meter)


def retesting_choices(d: Orientation, order: Sequence[int], i: int, k: int, meter: DelayMeter):
    """The per-vertex choice generator that re-tests a pair after each reversal, as a reference.

    Same contract and yields as ``chain_cut_choices``, and it keeps
    the cuts of failed λ tests the same way, but ``retesting_pairs`` tests a
    pair afresh, with a count capped at k+1, after every reversal it permits.
    """
    yield
    for lowering in (True, False):
        chain = []
        for _, _, edges in retesting_pairs(d, order, i, lowering, k, meter):
            _flip(d, edges, meter)
            chain.append(edges)
        while chain:
            edges = chain.pop()
            yield
            _flip(d, edges, meter)


def retesting_pairs(d: Orientation, order: Sequence[int], i: int, lowering: bool, k: int, meter: DelayMeter):
    """One chain of ``retesting_choices`` at v = order[i]: yields the ordered
    pair of v with the first later vertex, in level order, that has more
    than k arc-disjoint paths, and the first of those paths, which the
    caller reverses before it asks for the next.  A failed test drops every
    vertex its cut rules out, and the scan resumes at the vertex last
    yielded."""
    v, later = _after(order, i)
    candidates = _mask(later)
    for u in later:
        while candidates >> u & 1:
            src, dst = (v, u) if lowering else (u, v)
            paths, cut = unbounded_count_paths(d, src, dst, k + 1, meter)
            if cut is None:
                yield src, dst, paths[0]
            else:
                candidates &= cut if lowering else ~cut


def scanned_sequences(graph: Multigraph, k: int, meter: DelayMeter, choices) -> list[tuple[tuple[int, ...], str]]:
    """The stream of ``enumerate_outdegree_sequences(graph, k, None, ...)``,
    each sequence with its serialized witness, found by the reference choice
    generator ``choices`` (``plain_scan_choices``, ``retesting_choices`` or
    ``fresh_count_choices``) on ``meter``, after the finder with
    ``pairwise_is_k_connected`` as its check."""
    with mock.patch.object(kconn, "is_k_connected", pairwise_is_k_connected):
        d = find_k_connected_orientation(graph, k, meter)
    if d is None:
        meter.finished()
        return []
    got, order = [], _VertexOrder(graph)
    leaves = walk(graph.n, lambda i: choices(d, order, i, k, meter))
    _emit_leaves(d, leaves, lambda copy: got.append((copy.outdegrees(), copy.serialize())), meter)
    return got


class FullScanLevels(_EdgeLevels):
    """The alpha expansion's edge levels with a whole-row scan, as a reference.

    Same contract, level order, yields and meter charges as
    ``alpha._EdgeLevels``, but its search for a completing cycle,
    ``full_scan_path``, keeps no free masks and no cut: it scans every
    entry of each row it reaches and skips the edges of the levels above
    one by one.
    """

    def __init__(self, d: Orientation, meter: DelayMeter):
        super().__init__(d, meter)
        self.level_of = {e: i for i, e in enumerate(self.order)}

    def choices(self, i: int):
        d, meter = self.d, self.meter
        yield
        e = self.order[i]
        u, v = d.graph.edges[e]
        tail, head = (u, v) if d.forward(e) else (v, u)
        path = full_scan_path(d, head, tail, self.level_of, i, meter)
        if path is not None:
            path.append(e)
            _flip(d, path, meter)
            yield


class UncutLevels(_EdgeLevels):
    """The alpha expansion's edge levels without the cut, as a reference.

    ``alpha._EdgeLevels`` with the cut cleared whenever a level resumes,
    keeping the free masks and their free-arc tests: no level sees the set that the search one
    level down reached, no level passes a set down, so every search that
    the counts do not skip runs and starts from the head alone.
    """

    def choices(self, e: int):
        for _ in super().choices(e):
            yield
            self.cut = 0


class UncountedLevels(_EdgeLevels):
    """The alpha expansion's edge levels without the free-arc tests, as a reference.

    Same contract, level order and yields as ``alpha._EdgeLevels``, and it
    keeps the free masks and reuses the cut that the level below handed
    up, but it makes no free-arc test and passes no set down: every search
    that the cut does not skip runs, the last edge level's included, and a
    level that flips hands up no cut.  Its search is the forward one that
    the expansion made before it met in the middle, ``tree_search``, and
    its cuts are the dicts of the vertices that search reached.
    """

    def choices(self, i: int):
        d, free = self.d, self.free
        e = self.order[i]
        u, u_bit, v, v_bit = d.graph._ends[e]
        free[u] ^= u_bit
        free[v] ^= v_bit
        self.cut = {}
        yield
        tail, head = (u, v) if d.forward(e) else (v, u)
        reached = self.cut
        if tail in reached:
            reached = {}
        path = None if head in reached else tree_search(d, (head,), (tail,), free, self.meter, reached)
        if path is None:
            self.cut = reached
        else:
            path.append(e)
            _flip(d, path, self.meter)
            yield
            self.cut = {}
        free[u] ^= u_bit
        free[v] ^= v_bit


class FlipBackLevels(_EdgeLevels):
    """The alpha expansion's edge levels that flip back, as a reference.

    The expansion as it was before its levels left their flips, in the
    same level order: a level that flips undoes its flip after its flip
    subtree, so every level searches on the orientation that the level
    above kept.  Its closed sets are those that rest on the flip-back: a
    set passed down to the flip subtree is the set the search skipped, a
    level hands up the set the subtree handed up when that misses head and
    tail once the flip is undone, and of a received set that holds the
    tail the level keeps the longest prefix that ends before a search's
    root, a vertex mapped to None, and misses the tail.  Its search is the forward one of that expansion,
    ``tree_search``, and its sets are dicts in insertion order.  The stream
    holds the same orientations in another order.
    """

    def __init__(self, d: Orientation, meter: DelayMeter):
        super().__init__(d, meter)
        self.cut, self.down = {}, {}

    def choices(self, i: int):
        d, free, out = self.d, self.free, self.d._out
        e = self.order[i]
        u, u_bit, v, v_bit = d.graph._ends[e]
        tail, head = (u, v) if d.forward(e) else (v, u)
        free[u] ^= u_bit
        free[v] ^= v_bit
        self.cut = {}
        yield
        reached = self.cut
        if tail in reached:
            reached = _closed_prefix(reached, tail)
        path = None
        if head not in reached and out[head] & free[head] and free[tail] & ~out[tail]:
            down = self.down
            inherited = {} if tail in down else down
            if head not in inherited:
                if inherited:
                    for x, via in inherited.items():
                        reached.setdefault(x, via)  # no root moves and none is made
                searched = len(reached)
                path = tree_search(d, (head,), (tail,), free, self.meter, reached)
        if path is None:
            self.cut = reached
        else:
            reached = dict(islice(reached.items(), searched)) if searched else {}
            path.append(e)
            _flip(d, path, self.meter)
            self.down = reached
            yield
            self.down = down
            _flip(d, path, self.meter)
            below = self.cut
            self.cut = below if below and head not in below and tail not in below else reached
        free[u] ^= u_bit
        free[v] ^= v_bit


def _closed_prefix(members: dict, x: int) -> dict:
    # The longest prefix of members that ends before a root, a vertex
    # mapped to None, and misses x.
    end = i = 0
    for y, via in members.items():
        if via is None:
            end = i
        if y == x:
            break
        i += 1
    return dict(islice(members.items(), end)) if end else {}


def full_scan_path(d: Orientation, source: int, target: int, level_of: dict, i: int, meter: DelayMeter) -> list[int] | None:
    """The edges of the BFS path from ``source`` to ``target`` that uses no
    edge of the levels above level ``i``, ``level_of`` mapping each edge to
    its level, or None.  One BFS run, and one arc touch per incidence entry
    scanned, fixed or not."""
    meter.bfs()
    parent = {source: None}
    queue = deque([source])
    touched = 0
    while queue and target not in parent:
        x = queue.popleft()
        for f, w, x_is_first in d.graph.incidence[x]:
            touched += 1
            if level_of[f] < i or d._dirs[f] != x_is_first or w in parent:
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
