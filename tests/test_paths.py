import ast
import random
from pathlib import Path

import pytest

import families
import orientations
import witnesses
from oracles import oracle_lambda
from orientations import (
    DelayMeter,
    Orientation,
    is_k_connected,
    lambda_at_least,
    parse_graph,
    paths,
)
from orientations.paths import _count_paths, _meeting_path, _shortest_path
from witnesses import (
    assert_path,
    closure_count_paths,
    cut_outdegree,
    forward_count_paths,
    free_masks,
    reverse_path,
    reversed_copy,
    tree_search,
    unbounded_count_paths,
    vertices,
)


def directed_triangle():
    return Orientation(parse_graph("3 3\n0 1\n1 2\n2 0"))


def opposite_double_triangle():
    # One copy 0->1->2->0, the other reversed.
    g = parse_graph("3 6\n0 1\n1 2\n2 0\n0 1\n1 2\n2 0")
    return Orientation(g, [1, 1, 1, 0, 0, 0])


def test_path_around_triangle():
    d = directed_triangle()
    assert _shortest_path(d, (1,), (0,), None) == [1, 2]  # 1->2 then 2->0


def test_fixed_edge_blocks_path():
    # Edges 0 and 1 fixed: only edge 2, the second entry of the rows of
    # vertices 0 and 2, is free.
    d = directed_triangle()
    assert _meeting_path(d, 1, 0, [0b10, 0, 0b10], 0, None)[0] is None


def test_antiparallel_pair_single_arc():
    g = parse_graph("2 2\n0 1\n0 1")
    d = Orientation(g, [1, 0])  # edge0: 0->1, edge1: 1->0
    assert _shortest_path(d, (0,), (1,), None) == [0]
    assert d.forward(0)


def test_lowest_edge_index_wins_ties():
    g = parse_graph("2 3\n0 1\n0 1\n0 1")
    d = Orientation(g)
    assert _shortest_path(d, (0,), (1,), None) == [0]
    assert _meeting_path(d, 0, 1, g._row_mask, 0, None) == ([0], None)
    assert _meeting_path(d, 0, 1, free_masks(g, {0}), 0, None) == ([1], None)


def test_fixed_prefix_over_parallel_edges():
    # A free mask skips exactly the entries it clears, whether or not they
    # are a prefix of the row: none of them is scanned or counted, and the
    # lowest free index still wins.  Each search here scans one arc, from
    # the side with fewer arcs to scan (u's on a tie), or finds a side with
    # none and scans nothing.
    g = parse_graph("2 4\n0 1\n0 1\n0 1\n0 1")
    d = Orientation(g, [0, 1, 0, 1])  # edges 0, 2 point 1->0; edges 1, 3 point 0->1
    meter = DelayMeter()
    assert _meeting_path(d, 1, 0, free_masks(g, ()), 0, meter) == ([0], None)
    assert meter.arc_touches == 1
    assert _meeting_path(d, 1, 0, free_masks(g, {0}), 0, meter) == ([2], None)
    assert _meeting_path(d, 1, 0, free_masks(g, {0, 2}), 0, meter)[0] is None
    assert meter.arc_touches == 1 + 1 + 0
    assert _meeting_path(d, 0, 1, free_masks(g, {0, 2}), 0, meter) == ([1], None)
    assert _meeting_path(d, 0, 1, free_masks(g, {1}), 0, meter) == ([3], None)
    assert _meeting_path(d, 0, 1, free_masks(g, {1, 3}), 0, meter)[0] is None
    assert (meter.bfs_runs, meter.arc_touches) == (6, 1 + 1 + 0 + 1 + 1 + 0)
    # The masks are per vertex: with only vertex 1's first three entries
    # cleared, its one free in-arc is edge 3, and the search takes it.
    assert _meeting_path(d, 0, 1, [0b1111, 0b1000], 0, None) == ([3], None)


def test_source_is_never_its_own_target():
    d = directed_triangle()
    assert _shortest_path(d, (1,), (1,), None) is None


@pytest.mark.parametrize("source, target", [(-1, 0), (0, -1), (3, 0), (0, 3)])
def test_out_of_range_vertex_rejected(source, target):
    # Checked at the public boundary only: the BFS takes its ids from the graph.
    with pytest.raises(ValueError):
        lambda_at_least(directed_triangle(), source, target, 1)


def test_reverse_path_moves_one_unit_of_outdegree():
    d = directed_triangle()
    p = _shortest_path(d, (1,), (0,), None)
    r = reverse_path(d, p, 1)
    assert r.outdegrees() == (2, 0, 1)
    assert d.outdegrees() == (1, 1, 1)  # input untouched


def test_reverse_single_arc():
    g = parse_graph("2 1\n0 1")
    d = Orientation(g)
    p = _shortest_path(d, (0,), (1,), None)
    assert reverse_path(d, p, 0).serialize() == "-"


def test_reverse_full_cycle_keeps_outdegrees():
    d = directed_triangle()
    assert reversed_copy(d, range(3)).outdegrees() == d.outdegrees()


def test_reverse_path_validates_direction():
    d = directed_triangle()
    p = _shortest_path(d, (1,), (0,), None)
    flipped = reversed_copy(d, [1])
    with pytest.raises(ValueError):
        reverse_path(flipped, p, 1)


def test_reverse_path_degree_law_on_cuts():
    # Reversing a u-to-v path changes a cut's outdegree by -1 when it
    # separates u from v, +1 when it separates v from u, else not at all.
    rng = random.Random(4242)
    pool = [g for _, g in families.random_family(40, seed=17) if g.n >= 3]
    for g in pool:
        d = Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])
        u, v = rng.sample(range(g.n), 2)
        p = _shortest_path(d, (u,), (v,), None)
        if p is None:
            continue
        r = reverse_path(d, p, u)
        for code in range(1, (1 << g.n) - 1):
            members = {w for w in range(g.n) if (code >> w) & 1}
            before = cut_outdegree(d, members)
            after = cut_outdegree(r, members)
            if u in members and v not in members:
                assert after == before - 1
            elif v in members and u not in members:
                assert after == before + 1
            else:
                assert after == before


def test_lambda_triangle():
    d = directed_triangle()
    assert lambda_at_least(d, 0, 1, 1)
    assert not lambda_at_least(d, 0, 1, 2)


def test_lambda_doubled_opposite_triangles():
    d = opposite_double_triangle()
    assert lambda_at_least(d, 0, 1, 2)
    assert not lambda_at_least(d, 0, 1, 3)


def test_lambda_validates_arguments():
    d = directed_triangle()
    with pytest.raises(ValueError):
        lambda_at_least(d, 0, 0, 1)
    with pytest.raises(ValueError):
        lambda_at_least(d, 0, 1, 0)
    for threshold in (0.5, 1.5, 1.0, None, "1"):
        with pytest.raises(ValueError, match="integer"):
            lambda_at_least(d, 0, 1, threshold)


def test_lambda_rejects_vertex_ids_that_are_not_integers():
    d = directed_triangle()
    for vertex in (1.0, "0", None):
        for u, v in ((vertex, 1), (0, vertex)):
            with pytest.raises(ValueError, match="integer"):
                lambda_at_least(d, u, v, 1)


def test_lambda_leaves_input_unchanged():
    d = opposite_double_triangle()
    before = d.serialize()
    lambda_at_least(d, 0, 1, 2)
    assert d.serialize() == before


class _FailingMeter(DelayMeter):
    """Meter that raises on its second BFS, after one path is flipped."""

    def bfs(self):
        super().bfs()
        if self.bfs_runs == 2:
            raise RuntimeError("stop")


def test_lambda_restores_input_when_interrupted():
    # λ = 2, so a count that would leave one or both paths reversed has
    # every one of them undone when its search raises, like lambda_at_least.
    counts = [
        lambda d, meter: lambda_at_least(d, 0, 1, 2, meter),
        lambda d, meter: _count_paths(d, 0, 1, 3, meter, 1),
    ]
    for count in counts:
        d = opposite_double_triangle()
        before = d.serialize()
        with pytest.raises(RuntimeError):
            count(d, _FailingMeter())
        assert d.serialize() == before


def test_lambda_threshold_matches_oracle():
    # A λ test is a count that keeps no path, so every search it makes
    # decides by meeting in the middle: as many BFS runs as the forward
    # count to the same threshold, and in total no more arc touches, though
    # a single test may touch a few more.
    rng = random.Random(2024)
    pool = [g for _, g in families.random_family(30, seed=23) if g.n >= 2]
    touches = forward_touches = 0
    for g in pool:
        d = Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])
        before = d.serialize()
        u, v = rng.sample(range(g.n), 2)
        lam = oracle_lambda(d, u, v)
        bound = min(d.outdegrees()[u], g.degree(v) - d.outdegrees()[v])
        for t in range(1, lam + 3):
            meter = DelayMeter()
            assert lambda_at_least(d, u, v, t, meter) == (t <= lam)
            assert d.serialize() == before
            if t > bound:  # decided by the degrees alone
                assert meter.bfs_runs == 0
            else:
                reference = DelayMeter()
                forward_count_paths(d.copy(), u, v, t, reference)
                assert meter.bfs_runs == reference.bfs_runs
                touches += meter.arc_touches
                forward_touches += reference.arc_touches
    assert touches <= forward_touches


def _check_spared_counts(d, u, v, limit, paths, meter, seen) -> int:
    # Runs the count of u-to-v paths with every spare from 1 to one past
    # its λ against the unspared count's ``paths`` and ``meter``; returns
    # how many of them the degree bound decided at once.  A spared count
    # keeps the unspared count's first paths reversed and runs as many
    # searches.  Its meeting searches hand back A or V∖B of the orientation
    # with every path reversed (see ``paths._meeting_path``): the cut holds
    # u, misses v and no arc leaves it there.  ``seen`` counts the two
    # kinds where a failing search gave the cut and A ≠ V∖B.
    g, n = d.graph, d.graph.n
    out = d.outdegrees()
    bound = min(out[u], g.degree(v) - out[v])
    full = reversed_copy(d, [e for path in paths for e in path])
    ahead: dict = {}
    behind: dict = {}
    tree_search(full, (u,), (v,), None, None, ahead)
    tree_search(full, (v,), (u,), None, None, behind, inward=True)
    outside = set(range(n)) - set(behind)
    decided = 0
    for spare in range(1, len(paths) + 2):
        left, spared = d.copy(), DelayMeter()
        got, got_cut = _count_paths(left, u, v, limit, spared, spare)
        if spare >= bound:
            degree_cut = {u} if out[u] == bound else set(range(n)) - {v}
            assert got == [] and vertices(got_cut) == degree_cut and left == d
            assert (spared.bfs_runs, spared.arc_touches) == (0, 0)
            decided += 1
            continue
        kept = max(len(paths) - spare, 0)
        assert got[:kept] == paths[:kept] and len(got) == len(paths)
        for i in range(kept, len(got)):
            assert_path(reversed_copy(d, [e for path in got[:i] for e in path]), got[i], u, v)
        cut = vertices(got_cut)
        assert cut in (set(ahead), outside) and u in cut and v not in cut and cut_outdegree(full, cut) == 0
        assert spared.bfs_runs == meter.bfs_runs
        assert left == reversed_copy(d, [e for path in paths[:kept] for e in path])
        assert len(unbounded_count_paths(left, u, v, limit)[0]) == len(paths) - kept
        if len(paths) < bound and set(ahead) != outside:
            seen["closure" if cut == set(ahead) else "outside"] += 1
    return decided


def test_one_count_finds_the_paths_of_successive_reversals():
    # With a limit above λ, one count finds the oracle's λ paths.  Path i is
    # a u-to-v path of the orientation with paths 0..i-1 reversed, found by
    # a meeting search there, so it is the first path of a fresh count
    # there; each reversal lowers λ by exactly one, by the unbounded count,
    # and the count's cut is the one a fresh count finds once all its paths
    # are reversed.  The sequence search reverses a count's paths in turn on
    # this ground, instead of re-testing the pair: a count told to spare its
    # last s paths returns with exactly its first λ-s paths reversed and λ
    # down by that many.  Its later paths are u-to-v paths once the earlier
    # ones are reversed, and the count runs the same searches.  Its cut
    # follows the one cut rule, so it is the unspared count's only when u's
    # side runs out first; relabelled 3x4 tori, past the oracle's reach,
    # give both kinds of cut.  One that would spare at least its degree
    # bound min(out(u), in(v)) returns at once: no path, no search, the
    # orientation as given and its degree cut.
    rng = random.Random(808)
    deepest = decided = 0
    seen = {"closure": 0, "outside": 0}
    for _, g in families.random_family(40, seed=29):
        d = Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])
        for u in range(g.n):
            for v in range(g.n):
                if u == v:
                    continue
                limit = g.degree(u) + 1
                meter = DelayMeter()
                paths, cut = _count_paths(d, u, v, limit, meter)
                assert len(paths) == oracle_lambda(d, u, v) and cut is not None
                deepest = max(deepest, len(paths))
                decided += _check_spared_counts(d, u, v, limit, paths, meter, seen)
                for i in range(len(paths) + 1):
                    flipped = reversed_copy(d, [e for path in paths[:i] for e in path])
                    assert len(unbounded_count_paths(flipped, u, v, limit)[0]) == len(paths) - i
                    if i < len(paths):
                        assert_path(flipped, paths[i], u, v)
                    fresh, fresh_cut = _count_paths(flipped, u, v, limit)
                    assert fresh[:1] == paths[i : i + 1]
                assert fresh == [] and fresh_cut == cut
    for seed in range(6):
        g = families.relabelled_torus(3, 4, seed)
        d = Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])
        for u, v in [(u, v) for u in range(g.n) for v in range(g.n) if u != v]:
            meter = DelayMeter()
            paths, _ = _count_paths(d, u, v, g.degree(u) + 1, meter)
            decided += _check_spared_counts(d, u, v, g.degree(u) + 1, paths, meter, seen)
    assert deepest >= 3 and decided > 100 and min(seen.values()) > 20, (deepest, decided, seen)


def test_a_meeting_search_answers_as_the_forward_search_does(monkeypatch):
    # One BFS run that finds a u-to-v path exactly when the forward search
    # does; it scans each arc at most once each way.  Both sides scan only
    # the free entries of each row, here those of a random set of edges,
    # and u's side treats the vertices of a closed set, none of which
    # reaches v, as reached.  Failing, it stops as soon
    # as either side runs out: its layer comes out empty, or is one vertex
    # with no arc to scan, which it never grows; u's side when both start
    # so.  No earlier layer comes out empty.  Its cut is then the set A
    # that the forward search reaches, the closed set included, when u's
    # side, grown along out-arcs, runs out, and otherwise every vertex
    # outside the set B that reaches v.
    real_grow, steps = paths._grow, []

    def traced(rows, out, free, inward, layer, following, tree, targets):
        found = real_grow(rows, out, free, inward, layer, following, tree, targets)
        steps.append((inward, following))
        return found

    def out_of_arcs(d, layer, inward, scope) -> bool:
        # The layer is empty, or one vertex with no arc to scan.
        if len(layer) != 1:
            return not layer
        x = layer[0]
        arcs = d.graph._row_mask[x] ^ d._out[x] if inward else d._out[x]
        return not arcs & scope[x]

    monkeypatch.setattr(paths, "_grow", traced)
    rng, picks = random.Random(919), random.Random(920)
    met = 0
    seen = {"closure": 0, "outside": 0, "unscanned": 0, "fixed": 0, "closed": 0}
    for _, g in families.random_family(60, seed=53):
        d = Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])
        fixed = set(picks.sample(range(g.m), picks.randint(1, g.m)))
        masks = free_masks(g, fixed)
        for free, u, v in [(f, u, v) for f in (g._row_mask, masks) for u in range(g.n) for v in range(g.n) if u != v]:
            reaching: dict = {}
            tree_search(d, (v,), (), free, None, reaching, inward=True)
            closed = sum(1 << x for x in range(g.n) if x != u and x not in reaching and picks.random() < 0.5)
            meter, forward, behind = DelayMeter(), dict.fromkeys(vertices(closed)), {}
            steps.clear()
            path, cut = _meeting_path(d, u, v, free, closed, meter)
            assert meter.bfs_runs == 1 and meter.arc_touches <= 2 * g.m
            assert all(layer for _, layer in steps[:-1])
            want = tree_search(d, (u,), (v,), free, None, forward)
            if want is None:
                front = ([u], *(layer for inward, layer in steps if not inward))[-1]
                back = ([v], *(layer for inward, layer in steps if inward))[-1]
                inward = not out_of_arcs(d, front, False, free)
                assert path is None and (not inward or out_of_arcs(d, back, True, free))
                tree_search(d, (v,), (u,), free, None, behind, inward=True)
                outside = set(range(g.n)) - set(behind)
                assert vertices(cut) == (outside if inward else set(forward))
                if set(forward) != outside:
                    seen["outside" if inward else "closure"] += 1
                seen["unscanned"] += bool(back if inward else front)
                seen["closed"] += bool(closed) and not inward
            else:
                assert cut is None
                assert_path(d, path, u, v)
                assert free is not masks or not fixed.intersection(path)
                assert not any(d.tail(e) in vertices(closed) or d.head(e) in vertices(closed) for e in path)
                met += 1
            seen["fixed"] += free is masks and path is None
    assert met > 200 and min(seen.values()) > 20, (met, seen)


def test_a_count_asked_for_the_largest_cut_hands_back_a_cut_as_large_or_larger():
    # A count's cut holds u and not v, is left by exactly len(paths) arcs
    # as given, and holds the set A that the forward search reaches once a
    # largest set of paths is reversed; it is A or, when v's side runs out
    # first, every vertex outside the set B that reaches v there.  So it
    # holds the cut of the count with the older meeting search, which goes
    # on until u's side runs out, and both keep the same paths.  (A count
    # that reaches its degree bound hands back its degree cut either way.)
    rng = random.Random(929)
    seen = {"closure": 0, "outside": 0}
    for _, g in families.random_family(150, seed=59):
        d = Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])
        for u, v in [(u, v) for u in range(g.n) for v in range(g.n) if u != v]:
            limit = g.degree(u) + 1
            flipped = reversed_copy(d, [e for path in _count_paths(d, u, v, limit)[0] for e in path])
            ahead: dict = {}
            behind: dict = {}
            tree_search(flipped, (u,), (v,), None, None, ahead)
            tree_search(flipped, (v,), (u,), None, None, behind, inward=True)
            outside = set(range(g.n)) - set(behind)
            out = d.outdegrees()
            for spare in range(1, min(out[u], g.degree(v) - out[v])):  # no count decided at once
                narrow, wide = d.copy(), d.copy()
                want, narrow_mask = closure_count_paths(narrow, u, v, limit, None, spare)
                paths, mask = _count_paths(wide, u, v, limit, None, spare)
                cut = vertices(mask)
                assert paths[: len(paths) - spare] == want[: len(want) - spare] and wide == narrow
                assert u in cut and v not in cut and cut_outdegree(d, cut) == len(paths)
                assert vertices(narrow_mask) <= cut and set(ahead) <= cut and cut in (set(ahead), outside)
                if set(ahead) != outside:
                    seen["closure" if cut == set(ahead) else "outside"] += 1
    assert min(seen.values()) > 40, seen


def test_an_inward_search_is_the_forward_search_of_the_reversed_orientation(monkeypatch):
    # Walking in-arcs backward from s to t is searching the orientation with
    # every edge reversed: the same path, the same search tree built in the
    # same order, one BFS run and the same arc touches, with or without
    # free masks.  The search is one ``_grow``, whose tree the test keeps:
    # ``_shortest_path`` without masks, ``tree_search`` with them.
    real_grow, trees = paths._grow, []

    def traced(rows, out, free, inward, layer, following, tree, targets):
        trees.append(tree)
        return real_grow(rows, out, free, inward, layer, following, tree, targets)

    def search(d, s, t, free, meter, inward=False):
        if free is None:
            return _shortest_path(d, (s,), (t,), meter, inward)
        return tree_search(d, (s,), (t,), free, meter, {}, inward)

    monkeypatch.setattr(paths, "_grow", traced)
    monkeypatch.setattr(witnesses, "_grow", traced)
    rng = random.Random(1234)
    pairs = found = 0
    for _, g in families.random_family(60, seed=61):
        d = Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])
        flipped = reversed_copy(d, range(g.m))
        masks = free_masks(g, rng.sample(range(g.m), rng.randint(1, g.m)))
        for free in (None, masks):
            for s, t in [(s, t) for s in range(g.n) for t in range(g.n) if s != t]:
                inward, forward = DelayMeter(), DelayMeter()
                trees.clear()
                path = search(d, s, t, free, inward, inward=True)
                assert path == search(flipped, s, t, free, forward)
                got, want = trees
                assert list(got.items()) == list(want.items())
                assert (inward.bfs_runs, inward.arc_touches) == (forward.bfs_runs, forward.arc_touches)
                assert inward.bfs_runs == 1
                pairs += 1
                found += path is not None
    assert pairs > 1000 and 200 < found < pairs - 200, (pairs, found)


def _package_scopes(matches) -> list[str]:
    # "module.function" (or "module.<module>") for every AST node of
    # src/orientations/ that ``matches``, in file and walk order.
    found = []
    for path in sorted(Path(orientations.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                owner[child] = node
        for node in ast.walk(tree):
            if matches(node):
                scope = node
                while scope in owner and not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scope = owner[scope]
                found.append(f"{path.stem}.{getattr(scope, 'name', '<module>')}")
    return found


def test_one_loop_scans_arcs():
    # Every search scans arcs through paths._grow, so the package holds
    # exactly one lowest-set-bit expression ``x & -x``, and it is there.
    def lowest_bit(node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
            return False
        for x, y in ((node.left, node.right), (node.right, node.left)):
            if isinstance(y, ast.UnaryOp) and isinstance(y.op, ast.USub) and ast.dump(y.operand) == ast.dump(x):
                return True
        return False

    assert _package_scopes(lowest_bit) == ["paths._grow"]


def test_each_certificate_has_one_owner():
    # The degree bound min(out(u), in(v)) is read only by the λ count, the
    # one loop that counts paths (a λ test is such a count), and outside
    # multigraph.py an orientation's edges are flipped only through
    # paths._flip, which charges every flip.
    def names(node, name):
        return (isinstance(node, ast.Name) and node.id == name) or (isinstance(node, ast.Attribute) and node.attr == name)

    bound = _package_scopes(lambda node: names(node, "_degree_bound"))
    assert bound == ["paths._count_paths"], bound
    flips = _package_scopes(
        lambda node: isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_flip"
    )
    assert [scope for scope in flips if not scope.startswith("multigraph.")] == ["paths._flip"], flips


def test_a_count_hands_back_the_cut_its_last_search_would_reach():
    # Once a count's paths are reversed it stops: without a search when u
    # has no out-arc left, on the set {u} the search would reach; without a
    # search when v has no in-arc left, on every vertex but v, which holds
    # the set the search would reach; else on that set, where the search
    # fails.  Each cut, a vertex bitmask, is left by exactly len(paths)
    # arcs as given.
    rng = random.Random(515)
    seen = {"source": 0, "target": 0, "search": 0}
    for _, g in families.random_family(40, seed=31):
        d = Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])
        for u in range(g.n):
            for v in range(g.n):
                if u == v:
                    continue
                paths, mask = _count_paths(d, u, v, g.degree(u) + 1)
                cut = vertices(mask)
                flipped = reversed_copy(d, [e for path in paths for e in path])
                reached: dict = {}
                assert tree_search(flipped, (u,), (v,), None, None, reached) is None
                if not flipped._out[u]:
                    seen["source"] += 1
                    assert cut == set(reached) == {u}
                elif flipped.outdegrees()[v] == g.degree(v):
                    seen["target"] += 1
                    assert set(reached) <= cut == set(range(g.n)) - {v}
                else:
                    seen["search"] += 1
                    assert cut == set(reached)
                assert cut_outdegree(d, cut) == len(paths)
    assert min(seen.values()) >= 20, seen


def test_a_count_that_reaches_its_limit_never_flips_its_last_path():
    # The count charges the meeting searches of successive reversals and a
    # flip and an undo of every path but the last: 2·|P_limit| touches fewer
    # than flipping and undoing them all.  The orientation comes back
    # unchanged.
    rng = random.Random(616)
    checked = 0
    for _, g in families.random_family(30, seed=37):
        d = Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])
        for u, v in [(u, v) for u in range(g.n) for v in range(g.n) if u != v]:
            before = d.copy()
            for limit in range(1, len(_count_paths(d, u, v, g.degree(u) + 1)[0]) + 1):
                meter, searches = DelayMeter(), DelayMeter()
                paths, cut = _count_paths(d, u, v, limit, meter)
                assert cut is None and len(paths) == limit and d == before
                for i in range(limit):
                    flipped = reversed_copy(d, [e for path in paths[:i] for e in path])
                    assert _meeting_path(flipped, u, v, g._row_mask, 0, searches) == (paths[i], None)
                assert meter.bfs_runs == searches.bfs_runs == limit
                assert meter.arc_touches == searches.arc_touches + 2 * sum(len(p) for p in paths[:-1])
                checked += 1
    assert checked > 100


def test_a_count_stops_at_its_degree_bound():
    # No more than min(out(u), in(v)) paths exist, so a count stops there
    # with the paths, the cut and the orientation of the count that goes on
    # to its limit, and runs the same searches.  A count that undoes every
    # path only skips flipping and undoing the one that reaches the bound,
    # 2·|last path| touches.  One that would spare at least the bound
    # returns at once with no path, no search and its degree cut.
    rng = random.Random(717)
    stopped = decided = 0
    for _, g in families.random_family(40, seed=47):
        d = Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])
        for u, v in [(u, v) for u in range(g.n) for v in range(g.n) if u != v]:
            out = d.outdegrees()
            bound = min(out[u], g.degree(v) - out[v])
            for limit in range(1, g.degree(u) + 2):
                for spare in (None, 1, 2):
                    left, unbounded = d.copy(), d.copy()
                    meter, reference = DelayMeter(), DelayMeter()
                    paths, cut = _count_paths(left, u, v, limit, meter, spare)
                    if spare is not None and bound < limit and bound <= spare:
                        degree_cut = {u} if out[u] == bound else set(range(g.n)) - {v}
                        assert paths == [] and vertices(cut) == degree_cut and left == d
                        assert (meter.bfs_runs, meter.arc_touches) == (0, 0)
                        decided += 1
                        continue
                    want, want_cut = unbounded_count_paths(unbounded, u, v, limit, reference, spare)
                    assert left == unbounded and paths == want and cut == want_cut
                    assert meter.bfs_runs == reference.bfs_runs
                    if spare is not None:
                        continue
                    saved = reference.arc_touches - meter.arc_touches
                    if bound < limit and len(paths) == bound > 0:
                        assert saved == 2 * len(paths[-1])
                        stopped += 1
                    else:
                        assert saved == 0
    assert stopped > 500 and decided > 500, (stopped, decided)


def test_flippable_examples():
    # A pair is flippable for k when it has more than k arc-disjoint paths.
    assert not lambda_at_least(directed_triangle(), 0, 1, 2)
    assert lambda_at_least(opposite_double_triangle(), 0, 1, 2)
    c4 = Orientation(parse_graph("4 4\n0 1\n1 2\n2 3\n3 0"))
    assert not any(
        lambda_at_least(c4, u, v, 2) for u in range(4) for v in range(4) if u != v
    )


def test_flippable_reversal_preserves_k_connectivity():
    rng = random.Random(31)
    d = opposite_double_triangle()
    assert is_k_connected(d, 1)
    for u in range(3):
        for v in range(3):
            if u == v or not lambda_at_least(d, u, v, 2):
                continue
            p = _shortest_path(d, (u,), (v,), None)
            assert p is not None
            assert is_k_connected(reverse_path(d, p, u), 1)
    # same on a few random strong orientations
    pool = [g for _, g in families.random_family(60, seed=41)]
    checked = 0
    for g in pool:
        if g.n < 3:
            continue
        d = Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])
        if not is_k_connected(d, 1):
            continue
        for u in range(g.n):
            for v in range(g.n):
                if u == v or not lambda_at_least(d, u, v, 2):
                    continue
                p = _shortest_path(d, (u,), (v,), None)
                assert is_k_connected(reverse_path(d, p, u), 1)
                checked += 1
    assert checked > 10
