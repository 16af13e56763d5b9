import random

import pytest

import families
from oracles import oracle_k_connected
from orientations import (
    DelayMeter,
    Multigraph,
    Orientation,
    edge_connectivity,
    find_k_connected_orientation,
    graph_to_text,
    is_k_connected,
    kconn,
    lambda_at_least,
    parse_graph,
)
from orientations.connectivity import _edge_connectivity
from orientations.paths import _count_paths, _shortest_path
from orientations.oracle import all_orientations, brute_is_k_connected
from witnesses import cut_outdegree, pairwise_is_k_connected, vertices


def test_directed_triangle_is_strong_not_2_connected():
    d = Orientation(parse_graph("3 3\n0 1\n1 2\n2 0"))
    assert is_k_connected(d, 1)
    assert not is_k_connected(d, 2)


def test_doubled_triangle_of_2_cycles_is_2_connected():
    g = parse_graph("3 6\n0 1\n0 1\n1 2\n1 2\n2 0\n2 0")
    d = Orientation(g, [1, 0, 1, 0, 1, 0])  # each pair oriented as a 2-cycle
    assert is_k_connected(d, 2)
    assert brute_is_k_connected(d, 2)


def test_k_zero_rejected():
    d = Orientation(parse_graph("3 3\n0 1\n1 2\n2 0"))
    with pytest.raises(ValueError):
        is_k_connected(d, 0)


def test_non_integer_k_rejected():
    # Also on a single vertex, where no count would run.
    for d in (Orientation(parse_graph("3 3\n0 1\n1 2\n2 0")), Orientation(Multigraph(1, []))):
        for k in (0.5, 1.5, 2.0, None, "1"):
            with pytest.raises(ValueError, match="integer"):
                is_k_connected(d, k)


def test_single_vertex_vacuously_connected():
    # No cut to check, so nothing is searched.
    for n in (0, 1):
        d = Orientation(Multigraph(n, []))
        for k in (1, 2, 5):
            meter = DelayMeter()
            assert is_k_connected(d, k, meter)
            assert (meter.bfs_runs, meter.arc_touches) == (0, 0)


def test_k1_sweeps_agree_with_the_cut_definition():
    # For k = 1 the check is one sweep out of vertex 0 and, when that
    # reaches every vertex, one sweep into it.  It must agree with the cut
    # definition on every orientation of the small family and on random
    # orientations of the random family, most of them not strongly
    # connected; a strong one costs exactly 2 BFS runs, and no sweep scans
    # an arc twice.
    rng = random.Random(113)
    pool = [(g, d) for _, g in families.exhaustive_small() for d in all_orientations(g)]
    for _, g in families.random_family(200, seed=53):
        pool += [(g, Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])) for _ in range(3)]
    seen = {True: 0, False: 0}
    for g, d in pool:
        before, meter = d.copy(), DelayMeter()
        strong = is_k_connected(d, 1, meter)
        assert strong == brute_is_k_connected(d, 1), (g.edges, d)
        assert meter.bfs_runs == 2 if strong else 1 <= meter.bfs_runs <= 2
        assert meter.arc_touches <= 2 * g.m and d == before
        seen[strong] += 1
    assert min(seen.values()) > 200, seen


def test_a_sweep_stops_once_it_has_reached_every_vertex():
    # Three parallel arcs each way: each sweep reaches vertex 1 by its first
    # arc and scans no other.
    d = Orientation(parse_graph("2 6\n0 1\n0 1\n0 1\n0 1\n0 1\n0 1"), [1, 0, 1, 0, 1, 0])
    meter = DelayMeter()
    assert is_k_connected(d, 1, meter)
    assert (meter.bfs_runs, meter.arc_touches) == (2, 2)


def test_the_k1_finder_never_costs_more_than_with_pairwise_counts(monkeypatch):
    # The doubled ladders' finder rejects hundreds of candidates, most of
    # them with a vertex that cannot reach vertex 0; sweeping into vertex 0
    # first finds that at least as cheaply as the pairwise counts did.
    graphs = [families.folded(families.ladder(r), 2) for r in (3, 4)]
    for g in graphs + [g for _, g in families.random_family(40, seed=19)]:
        swept, counted = DelayMeter(), DelayMeter()
        want = find_k_connected_orientation(g, 1, swept)
        with monkeypatch.context() as patched:
            patched.setattr(kconn, "is_k_connected", pairwise_is_k_connected)
            assert find_k_connected_orientation(g, 1, counted) == want
        assert swept.total_ops <= counted.total_ops, g.edges


def test_the_k1_finder_charges_at_most_3m_plus_2_on_tori():
    # The tori's all-forward start is strongly connected, so the finder sets
    # each edge once, one touch each, and checks once: m + 2 + 2m at most.
    for r in (4, 6, 8, 10):
        g, meter = families.torus(r, r), DelayMeter()
        assert find_k_connected_orientation(g, 1, meter) is not None
        assert meter.total_ops <= 3 * g.m + 2, (r, meter.total_ops)


def test_is_k_connected_matches_cut_definition():
    rng = random.Random(107)
    for _, g in families.random_family(80, seed=29):
        d = Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])
        for k in (1, 2):
            assert is_k_connected(d, k) == brute_is_k_connected(d, k), g.edges


def test_edge_connectivity_examples():
    assert edge_connectivity(parse_graph("3 3\n0 1\n1 2\n2 0")) == 2
    assert edge_connectivity(parse_graph("3 2\n0 1\n1 2")) == 1
    assert edge_connectivity(parse_graph("3 6\n0 1\n0 1\n1 2\n1 2\n2 0\n2 0")) == 4
    assert edge_connectivity(parse_graph("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3")) == 3


def test_edge_connectivity_needs_two_vertices():
    with pytest.raises(ValueError):
        edge_connectivity(Multigraph(1, []))


def test_edge_connectivity_zero_when_disconnected():
    assert edge_connectivity(Multigraph(4, [(0, 1), (2, 3)])) == 0


def test_edge_connectivity_matches_brute_force_cut_minimum():
    for _, g in families.random_family(40, seed=37):
        if g.n < 2:
            continue
        best = g.m
        for code in range(1, (1 << g.n) - 1):
            members = {v for v in range(g.n) if (code >> v) & 1}
            crossing = sum(1 for u, v in g.edges if (u in members) != (v in members))
            best = min(best, crossing)
        assert edge_connectivity(g) == best, g.edges
        # The capped count behind the finder's Nash-Williams reject.
        for limit in range(1, 5):
            assert _edge_connectivity(g, limit) == min(best, limit), (g.edges, limit)


def test_orientability_iff_double_edge_connectivity():
    # A k-connected orientation exists exactly when the graph is
    # 2k-edge-connected, checked on the oracle side.
    pool = families.exhaustive_small() + [
        (name, g) for name, g in families.named_graphs() if g.m <= 8
    ]
    for name, g in pool:
        if g.n < 2:
            continue
        ec = edge_connectivity(g)
        for k in (1, 2):
            assert bool(oracle_k_connected(g, k)) == (ec >= 2 * k), (name, k)


def test_path_counters_restore_their_input():
    # These flip paths in place; every orientation must come back unchanged.
    rng = random.Random(211)
    for _, g in families.random_family(60, seed=43):
        d = Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])
        before = (d.serialize(), d.outdegrees(), graph_to_text(g))
        u, v = rng.sample(range(g.n), 2)
        for call in (
            lambda: lambda_at_least(d, u, v, rng.randint(1, 3)),
            lambda: lambda_at_least(d, u, v, rng.randint(1, 2) + 1),
            lambda: is_k_connected(d, rng.randint(1, 2)),
            lambda: edge_connectivity(g),
        ):
            call()
            assert (d.serialize(), d.outdegrees(), graph_to_text(g)) == before, g.edges
        # The first path counted is the shortest path of d as given, and a
        # count that falls short hands back a cut of exactly that many arcs.
        paths, cut = _count_paths(d, u, v, 3)
        assert (d.serialize(), d.outdegrees(), graph_to_text(g)) == before, g.edges
        assert (paths[0] if paths else None) == _shortest_path(d, (u,), (v,), None)
        if cut is not None:
            cut = vertices(cut)
            assert u in cut and v not in cut and cut_outdegree(d, cut) == len(paths) < 3
