import random

import pytest

import families
from oracles import oracle_k_connected
from orientations import (
    Multigraph,
    Orientation,
    edge_connectivity,
    graph_to_text,
    is_k_connected,
    lambda_at_least,
    parse_graph,
)
from orientations.connectivity import _edge_connectivity
from orientations.paths import _count_paths, _shortest_path
from orientations.oracle import brute_is_k_connected
from witnesses import cut_outdegree


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
    for n in (0, 1):
        d = Orientation(Multigraph(n, []))
        for k in (1, 2, 5):
            assert is_k_connected(d, k)


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
        assert (paths[0] if paths else None) == _shortest_path(d, (u,), (v,), None, None)
        if cut is not None:
            assert u in cut and v not in cut and cut_outdegree(d, cut) == len(paths) < 3
