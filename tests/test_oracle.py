import pytest

from oracles import (
    MAX_FREE_EDGES,
    enumerate_k_connected_backtrack,
    oracle_alpha,
    oracle_k_connected,
    oracle_lambda,
    oracle_mixed_extension,
    oracle_sequences,
)
from orientations import Multigraph, Orientation, is_k_connected, parse_graph
from orientations.oracle import MAX_ORACLE_EDGES, _cut_table, all_orientations, brute_is_k_connected

TRIANGLE = "3 3\n0 1\n1 2\n2 0"
DOUBLED_TRIANGLE = "3 6\n0 1\n0 1\n1 2\n1 2\n2 0\n2 0"


def test_all_orientations_counts():
    assert len(list(all_orientations(parse_graph("2 1\n0 1")))) == 2
    assert len(list(all_orientations(parse_graph(TRIANGLE)))) == 8
    assert len(list(all_orientations(parse_graph(DOUBLED_TRIANGLE)))) == 64


def test_all_orientations_lexicographic():
    texts = [d.serialize() for d in all_orientations(parse_graph(TRIANGLE))]
    assert texts[0] == "+++"
    assert texts[-1] == "---"
    assert texts == sorted(texts)
    assert len(set(texts)) == 8


def test_edge_guard():
    g = Multigraph(2, [(0, 1)] * (MAX_ORACLE_EDGES + 1))
    with pytest.raises(ValueError):
        list(all_orientations(g))


def test_cut_tables_stay_within_the_cache_bound():
    bound = _cut_table.cache_parameters()["maxsize"]
    assert bound is not None
    for copies in range(1, 3 * bound):
        brute_is_k_connected(Orientation(Multigraph(2, [(0, 1)] * copies)), 1)
        assert _cut_table.cache_info().currsize <= bound


def test_oracle_counts():
    c4 = parse_graph("4 4\n0 1\n1 2\n2 3\n3 0")
    assert len(oracle_k_connected(c4, 1)) == 2
    k4 = parse_graph("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    assert len(oracle_k_connected(k4, 1)) == 24
    assert oracle_sequences(c4, 1) == {(1, 1, 1, 1)}


def test_oracle_alpha_matches_outdegree_filter():
    g = parse_graph(DOUBLED_TRIANGLE)
    want = {d.serialize() for d in all_orientations(g) if d.outdegrees() == (2, 2, 2)}
    assert oracle_alpha(g, (2, 2, 2)) == want
    assert len(want) == 10


def test_oracle_lambda_examples():
    tri = Orientation(parse_graph(TRIANGLE))
    assert oracle_lambda(tri, 0, 1) == 1
    doubled_same = Orientation(parse_graph(DOUBLED_TRIANGLE))
    assert oracle_lambda(doubled_same, 0, 1) == 2
    split = Orientation(Multigraph(4, [(0, 1), (2, 3)]))
    assert oracle_lambda(split, 0, 2) == 0


def test_oracle_lambda_validates():
    tri = Orientation(parse_graph(TRIANGLE))
    with pytest.raises(ValueError):
        oracle_lambda(tri, 1, 1)
    with pytest.raises(ValueError):
        oracle_lambda(tri, 0, 7)


def test_brute_k_connected_examples():
    tri = Orientation(parse_graph(TRIANGLE))
    assert brute_is_k_connected(tri, 1)
    assert not brute_is_k_connected(tri, 2)
    with pytest.raises(ValueError):
        brute_is_k_connected(tri, 0)


def test_brute_k_connected_rejects_what_is_k_connected_rejects():
    # The same ValueError as is_k_connected, also on one vertex, where no
    # cut is scanned; before, (d, 1.5) and (d, 2.0) returned True here.
    doubled = Orientation(parse_graph(DOUBLED_TRIANGLE), [1, 0, 1, 0, 1, 0])
    for d in (doubled, Orientation(Multigraph(1, []))):
        for k in (0, -1, 0.5, 1.5, 2.0, None, "1"):
            with pytest.raises(ValueError) as brute:
                brute_is_k_connected(d, k)
            with pytest.raises(ValueError) as fast:
                is_k_connected(d, k)
            assert str(brute.value) == str(fast.value)


def test_mixed_extension_triangle_one_edge_fixed():
    g = parse_graph(TRIANGLE)
    assert oracle_mixed_extension(g, {0: True}, 1)
    assert oracle_mixed_extension(g, {0: False}, 1)


def test_mixed_extension_two_fixed_edges_force_the_cycle():
    g = parse_graph(TRIANGLE)
    # 0->1 and 1->2 fixed: only 2->0 completes a strong orientation, and it exists.
    assert oracle_mixed_extension(g, {0: True, 1: True}, 1)
    # fix the third edge against the cycle as well: no completion remains
    assert not oracle_mixed_extension(g, {0: True, 1: True, 2: False}, 1)
    assert oracle_mixed_extension(g, {0: True, 1: True, 2: True}, 1)


def test_mixed_extension_nash_williams_reject():
    g = parse_graph(TRIANGLE)  # edge connectivity 2 < 4
    assert not oracle_mixed_extension(g, {}, 2)


def test_mixed_extension_guard():
    g = Multigraph(2, [(0, 1)] * (MAX_FREE_EDGES + 1))
    with pytest.raises(ValueError):
        oracle_mixed_extension(g, {}, 1)


@pytest.mark.parametrize(
    "graph",
    [
        Multigraph(7, [(i, (i + 1) % 7) for i in range(7) for _ in range(3)]),
        Multigraph(2, [(0, 1)] * MAX_ORACLE_EDGES),
    ],
    ids=["tripled-7-cycle", "oracle-edge-limit"],
)
def test_backtrack_guard(graph):
    got = []
    with pytest.raises(ValueError, match=f"backtrack enumeration limited to 20 edges, got {graph.m}"):
        enumerate_k_connected_backtrack(graph, 1, got.append)
    assert got == []


@pytest.mark.parametrize("n", [0, 1])
def test_graphs_without_a_cut_are_k_connected_for_every_k(n):
    g = Multigraph(n, [])
    for k in (1, 2, 3):
        assert brute_is_k_connected(Orientation(g), k)
        assert oracle_k_connected(g, k) == {""}
        assert oracle_mixed_extension(g, {}, k)
        got = []
        assert enumerate_k_connected_backtrack(g, k, lambda d: got.append(d.serialize())) == 1
        assert got == [""]


def test_backtrack_enumeration_matches_filter():
    for text in (TRIANGLE, DOUBLED_TRIANGLE, "4 4\n0 1\n1 2\n2 3\n3 0"):
        g = parse_graph(text)
        for k in (1, 2):
            got = []
            count = enumerate_k_connected_backtrack(g, k, lambda d: got.append(d.serialize()))
            assert count == len(got) == len(set(got))
            assert set(got) == oracle_k_connected(g, k)
            assert got == sorted(got)  # lexicographic emission
