import ast
import random
from pathlib import Path

import pytest

import orientations
from orientations import (
    GraphParseError,
    Multigraph,
    Orientation,
    graph_to_text,
    parse_graph,
)
from witnesses import assert_masks_exact, cut_outdegree, reversed_copy


def test_parse_single_edge():
    g = parse_graph("2 1\n0 1")
    assert g.n == 2
    assert g.edges == ((0, 1),)


def test_parse_triangle():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    assert g.m == 3
    assert g.edges == ((0, 1), (1, 2), (2, 0))


def test_parse_parallel_edges_stay_distinct():
    g = parse_graph("2 2\n0 1\n0 1")
    assert g.m == 2
    assert g.edges[0] == g.edges[1] == (0, 1)
    assert g.incidence[0] == ((0, 1, True), (1, 1, True))


def test_parse_trailing_blank_lines_ok():
    g = parse_graph("2 1\n0 1\n\n  \n")
    assert g.m == 1


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("2", 1),
        ("2 1 7\n0 1", 1),
        ("a b\n0 1", 1),
        ("2 1\n0", 2),
        ("2 1\nx y", 2),
        ("2 2\n0 1", 3),
        ("2 1\n0 2", 2),
        ("2 1\n1 1", 2),
        ("2 1\n0 1\n0 1", 3),
        ("-1 0", 1),
        ("2 -1", 1),
    ],
)
def test_parse_errors_name_the_line(text, line):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert err.value.line == line
    assert f"line {line}:" in str(err.value)


def test_round_trip():
    text = "4 5\n0 1\n0 2\n2 1\n0 3\n3 1\n"
    assert graph_to_text(parse_graph(text)) == text


def test_loop_rejected_by_constructor():
    with pytest.raises(ValueError):
        Multigraph(3, [(1, 1)])


def test_non_integer_endpoint_rejected_by_constructor():
    for edge in ((0, 1.7), (0.5, 1), ("0", 1), (0, None), (None, 1), (0, float("nan")), (0, float("inf"))):
        with pytest.raises(ValueError):
            Multigraph(2, [edge])
    assert Multigraph(2, [(0, 1.0)]).edges == ((0, 1),)


def test_out_of_range_counts_and_endpoints_rejected_by_constructor():
    with pytest.raises(ValueError, match="non-negative"):
        Multigraph(-1, [])
    for edge in ((0, 2), (-1, 1)):
        with pytest.raises(ValueError, match="out of range"):
            Multigraph(2, [edge])


def test_orientation_length_must_equal_edge_count():
    g = parse_graph("2 2\n0 1\n0 1")
    for dirs in ([1], [1, 0, 1]):
        with pytest.raises(ValueError, match="length"):
            Orientation(g, dirs)


def test_non_integer_vertex_count_rejected_by_constructor():
    for n in (2.0, 2.5, None, "2"):
        with pytest.raises(ValueError):
            Multigraph(n, [(0, 1)])


def test_outdegree_directed_triangle():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    d = Orientation(g)  # 0->1, 1->2, 2->0
    assert d.outdegrees() == (1, 1, 1)


def test_outdegree_star_all_out_of_center():
    g = parse_graph("4 3\n0 1\n0 2\n0 3")
    d = Orientation(g)
    assert d.outdegrees() == (3, 0, 0, 0)


def test_outdegree_parallel_pair():
    g = parse_graph("2 2\n0 1\n0 1")
    d = Orientation(g)
    assert d.outdegrees() == (2, 0)


def test_cut_outdegree_directed_triangle():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    d = Orientation(g)
    assert cut_outdegree(d, {0}) == 1
    assert cut_outdegree(d, {0, 1}) == 1


def test_cut_outdegree_four_cycle_opposite_pair():
    g = parse_graph("4 4\n0 1\n1 2\n2 3\n3 0")
    d = Orientation(g)  # one directed 4-cycle
    assert cut_outdegree(d, {0, 2}) == 2


def test_cut_outdegree_rejects_empty_and_full():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    d = Orientation(g)
    with pytest.raises(ValueError):
        cut_outdegree(d, set())
    with pytest.raises(ValueError):
        cut_outdegree(d, {0, 1, 2})


def test_serialization_contract():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    d = Orientation(g, [1, 1, 0])  # 0->1, 1->2, 0->2
    assert d.serialize() == "++-"
    assert Orientation.deserialize(g, "++-\n") == d
    with pytest.raises(GraphParseError):
        Orientation.deserialize(g, "++")
    with pytest.raises(GraphParseError):
        Orientation.deserialize(g, "++x")


def test_double_reversal_is_identity():
    rng = random.Random(7)
    g = parse_graph("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    for _ in range(20):
        d = Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])
        subset = [e for e in range(g.m) if rng.random() < 0.5]
        assert reversed_copy(reversed_copy(d, subset), subset) == d


def test_outdegree_sum_is_edge_count():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 6)
        m = rng.randint(1, 9)
        edges = []
        while len(edges) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.append((u, v))
        g = Multigraph(n, edges)
        d = Orientation(g, [rng.randint(0, 1) for _ in range(m)])
        assert sum(d.outdegrees()) == m


def test_cut_plus_reversed_cut_counts_crossing_edges():
    rng = random.Random(13)
    g = parse_graph("5 8\n0 1\n0 2\n0 3\n0 4\n1 2\n2 3\n3 4\n4 1")
    for _ in range(40):
        d = Orientation(g, [rng.randint(0, 1) for _ in range(g.m)])
        members = {v for v in range(g.n) if rng.random() < 0.5}
        if not members or len(members) == g.n:
            continue
        crossing = sum(1 for u, v in g.edges if (u in members) != (v in members))
        assert cut_outdegree(d, members) + cut_outdegree(reversed_copy(d, range(g.m)), members) == crossing


def test_masks_follow_construction_copy_and_flip():
    # Row 0 holds edges 0, 1, 3, 4; row 1 edges 0, 1, 2, 4; row 2 edges 2, 3.
    g = parse_graph("3 5\n0 1\n0 1\n1 2\n2 0\n1 0")
    d = Orientation(g, [1, 0, 1, 0, 1])
    assert d._out == [0b0101, 0b1110, 0b00]
    dup = d.copy()
    dup._flip([0, 3])
    assert_masks_exact(d)
    assert_masks_exact(dup)
    assert dup._out == [0b0000, 0b1111, 0b10]


def test_only_the_multigraph_module_reaches_directions():
    # Every flip has to toggle the out-arc masks with the directions, so no
    # other module may write _dirs.  Any reference counts, since a name
    # bound to the bytearray could write it.
    uses = []
    for path in sorted(Path(orientations.__file__).parent.glob("*.py")):
        if path.name == "multigraph.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "_dirs":
                uses.append(f"{path.name}:{node.lineno}")
    assert uses == []
