import pytest

import families
from orientations import (
    DelayMeter,
    Multigraph,
    Orientation,
    enumerate_k_connected,
    enumerate_outdegree_sequences,
    find_k_connected_orientation,
    is_k_connected,
    parse_graph,
)
from orientations.oracle import brute_is_k_connected, oracle_k_connected, oracle_sequences
from witnesses import class_size_lower_bound_check, probed_k_connected

DOUBLED_TRIANGLE = "3 6\n0 1\n0 1\n1 2\n1 2\n2 0\n2 0"


def collect(graph, k, **kwargs):
    got = []
    count = enumerate_k_connected(graph, k, lambda d: got.append(d.serialize()), **kwargs)
    assert count == len(got)
    return got


def test_find_strong_orientation_of_triangle():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    d = find_k_connected_orientation(g, 1)
    assert d is not None
    assert is_k_connected(d, 1) and brute_is_k_connected(d, 1)


def test_find_rejects_triangle_for_k2():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    assert find_k_connected_orientation(g, 2) is None


def test_find_2_connected_orientation_of_doubled_triangle():
    g = parse_graph(DOUBLED_TRIANGLE)
    d = find_k_connected_orientation(g, 2)
    assert d is not None
    assert brute_is_k_connected(d, 2)


def test_find_k_zero_rejected():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    with pytest.raises(ValueError):
        find_k_connected_orientation(g, 0)


def test_single_vertex_has_one_empty_orientation():
    for g in (Multigraph(1, []), Multigraph(0, [])):
        meter = DelayMeter()
        d = find_k_connected_orientation(g, 3, meter)
        assert d is not None and d.serialize() == ""
        assert meter.total_ops == 0
        assert collect(g, 2) == [""]


def test_bridge_has_no_strong_orientation():
    assert collect(parse_graph("2 1\n0 1"), 1) == []


def test_four_cycle_two_strong_orientations():
    g = parse_graph("4 4\n0 1\n1 2\n2 3\n3 0")
    assert sorted(collect(g, 1)) == ["++++", "----"]


def test_k4_has_24_strong_orientations():
    g = parse_graph("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    got = collect(g, 1)
    assert len(got) == len(set(got)) == 24
    assert set(got) == oracle_k_connected(g, 1)


def test_doubled_triangle_k2_matches_oracle():
    g = parse_graph(DOUBLED_TRIANGLE)
    got = collect(g, 2)
    assert len(got) == 10
    assert set(got) == oracle_k_connected(g, 2)


def test_classes_are_contiguous_and_match_sequence_stream():
    g = parse_graph(DOUBLED_TRIANGLE)
    emitted = []
    enumerate_k_connected(g, 1, lambda d: emitted.append(d.outdegrees()))
    blocks = [emitted[0]]
    for prev, cur in zip(emitted, emitted[1:]):
        if cur != prev:
            blocks.append(cur)
    assert len(blocks) == len(set(blocks))  # one contiguous block per class
    seed = find_k_connected_orientation(g, 1)
    seqs = []
    enumerate_outdegree_sequences(g, 1, seed, lambda s, w: seqs.append(s))
    assert blocks == seqs


def test_explicit_seed_gives_same_solution_set():
    g = parse_graph(DOUBLED_TRIANGLE)
    default = collect(g, 2)
    seed = Orientation(g, [1, 0, 1, 0, 1, 0])
    seeded = collect(g, 2, seed=seed)
    assert set(seeded) == set(default)
    with pytest.raises(ValueError):
        collect(g, 2, seed=Orientation(g, [1, 0, 1, 1, 1, 1]))


def test_matches_oracle_over_random_graphs():
    for _, g in families.random_family(40, seed=43):
        for k in (1, 2):
            got = collect(g, k)
            assert len(got) == len(set(got))
            assert set(got) == oracle_k_connected(g, k) or (
                not got and not oracle_k_connected(g, k)
            )


def test_finder_returns_the_first_k_connected_orientation_in_oracle_order():
    # The finder directs edges in index order and tries '+' before '-', and
    # '+' < '-', so its witness is the least k-connected serialization.
    for _, g in families.random_family(80, seed=3):
        for k in (1, 2, 3):
            want = oracle_k_connected(g, k)
            got = find_k_connected_orientation(g, k)
            assert (got.serialize() if got else None) == (min(want) if want else None), (g.edges, k)


def test_class_size_bound_examples():
    g = parse_graph(DOUBLED_TRIANGLE)
    assert class_size_lower_bound_check(g, (2, 2, 2), 2)  # 10 >= (2-1)*3+2
    c4 = parse_graph("4 4\n0 1\n1 2\n2 3\n3 0")
    assert class_size_lower_bound_check(c4, (1, 1, 1, 1), 1)  # bound 2 is tight


def test_class_size_bound_over_all_strong_classes():
    for _, g in families.random_family(25, seed=47):
        for seq in oracle_sequences(g, 1):
            assert class_size_lower_bound_check(g, seq, 1)


def test_class_size_bound_rejects_non_connected_alpha():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    with pytest.raises(ValueError):
        class_size_lower_bound_check(g, (2, 1, 0), 1)  # attainable but not strong


def test_meter_counts_one_gap_per_solution_plus_trailing():
    g = parse_graph(DOUBLED_TRIANGLE)
    meter = DelayMeter()
    count = enumerate_k_connected(g, 2, lambda d: None, meter=meter)
    assert count == 10
    assert meter.emissions == 10
    histogram = meter.gap_histogram
    assert sum(histogram) == 11
    # Bucket i holds the gaps of 2**(i-1) to 2**i - 1 ops (bucket 0: empty gaps).
    low = sum(c * (1 << i >> 1) for i, c in enumerate(histogram))
    high = sum(c * ((1 << i) - 1) for i, c in enumerate(histogram))
    assert low <= meter.total_ops <= high
    assert len(histogram) == meter.max_delay_ops.bit_length() + 1 and histogram[-1] > 0


def test_invariant_probes_hold():
    # The replay asserts the fixed edge prefix, k-connectivity after every
    # path reversal and the outdegrees at every leaf, and must emit the
    # same stream as the enumerator.
    graphs = [parse_graph(DOUBLED_TRIANGLE)] + [g for _, g in families.random_family(15, seed=73)]
    for g in graphs:
        for k in (1, 2):
            seed = find_k_connected_orientation(g, k)
            if seed is not None:
                probed = [d.serialize() for d in probed_k_connected(g, k, seed)]
                assert probed == collect(g, k, seed=seed)
