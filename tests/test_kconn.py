import random
from collections import Counter

import pytest

import families
from oracles import oracle_k_connected, oracle_sequences
from orientations import (
    DelayMeter,
    Multigraph,
    Orientation,
    connectivity,
    enumerate_alpha,
    enumerate_k_connected,
    enumerate_outdegree_sequences,
    find_k_connected_orientation,
    is_k_connected,
    kconn,
    parse_graph,
    paths,
)
from orientations.connectivity import _edge_connectivity
from orientations.oracle import brute_is_k_connected
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


def test_non_integer_k_rejected():
    # The finder and both enumerators, with or without a seed, reject a k
    # that is not an integer, an integral float included, before any search.
    g = parse_graph(DOUBLED_TRIANGLE)
    seed = find_k_connected_orientation(g, 2)
    for k in (1.5, 2.0, None, "2"):
        with pytest.raises(ValueError, match="integer"):
            find_k_connected_orientation(g, k)
        for given in (None, seed):
            with pytest.raises(ValueError, match="integer"):
                enumerate_outdegree_sequences(g, k, given, lambda s, w: None)
            with pytest.raises(ValueError, match="integer"):
                enumerate_k_connected(g, k, lambda d: None, seed=given)


def test_single_vertex_has_one_empty_orientation():
    for g in (Multigraph(1, []), Multigraph(0, [])):
        meter = DelayMeter()
        d = find_k_connected_orientation(g, 3, meter)
        assert d is not None and d.serialize() == ""
        assert meter.total_ops == 0
        assert collect(g, 2) == [""]


def test_bridge_has_no_strong_orientation():
    assert collect(parse_graph("2 1\n0 1"), 1) == []


def _bridged(graph, rng):
    # The graph with a pendant vertex, two copies of it joined by one edge,
    # and the two copies side by side: none is 2-edge-connected.
    n, edges = graph.n, list(graph.edges)
    copies = edges + [(u + n, v + n) for u, v in edges]
    return [
        Multigraph(n + 1, edges + [(rng.randrange(n), n)]),
        Multigraph(2 * n, copies + [(rng.randrange(n), n + rng.randrange(n))]),
        Multigraph(2 * n, copies),
    ]


def test_the_k1_reject_agrees_with_counting_edge_connectivity():
    # Robbins' theorem: the depth-first orientation is strongly connected
    # exactly when two edge-disjoint paths join every pair of vertices, the
    # count the finder makes for k >= 2.  The finder rejects exactly the
    # graphs it rules out, and no orientation of a bridged graph is strong.
    rng = random.Random(61)
    graphs = [g for _, g in families.random_family(150, seed=61) + families.named_graphs()]
    strong = [is_k_connected(kconn._robbins_orientation(g), 1) for g in graphs]
    assert strong == [_edge_connectivity(g, 2) >= 2 for g in graphs]
    assert [find_k_connected_orientation(g, 1) is not None for g in graphs] == strong
    assert 50 < strong.count(True) < len(graphs) - 50
    for g in graphs[:40]:
        pendant, joined, apart = _bridged(g, rng)
        for h in (pendant, joined, apart):
            assert not is_k_connected(kconn._robbins_orientation(h), 1)
            assert _edge_connectivity(h, 2) < 2 and find_k_connected_orientation(h, 1) is None
        assert collect(pendant, 1) == [] and not oracle_k_connected(pendant, 1)


def test_the_k1_reject_accepts_one_vertex_and_rejects_a_disconnected_graph():
    for g in (Multigraph(1, []), Multigraph(0, [])):
        assert find_k_connected_orientation(g, 1).serialize() == ""
    doubled_pair = [(0, 1), (0, 1)]
    for g in (Multigraph(4, doubled_pair + [(2, 3), (2, 3)]), Multigraph(3, doubled_pair)):
        assert find_k_connected_orientation(g, 1) is None and not oracle_k_connected(g, 1)


def test_the_k1_finder_needs_no_path_count_on_a_large_torus(monkeypatch):
    # 12,800 edges: the k = 1 reject makes one search and two sweeps, where
    # counting edge connectivity would make 6,399 path counts.
    monkeypatch.setattr(kconn, "_edge_connectivity", None)
    d = find_k_connected_orientation(families.relabelled_torus(80, 80, 1), 1)
    assert d is not None and is_k_connected(d, 1)


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


class _Enough(Exception):
    pass


def test_classes_are_contiguous_and_match_sequence_stream():
    # The orientations of one outdegree class arrive as one block, the
    # blocks in the order of the sequence stream, and each complete block
    # holds the whole class: as many orientations as the alpha expansion
    # lists for that outdegree vector.  Which paths the vertex levels keep
    # reversed may reorder a block but changes none of this.  The 3x3 torus
    # stops after its first 5,000 orientations, so its last block may be
    # cut short.
    for g, cap in ((parse_graph(DOUBLED_TRIANGLE), None), (families.torus(3, 3), 5_000)):
        emitted = []

        def sink(d):
            emitted.append(d.outdegrees())
            if len(emitted) == cap:
                raise _Enough

        try:
            enumerate_k_connected(g, 1, sink)
        except _Enough:
            pass
        blocks = [out for i, out in enumerate(emitted) if i == 0 or out != emitted[i - 1]]
        sizes = Counter(emitted)
        assert len(blocks) == len(set(blocks))  # one contiguous block per class
        seqs = []
        enumerate_outdegree_sequences(g, 1, None, lambda s, w: seqs.append(s))
        assert blocks == seqs[: len(blocks)]
        complete = blocks if cap is None else blocks[:-1]
        assert len(complete) > (5 if cap is None else 50)
        for out in complete:
            assert sizes[out] == enumerate_alpha(g, out, lambda d: None)


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


def test_the_finder_charges_only_the_edges_it_flips():
    # The 4-cycle's first assignment, every edge '+', is strongly connected,
    # so the finder flips no edge, and its work is the k = 1 check of its
    # witness: two sweeps of one BFS run each.
    g = parse_graph("4 4\n0 1\n1 2\n2 3\n3 0")
    meter, check = DelayMeter(), DelayMeter()
    d = find_k_connected_orientation(g, 1, meter)
    assert d.serialize() == "++++" and is_k_connected(d, 1, check)
    assert (meter.bfs_runs, meter.arc_touches) == (check.bfs_runs, check.arc_touches) == (2, 6)


def test_a_k2_connectivity_test_reads_each_degree_bound_once(monkeypatch):
    # The k = 2 finder on the 4x4 torus makes 30 λ tests, each of which
    # reads min(out(u), in(v)) once, and the Nash-Williams check's 15
    # counts read it once each: 45 readings, and the finder's charges.
    readings = []
    real_bound = paths._degree_bound

    def counted_bound(d, u, v):
        readings.append((u, v))
        return real_bound(d, u, v)

    tests = []
    real_lambda = connectivity.lambda_at_least

    def counted_lambda(d, u, v, threshold, meter=None):
        tests.append((u, v))
        return real_lambda(d, u, v, threshold, meter)

    monkeypatch.setattr(paths, "_degree_bound", counted_bound)
    monkeypatch.setattr(connectivity, "lambda_at_least", counted_lambda)
    meter = DelayMeter()
    d = find_k_connected_orientation(families.torus(4, 4), 2, meter)
    assert d.serialize() == "+" * 32
    assert (len(tests), len(readings)) == (30, 45)
    assert (meter.bfs_runs, meter.arc_touches) == (60, 658)


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
    # The replay asserts the fixed edges, k-connectivity after every
    # path reversal and the outdegrees at every leaf, and must emit the
    # same stream as the enumerator.
    graphs = [parse_graph(DOUBLED_TRIANGLE)] + [g for _, g in families.random_family(15, seed=73)]
    for g in graphs:
        for k in (1, 2):
            seed = find_k_connected_orientation(g, k)
            if seed is not None:
                probed = [d.serialize() for d in probed_k_connected(g, k, seed)]
                assert probed == collect(g, k, seed=seed)
