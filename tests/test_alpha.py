import random

import pytest

import families
from orientations import (
    DelayMeter,
    Orientation,
    enumerate_alpha,
    enumerate_k_connected,
    find_alpha_orientation,
    is_k_connected,
    parse_graph,
)
from orientations import alpha as alpha_module, sequences
from orientations.oracle import all_orientations, oracle_alpha
from witnesses import (
    full_scan_choices,
    probed_alpha,
    reversed_copy,
    same_alpha_cycle_decomposition,
)


def collect(graph, alpha):
    got = []
    count = enumerate_alpha(graph, alpha, lambda d: got.append(d.serialize()))
    assert count == len(got)
    return got


def test_find_four_cycle_all_ones():
    g = parse_graph("4 4\n0 1\n1 2\n2 3\n3 0")
    d = find_alpha_orientation(g, (1, 1, 1, 1))
    assert d is not None
    assert d.outdegrees() == (1, 1, 1, 1)


def test_find_triangle_2_1_0_is_unique():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    d = find_alpha_orientation(g, (2, 1, 0))
    assert d is not None and d.serialize() == "++-"


def test_find_infeasible_targets():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    assert find_alpha_orientation(g, (3, 0, 0)) is None  # vertex 0 has degree 2
    assert find_alpha_orientation(g, (1, 1, 0)) is None  # sum mismatch
    assert find_alpha_orientation(g, (4, -1, 0)) is None


def test_find_rejects_wrong_length():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    with pytest.raises(ValueError):
        find_alpha_orientation(g, (1, 1, 1, 0))


def test_enumerate_four_cycle_two_directed_cycles():
    g = parse_graph("4 4\n0 1\n1 2\n2 3\n3 0")
    assert sorted(collect(g, (1, 1, 1, 1))) == ["++++", "----"]


def test_enumerate_triangle_singleton_class():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    assert collect(g, (2, 1, 0)) == ["++-"]


def test_enumerate_doubled_triangle_eulerian_class():
    g = parse_graph("3 6\n0 1\n0 1\n1 2\n1 2\n2 0\n2 0")
    got = collect(g, (2, 2, 2))
    assert len(got) == 10  # all Eulerian orientations, one per cycle-reversal coset
    assert set(got) == oracle_alpha(g, (2, 2, 2))


def test_enumerate_infeasible_is_empty():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    assert collect(g, (3, 0, 0)) == []


def test_enumerate_matches_oracle_with_no_duplicates():
    for _, g in families.random_family(25, seed=3):
        seen_alphas = {d.outdegrees() for d in all_orientations(g)}
        for alpha in seen_alphas:
            got = collect(g, alpha)
            assert len(set(got)) == len(got)
            assert set(got) == oracle_alpha(g, alpha)


def test_every_emission_attains_alpha():
    g = parse_graph("4 8\n0 1\n0 1\n1 2\n1 2\n2 3\n2 3\n3 0\n3 0")
    alpha = (2, 2, 2, 2)

    def probe(d):
        assert d.outdegrees() == alpha

    enumerate_alpha(g, alpha, probe)
    # The replay asserts the target outdegrees at every leaf and the fixed
    # edge prefix at every edge level, and must emit the same stream.
    for g in [g] + [h for _, h in families.random_family(15, seed=71)]:
        for alpha in {d.outdegrees() for d in all_orientations(g)}:
            assert [d.serialize() for d in probed_alpha(g, alpha)] == collect(g, alpha)


def test_emission_order_is_deterministic():
    g = parse_graph("3 6\n0 1\n0 1\n1 2\n1 2\n2 0\n2 0")
    assert collect(g, (2, 2, 2)) == collect(g, (2, 2, 2))


def _against_full_scan(monkeypatch, run):
    # Asserts that ``run(sink, meter)`` emits the stream it emits when the
    # alpha expansion scans whole rows, with no more operations in total or
    # in any gap; returns both total_ops, the whole-row scan's first.
    full, meter, want, got = DelayMeter(), DelayMeter(), [], []
    with monkeypatch.context() as patched:
        for module in (alpha_module, sequences):
            patched.setattr(module, "_edge_choices", lambda d, e, m, fixed: full_scan_choices(d, e, m))
        run(lambda d: want.append(d.serialize()), full)
    run(lambda d: got.append(d.serialize()), meter)
    assert got == want
    assert meter.total_ops <= full.total_ops
    assert meter.max_delay_ops <= full.max_delay_ops
    return full.total_ops, meter.total_ops


def _alpha_run(g, alpha):
    return lambda sink, meter: enumerate_alpha(g, alpha, sink, meter=meter)


def _korient_run(g, k):
    return lambda sink, meter: enumerate_k_connected(g, k, sink, meter=meter)


def test_fixed_prefix_never_costs_more_than_the_full_scan(monkeypatch):
    for _, g in families.random_family(25, seed=37):
        for alpha in {d.outdegrees() for d in all_orientations(g)}:
            _against_full_scan(monkeypatch, _alpha_run(g, alpha))
        for k in (1, 2):
            _against_full_scan(monkeypatch, _korient_run(g, k))
    # The whole-row scan's totals on the torus are the ones the expansion
    # had before it skipped the fixed prefix of each row.
    torus = families.torus(3, 3)
    for run, parent in ((_alpha_run(torus, [2] * 9), 16_821), (_korient_run(torus, 2), 19_771)):
        full, prefix = _against_full_scan(monkeypatch, run)
        assert full == parent and prefix < full


@pytest.mark.slow
def test_fixed_prefix_never_costs_more_on_the_long_korient_streams(monkeypatch):
    full, prefix = _against_full_scan(monkeypatch, _korient_run(families.torus(3, 3), 1))
    assert full == 10_154_992 and prefix < full
    _against_full_scan(monkeypatch, _korient_run(families.doubled_wheel4(), 1))


def test_gap_arc_touches_stay_within_m_squared():
    # Generous frozen constant; the point is the m^2 scaling of the delay.
    # A gap's operations include its arc touches, so bounding them is stronger.
    for _, g in families.random_family(30, seed=67):
        if g.m == 0:
            continue
        for alpha in {d.outdegrees() for d in all_orientations(g)}:
            meter = DelayMeter()
            enumerate_alpha(g, alpha, lambda d: None, meter=meter)
            peak = meter.max_delay_ops
            assert peak <= 8 * g.m * g.m, (g.edges, alpha, peak)


def test_k_connectivity_is_constant_within_a_class():
    for _, g in families.random_family(20, seed=5):
        classes = {}
        for d in all_orientations(g):
            classes.setdefault(d.outdegrees(), []).append(d)
        for members in classes.values():
            for k in (1, 2):
                values = {is_k_connected(d, k) for d in members}
                assert len(values) == 1


def test_cycle_decomposition_identity_is_empty():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    d = Orientation(g)
    assert same_alpha_cycle_decomposition(d, d) == []


def test_cycle_decomposition_opposite_four_cycles():
    g = parse_graph("4 4\n0 1\n1 2\n2 3\n3 0")
    d = Orientation(g)
    cycles = same_alpha_cycle_decomposition(d, reversed_copy(d, range(g.m)))
    assert len(cycles) == 1
    assert sorted(cycles[0]) == [0, 1, 2, 3]


def test_cycle_decomposition_rejects_other_graph():
    d1 = Orientation(parse_graph("3 3\n0 1\n1 2\n2 0"))
    d2 = Orientation(parse_graph("3 3\n0 1\n1 2\n1 2"))
    with pytest.raises(ValueError):
        same_alpha_cycle_decomposition(d1, d2)


def test_cycle_decomposition_none_when_degrees_differ():
    g = parse_graph("3 3\n0 1\n1 2\n2 0")
    d = Orientation(g)
    assert same_alpha_cycle_decomposition(d, reversed_copy(d, [0])) is None


def test_cycle_decomposition_reconstructs_target():
    rng = random.Random(77)
    for _, g in families.random_family(25, seed=7):
        classes = {}
        for d in all_orientations(g):
            classes.setdefault(d.outdegrees(), []).append(d)
        members = max(classes.values(), key=len)
        if len(members) < 2:
            continue
        d1, d2 = rng.sample(members, 2)
        cycles = same_alpha_cycle_decomposition(d1, d2)
        assert cycles is not None
        flat = [e for cycle in cycles for e in cycle]
        assert len(flat) == len(set(flat))  # arc-disjoint
        for cycle in cycles:
            # each cycle is directed in d1: heads chain to tails and close up
            heads = [d1.head(e) for e in cycle]
            tails = [d1.tail(e) for e in cycle]
            assert heads[-1] == tails[0]
            for arc, nxt in zip(cycle, cycle[1:]):
                assert d1.head(arc) == d1.tail(nxt)
        assert reversed_copy(d1, flat) == d2
