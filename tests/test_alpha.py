import random

import pytest

import families
from oracles import oracle_alpha
from orientations import (
    DelayMeter,
    Multigraph,
    Orientation,
    enumerate_alpha,
    enumerate_k_connected,
    find_alpha_orientation,
    is_k_connected,
    parse_graph,
)
from orientations import alpha as alpha_module, sequences
from orientations.alpha import _closing_order
from orientations.oracle import all_orientations
from orientations.paths import _meeting_path
from witnesses import (
    FlipBackLevels,
    FullScanLevels,
    UncountedLevels,
    UncutLevels,
    free_masks,
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


def test_find_rejects_non_integer_entries():
    g = parse_graph("2 1\n0 1")
    for alpha in ((1.5, 0.5), (0.5, 0.5)):
        with pytest.raises(ValueError):
            find_alpha_orientation(g, alpha)
        with pytest.raises(ValueError):
            enumerate_alpha(g, alpha, lambda d: None)
    assert find_alpha_orientation(g, (1.0, 0)).serialize() == "+"


def test_find_rejects_entries_that_are_not_numbers():
    g = parse_graph("2 1\n0 1")
    for alpha in ((None, 1), (1, None), ("1", 0), (float("nan"), 1)):
        with pytest.raises(ValueError):
            find_alpha_orientation(g, alpha)
        with pytest.raises(ValueError):
            enumerate_alpha(g, alpha, lambda d: None)


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
    # edges and free masks at every edge level, and must emit the same
    # stream.
    for g in [g] + [h for _, h in families.random_family(15, seed=71)]:
        for alpha in {d.outdegrees() for d in all_orientations(g)}:
            assert [d.serialize() for d in probed_alpha(g, alpha)] == collect(g, alpha)


def test_emission_order_is_deterministic():
    g = parse_graph("3 6\n0 1\n0 1\n1 2\n1 2\n2 0\n2 0")
    assert collect(g, (2, 2, 2)) == collect(g, (2, 2, 2))


def _figures(monkeypatch, run, levels, ordered=True):
    # Runs ``run(sink, meter)`` as it is and with the alpha expansion's
    # edge levels replaced by ``levels``; asserts the same stream, in the
    # same order unless ``ordered`` is false, and the same count, and
    # returns both meters, the reference's first.  The sinks keep no
    # orientation, so no leaf pays for a copy.
    reference, meter, want, got = DelayMeter(), DelayMeter(), [], []
    with monkeypatch.context() as patched:
        for module in (alpha_module, sequences):
            patched.setattr(module, "_EdgeLevels", levels)
        wanted = run(lambda d: want.append(d.serialize()), reference)
    assert run(lambda d: got.append(d.serialize()), meter) == wanted == len(got)
    assert got == want if ordered else sorted(got) == sorted(want)
    return reference, meter


def _against_reference(monkeypatch, run, levels, ordered=True):
    # As ``_figures``, with no more operations in total or in any gap;
    # returns both total_ops, the reference's first.
    reference, meter = _figures(monkeypatch, run, levels, ordered)
    assert meter.total_ops <= reference.total_ops
    assert meter.max_delay_ops <= reference.max_delay_ops
    return reference.total_ops, meter.total_ops


def _against_full_scan(monkeypatch, run):
    # Against the search that scans whole rows.  It searches forward, and
    # the expansion meets in the middle, so the two can find other cycles:
    # the same orientations in another order.
    return _against_reference(monkeypatch, run, FullScanLevels, ordered=False)


def _against_uncut(monkeypatch, run):
    # Against the search that starts afresh at every level.
    return _against_reference(monkeypatch, run, UncutLevels)


def _against_uncounted(monkeypatch, run):
    # Against the expansion that makes no free-arc tests, and searches
    # forward: the same orientations in another order.
    return _against_reference(monkeypatch, run, UncountedLevels, ordered=False)


def _against_flip_back(monkeypatch, run):
    # Against the expansion that flips back, which emits the same
    # orientations in another order.
    return _against_reference(monkeypatch, run, FlipBackLevels, ordered=False)


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
    # The whole-row scan's totals on the torus, frozen; korient's include
    # the vertex levels and the finder as they are now: chains that keep
    # only their own cuts, searches that scan only out-arcs, λ counts that
    # stop where the outdegrees decide them, a k = 1 check that sweeps once
    # each way, a finder that charges only the edges it flips, and vertex
    # levels that take over the flips an expansion leaves.
    torus = families.torus(3, 3)
    for run, parent in ((_alpha_run(torus, [2] * 9), 9_065), (_korient_run(torus, 2), 9_312)):
        full, masked = _against_full_scan(monkeypatch, run)
        assert full == parent and masked < full


def test_the_cut_never_costs_more_than_a_fresh_search(monkeypatch):
    for _, g in families.random_family(25, seed=41):
        for alpha in {d.outdegrees() for d in all_orientations(g)}:
            _against_uncut(monkeypatch, _alpha_run(g, alpha))
        for k in (1, 2):
            _against_uncut(monkeypatch, _korient_run(g, k))
    # The fresh searches keep the free-arc tests, so their totals on the
    # torus are the expansion's own without the cut (korient's with the
    # vertex levels as they are now).  In the closing order those tests
    # skip nearly every search that the cut would spare: on the 3x3 torus
    # the cut spares nothing, and on the 3x4 torus a few ops.
    assert _against_uncut(monkeypatch, _alpha_run(families.torus(3, 3), [2] * 9)) == (1_138, 1_138)
    torus = families.torus(3, 4)
    for run, uncut in ((_alpha_run(torus, [2] * 12), 5_212), (_korient_run(torus, 2), 5_639)):
        fresh, reused = _against_uncut(monkeypatch, run)
        assert fresh == uncut and reused < fresh
    # What the cut still buys is mostly a shorter largest gap, as on two
    # relabelled 3x3 tori: (total_ops, max_delay_ops) of (fresh, reused).
    for seed, pinned in ((2, ((1_204, 15), (1_198, 14))), (3, ((1_192, 14), (1_186, 13)))):
        run = _alpha_run(families.relabelled_torus(3, 3, seed), [2] * 9)
        fresh, reused = _figures(monkeypatch, run, UncutLevels)
        assert ((fresh.total_ops, fresh.max_delay_ops), (reused.total_ops, reused.max_delay_ops)) == pinned


def test_the_counts_never_cost_more_than_the_cut_alone(monkeypatch):
    for _, g in families.random_family(25, seed=41):
        for alpha in {d.outdegrees() for d in all_orientations(g)}:
            _against_uncounted(monkeypatch, _alpha_run(g, alpha))
        for k in (1, 2):
            _against_uncounted(monkeypatch, _korient_run(g, k))
    # The uncounted totals on the torus are the expansion's own without the
    # free-arc tests and the sets passed down, with searches that scan
    # only out-arcs (korient's with the vertex levels as they are now); the
    # counted ones may not rise above what the tests, the closing order and
    # the closed sets brought them down to.
    torus = families.torus(3, 3)
    for run, parent, pinned in ((_alpha_run(torus, [2] * 9), 2_696, 1_138), (_korient_run(torus, 2), 2_943, 1_385)):
        uncounted, counted = _against_uncounted(monkeypatch, run)
        assert uncounted == parent and counted <= pinned


def test_leaving_each_flip_never_costs_more_than_flipping_back(monkeypatch):
    # A level that flips leaves its flip, so consecutive leaves differ by
    # one cycle reversal and no cycle is paid twice.  Whether a level can
    # flip does not depend on which orientation of the free edges it holds,
    # so the orientations and their number stay those of the expansion that
    # flips back; only the order changes.  The reference's totals are the
    # expansion's own before the change.
    for _, g in families.named_graphs() + families.random_family(150, seed=61):
        for k in (1, 2):
            _against_flip_back(monkeypatch, _korient_run(g, k))
    torus, wide, ladder = families.torus(3, 3), families.torus(3, 4), families.ladder(6)
    for run, parent, pinned in (
        (_alpha_run(torus, [2] * 9), 1_823, 1_138),
        (_korient_run(torus, 2), 2_070, 1_385),
        (_alpha_run(wide, [2] * 12), 8_454, 5_204),
        (_korient_run(ladder, 1), 2_658, 1_733),
    ):
        assert _against_flip_back(monkeypatch, run) == (parent, pinned)


@pytest.mark.slow
def test_leaving_each_flip_costs_more_than_flipping_back_only_on_the_pinned_alpha_classes(monkeypatch):
    # Every alpha class of the graphs above.  The reference searches forward
    # and keeps a closed prefix of a set that holds its tail, a rule that
    # does not survive leaving the flips; the expansion meets in the middle
    # and drops a received set that holds its tail.  Each class where
    # the expansion costs more is pinned as (reference, expansion) figures
    # of (total_ops, max_delay_ops).
    dearer = {}
    for name, g in families.named_graphs() + families.random_family(150, seed=61):
        for alpha in {d.outdegrees() for d in all_orientations(g)}:
            back, left = _figures(monkeypatch, _alpha_run(g, alpha), FlipBackLevels, ordered=False)
            if left.total_ops > back.total_ops or left.max_delay_ops > back.max_delay_ops:
                dearer[name, alpha] = (back.total_ops, back.max_delay_ops), (left.total_ops, left.max_delay_ops)
    assert dearer == {
        # One search more, or two: a failed meeting search whose tail's side
        # ran out first hands up V∖B, which holds the tail of a level above.
        # The forward search's closure misses that tail, so the reference
        # uses it there, or passes it down from a level that flips, and
        # spares a search that the expansion makes.
        ("rnd-32-n5-m9", (2, 0, 2, 2, 3)): ((22, 13), (25, 13)),
        ("rnd-32-n5-m9", (2, 0, 3, 1, 3)): ((18, 15), (20, 15)),
        ("rnd-53-n5-m7", (2, 2, 1, 0, 2)): ((19, 16), (21, 16)),
        # One search more: a level drops the cut it received, which holds
        # its tail, and the set that the level below had skipped would have
        # spared the search.  The expansion no longer hands that set up.
        ("wheel4", (1, 2, 2, 3, 0)): ((23, 19), (25, 19)),
    }
    wheel = families.doubled_wheel4()
    for run, parent, pinned in (
        (_korient_run(families.torus(3, 3), 1), 1_091_762, 693_536),
        (_korient_run(wheel, 1), 436_328, 272_037),
        (_korient_run(wheel, 2), 190_555, 119_373),
    ):
        assert _against_flip_back(monkeypatch, run) == (parent, pinned)


def _assert_the_probe_holds(rows, cols, seeds):
    # The closed-set rules on graphs larger than the random family's, with
    # longer flip subtrees and larger sets: the probe checks every set a
    # level uses or hands up against the free arcs that could leave it.
    for seed in seeds:
        g = families.relabelled_torus(rows, cols, seed)
        alpha = [2] * g.n
        assert [d.serialize() for d in probed_alpha(g, alpha)] == collect(g, alpha)


def test_the_probe_holds_on_relabelled_3x4_tori():
    _assert_the_probe_holds(3, 4, (9, 40))


def test_the_closing_order_is_a_permutation_of_the_edges():
    graphs = [g for _, g in families.acceptance_family()]
    graphs += [Multigraph(0, []), Multigraph(3, []), Multigraph(6, [(4, 1), (1, 5), (5, 4), (4, 1)])]
    for g in graphs:
        assert sorted(_closing_order(g)) == list(range(g.m)), g.edges
    # The pendant vertex 3 has the fewest edges, so its edge 3 comes first;
    # it reaches vertex 2, whose edges 1 and 2 follow in index order; then
    # vertices 0 and 1 tie at one edge left, and 0 brings edge 0.
    assert _closing_order(parse_graph("4 4\n0 1\n1 2\n2 0\n2 3")) == [3, 1, 2, 0]


def test_the_cost_does_not_depend_on_the_input_edge_order():
    # The closing order reads the graph, not the order its edges are
    # listed in, so relabelling the 4x4 torus and shuffling its edge list
    # moves the expansion's total by little; in the input's edge order it
    # moved by half.
    totals = []
    for g in [families.torus(4, 4)] + [families.relabelled_torus(4, 4, seed) for seed in (1, 2, 3)]:
        meter = DelayMeter()
        assert enumerate_alpha(g, [2] * g.n, lambda d: None, meter=meter) == 2_970
        totals.append(meter.total_ops)
    assert max(totals) <= 1.05 * min(totals), totals


def _out_free(d, free, members) -> int:
    # The number of arcs among the edges ``free`` that leave ``members``.
    return sum(1 for f in free if d.tail(f) in members and d.head(f) not in members)


def test_cycle_reversals_inside_the_free_edges_keep_closed_sets_closed():
    # The lemma behind the expansion's closed-set rules, with F a random
    # set of the edges of a random orientation, as the edges below a level
    # of the closing order are: reversing a directed cycle inside F keeps
    # out_F(X) for every vertex set X, so every closed set stays closed,
    # and reversing a directed path inside F from a to b changes it by
    # [b in X] - [a in X].
    rng, cycles, paths = random.Random(43), 0, 0
    for _, g in families.random_family(25, seed=43):
        sets = [{x for x in range(g.n) if mask >> x & 1} for mask in range(1 << g.n)]
        for _ in range(4 * g.m):
            d = Orientation(g, [rng.random() < 0.5 for _ in range(g.m)])
            free = rng.sample(range(g.m), rng.randint(1, g.m))
            masks = free_masks(g, set(range(g.m)) - set(free))
            before = [_out_free(d, free, X) for X in sets]
            arc = rng.choice(free)
            cycle = _meeting_path(d, d.head(arc), d.tail(arc), masks, 0, None)[0]
            if cycle is not None:
                d._flip(cycle + [arc])
                assert [_out_free(d, free, X) for X in sets] == before, (g.edges, free, cycle, arc)
                d._flip(cycle + [arc])
                cycles += 1
            a, b = rng.sample(range(g.n), 2)
            path = _meeting_path(d, a, b, masks, 0, None)[0]
            if path is not None:
                d._flip(path)
                for X, was in zip(sets, before):
                    assert _out_free(d, free, X) == was + (b in X) - (a in X), (g.edges, free, path, X)
                paths += 1
    assert cycles >= 100 and paths >= 200


@pytest.mark.slow
def test_the_probe_holds_on_relabelled_3x5_tori():
    _assert_the_probe_holds(3, 5, (2, 4))


@pytest.mark.slow
def test_fixed_prefix_never_costs_more_on_the_long_korient_streams(monkeypatch):
    full, masked = _against_full_scan(monkeypatch, _korient_run(families.torus(3, 3), 1))
    assert full == 6_466_258 and masked < full
    _against_full_scan(monkeypatch, _korient_run(families.doubled_wheel4(), 1))


@pytest.mark.slow
def test_the_counts_never_cost_more_on_the_4x5_torus(monkeypatch):
    torus, solutions = families.torus(4, 5), []

    def run(sink, meter):
        solutions.append(enumerate_alpha(torus, [2] * 20, sink, meter=meter))
        return solutions[-1]

    uncounted, counted = _against_uncounted(monkeypatch, run)
    assert solutions == [16_892, 16_892]
    assert uncounted == 551_221 and counted < uncounted


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
