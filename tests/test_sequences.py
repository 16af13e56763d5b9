import sys
import tracemalloc

import pytest

import families
from oracles import oracle_sequences
from orientations import (
    DelayMeter,
    Multigraph,
    Orientation,
    enumerate_k_connected,
    enumerate_outdegree_sequences,
    find_k_connected_orientation,
    is_k_connected,
    kconn,
    lambda_at_least,
    parse_graph,
    paths,
    sequences,
)
from orientations import alpha as alpha_module
from orientations.alpha import walk
from orientations.paths import _count_paths
from orientations.sequences import _vertex_choices
from witnesses import (
    TightSetProbe,
    chain_cut_choices,
    closure_count_paths,
    cut_outdegree,
    forward_count_paths,
    fresh_count_choices,
    ignoring_family,
    keep_last_choices,
    pairwise_is_k_connected,
    plain_scan_choices,
    probed_sequences,
    retesting_choices,
    scanned_sequences,
    unbounded_count_paths,
    vertices,
)

DOUBLED_TRIANGLE = "3 6\n0 1\n0 1\n1 2\n1 2\n2 0\n2 0"
DOUBLED_FOUR_CYCLE = "4 8\n0 1\n0 1\n1 2\n1 2\n2 3\n2 3\n3 0\n3 0"


def collect(graph, k, seed=None, meter=None):
    if seed is None:
        seed = find_k_connected_orientation(graph, k, meter)
        assert seed is not None
    got = []
    count = enumerate_outdegree_sequences(graph, k, seed, lambda s, w: got.append((s, w)), meter=meter)
    assert count == len(got)
    return got


def test_four_cycle_has_one_strong_sequence():
    g = parse_graph("4 4\n0 1\n1 2\n2 3\n3 0")
    assert [s for s, _ in collect(g, 1)] == [(1, 1, 1, 1)]


def test_doubled_triangle_strong_sequences():
    g = parse_graph(DOUBLED_TRIANGLE)
    got = [s for s, _ in collect(g, 1)]
    assert len(got) == len(set(got)) == 7
    assert set(got) == {
        (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 2, 2), (2, 3, 1), (3, 1, 2), (3, 2, 1),
    }
    assert set(got) == oracle_sequences(g, 1)


def test_doubled_triangle_two_connected_sequence_is_unique():
    g = parse_graph(DOUBLED_TRIANGLE)
    assert [s for s, _ in collect(g, 2)] == [(2, 2, 2)]


def test_seed_must_be_k_connected():
    g = parse_graph(DOUBLED_TRIANGLE)
    bad = Orientation(g, [1, 0, 1, 1, 1, 1])  # only one arc leaves vertex 0
    assert not is_k_connected(bad, 2)
    with pytest.raises(ValueError):
        enumerate_outdegree_sequences(g, 2, bad, lambda s, w: None)


def test_seed_must_orient_the_same_graph():
    g = parse_graph(DOUBLED_TRIANGLE)
    other = parse_graph("3 3\n0 1\n1 2\n2 0")
    with pytest.raises(ValueError):
        enumerate_outdegree_sequences(g, 1, Orientation(other), lambda s, w: None)


def test_k_zero_rejected():
    g = parse_graph(DOUBLED_TRIANGLE)
    with pytest.raises(ValueError):
        enumerate_outdegree_sequences(g, 0, Orientation(g), lambda s, w: None)


def test_witness_attains_its_sequence_and_stays_connected():
    g = parse_graph(DOUBLED_TRIANGLE)
    for seq, witness in collect(g, 1):
        assert witness.outdegrees() == seq
        assert is_k_connected(witness, 1)


def test_matches_oracle_over_random_graphs():
    for _, g in families.random_family(40, seed=19):
        for k in (1, 2):
            want = oracle_sequences(g, k)
            # Without a seed the search first runs the finder on the meter it is given.
            unseeded, meter = [], DelayMeter()
            count = enumerate_outdegree_sequences(g, k, None, lambda s, w: unseeded.append((s, w)), meter=meter)
            seed = find_k_connected_orientation(g, k)
            if seed is None:
                assert not want
                assert count == 0 and sum(meter.gap_histogram) == 1
                with pytest.raises(RuntimeError):
                    meter.finished()  # already finished
                continue
            seeded_meter = DelayMeter()
            seeded = collect(g, k, meter=seeded_meter)
            assert [(s, w.serialize()) for s, w in unseeded] == [(s, w.serialize()) for s, w in seeded]
            assert meter.summary() == seeded_meter.summary()
            got = [s for s, _ in seeded]
            assert len(got) == len(set(got))
            assert set(got) == want


def test_internal_connectivity_assertions_hold():
    # The replay asserts k-connectivity after every path reversal and must
    # emit the same stream.
    graphs = [parse_graph(text) for text in (DOUBLED_TRIANGLE, DOUBLED_FOUR_CYCLE)]
    for g in graphs + [g for _, g in families.random_family(15, seed=79)]:
        for k in (1, 2):
            seed = find_k_connected_orientation(g, k)
            if seed is not None:
                assert probed_sequences(g, k, seed) == [s for s, _ in collect(g, k, seed=seed)]


def test_emission_order_is_deterministic():
    g = parse_graph(DOUBLED_TRIANGLE)
    first = [s for s, _ in collect(g, 1)]
    second = [s for s, _ in collect(g, 1)]
    assert first == second


def test_the_vertex_order_is_a_reversed_maximum_cardinality_search():
    # The last level fixes a vertex of largest degree, and each level before
    # it the vertex with the most edges into the vertices after it, the
    # smallest id on ties; parallel edges count once each.  later[i] holds
    # exactly the vertices after level i.
    graphs = [g for _, g in families.acceptance_family()]
    graphs += [Multigraph(0, []), Multigraph(1, []), Multigraph(4, [(0, 1), (1, 2), (2, 0)])]
    graphs += [Multigraph(3, [(0, 1), (0, 1), (1, 2), (2, 0), (2, 0), (2, 0)])]
    for g in graphs:
        order = sequences._VertexOrder(g)
        assert sorted(order) == list(range(g.n)), g.edges
        for i in range(g.n):
            after = set(order[i + 1 :])

            def links(x):
                edges = g.degree(x) if not after else sum(w in after for _, w, _ in g.incidence[x])
                return edges, -x

            assert order[i] == max(order[: i + 1], key=links), (g.edges, i)
            assert order.later[i] == sum(1 << x for x in after)
    # Vertex 2 has the largest degree; 0, 1 and 3 each have one edge into
    # it, so 0 comes next, then 1 with two edges into {0, 2}.  On the
    # multigraph, vertex 0 has degree 5, and vertex 2 three edges into it.
    assert sequences._VertexOrder(parse_graph("4 4\n0 1\n1 2\n2 0\n2 3")) == [3, 1, 0, 2]
    assert sequences._VertexOrder(graphs[-1]) == [1, 2, 0]


def test_the_cost_does_not_depend_on_the_input_vertex_labels():
    # The level order comes from the graph, not its labels, so relabelling
    # the 3x3 torus moves the odseq k=1 totals by less than 5%.
    totals = []
    for g in [families.torus(3, 3)] + [families.relabelled_torus(3, 3, seed) for seed in (1, 2, 3)]:
        meter = DelayMeter()
        enumerate_outdegree_sequences(g, 1, None, lambda s, w: None, meter=meter)
        totals.append(meter.total_ops)
    assert max(totals) <= 1.05 * min(totals), totals


class _DriftProbe:
    """Wraps the per-vertex choice generator to pin down the monotone drift.

    At vertex v with base outdegree b the outdegrees seen at the yields must
    be exactly b, b-J, ..., b-1, b+J', ..., b+1 with J, J' <= deg(v), no
    operation may be charged before the first yield, and the outdegrees and
    the orientation must be restored once the generator is exhausted.
    ``deepest[v]`` keeps the largest J or J' seen at v.
    """

    def __init__(self, d, k):
        self.d = d
        self.k = k
        self.deepest = {}
        self.tight = sequences._TightSets()  # shared by every level, as in the search
        self.order = sequences._VertexOrder(d.graph)  # the search's level order

    def choices(self, i):
        d, v = self.d, self.order[i]
        base, dirs = d.outdegrees()[v], bytes(d._dirs)
        seen, meter = [], DelayMeter()
        for _ in _vertex_choices(d, self.order, i, self.k, meter, self.tight):
            if not seen:
                assert bytes(d._dirs) == dirs and meter.total_ops == 0  # kept before any chain runs
            seen.append(d.outdegrees()[v])
            yield
        assert bytes(d._dirs) == dirs  # restored at the end
        lowered = sum(1 for x in seen if x < base)
        raised = sum(1 for x in seen if x > base)
        assert seen == (
            [base]
            + [base - j for j in range(lowered, 0, -1)]
            + [base + j for j in range(raised, 0, -1)]
        )  # keep first, then exactly one unit per step, deepest first
        assert max(lowered, raised) <= d.graph.degree(v)
        self.deepest[v] = max(self.deepest.get(v, 0), lowered, raised)


def test_monotone_drift_bounds_recursion_depth():
    for text in (DOUBLED_TRIANGLE, DOUBLED_FOUR_CYCLE):
        g = parse_graph(text)
        for k in (1, 2):
            seed = find_k_connected_orientation(g, k)
            if seed is None:
                continue
            probe = _DriftProbe(seed, k)
            leaves = sum(1 for _ in walk(g.n, probe.choices))
            assert leaves == len(oracle_sequences(g, k))
            assert set(probe.deepest) == set(range(g.n))
            # Per-vertex chains of at most deg(v) reversals sum to at most 2m.
            assert sum(probe.deepest.values()) <= 2 * g.m


def _listings():
    # Both enumerators as (graph, k, seed, sink, meter) -> count, each with a
    # sink that takes the solution, a sequence or a serialized orientation,
    # and with the solution an orientation stands for.
    return [
        (
            lambda g, k, seed, sink, meter: enumerate_outdegree_sequences(g, k, seed, lambda s, w: sink(s), meter=meter),
            Orientation.outdegrees,
        ),
        (
            lambda g, k, seed, sink, meter: enumerate_k_connected(
                g, k, lambda d: sink(d.serialize()), seed=seed, meter=meter
            ),
            Orientation.serialize,
        ),
    ]


def test_a_search_emits_its_seed_first():
    # Every vertex level keeps its vertex first, so the first leaf is the
    # seed itself: a seeded run emits it before any charge, and an unseeded
    # run's first gap is exactly the finder's work.
    for _, g in families.random_family(40, seed=19) + families.named_graphs():
        for k in (1, 2, 3):
            finder = DelayMeter()
            seed = find_k_connected_orientation(g, k, finder)
            if seed is None:
                continue
            for listing, solution in _listings():
                seeded, unseeded, got = DelayMeter(), DelayMeter(), []
                listing(g, k, seed, got.append, seeded)
                assert got[0] == solution(seed) and seeded.first_gap_ops == 0
                listing(g, k, None, lambda w: None, unseeded)
                assert unseeded.first_gap_ops == finder.total_ops
                assert unseeded.total_ops == seeded.total_ops + finder.total_ops


def test_keeping_first_moves_no_work_against_keeping_last(monkeypatch):
    # The chain-cut reference that keeps each vertex last emits the same
    # solutions as the one that keeps it first, in another order, with the
    # same BFS runs and arc touches, less the touches of the edges each
    # expansion flips back as it starts: which edges are still to flip back
    # there depends on the flips the vertex levels made since the expansion
    # before, and so on the order.  Keeping first only spreads the work
    # between the leaves, so the largest gaps fall overall.  The search,
    # which also keeps each vertex first, emits the first one's stream with
    # no more BFS runs and operations: its tight sets only spare counts.
    restores = {}
    real_restore = alpha_module._EdgeLevels.restore

    def counted_restore(levels):
        touches = levels.meter.arc_touches
        real_restore(levels)
        restores[id(levels.meter)] = restores.get(id(levels.meter), 0) + levels.meter.arc_touches - touches

    monkeypatch.setattr(alpha_module._EdgeLevels, "restore", counted_restore)
    first_sum = last_sum = runs = 0
    for _, g in families.random_family(40, seed=19) + families.named_graphs():
        for k in (1, 2, 3):
            for listing, _ in _listings():
                meter, first, last, got, want, late = DelayMeter(), DelayMeter(), DelayMeter(), [], [], []
                restores.clear()
                listing(g, k, None, got.append, meter)
                with monkeypatch.context() as patched:
                    patched.setattr(sequences, "_vertex_choices", ignoring_family(chain_cut_choices))
                    listing(g, k, None, want.append, first)
                    patched.setattr(sequences, "_vertex_choices", ignoring_family(keep_last_choices))
                    listing(g, k, None, late.append, last)
                assert got == want and sorted(want) == sorted(late) and len(got) == len(set(got))
                assert (first.emissions, first.bfs_runs, first.arc_touches - restores.get(id(first), 0)) == (
                    last.emissions, last.bfs_runs, last.arc_touches - restores.get(id(last), 0)
                )
                assert meter.bfs_runs <= first.bfs_runs and meter.total_ops <= first.total_ops
                first_sum += first.max_delay_ops
                last_sum += last.max_delay_ops
                runs += len(got) > 1
    assert runs > 50 and first_sum < last_sum, (runs, first_sum, last_sum)


def test_the_first_gap_on_a_large_torus_is_the_finders():
    # On a relabelled 40x40 torus at k = 1 the first sequence is the
    # finder's witness, so no gap waits for the chains of 1,600 levels; the
    # first 100 sequences stay far inside the k*n*m^2 bound.
    g, k = families.relabelled_torus(40, 40, 1), 1
    finder, meter = DelayMeter(), DelayMeter()
    find_k_connected_orientation(g, k, finder)
    _first_sequences(g, k, 101, meter)  # stops as the 101st arrives: 100 gaps closed
    assert meter.emissions == 100 and meter.first_gap_ops == finder.total_ops
    assert meter.max_delay_ops <= 6 * k * g.n * g.m * g.m


def test_gap_operations_stay_within_knm_squared():
    # Generous frozen constant; the point is the k*n*m^2 scaling.
    for _, g in families.random_family(40, seed=61) + families.named_graphs():
        for k in (1, 2):
            seed = find_k_connected_orientation(g, k)
            if seed is None or g.m == 0:
                continue
            meter = DelayMeter()
            enumerate_outdegree_sequences(g, k, seed, lambda s, w: None, meter=meter)
            bound = 6 * k * g.n * g.m * g.m
            assert meter.max_delay_ops <= bound, (g.edges, k)


def test_failed_lambda_tests_rule_out_only_unflippable_vertices(monkeypatch):
    # Every count a chain makes ends short of its limit and hands back a cut
    # left by exactly as many arcs as it found paths in the orientation as
    # given, and by exactly k once the count returns with its first λ-k paths
    # still reversed; a count that its outdegrees decide finds no path and
    # reverses nothing.  A chain makes at most one count per later vertex.  It
    # never skips a flippable vertex, whether a cut of its own or a tight set
    # handed down rules the vertex out: each reversal goes toward the first
    # flippable later vertex in level order, and an exhausted chain leaves
    # none.  The
    # generator keeps the vertex first, before any count.  The yields show
    # the reversals: a chain yields its states deepest first, so each yield,
    # and for a chain's first reversal the orientation the generator kept
    # and restores when it ends, shows the state that the reversal seen at
    # the chain's previous yield started from.
    real_count, real_choices = sequences._count_paths, sequences._vertex_choices
    chain = {}

    def checked_count(d, src, dst, limit, meter=None, spare=None):
        given = d.copy()
        found, mask = real_count(d, src, dst, limit, meter, spare)
        assert mask is not None, "a count reached its limit and handed back no cut"
        cut = vertices(mask)
        assert src in cut and dst not in cut
        assert spare == chain["k"] and cut_outdegree(d, cut) == spare
        if found:
            assert cut_outdegree(given, cut) == len(found) < limit
        else:  # decided by the outdegrees: nothing searched or reversed
            assert d == given
        v, counts = chain["v"], chain["counts"]
        counts[src == v] += 1
        assert counts[src == v] <= len(chain["later"]), "a later vertex was counted twice"
        return found, mask

    def flippable(d, v, u, lowering, k):
        return lambda_at_least(d, *((v, u) if lowering else (u, v)), k + 1)

    def checked_choices(d, order, i, k, meter, tight):
        v, later, counts = order[i], order[i + 1 :], [0, 0]
        base = d.outdegrees()[v]
        last = {}  # per direction, the outdegrees at the chain's latest yield

        def check_chain(lowering, out):
            if lowering not in last:  # d is where the chain ended
                assert not any(flippable(d, v, w, lowering, k) for w in later), "chain ended early"
                return
            # d is where the reversal toward u, undone since, started.
            at = next(j for j, w in enumerate(later) if last[lowering][w] != out[w])
            assert flippable(d, v, later[at], lowering, k)
            assert not any(flippable(d, v, w, lowering, k) for w in later[:at]), "skipped a flippable vertex"

        chain.update(v=v, k=k, later=later, counts=counts)
        kept = False
        for _ in real_choices(d, order, i, k, meter, tight):
            out = d.outdegrees()
            if not kept:
                assert out[v] == base and counts == [0, 0], "a chain ran before the vertex was kept"
                kept = True
            else:
                assert out[v] != base, "the vertex was kept twice"
                check_chain(out[v] < base, out)
                last[out[v] < base] = out
            yield
            chain.update(v=v, k=k, later=later, counts=counts)
        for lowering in (True, False):  # d is back where both chains started
            check_chain(lowering, d.outdegrees())

    monkeypatch.setattr(sequences, "_count_paths", checked_count)
    monkeypatch.setattr(sequences, "_vertex_choices", checked_choices)
    graphs = [g for _, g in families.random_family(40, seed=19)] + [families.torus(3, 3)]
    for g in graphs:
        for k in (1, 2):
            seed = find_k_connected_orientation(g, k)
            if seed is not None:
                collect(g, k, seed=seed)


def test_tight_sets_never_cost_more_than_chain_cuts(monkeypatch):
    # With one tight-set family for the whole search, a cut rules out pairs
    # at every level that shares its orientation, not only in its chain.
    # Against the chain-cut reference the streams are the same, witnesses
    # included, byte for byte, and no run costs more in total or in any
    # gap.  On the tori korient runs stop at 1,000 orientations and odseq
    # runs at 5,000 sequences; the 3x4 torus odseq k=1 figures (reference,
    # search) for those are pinned, both lower.
    graphs = families.random_family(40, seed=19) + families.named_graphs()
    graphs += [("torus3x3", families.torus(3, 3)), ("torus3x4", families.torus(3, 4))]
    figures = {}
    for name, g in graphs:
        for k in (1, 2, 3):
            for korient in (False, True):
                cap = (1_000 if korient else 5_000) if name.startswith("torus") else None
                figures[name, korient, k] = _against_chain_cuts(monkeypatch, g, k, korient, cap)
    assert figures["torus3x4", False, 1] == ((100_316, 125), (91_993, 92))


@pytest.mark.slow
def test_tight_sets_cost_less_on_the_whole_3x4_torus(monkeypatch):
    # The benchmark's odseq graph, all 54,481 sequences: (reference, search).
    figures = _against_chain_cuts(monkeypatch, families.torus(3, 4), 1, False)
    assert figures == ((1_161_827, 152), (1_011_235, 100))


def _against_chain_cuts(monkeypatch, g, k, korient, cap=None):
    # Asserts that the search emits the stream of the chain-cut reference
    # with no more operations in total or in any gap, and returns the
    # (total_ops, max_delay_ops) of the reference and of the search.
    meter, reference = DelayMeter(), DelayMeter()
    got = _stream(g, k, korient, meter, cap)
    with monkeypatch.context() as patched:
        patched.setattr(sequences, "_vertex_choices", ignoring_family(chain_cut_choices))
        want = _stream(g, k, korient, reference, cap)
    assert got == want, (g.edges, k, korient)
    assert meter.total_ops <= reference.total_ops, (g.edges, k, korient)
    assert meter.max_delay_ops <= reference.max_delay_ops, (g.edges, k, korient)
    return (reference.total_ops, reference.max_delay_ops), (meter.total_ops, meter.max_delay_ops)


def test_tight_sets_rule_out_only_pairs_with_k_paths(monkeypatch):
    # Every pair a chain passes without a count is separated by a member of
    # the family it started from or by a cut of its own, every such member
    # is left by exactly k arcs where the chain passes the pair, and on
    # graphs within the oracle's limit the pair has exactly k paths.  The
    # stream is the search's own.  On the 3x4 torus, the first 1,000
    # sequences, without the oracle.
    runs = [(g, k, True, None) for _, g in families.random_family(40, seed=19) for k in (1, 2)]
    runs += [(families.torus(3, 3), k, True, None) for k in (1, 2)] + [(families.torus(3, 4), 1, False, 1_000)]
    probe = TightSetProbe()
    for g, k, oracle, cap in runs:
        want = _stream(g, k, False, DelayMeter(), cap)
        probe.oracle = oracle
        with monkeypatch.context() as patched:
            patched.setattr(sequences, "_vertex_choices", probe.choices)
            patched.setattr(sequences, "_count_paths", probe.count)
            assert _stream(g, k, False, DelayMeter(), cap) == want
    assert probe.ruled_out > 3_000, probe.ruled_out


def test_tight_sets_grow_with_the_graph_not_the_solutions():
    # On the 3x4 torus at k = 1, the peak of traced memory while the second
    # 1,000 sequences arrive exceeds the peak while the first 1,000 do by
    # less than n * n more sets would take: whatever a subtree adds to the
    # family is cut back when it returns.  The peak still moves a little
    # with the states a window visits, as the chain-cut search's does.  No
    # warm-up run comes first: a leaf's outdegree tuple is allocated at its
    # size, so no resized tuple piles up in the interpreter's free lists,
    # whose memory tracemalloc would count as held.
    g, peaks = families.torus(3, 4), []

    def sink(s, w):
        sink.count += 1
        if sink.count % 1_000 == 0:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            if len(peaks) == 2:
                raise _Enough

    sink.count = 0
    tracemalloc.start()
    try:
        with pytest.raises(_Enough):
            enumerate_outdegree_sequences(g, 1, None, sink)
    finally:
        tracemalloc.stop()
    room = g.n * g.n * sys.getsizeof(1 << g.n)
    assert peaks[1] <= peaks[0] + room, peaks


def _stream(g, k, korient, meter, cap=None):
    # The stream of either enumerator from no seed, each orientation or each
    # sequence with its witness serialized, stopped once ``cap`` solutions
    # have arrived (never when cap is None).
    got = []

    def add(solution):
        got.append(solution)
        if len(got) == cap:
            raise _Enough

    try:
        if korient:
            enumerate_k_connected(g, k, lambda d: add(d.serialize()), meter=meter)
        else:
            enumerate_outdegree_sequences(g, k, None, lambda s, w: add((s, w.serialize())), meter=meter)
    except _Enough:
        pass
    return got


def _torus_figures_against(reference):
    # Asserts that the search emits the stream of ``reference(g, k, meter)``
    # byte for byte, with no more operations in total or in any gap, on the
    # random family and the 3x3 torus for k = 1, 2.  Returns the
    # (total_ops, max_delay_ops) of the reference and of the search on the
    # torus for k=1.  The sinks keep no witness, so no leaf pays for a copy.
    torus = families.torus(3, 3)
    figures = {}
    for g in [g for _, g in families.random_family(40, seed=19)] + [torus]:
        for k in (1, 2):
            reference_meter, meter, got = DelayMeter(), DelayMeter(), []
            want = reference(g, k, reference_meter)
            enumerate_outdegree_sequences(g, k, None, lambda s, w: got.append((s, w.serialize())), meter=meter)
            assert got == want
            assert meter.total_ops <= reference_meter.total_ops
            assert meter.max_delay_ops <= reference_meter.max_delay_ops
            figures[g, k] = (
                (reference_meter.total_ops, reference_meter.max_delay_ops),
                (meter.total_ops, meter.max_delay_ops),
            )
    return figures[torus, 1]


def _chain(choices):
    # A reference chain on ``scanned_sequences``: it counts paths with the
    # unbounded count and its finder checks k = 1 by pairwise counts, so
    # its figures are those of the older chain with the meeting searches of
    # today's counts, counts that stop where the outdegrees decide them, and
    # a finder that charges only the edges it flips.
    return lambda g, k, meter: scanned_sequences(g, k, meter, choices)


def test_cut_reuse_never_costs_more_than_the_plain_scan():
    # The plain scan's figures on the torus are the ones the search had
    # before failed λ tests kept their cuts, with every search of a count
    # meeting in the middle as it does now.
    plain, reused = _torus_figures_against(_chain(plain_scan_choices))
    assert plain == (137_136, 375)
    assert reused[0] < plain[0] and reused[1] < plain[1]


def test_one_count_per_candidate_never_costs_more_than_retesting():
    # The re-testing chain's figures on the torus are the ones the search
    # had before one count per candidate replaced the re-tests, with every
    # search of a count meeting in the middle as it does now.
    retested, counted = _torus_figures_against(_chain(retesting_choices))
    assert retested == (110_859, 134)
    assert counted[0] < retested[0] and counted[1] < retested[1]


def test_tight_sets_never_cost_more_than_fresh_counts():
    # The fresh-count chain's figures on the torus are the ones the search
    # had before tight sets outlived their chain, with every search of a
    # count meeting in the middle as it does now; the search without them
    # must still cost less.
    fresh, kept = _torus_figures_against(_chain(fresh_count_choices))
    assert fresh == (86_258, 119)
    assert kept[0] < fresh[0] and kept[1] < fresh[1]


def test_degree_certificates_never_cost_more_than_counting(monkeypatch):
    # The search itself, with every degree bound of k or less read as k+1,
    # decides no pair by its outdegrees: each count such a pair gets runs
    # its searches, finds its k paths and fails once more.  Its torus
    # figures are pinned.
    real_bound = paths._degree_bound

    def counting(g, k, meter):
        want = []
        with monkeypatch.context() as patched:
            patched.setattr(paths, "_degree_bound", lambda d, src, dst: max(real_bound(d, src, dst), k + 1))
            enumerate_outdegree_sequences(g, k, None, lambda s, w: want.append((s, w.serialize())), meter=meter)
        return want

    counted, skipped = _torus_figures_against(counting)
    assert counted == (45_261, 73)
    assert skipped[0] < counted[0] and skipped[1] < counted[1]


def test_degree_stops_and_sweeps_never_cost_more_than_counting_to_the_limit(monkeypatch):
    # The search itself with the unbounded count and the finder's pairwise
    # k = 1 check has the torus figures the search would have if its counts
    # did not stop at min(out(src), in(dst)) and the check did not sweep
    # once each way.  A pair that its outdegrees decide is still decided.
    def stopless(d, src, dst, limit, meter=None, spare=None):
        count = _count_paths if paths._degree_bound(d, src, dst) <= spare else unbounded_count_paths
        return count(d, src, dst, limit, meter, spare)

    def unbounded(g, k, meter):
        want = []
        with monkeypatch.context() as patched:
            patched.setattr(sequences, "_count_paths", stopless)
            patched.setattr(kconn, "is_k_connected", pairwise_is_k_connected)
            enumerate_outdegree_sequences(g, k, None, lambda s, w: want.append((s, w.serialize())), meter=meter)
        return want

    counted, stopped = _torus_figures_against(unbounded)
    assert counted == (58_098, 81)
    assert stopped[0] < counted[0] and stopped[1] < counted[1]


class _Enough(Exception):
    pass


def _first_sequences(graph, k, count, meter):
    # The first ``count`` sequences of the unseeded search; the sink stops
    # the run when the last of them arrives.
    got = []

    def sink(s, w):
        got.append((s, w.serialize()))
        if len(got) == count:
            raise _Enough

    with pytest.raises(_Enough):
        enumerate_outdegree_sequences(graph, k, None, sink, meter=meter)
    return got


def test_meeting_searches_cost_less_than_forward_ones_at_scale(monkeypatch):
    # On the 8x8 torus at k = 1, every search of a count meets in the
    # middle.  With every search forward, the figures are those of the
    # search before any did.  The paths kept reversed differ, so the
    # witnesses may too, but the sequences are the same, and here the BFS
    # runs are no more.
    torus = families.torus(8, 8)
    meter, forward = DelayMeter(), DelayMeter()
    got = _first_sequences(torus, 1, 1_500, meter)
    with monkeypatch.context() as patched:
        patched.setattr(sequences, "_count_paths", forward_count_paths)
        want = _first_sequences(torus, 1, 1_500, forward)
    assert [s for s, _ in got] == [s for s, _ in want] and meter.bfs_runs <= forward.bfs_runs
    assert (forward.total_ops, forward.max_delay_ops) == (220_984, 494)
    assert (meter.total_ops, meter.max_delay_ops) == (126_442, 314)
    assert meter.total_ops < forward.total_ops and meter.max_delay_ops < forward.max_delay_ops


def test_target_side_cuts_and_narrower_ends_never_cost_more(monkeypatch):
    # With the older meeting search, which grows the smaller layer first
    # and always hands back the forward closure, the search emits the same
    # stream of sequences and of orientations, and never costs more in
    # total on this family.  A target side's cut lets a raising chain rule
    # out at least as much and a lowering chain less; the arcs a search
    # saves by stopping there outweigh the counts it adds.
    listings = [
        lambda g, k, sink, meter: enumerate_outdegree_sequences(g, k, None, lambda s, w: sink(w), meter=meter),
        lambda g, k, sink, meter: enumerate_k_connected(g, k, sink, meter=meter),
    ]
    runs = cheaper = 0
    for _, g in families.random_family(60, seed=19):
        for k in (1, 2):
            for listing in listings:
                meter, reference, got, want = DelayMeter(), DelayMeter(), [], []
                listing(g, k, lambda w: got.append(w.serialize()), meter)
                with monkeypatch.context() as patched:
                    patched.setattr(sequences, "_count_paths", closure_count_paths)
                    listing(g, k, lambda w: want.append(w.serialize()), reference)
                assert got == want and meter.total_ops <= reference.total_ops
                runs += bool(got)
                cheaper += meter.total_ops < reference.total_ops
    assert runs > 100 and cheaper > 20, (runs, cheaper)


def test_degree_certificates_skip_only_pairs_with_k_paths(monkeypatch):
    # Every pair whose outdegrees bound its count by k or less has exactly k
    # arc-disjoint paths, by an unbounded, unmetered count that leaves the
    # orientation as it was, so the count it decides reverses nothing; the
    # stream is the search's own.
    real_bound, decided = paths._degree_bound, []

    def checked_bound(d, src, dst):
        bound = real_bound(d, src, dst)
        if bound <= k:
            before = d.copy()
            found, _ = unbounded_count_paths(d, src, dst, d.graph.degree(src) + 1)
            assert len(found) == k, f"decided {src} to {dst}, which has {len(found)} paths"
            assert d == before
            decided.append((src, dst))
        return bound

    graphs = [g for _, g in families.random_family(40, seed=19)] + [families.torus(3, 3)]
    for g in graphs:
        for k in (1, 2):
            seed = find_k_connected_orientation(g, k)
            if seed is None:
                continue
            want = collect(g, k, seed=seed)
            with monkeypatch.context() as patched:
                patched.setattr(paths, "_degree_bound", checked_bound)
                got = collect(g, k, seed=seed)
            assert [(s, w.serialize()) for s, w in got] == [(s, w.serialize()) for s, w in want]
    assert len(decided) > 100
