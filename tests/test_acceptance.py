"""Acceptance suite: oracle equivalence plus instrumented delay bounds.

One test per criterion; each prints a single PASS line with the headline
numbers (run pytest with ``-s`` to see them).  The graph family is the
exhaustive small multigraphs, the named corner cases, and 200 seeded random
multigraphs with n <= 5 and m <= 9 (see families.py).
"""
import math
import random
import time

import pytest

import families
from oracles import (
    enumerate_k_connected_backtrack,
    oracle_k_connected,
    oracle_lambda,
    oracle_sequences,
    _full_scan,
)
from orientations import (
    DelayMeter,
    Multigraph,
    Orientation,
    edge_connectivity,
    enumerate_alpha,
    enumerate_k_connected,
    enumerate_outdegree_sequences,
    find_k_connected_orientation,
    graph_to_text,
    lambda_at_least,
)
from orientations.oracle import brute_is_k_connected
from orientations.paths import _meeting_path
from witnesses import class_size_lower_bound_check, reverse_path


def report(num, text):
    print(f"\n[criterion {num}] PASS: {text}")


def achievable_alphas(graph):
    return {out for _, out, _ in _full_scan(graph)}


def test_criterion_1_alpha_oracle_equivalence(family):
    started = time.time()
    classes_checked = 0
    for name, graph in family:
        by_alpha = {}
        for text, out, _ in _full_scan(graph):
            by_alpha.setdefault(out, set()).add(text)
        for alpha, want in by_alpha.items():
            got = []
            count = enumerate_alpha(graph, alpha, lambda d: got.append(d.serialize()))
            assert count == len(got) == len(set(got)), (name, alpha)
            assert set(got) == want, (name, alpha)
            classes_checked += 1
        infeasible = tuple([graph.m + 1] + [0] * (graph.n - 1))
        assert enumerate_alpha(graph, infeasible, lambda d: None) == 0
    elapsed = time.time() - started
    assert elapsed < 120.0
    report(1, f"{classes_checked} alpha classes over {len(family)} graphs in {elapsed:.1f}s")


def test_criterion_2_k_connected_oracle_equivalence(family):
    pairs = 0
    for name, graph in family:
        for k in (1, 2):
            want = oracle_k_connected(graph, k)
            got = []
            count = enumerate_k_connected(graph, k, lambda d: got.append(d.serialize()))
            assert count == len(got) == len(set(got)), (name, k)
            assert set(got) == want, (name, k)

            want_seqs = oracle_sequences(graph, k)
            seed = find_k_connected_orientation(graph, k)
            if seed is None:
                assert not want_seqs, (name, k)
            else:
                seqs = []
                enumerate_outdegree_sequences(graph, k, seed, lambda s, w: seqs.append(s))
                assert len(seqs) == len(set(seqs)), (name, k)
                assert set(seqs) == want_seqs, (name, k)
            pairs += 1

    k4 = families.build("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3")
    assert enumerate_k_connected(k4, 1, lambda d: None) == 24
    c4 = families.build("4 4\n0 1\n1 2\n2 3\n3 0")
    assert enumerate_k_connected(c4, 1, lambda d: None) == 2
    report(2, f"orientations and sequences match the oracle on {pairs} (graph, k) pairs")


def test_criterion_3_menger_agreement(family):
    rng = random.Random(99173)
    candidates = [graph for _, graph in family if graph.n >= 2]
    triples = 0
    while triples < 10_000:
        graph = candidates[rng.randrange(len(candidates))]
        d = Orientation(graph, [rng.randint(0, 1) for _ in range(graph.m)])
        u = rng.randrange(graph.n)
        v = rng.randrange(graph.n)
        if u == v:
            continue
        lam = 0
        current = d
        while True:
            path = _meeting_path(current, u, (v,), graph._row_mask, 0, None)[0]
            if path is None:
                break
            current = reverse_path(current, path, u)
            lam += 1
        assert lam == oracle_lambda(d, u, v), (graph.edges, d.serialize(), u, v)
        triples += 1
    report(3, f"{triples} (D, u, v) triples: path-reversal count == subset min-cut")


def test_criterion_4_path_flipping_law(family):
    rng = random.Random(55511)
    candidates = [graph for _, graph in family if graph.n >= 2 and graph.m >= 1]
    reversals = 0
    while reversals < 1_000:
        graph = candidates[rng.randrange(len(candidates))]
        d = Orientation(graph, [rng.randint(0, 1) for _ in range(graph.m)])
        u = rng.randrange(graph.n)
        v = rng.randrange(graph.n)
        if u == v:
            continue
        path = _meeting_path(d, u, (v,), graph._row_mask, 0, None)[0]
        if path is None:
            continue
        before = {
            (a, b): oracle_lambda(d, a, b)
            for a in range(graph.n)
            for b in range(graph.n)
            if a != b
        }
        reversed_d = reverse_path(d, path, u)
        for (a, b), old in before.items():
            new = oracle_lambda(reversed_d, a, b)
            if (a, b) == (u, v):
                assert new == old - 1, (graph.edges, u, v)
            assert new >= min(before[(u, v)] - 1, old), (graph.edges, u, v, a, b)
        reversals += 1
    report(4, f"{reversals} reversals: exact decrement at (u, v), lower bound at all pairs")


def test_criterion_5_degree_difference_witnesses(family):
    # The witness predicate for a pair (D, D') depends only on the two
    # outdegree vectors: cut outdegrees are invariant under cycle reversal,
    # so arc-disjoint path counts agree across a class.  Checking one
    # representative per class therefore covers every orientation pair;
    # graphs with m <= 6 are additionally checked pair by pair.
    class_pairs = 0
    direct_pairs = 0
    for name, graph in family:
        scan = _full_scan(graph)
        for k in (1, 2):
            reps = {}
            for text, out, mincut in scan:
                if mincut >= k and out not in reps:
                    reps[out] = text
            if len(reps) < 2:
                continue
            flippable = {}
            for out, text in reps.items():
                d = Orientation.deserialize(graph, text)
                flippable[out] = {
                    (u, v): lambda_at_least(d, u, v, k + 1)
                    for u in range(graph.n)
                    for v in range(graph.n)
                    if u != v
                }
            for out_a in reps:
                table = flippable[out_a]
                for out_b in reps:
                    if out_a == out_b:
                        continue
                    for v in range(graph.n):
                        if out_a[v] < out_b[v]:
                            assert any(
                                out_a[u] > out_b[u] and table[(u, v)]
                                for u in range(graph.n)
                                if u != v
                            ), (name, k, out_a, out_b, v)
                        elif out_a[v] > out_b[v]:
                            assert any(
                                out_a[u] < out_b[u] and table[(v, u)]
                                for u in range(graph.n)
                                if u != v
                            ), (name, k, out_a, out_b, v)
                    class_pairs += 1

            if graph.m <= 6:
                members = [
                    Orientation.deserialize(graph, text)
                    for text, _, mincut in scan
                    if mincut >= k
                ]
                for d in members:
                    out_d = d.outdegrees()
                    for d2 in members:
                        out_d2 = d2.outdegrees()
                        if out_d == out_d2:
                            continue
                        for v in range(graph.n):
                            if out_d[v] < out_d2[v]:
                                assert any(
                                    out_d[u] > out_d2[u] and lambda_at_least(d, u, v, k + 1)
                                    for u in range(graph.n)
                                    if u != v
                                ), (name, k, v)
                        direct_pairs += 1
    report(5, f"{class_pairs} class pairs plus {direct_pairs} direct orientation pairs")


def test_criterion_6_class_size_lower_bound(family):
    classes = 0
    for name, graph in family:
        for k in (1, 2):
            for seq in oracle_sequences(graph, k):
                assert class_size_lower_bound_check(graph, seq, k), (name, k, seq)
                classes += 1
    report(6, f"{classes} k-connected classes meet the (k-1)n+2 size floor")


def test_criterion_7_nash_williams(family):
    checked = 0
    for name, graph in family:
        if graph.n < 2:
            continue
        ec = edge_connectivity(graph)
        for k in (1, 2, 3):
            witness = find_k_connected_orientation(graph, k)
            assert (witness is not None) == (ec >= 2 * k), (name, k, ec)
            if witness is not None:
                assert brute_is_k_connected(witness, k), (name, k)
            checked += 1
    report(7, f"orientation found iff edge connectivity >= 2k on {checked} (graph, k) cases")


def test_criterion_8_delay_bounds(family):
    # 8a: BFS runs between consecutive emissions stay within 2m for the
    # prescribed-outdegree enumeration, on every graph and every class.
    # The family is joined by graphs where the finder moves all m units
    # before the first solution: s parallel edges (0, k + 1) and k spokes
    # (k + 2, i), i = 1..k, at the vector of every edge reversed.  A finder
    # that searched toward the vertices below their targets one at a time
    # would fail on up to k of them per unit, s(k + 1) + k runs in all.
    spokes = [
        (f"spokes-{s}-{k}", Multigraph(k + 3, [(0, k + 1)] * s + [(k + 2, i) for i in range(1, k + 1)]))
        for s, k in ((3, 3), (4, 4), (2, 5))
    ]
    worst_bfs_ratio = 0.0
    for name, graph in list(family) + spokes:
        if graph.m == 0:
            continue
        for alpha in achievable_alphas(graph):
            meter = DelayMeter()
            enumerate_alpha(graph, alpha, lambda d: None, meter=meter)
            peak = meter.max_delay_bfs
            assert peak <= 2 * graph.m, (name, alpha, peak)
            worst_bfs_ratio = max(worst_bfs_ratio, peak / (2 * graph.m))

    # 8b: amortized primitive operations per solution for k=2, against
    # c * m^2 with c = ceil(2 * ratio) calibrated on the smallest feasible
    # instance (smallest by (m, n, text)) and then fixed for the family.
    runs = []
    for name, graph in family:
        meter = DelayMeter()
        count = enumerate_k_connected(graph, 2, lambda d: None, meter=meter)
        if count == 0:
            continue
        amortized = meter.total_ops / count
        runs.append((graph.m, graph.n, graph_to_text(graph), name, amortized))
    assert runs, "family contains no k=2 feasible graph"
    runs.sort()
    m0, _, _, smallest_name, amortized0 = runs[0]
    constant = math.ceil(2 * amortized0 / (m0 * m0))
    worst = max(amortized / (m * m) for m, _, _, _, amortized in runs)
    for m, _, _, name, amortized in runs:
        assert amortized <= constant * m * m, (name, amortized, constant)

    # k=1 amortized ratio is reported, not asserted.
    k1_worst = 0.0
    for name, graph in family:
        meter = DelayMeter()
        count = enumerate_k_connected(graph, 1, lambda d: None, meter=meter)
        if count:
            k1_worst = max(k1_worst, meter.total_ops / count / (graph.m * graph.m))
    report(
        8,
        f"alpha BFS/gap <= 2m (worst {worst_bfs_ratio:.2f} of bound); "
        f"k=2 amortized <= {constant}*m^2 from {smallest_name!r} "
        f"(worst ratio {worst:.2f}, {len(runs)} feasible graphs); "
        f"k=1 amortized ratio {k1_worst:.2f} (reported only)",
    )


def test_criterion_9_backtrack_cross_check(family):
    checked = 0
    for name, graph in family:
        for k in (1, 2):
            got = []
            count = enumerate_k_connected_backtrack(graph, k, lambda d: got.append(d.serialize()))
            assert count == len(got) == len(set(got)), (name, k)
            fast = []
            enumerate_k_connected(graph, k, lambda d: fast.append(d.serialize()))
            assert set(got) == set(fast), (name, k)
            checked += 1
    report(9, f"extension-oracle backtracking matches the pipeline on {checked} cases")


# The counting experiment is on a documented stand-in (the original figure's
# graph is not machine readable): 4-spoke wheel, every edge doubled.  Counts
# were derived by the brute-force oracle once and are frozen here as
# regression values; the slow tier derives them again.
STANDIN_COUNTS = {1: 56686, 2: 25198}


def test_standin_counting_experiment():
    wheel = families.doubled_wheel4()
    assert (wheel.n, wheel.m) == (5, 16)
    for k, want in STANDIN_COUNTS.items():
        assert enumerate_k_connected(wheel, k, lambda d: None) == want
    report(
        "stand-in",
        f"doubled wheel: {STANDIN_COUNTS[1]} strong orientations, {STANDIN_COUNTS[2]} 2-arc-connected",
    )


@pytest.mark.slow
def test_standin_counts_match_the_oracle():
    # The 2^16-orientation oracle scan behind the frozen counts.
    wheel = families.doubled_wheel4()
    assert {k: len(oracle_k_connected(wheel, k)) for k in STANDIN_COUNTS} == STANDIN_COUNTS
