"""k >= 2 counts past the oracle, checked against Frank's orientation theorem.

Frank (1980): an integer vector x is the outdegree vector of a
k-arc-connected orientation iff x(V) = m and x(X) - i(X) >= k for every
nonempty proper vertex subset X, where i(X) counts the edges inside X.
``frank_vectors`` lists those vectors by that test alone (its cost grows
with 2^n, not 2^m), and ``class_size`` counts the orientations with a given
outdegree vector by a dynamic program over the edges.  Neither shares code
with the enumerators, so past the oracle's 25-edge limit the odseq set must
equal the Frank set and the korient count the sum of the class sizes.
"""
from collections import Counter
from math import comb

import pytest

import families
from orientations import Multigraph, enumerate_k_connected, enumerate_outdegree_sequences
from orientations.oracle import _full_scan, oracle_sequences


def inside_counts(graph) -> list[int]:
    """i(X) for every vertex subset X, indexed by the bitmask of X."""
    ends = [[] for _ in range(graph.n)]
    for u, v in graph.edges:
        ends[u].append(v)
        ends[v].append(u)
    inside = [0] * (1 << graph.n)
    for subset in range(1, 1 << graph.n):
        low = subset & -subset
        rest = subset ^ low
        inside[subset] = inside[rest] + sum(rest >> w & 1 for w in ends[low.bit_length() - 1])
    return inside


def frank_condition(graph, x, k: int, inside: list[int]) -> bool:
    """Frank's test, over every nonempty proper subset."""
    if sum(x) != graph.m:
        return False
    full = (1 << graph.n) - 1
    total = [0] * (full + 1)
    for subset in range(1, full):
        low = subset & -subset
        total[subset] = total[subset ^ low] + x[low.bit_length() - 1]
        if total[subset] - inside[subset] < k:
            return False
    return True


def frank_vectors(graph, k: int) -> set[tuple[int, ...]]:
    """Every vector that passes Frank's test, set vertex by vertex.

    A partial vector on vertices 0..j-1 is dropped as soon as one of their
    subsets X fails the test, or its complement would (x(V - X) = m - x(X)
    once the vector is complete): no completion changes x(X).  Each complete
    vector then takes the full test.
    """
    n, m = graph.n, graph.m
    full = (1 << n) - 1
    inside = inside_counts(graph)
    degree = [graph.degree(v) for v in range(n)]
    found = set()

    def extend(x: list[int], sums: list[int]) -> None:
        # sums[X] = x(X) for every subset X of the vertices set so far.
        j = len(x)
        if j == n:
            if frank_condition(graph, x, k, inside):
                found.add(tuple(x))
            return
        for value in range(k, degree[j] - k + 1):
            more = [s + value for s in sums]
            if all(
                subset == full or k + inside[subset] <= s <= m - k - inside[full ^ subset]
                for subset, s in enumerate(more, start=1 << j)
            ):
                extend(x + [value], sums + more)

    extend([], [0])
    return found


def class_size(graph, x) -> int:
    """The number of orientations with outdegree vector x (no isolated vertices).

    Takes the edges in order, keeping the outdegree so far of each vertex
    with edges on both sides of the current one; a vertex is checked and
    dropped from the state at its last edge.
    """
    last = [-1] * graph.n
    for e, (u, v) in enumerate(graph.edges):
        last[u] = last[v] = e
    states = Counter({(0,) * graph.n: 1})
    for e, (u, v) in enumerate(graph.edges):
        after = Counter()
        for state, ways in states.items():
            for tail in (u, v):
                out = list(state)
                out[tail] += 1
                if all(out[w] == x[w] for w in (u, v) if last[w] == e) and out[tail] <= x[tail]:
                    for w in (u, v):
                        if last[w] == e:
                            out[w] = 0
                    after[tuple(out)] += ways
        states = after
    return sum(states.values())


def odseq_set(graph, k: int) -> set[tuple[int, ...]]:
    found = []
    enumerate_outdegree_sequences(graph, k, None, lambda s, w: found.append(s))
    assert len(found) == len(set(found))
    return set(found)


def test_frank_pieces_match_the_oracle():
    graphs = [g for _, g in families.named_graphs() + families.random_family(20, seed=13)]
    for g in graphs:
        classes = Counter(out for _, out, _ in _full_scan(g))
        for x, size in classes.items():
            assert class_size(g, x) == size, (g.edges, x)
        for k in (1, 2, 3):
            assert frank_vectors(g, k) == oracle_sequences(g, k), (g.edges, k)


def test_doubled_ladder_l6_sequences_match_frank():
    g = families.folded(families.ladder(6), 2)
    assert (g.n, g.m) == (12, 32)
    want = frank_vectors(g, 2)
    assert odseq_set(g, 2) == want and len(want) == 81
    # The edge connectivity is 4, so no orientation is 3-arc-connected.
    assert odseq_set(g, 3) == frank_vectors(g, 3) == set()


def test_doubled_ladder_l5_sequences_match_frank():
    g = families.folded(families.ladder(5), 2)
    assert (g.n, g.m) == (10, 26)
    want = frank_vectors(g, 2)
    assert odseq_set(g, 2) == want and len(want) == 27


@pytest.mark.slow
def test_doubled_ladder_l5_count_is_the_sum_of_the_class_sizes():
    g = families.folded(families.ladder(5), 2)
    total = sum(class_size(g, x) for x in frank_vectors(g, 2))
    assert enumerate_k_connected(g, 2, lambda d: None) == total == 153_722


def test_tripled_cycle_has_one_class_of_the_closed_form_size():
    # The c-fold n-cycle with k = c has the one class (c, ..., c): each of
    # the n bundles sends some a of its c edges forward, and every vertex
    # keeps outdegree c exactly when all bundles pick the same a.
    c, n = 3, 9
    g = families.folded(Multigraph(n, [(i, (i + 1) % n) for i in range(n)]), c)
    assert g.m == 27
    closed_form = sum(comb(c, a) ** n for a in range(c + 1))
    assert odseq_set(g, c) == frank_vectors(g, c) == {(c,) * n}
    assert class_size(g, (c,) * n) == closed_form == 39_368
    assert enumerate_k_connected(g, c, lambda d: None) == closed_form
