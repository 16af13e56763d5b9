"""Counts past the oracle's reach, checked against the Tutte polynomial.

``tutte`` evaluates T(x, y) by memoised deletion-contraction and shares no
code with the enumerators.  On a connected graph T(0,2) counts the strongly
connected orientations, T(0,1) their outdegree sequences, T(2,1) the
outdegree sequences of all orientations and T(2,2) the orientations.  The
first test checks the evaluation against the brute-force oracle.  The rest
run on graphs of 26 to 37 edges, past the oracle's 25-edge limit: the
ladders' k=1 counts are checked against T, and for k=2, where no Tutte
identity applies, the two modes are checked against each other.  T(2,1) is
checked at oracle sizes only: on the ladder L10 it is 144,568,064, too many
classes to enumerate.
"""
from collections import Counter, defaultdict

import families
from orientations import (
    enumerate_k_connected,
    enumerate_outdegree_sequences,
    is_k_connected,
)
from orientations.oracle import _full_scan, oracle_k_connected, oracle_sequences


def tutte(edges, x: int, y: int) -> int:
    """T(x, y) of the multigraph with these edges: a bridge contributes a
    factor x and a loop a factor y."""
    memo: dict[tuple, int] = {}

    def canon(es) -> tuple[int, tuple]:
        # The loops, which factor out, and the other edges in a fixed order.
        loops = sum(1 for u, v in es if u == v)
        return loops, tuple(sorted((min(u, v), max(u, v)) for u, v in es if u != v))

    def joined(es, u, v) -> bool:
        adjacency = defaultdict(list)
        for a, b in es:
            adjacency[a].append(b)
            adjacency[b].append(a)
        seen, stack = {u}, [u]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return v in seen

    def t(es) -> int:
        if not es:
            return 1
        if es not in memo:
            (u, v), rest = es[0], es[1:]
            loops, merged = canon([(u if a == v else a, u if b == v else b) for a, b in rest])
            contracted = y**loops * t(merged)
            memo[es] = t(rest) + contracted if joined(rest, u, v) else x * contracted
        return memo[es]

    loops, es = canon(edges)
    return y**loops * t(es)


def test_tutte_matches_the_oracle():
    graphs = [g for _, g in families.named_graphs() + families.random_family(20, seed=5)]
    graphs += [families.ladder(3), families.ladder(4), families.doubled_cycle(5), families.doubled_cycle(6)]
    for g in graphs:
        assert g.m <= 12
        scan = _full_scan(g)
        assert tutte(g.edges, 0, 2) == len(oracle_k_connected(g, 1)), g.edges
        assert tutte(g.edges, 0, 1) == len(oracle_sequences(g, 1)), g.edges
        assert tutte(g.edges, 2, 1) == len({out for _, out, _ in scan}), g.edges
        assert tutte(g.edges, 2, 2) == len(scan) == 2**g.m, g.edges


def count_k_connected(g, k):
    return enumerate_k_connected(g, k, lambda d: None)


def count_sequences(g, k):
    return enumerate_outdegree_sequences(g, k, None, lambda s, w: None)


def test_ladder_l10_counts_match_tutte():
    g = families.ladder(10)
    assert (g.n, g.m) == (20, 28)
    assert count_k_connected(g, 1) == tutte(g.edges, 0, 2) == 13_122
    assert count_sequences(g, 1) == tutte(g.edges, 0, 1) == 256


def test_ladder_l13_sequences_match_tutte():
    g = families.ladder(13)
    assert (g.n, g.m) == (26, 37)
    assert count_sequences(g, 1) == tutte(g.edges, 0, 1) == 2_048


def test_doubled_cycle_k2_modes_agree():
    # The orientations korient lists fall into exactly the classes odseq
    # lists, each class has at least (k-1)n+2 members, and a sample of the
    # orientations is k-connected.
    g, k = families.doubled_cycle(13), 2
    sequences, emitted = [], []
    enumerate_outdegree_sequences(g, k, None, lambda s, w: sequences.append(s))
    enumerate_k_connected(g, k, emitted.append)
    classes = Counter(d.outdegrees() for d in emitted)
    assert sorted(classes) == sorted(set(sequences)) == sorted(sequences)
    assert min(classes.values()) >= (k - 1) * g.n + 2
    assert (len(emitted), sequences) == (8_194, [(2,) * g.n])
    assert all(is_k_connected(d, k) for d in emitted[::512])
