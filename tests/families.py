"""Graph families shared by the test suite.

The acceptance family has three parts: every connected labeled multigraph
up to a small size (exhaustive), a handful of named graphs that hit the
interesting corners (parallel edges, density, k=2 and k=3 feasibility),
and 200 seeded random connected multigraphs with n <= 5 and m <= 9.
"""
from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement

from orientations import Multigraph, parse_graph

RANDOM_FAMILY_SEED = 20240813
RANDOM_FAMILY_SIZE = 200


def build(text: str) -> Multigraph:
    return parse_graph(text)


def named_graphs() -> list[tuple[str, Multigraph]]:
    graphs = [
        ("single-edge", "2 1\n0 1"),
        ("double-edge", "2 2\n0 1\n0 1"),
        ("triple-edge", "2 3\n0 1\n0 1\n0 1"),
        ("quad-edge", "2 4\n0 1\n0 1\n0 1\n0 1"),
        ("six-edge", "2 6\n0 1\n0 1\n0 1\n0 1\n0 1\n0 1"),
        ("path3", "3 2\n0 1\n1 2"),
        ("triangle", "3 3\n0 1\n1 2\n2 0"),
        ("star4", "4 3\n0 1\n0 2\n0 3"),
        ("doubled-triangle", "3 6\n0 1\n0 1\n1 2\n1 2\n2 0\n2 0"),
        ("tripled-triangle", "3 9\n0 1\n0 1\n0 1\n1 2\n1 2\n1 2\n2 0\n2 0\n2 0"),
        ("cycle4", "4 4\n0 1\n1 2\n2 3\n3 0"),
        ("cycle5", "5 5\n0 1\n1 2\n2 3\n3 4\n4 0"),
        ("theta", "4 5\n0 1\n0 2\n2 1\n0 3\n3 1"),
        ("diamond", "4 5\n0 1\n0 2\n1 2\n1 3\n2 3"),
        ("k4", "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3"),
        ("k4-parallel", "4 7\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n0 1"),
        ("doubled-cycle4", "4 8\n0 1\n0 1\n1 2\n1 2\n2 3\n2 3\n3 0\n3 0"),
        ("bowtie", "5 6\n0 1\n1 2\n2 0\n0 3\n3 4\n4 0"),
        ("wheel4", "5 8\n0 1\n0 2\n0 3\n0 4\n1 2\n2 3\n3 4\n4 1"),
        ("triangle-pendant", "4 4\n0 1\n1 2\n2 0\n2 3"),
    ]
    return [(name, build(text)) for name, text in graphs]


def _is_connected(n: int, edges: tuple[tuple[int, int], ...]) -> bool:
    if n <= 1:
        return True
    seen = {0}
    frontier = [0]
    adjacency: dict[int, list[int]] = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    while frontier:
        x = frontier.pop()
        for w in adjacency.get(x, ()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n


def exhaustive_small() -> list[tuple[str, Multigraph]]:
    """Every connected labeled multigraph with n <= 4 and m <= 5."""
    out = []
    for n in (2, 3, 4):
        pairs = list(combinations(range(n), 2))
        for m in range(n - 1, 6):
            for edges in combinations_with_replacement(pairs, m):
                if _is_connected(n, edges):
                    out.append((f"exh-n{n}-m{m}-{len(out)}", Multigraph(n, edges)))
    return out


def random_family(
    count: int = RANDOM_FAMILY_SIZE, seed: int = RANDOM_FAMILY_SEED
) -> list[tuple[str, Multigraph]]:
    """Seeded random connected multigraphs with n <= 5 and m <= 9."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(2, 5)
        m = rng.randint(n - 1, 9)
        edges = [(rng.randrange(v), v) for v in range(1, n)]  # random spanning tree
        while len(edges) < m:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v:
                edges.append((u, v))
        out.append((f"rnd-{i}-n{n}-m{m}", Multigraph(n, edges)))
    return out


def torus(rows: int, cols: int) -> Multigraph:
    """rows x cols grid with wrap-around (4-regular for rows, cols >= 3)."""
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            edges.append((v, i * cols + (j + 1) % cols))
            edges.append((v, ((i + 1) % rows) * cols + j))
    return Multigraph(rows * cols, edges)


def ladder(rungs: int) -> Multigraph:
    """The ladder L_rungs: rung i joins vertices 2i and 2i+1, and the rails
    join consecutive rungs (2 * rungs vertices, 3 * rungs - 2 edges)."""
    edges = [(2 * i, 2 * i + 1) for i in range(rungs)]
    edges += [(2 * i + side, 2 * i + 2 + side) for i in range(rungs - 1) for side in (0, 1)]
    return Multigraph(2 * rungs, edges)


def doubled_cycle(n: int) -> Multigraph:
    """The n-cycle with every edge doubled (n vertices, 2n edges)."""
    return Multigraph(n, [(i, (i + 1) % n) for i in range(n) for _ in range(2)])


def folded(graph: Multigraph, copies: int) -> Multigraph:
    """``graph`` with every edge repeated ``copies`` times in a row."""
    return Multigraph(graph.n, [e for e in graph.edges for _ in range(copies)])


def cycle_with_chords(n: int, chords: int, seed: int) -> Multigraph:
    """The n-cycle plus ``chords`` seeded random chords (n vertices, n + chords edges)."""
    rng = random.Random(seed)
    edges = [(i, (i + 1) % n) for i in range(n)]
    while len(edges) < n + chords:
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return Multigraph(n, edges)


def acceptance_family() -> list[tuple[str, Multigraph]]:
    return exhaustive_small() + named_graphs() + random_family()


def doubled_wheel4() -> Multigraph:
    """Stand-in graph for the strong versus 2-arc-connected counting experiment:
    a 4-spoke wheel with every edge doubled (n=5, m=16)."""
    base = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)]
    return Multigraph(5, [e for pair in zip(base, base) for e in pair])
