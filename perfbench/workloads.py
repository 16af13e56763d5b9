"""Workloads of the orientations benchmark: inputs, frozen counts, checks.

Each workload names a fixed graph (or, for ``finder-regular``, a random
family) and the call that runs on it.  The benchmark seed never changes what
the correct answer is: for fixed graphs it relabels vertices and shuffles the
edge list, which leaves every count unchanged; for ``finder-regular`` it
draws the graphs.  The checks below share no code with the package under
test, so a wrong answer cannot agree with itself.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

Edges = list[tuple[int, int]]


# ---------------------------------------------------------------- graphs


def doubled_wheel() -> tuple[int, Edges]:
    """4-spoke wheel with every edge doubled (n=5, m=16)."""
    base = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)]
    return 5, [e for pair in zip(base, base) for e in pair]


def doubled_triangle() -> tuple[int, Edges]:
    return 3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)]


def torus(rows: int, cols: int) -> tuple[int, Edges]:
    """rows x cols grid with wrap-around (4-regular; rows, cols >= 3)."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, r * cols + (c + 1) % cols))
            edges.append((v, ((r + 1) % rows) * cols + c))
    return rows * cols, edges


def relabelled(n: int, edges: Edges, rng: random.Random) -> tuple[int, Edges]:
    """The same multigraph with vertices relabelled and the edge list shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) for u, v in edges]
    rng.shuffle(out)
    return n, out


def regular_multigraph(rng: random.Random, n: int, degree: int, min_connectivity: int) -> Edges:
    """Configuration-model ``degree``-regular loopless multigraph on ``n``
    vertices whose edge connectivity is at least ``min_connectivity``.
    Draws are repeated until one qualifies; nothing else is filtered."""
    while True:
        stubs = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = list(zip(stubs[::2], stubs[1::2]))
        if all(u != v for u, v in edges) and edge_connectivity_at_least(n, edges, min_connectivity):
            return edges


def graph_text(n: int, edges: Edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


# ------------------------------------------------------ independent checks

_SIGNS = bytes.maketrans(b"+-", b"10")
_BITS = bytes.maketrans(b"\x01\x00", b"10")


class OrientationChecker:
    """Outdegrees and k-arc-connectivity of orientations of one graph.

    An orientation is a bitmask: edge ``i`` is bit ``m-1-i``, set when the
    edge points from its first listed endpoint to its second.  The number
    of arcs leaving a vertex set X is alpha(X) - i(X), where alpha is the
    outdegree vector and i(X) counts edges inside X, so k-arc-connectivity
    depends on the outdegree vector alone and is tested by scanning every
    proper vertex subset (n <= 16).
    """

    def __init__(self, n: int, edges: Edges):
        m = len(edges)
        self.n, self.m = n, m
        self.full = (1 << m) - 1
        self.first = [0] * n
        self.second = [0] * n
        for i, (u, v) in enumerate(edges):
            self.first[u] |= 1 << (m - 1 - i)
            self.second[v] |= 1 << (m - 1 - i)
        self._inside = None
        self._edges = edges

    def outdegrees(self, bits: int) -> tuple[int, ...]:
        rev = self.full ^ bits
        return tuple((bits & f).bit_count() + (rev & s).bit_count() for f, s in zip(self.first, self.second))

    @staticmethod
    def bits_of_signs(line: bytes) -> int:
        return int(line.translate(_SIGNS), 2)

    @staticmethod
    def bits_of_flags(record: bytes) -> int:
        return int(record.translate(_BITS), 2)

    def k_connected_sequence(self, alpha, k: int) -> bool:
        """True iff some (hence every) orientation with outdegrees ``alpha``
        has at least ``k`` arcs leaving every nonempty proper vertex subset."""
        n = self.n
        if n > 16:
            raise ValueError("subset scan is limited to 16 vertices")
        if sum(alpha) != self.m:
            return False
        if self._inside is None:
            inside = [0] * (1 << n)
            for u, v in self._edges:
                pair = (1 << u) | (1 << v)
                for mask in range(1 << n):
                    if mask & pair == pair:
                        inside[mask] += 1
            self._inside = inside
        inside = self._inside
        total = [0] * (1 << n)
        for mask in range(1, (1 << n) - 1):
            low = mask & -mask
            total[mask] = total[mask ^ low] + alpha[low.bit_length() - 1]
            if total[mask] - inside[mask] < k:
                return False
        return True


def _max_flow_at_least(n: int, arcs: Edges, s: int, t: int, k: int) -> bool:
    # Unit capacity per arc; augmenting paths by BFS over the residual graph.
    residual = [dict() for _ in range(n)]
    for u, v in arcs:
        residual[u][v] = residual[u].get(v, 0) + 1
        residual[v].setdefault(u, 0)
    for _ in range(k):
        parent = {s: s}
        queue = [s]
        for x in queue:
            if t in parent:
                break
            for w, cap in residual[x].items():
                if cap > 0 and w not in parent:
                    parent[w] = x
                    queue.append(w)
        if t not in parent:
            return False
        w = t
        while w != s:
            x = parent[w]
            residual[x][w] -= 1
            residual[w][x] += 1
            w = x
    return True


def k_arc_connected(n: int, arcs: Edges, k: int) -> bool:
    """Every vertex has k arc-disjoint paths to and from vertex 0."""
    return all(
        _max_flow_at_least(n, arcs, 0, v, k) and _max_flow_at_least(n, arcs, v, 0, k) for v in range(1, n)
    )


def edge_connectivity_at_least(n: int, edges: Edges, k: int) -> bool:
    return k_arc_connected(n, edges + [(v, u) for u, v in edges], k)


# ------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` selects the call the child runs: ``cli`` (``orientations
    enumerate --mode korient``), ``alpha`` (``enumerate_alpha``), ``odseq``
    (``enumerate_outdegree_sequences``) or ``finder``
    (``find_k_connected_orientation`` over a drawn family).  ``expected`` is
    the frozen solution count and its independent source is recorded in the
    benchmark's README.
    """

    name: str
    kind: str
    graph: tuple[int, Edges] | None = None
    k: int = 1
    alpha: int = 0
    expected: int = 0
    batch: int = 0
    sizes: tuple[int, int] = (0, 0)
    time_limit_s: float = 0.0

    def make_input(self, seed: int, index: int) -> list[tuple[int, Edges]]:
        """Graphs for child run ``index`` of the run seeded ``seed``."""
        rng = random.Random(f"{self.name}/{seed}/{index}")
        if self.kind == "finder":
            return [
                (n, regular_multigraph(rng, n, 6, 2 * self.k))
                for n in (rng.randint(*self.sizes) for _ in range(self.batch))
            ]
        return [relabelled(*self.graph, rng)]


# Why each workload exists, and why finder-regular is left out of
# BENCHMARK.json, is written up in README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("korient-wheel-cli", "cli", graph=doubled_wheel(), k=1, expected=56686),
        Workload("alpha-torus", "alpha", graph=torus(4, 5), alpha=2, expected=16892),
        Workload("odseq-torus", "odseq", graph=torus(3, 4), k=1, expected=54481),
        Workload("finder-regular", "finder", k=2, batch=8, sizes=(16, 32), time_limit_s=2.0),
    )
}


def _count_and_distinct(wl: Workload, items: list[bytes], noun: str) -> tuple[list[str], set[bytes]]:
    errors = []
    if len(items) != wl.expected:
        errors.append(f"{len(items)} {noun}, expected {wl.expected}")
    distinct = set(items)
    if len(distinct) != len(items):
        errors.append(f"{len(items) - len(distinct)} duplicate {noun}")
    return errors, distinct


def check_orientation_lines(wl: Workload, graph, lines: list[bytes]) -> list[str]:
    """Errors in '+/-' lines that should list every k-connected orientation."""
    errors, distinct = _count_and_distinct(wl, lines, "orientations")
    checker = OrientationChecker(*graph)
    if any(len(line) != checker.m or line.strip(b"+-") for line in distinct):
        return errors + ["malformed orientation line"]
    sequences = {checker.outdegrees(checker.bits_of_signs(line)) for line in distinct}
    bad = [a for a in sequences if not checker.k_connected_sequence(a, wl.k)]
    if bad:
        errors.append(f"{len(bad)} outdegree vectors are not {wl.k}-connected, e.g. {bad[0]}")
    return errors


def check_alpha_records(wl: Workload, graph, records: list[bytes]) -> list[str]:
    """Errors in 0/1 direction records that should list every alpha-orientation."""
    errors, distinct = _count_and_distinct(wl, records, "orientations")
    checker = OrientationChecker(*graph)
    if any(len(r) != checker.m or r.strip(b"\x00\x01") for r in distinct):
        return errors + ["malformed orientation record"]
    target = (wl.alpha,) * checker.n
    wrong = sum(1 for r in distinct if checker.outdegrees(checker.bits_of_flags(r)) != target)
    if wrong:
        errors.append(f"{wrong} orientations miss the outdegree target")
    return errors


def check_sequence_records(wl: Workload, graph, records: list[bytes], sample: int = 48) -> list[str]:
    """Errors in outdegree sequences that should list every k-connected one;
    the subset test runs on a fixed random sample of them."""
    errors, distinct = _count_and_distinct(wl, records, "sequences")
    n, edges = graph
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if any(sum(r) != len(edges) or any(not wl.k <= a <= d - wl.k for a, d in zip(r, degree)) for r in distinct):
        errors.append("a sequence has the wrong sum or a vertex below k in- or out-degree")
    checker = OrientationChecker(n, edges)
    picks = random.Random(0).sample(sorted(distinct), min(sample, len(distinct)))
    bad = [tuple(r) for r in picks if not checker.k_connected_sequence(r, wl.k)]
    if bad:
        errors.append(f"sequence {bad[0]} is not {wl.k}-connected")
    return errors


def check_witness(n: int, edges: Edges, signs: str | None, k: int) -> str | None:
    """Error text when ``signs`` is not a k-arc-connected orientation of the graph."""
    if signs is None:
        return "no orientation returned for a 2k-edge-connected graph"
    if len(signs) != len(edges) or signs.strip("+-"):
        return "malformed orientation"
    arcs = [(u, v) if s == "+" else (v, u) for (u, v), s in zip(edges, signs)]
    if not k_arc_connected(n, arcs, k):
        return f"orientation is not {k}-arc-connected"
    return None
