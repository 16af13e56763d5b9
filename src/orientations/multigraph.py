"""Loopless multigraphs with index-identified edges, and their orientations.

Vertices are 0..n-1.  Parallel edges are allowed and are distinguished by
their position in the edge list.  That position fixes the text form of an
orientation, one character per edge in index order, and the order of each
incidence row, in which every search meets a vertex's arcs, so it breaks
the searches' ties; the k-connected finder directs the edges in index
order too.  The enumerators' levels follow orders computed from the graph
instead, ``alpha._closing_order`` for the edges and
``sequences._VertexOrder`` for the vertices, each breaking its ties by the
smallest index.  Output order is thus reproducible byte for byte.
"""
from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence

__all__ = [
    "GraphParseError",
    "Multigraph",
    "Orientation",
    "parse_graph",
    "graph_to_text",
]

_SIGNS = bytes.maketrans(b"\x00\x01", b"-+")  # stored direction -> text character


class GraphParseError(ValueError):
    """Malformed graph or orientation text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _integers(values) -> list[int] | None:
    # The values as ints, or None when one of them is not an integral number.
    try:
        ints = [int(x) for x in values]
    except (TypeError, ValueError, OverflowError):
        return None
    return ints if ints == list(values) else None


class Multigraph:
    """Immutable loopless multigraph.

    ``edges[i]`` is the pair of endpoints of edge ``i`` in the order they
    were listed; orientations refer to that order.  ``incidence[v]`` lists
    ``(edge, other_endpoint, v_is_first)`` for every edge at ``v``, in
    edge-index order.  ``_ends[i]`` is ``(u, 1 << pos_u, v, 1 << pos_v)``
    for edge ``i`` with endpoints ``(u, v)``, where ``pos_x`` is the edge's
    position in ``incidence[x]``, and ``_row_mask[x]`` is
    ``(1 << degree(x)) - 1``, one bit per entry of ``incidence[x]``.
    """

    __slots__ = ("n", "edges", "incidence", "_ends", "_row_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError(f"vertex count not an integer: {n!r}") from None
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        pairs = []
        for u, v in edges:
            pair = _integers((u, v))
            if pair is None:
                raise ValueError(f"edge endpoint not an integer: ({u}, {v})")
            u, v = pair
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge endpoint out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"loop edge at vertex {u}")
            pairs.append((u, v))
        self.n = n
        self.edges = tuple(pairs)
        rows: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
        ends = []
        for e, (u, v) in enumerate(self.edges):
            ends.append((u, 1 << len(rows[u]), v, 1 << len(rows[v])))
            rows[u].append((e, v, True))
            rows[v].append((e, u, False))
        self.incidence = tuple(tuple(row) for row in rows)
        self._ends = tuple(ends)
        self._row_mask = tuple((1 << len(row)) - 1 for row in rows)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.incidence[v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multigraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, m={self.m})"


class Orientation:
    """A direction for every edge of a multigraph.

    Direction ``i`` is stored as 1 when edge ``i`` points from its first
    listed endpoint to its second, 0 otherwise.  The text form is one
    character per edge in index order: ``'+'`` for first-to-second, ``'-'``
    for the reverse.

    ``_out[x]`` is a bitmask over the positions of ``incidence[x]``: bit i
    is set when entry i is an arc leaving x.  Only this class writes
    ``_dirs``, and ``_flip`` keeps both in step.  ``_share`` makes a view
    that holds the same two buffers, so it changes with the orientation
    until ``_own`` gives it copies of its own.
    """

    __slots__ = ("graph", "_dirs", "_out", "__weakref__")

    def __init__(self, graph: Multigraph, dirs: Iterable[int] | None = None):
        self.graph = graph
        if dirs is None:
            self._dirs = bytearray([1] * graph.m)
        else:
            self._dirs = bytearray(1 if d else 0 for d in dirs)
            if len(self._dirs) != graph.m:
                raise ValueError("direction vector length must equal edge count")
        out = [0] * graph.n
        for (u, u_bit, v, v_bit), d in zip(graph._ends, self._dirs):
            if d:
                out[u] |= u_bit
            else:
                out[v] |= v_bit
        self._out = out

    def copy(self) -> "Orientation":
        dup = self._share()
        dup._own()
        return dup

    def _share(self) -> "Orientation":
        view = Orientation.__new__(Orientation)
        view.graph, view._dirs, view._out = self.graph, self._dirs, self._out
        return view

    def _own(self) -> None:
        self._dirs = bytearray(self._dirs)
        self._out = self._out.copy()

    def forward(self, e: int) -> bool:
        """True when edge ``e`` points from its first listed endpoint to its second."""
        return self._dirs[e] == 1

    def tail(self, e: int) -> int:
        u, v = self.graph.edges[e]
        return u if self._dirs[e] else v

    def head(self, e: int) -> int:
        u, v = self.graph.edges[e]
        return v if self._dirs[e] else u

    def outdegrees(self) -> tuple[int, ...]:
        return tuple([mask.bit_count() for mask in self._out])  # a list: tuple() sizes it once

    def _flip(self, edge_indices: Iterable[int]) -> None:
        # In-place; callers either own the orientation or flip it back before returning.
        dirs, out, ends = self._dirs, self._out, self.graph._ends
        for e in edge_indices:
            dirs[e] ^= 1
            u, u_bit, v, v_bit = ends[e]
            out[u] ^= u_bit
            out[v] ^= v_bit

    def serialize(self) -> str:
        return self._dirs.translate(_SIGNS).decode()

    @classmethod
    def deserialize(cls, graph: Multigraph, text: str) -> "Orientation":
        text = text.strip()
        if len(text) != graph.m:
            raise GraphParseError(1, f"orientation has {len(text)} characters, expected {graph.m}")
        for j, ch in enumerate(text):
            if ch not in "+-":
                raise GraphParseError(1, f"invalid direction character {ch!r} at position {j}")
        return cls(graph, (1 if ch == "+" else 0 for ch in text))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Orientation):
            return NotImplemented
        return self.graph == other.graph and self._dirs == other._dirs

    def __hash__(self) -> int:
        return hash((self.graph, bytes(self._dirs)))

    def __repr__(self) -> str:
        return f"Orientation({self.serialize()!r})"


class _Trailing(Orientation):
    # An orientation that trails ``live``, which the alpha expansion of the
    # k-connected search walks on: the two differ on the edges that the
    # expansion's flips left reversed in live alone.  A flip reverses the
    # edges here, then in live those where the two now differ, so an edge
    # that live already holds that way is not touched.  ``_pending`` lists
    # the edges where live still differs.
    __slots__ = ("live",)

    def __init__(self, live: Orientation) -> None:
        super().__init__(live.graph, live._dirs)
        self.live = live

    def _flip(self, edge_indices: Sequence[int]) -> None:
        super()._flip(edge_indices)
        live, dirs = self.live, self._dirs
        live._flip([e for e in edge_indices if live._dirs[e] != dirs[e]])

    def _pending(self) -> list[int]:
        return [e for e, (a, b) in enumerate(zip(self.live._dirs, self._dirs)) if a != b]


def parse_graph(text: str) -> Multigraph:
    """Parse the line-based edge-list format.

    First line is ``n m``; the next ``m`` lines each hold one edge ``u v``
    with ``0 <= u, v < n`` and ``u != v``.  Duplicate lines create parallel
    edges.  Trailing blank lines are tolerated; anything else is an error
    that names the offending line.
    """
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise GraphParseError(1, "missing 'n m' header")
    header = lines[0].split()
    if len(header) != 2:
        raise GraphParseError(1, f"expected 'n m', got {lines[0]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphParseError(1, f"expected two integers, got {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise GraphParseError(1, "n and m must be non-negative")

    edges: list[tuple[int, int]] = []
    for j in range(m):
        lineno = j + 2
        if lineno > len(lines) or not lines[lineno - 1].split():
            raise GraphParseError(lineno, f"expected edge line {j + 1} of {m}")
        tokens = lines[lineno - 1].split()
        if len(tokens) != 2:
            raise GraphParseError(lineno, f"expected 'u v', got {lines[lineno - 1]!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(lineno, f"expected two integers, got {lines[lineno - 1]!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(lineno, f"endpoint out of range: ({u}, {v}) with n={n}")
        if u == v:
            raise GraphParseError(lineno, f"loop edge at vertex {u}")
        edges.append((u, v))

    for extra, line in enumerate(lines[m + 1 :], start=m + 2):
        if line.split():
            raise GraphParseError(extra, f"unexpected content after {m} edges: {line!r}")

    return Multigraph(n, edges)


def graph_to_text(graph: Multigraph) -> str:
    """Inverse of :func:`parse_graph`."""
    out = [f"{graph.n} {graph.m}"]
    out.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(out) + "\n"
