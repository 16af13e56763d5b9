"""Span tracing for the traced benchmark run, applied from outside the package.

``install`` rebinds public functions and a few methods of the
``orientations`` modules to timing wrappers.  A function is rebound in every
module that imported it (``find_directed_path`` lives in ``paths`` but is
called through ``alpha`` and ``sequences`` too), so no call escapes.  Spans
are aggregated in memory by (name, parent): calls, total time, self time
(total minus the time of child spans), and a per-span counter of useful
outcomes, which keeps memory bounded over millions of calls.  The untraced
run never imports this module.
"""
from __future__ import annotations

import importlib
import sys
import time
import types

_clock = time.perf_counter_ns

# (span name, module, attribute, outcome counted as a hit, position of the meter argument)
FUNCTIONS = (
    ("multigraph.parse", "orientations.multigraph", "parse_graph", None, None),
    ("paths.bfs", "orientations.paths", "find_directed_path", lambda r: r.found, None),
    ("paths.lambda", "orientations.paths", "lambda_at_least", bool, None),
    ("sequences.flippable", "orientations.paths", "is_flippable_pair", bool, None),
    ("connectivity.is_k_connected", "orientations.connectivity", "is_k_connected", None, None),
    ("connectivity.edge_connectivity", "orientations.connectivity", "edge_connectivity", None, None),
    ("kconn.finder", "orientations.kconn", "find_k_connected_orientation", None, 2),
    ("alpha.find", "orientations.alpha", "find_alpha_orientation", None, None),
    ("alpha.enumerate", "orientations.alpha", "enumerate_alpha", None, None),
    ("sequences.enumerate", "orientations.sequences", "enumerate_outdegree_sequences", None, None),
)

# (span name, module, class, method)
METHODS = (
    ("multigraph.copy", "orientations.multigraph", "Orientation", "copy"),
    ("multigraph.serialize", "orientations.multigraph", "Orientation", "serialize"),
    ("sequences.search", "orientations.sequences", "OutdegreeSearch", "run"),
    ("alpha.expand", "orientations.alpha", "AlphaBacktrack", "recurse"),
)


class Tracer:
    def __init__(self):
        # (name, parent) -> [calls, total_ns, self_ns, hits, meter_ops]
        self.stats: dict[tuple[str, str], list[int]] = {}
        self.missing: list[str] = []
        self._stack = [["", 0]]  # [name, ns spent in child spans]

    def wrap(self, name, fn, hit=None, meter_arg=None):
        """``fn`` timed as span ``name``.  ``hit`` picks the results counted as
        useful outcomes; ``meter_arg`` is the position of a ``meter`` argument
        whose operation count the span also records."""
        stack, stats = self._stack, self.stats

        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0]
            meter = None
            if meter_arg is not None:
                meter = args[meter_arg] if len(args) > meter_arg else kwargs.get("meter")
                ops_before = meter.total_ops if meter is not None else 0
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = stats.get((name, parent[0]))
                if rec is None:
                    rec = stats[(name, parent[0])] = [0, 0, 0, 0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if meter is not None:
                    rec[4] += meter.total_ops - ops_before
            if hit is not None and hit(result):
                rec[3] += 1
            return result

        return span

    def _outermost(self, name, method):
        # AlphaBacktrack.recurse calls itself once per fixed edge; only the
        # top-level call (fixed == 0) is a span, the rest pass straight through.
        spanned = self.wrap(name, method)

        def recurse(self_, fixed):
            if fixed:
                return method(self_, fixed)
            return spanned(self_, fixed)

        return recurse

    # ---------------------------------------------------------- queries

    def total_ns(self, name: str) -> int:
        return sum(r[1] for (n, p), r in self.stats.items() if n == name and p != name)

    def self_ns(self, name: str) -> int:
        return sum(r[2] for (n, _), r in self.stats.items() if n == name)

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(r[0] for (n, p), r in self.stats.items() if n == name and parent in (None, p))

    def hits(self, name: str) -> int:
        return sum(r[3] for (n, _), r in self.stats.items() if n == name)

    def ops(self, name: str) -> int:
        return sum(r[4] for (n, _), r in self.stats.items() if n == name)


def install() -> Tracer:
    """Wrap the traced names in every loaded ``orientations`` module."""
    importlib.import_module("orientations.cli")
    tracer = Tracer()
    modules = [m for n, m in list(sys.modules.items()) if n == "orientations" or n.startswith("orientations.")]
    for name, module, attr, hit, meter_arg in FUNCTIONS:
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            tracer.missing.append(f"{module}.{attr}")
            continue
        wrapper = tracer.wrap(name, original, hit, meter_arg)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    for name, module, cls_name, attr in METHODS:
        cls = getattr(sys.modules.get(module), cls_name, None)
        method = getattr(cls, attr, None)
        if method is None:
            tracer.missing.append(f"{module}.{cls_name}.{attr}")
            continue
        wrapper = tracer._outermost(name, method) if attr == "recurse" else tracer.wrap(name, method)
        setattr(cls, attr, wrapper)
    return tracer


class TimedStream:
    """Text stream proxy that times writes and flushes as ``cli.write`` spans."""

    def __init__(self, stream, tracer: Tracer):
        self._stream = stream
        self.bytes_out = 0
        self._write = tracer.wrap("cli.write", stream.write)
        self.flush = tracer.wrap("cli.write", stream.flush)

    def write(self, text: str) -> int:
        self.bytes_out += len(text)  # output is ASCII
        return self._write(text)

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


def deep_size(root) -> int:
    """Bytes of every object reachable from ``root`` (shared objects once)."""
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif not isinstance(obj, (str, bytes, bytearray, int, float)):
            if hasattr(obj, "__dict__"):
                stack.append(vars(obj))
            for cls in type(obj).__mro__:
                slots = getattr(cls, "__slots__", ())
                for slot in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, slot):
                        stack.append(getattr(obj, slot))
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, meters, solutions: int, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced child run (times in seconds)."""
    s = 1e-9
    t = tracer
    return {
        "cli.write_s": t.total_ns("cli.write") * s,
        "cli.bytes_out": bytes_out,
        "multigraph.parse_s": t.total_ns("multigraph.parse") * s,
        "multigraph.serialize_calls": t.calls("multigraph.serialize"),
        "multigraph.serialize_s": t.total_ns("multigraph.serialize") * s,
        "multigraph.copy_calls": t.calls("multigraph.copy"),
        "multigraph.copy_s": t.total_ns("multigraph.copy") * s,
        "paths.bfs_calls": t.calls("paths.bfs"),
        "paths.bfs_s": t.total_ns("paths.bfs") * s,
        "paths.bfs_hit_ratio": _ratio(t.hits("paths.bfs"), t.calls("paths.bfs")),
        "paths.lambda_calls": t.calls("paths.lambda"),
        "paths.lambda_s": t.total_ns("paths.lambda") * s,
        "paths.lambda_true_ratio": _ratio(t.hits("paths.lambda"), t.calls("paths.lambda")),
        "connectivity.is_k_connected_calls": t.calls("connectivity.is_k_connected"),
        "connectivity.is_k_connected_s": t.total_ns("connectivity.is_k_connected") * s,
        "connectivity.edge_connectivity_s": t.total_ns("connectivity.edge_connectivity") * s,
        "kconn.finder_s": t.total_ns("kconn.finder") * s,
        "kconn.finder_ops": t.ops("kconn.finder"),
        "alpha.find_s": t.total_ns("alpha.find") * s,
        "alpha.self_s": (t.self_ns("alpha.enumerate") + t.self_ns("alpha.expand")) * s,
        "alpha.bfs_per_solution": _ratio(t.calls("paths.bfs", "alpha.expand"), solutions),
        "sequences.self_s": (t.self_ns("sequences.enumerate") + t.self_ns("sequences.search")) * s,
        "sequences.flippable_calls": t.calls("sequences.flippable"),
        "sequences.flippable_hit_ratio": _ratio(t.hits("sequences.flippable"), t.calls("sequences.flippable")),
        "metering.bfs_runs": sum(m.bfs_runs for m in meters),
        "metering.arc_touches": sum(m.arc_touches for m in meters),
        "metering.gap_bytes": sum(deep_size(m) for m in meters),
    }
