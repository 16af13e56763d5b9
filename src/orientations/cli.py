"""Command line front end.

Subcommands ``enumerate``, ``count``, and ``bench`` share one option set:
a graph file in the ``n m`` edge-list format, ``--mode alpha|odseq|korient``,
and the mode's parameters.  Solutions stream line by line ('+'/'-' strings
for orientations, space-separated integers for outdegree sequences) and the
final line is ``# count=<N>``.  The first line is flushed at once; the rest
are flushed when the stream's buffer fills, when a line comes ``FLUSH_S``
seconds or more after the last flush, and at exit.  A stream that does not
buffer (standard output under ``PYTHONUNBUFFERED``) still writes each line
as it comes.  ``bench`` swaps the solution stream for a single JSON summary
record: the meter's totals, largest gap, amortized cost and log2 gap
histogram (see :class:`~orientations.metering.DelayMeter`).  ``enumerate``
charges m arc touches for each orientation line it serializes; ``count``
and ``bench`` keep nothing and charge nothing per solution.  When the
reader closes the output before the run ends (``| head``), the run stops
with exit code 3 and prints nothing more.  An interrupted run (Ctrl-C,
``SIGINT``) flushes the lines it has written, prints one line to standard
error and exits with code 130.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time

from .alpha import enumerate_alpha
from .metering import DelayMeter
from .multigraph import GraphParseError, Multigraph, Orientation, parse_graph
from .sequences import enumerate_k_connected, enumerate_outdegree_sequences
from . import oracle

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PARAMS = 2
EXIT_CLOSED = 3
EXIT_INTERRUPTED = 130

MODES = ("alpha", "odseq", "korient")
FLUSH_S = 0.05  # a line written this long after the last flush flushes the output


class ParameterError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orientations",
        description="Enumerate alpha-orientations and k-arc-connected orientations of a multigraph.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("enumerate", "stream solutions line by line, then a count line"),
        ("count", "run the enumeration and print only the count line"),
        ("bench", "run the enumeration and print its delay statistics as one JSON record"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("graph", help="graph file: first line 'n m', then m lines 'u v'")
        cmd.add_argument("--mode", required=True, choices=MODES, help="what to enumerate")
        cmd.add_argument("--k", type=int, help="connectivity parameter for odseq/korient (>= 1)")
        cmd.add_argument("--alpha", help="comma-separated target outdegrees for alpha mode")
        cmd.add_argument(
            "--oracle",
            action="store_true",
            help="use the brute-force reference enumeration (test reproduction)",
        )
        cmd.add_argument(
            "--seed-orientation",
            metavar="FILE",
            help="file holding a '+/-' orientation used as the starting point",
        )
        cmd.add_argument("-o", "--output", help="write to this file instead of stdout")
    return parser


def _parse_alpha(text: str, n: int) -> tuple[int, ...]:
    try:
        # The empty string is the empty vector, the only one a 0-vertex graph takes.
        values = tuple(int(tok) for tok in text.split(",")) if text else ()
    except ValueError:
        raise ParameterError(f"--alpha must be comma-separated integers, got {text!r}") from None
    if len(values) != n:
        raise ParameterError(f"--alpha has {len(values)} entries, graph has {n} vertices")
    return values


def _read(path: str) -> str:
    # Every input file, the graph and the seed, is UTF-8 text read whole.
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _check_output(path: str) -> None:
    # Finds an unwritable -o path before the run's work, without creating or
    # truncating the file; a new file needs a writable directory to go in.
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if os.path.exists(path):
        writable = os.access(path, os.W_OK)
    else:
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        writable = os.access(folder, os.W_OK | os.X_OK)
    if not writable:
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _run(args) -> int:
    graph = parse_graph(_read(args.graph))
    mode = args.mode
    alpha = seed = None

    if mode == "alpha":
        if args.k is not None:
            raise ParameterError("--k is read only by odseq and korient")
        if args.alpha is None:
            raise ParameterError("alpha mode requires --alpha")
        alpha = _parse_alpha(args.alpha, graph.n)
    else:
        if args.alpha is not None:
            raise ParameterError("--alpha is read only by alpha mode")
        if args.k is None:
            raise ParameterError(f"{mode} mode requires --k")
        if args.k < 1:
            raise ParameterError("--k must be at least 1")
        if args.seed_orientation is not None and not args.oracle:
            # The search rejects a seed that is not k-connected, before any output.
            seed = Orientation.deserialize(graph, _read(args.seed_orientation))

    if args.seed_orientation is not None and seed is None:
        raise ParameterError("--seed-orientation is read only by odseq and korient without --oracle")
    if args.command == "bench" and args.oracle:
        raise ParameterError("bench does not support --oracle")
    if args.output:
        _check_output(args.output)

    out = None
    flushed_at = None

    def emit(line: str) -> None:
        # Opened at the first line written, so a run that fails before it
        # leaves the file as it was.  The first line is flushed at once; after
        # it the stream's own buffer flushes when full, and emit when FLUSH_S
        # has passed since the last flush.
        nonlocal out, flushed_at
        if out is None:
            out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
        out.write(line + "\n")
        now = time.monotonic()
        if flushed_at is None or now - flushed_at >= FLUSH_S:
            out.flush()
            flushed_at = now

    try:
        return _stream(args, graph, alpha, seed, emit)
    finally:
        if out is sys.stdout:
            out.flush()
        elif out is not None:
            out.close()


def _stream(args, graph: Multigraph, alpha, seed: Orientation | None, emit) -> int:
    mode = args.mode
    meter = DelayMeter()
    if args.command == "enumerate":
        def orientation_sink(d: Orientation) -> None:
            meter.arcs(graph.m)
            emit(d.serialize())

        def sequence_sink(seq, _witness=None) -> None:
            emit(" ".join(str(x) for x in seq))
    else:  # count and bench never serialize a solution
        def orientation_sink(*_) -> None:
            pass

        sequence_sink = orientation_sink

    if args.oracle:
        # One pass over all 2^m orientations, filtered by the mode.
        if mode == "alpha":
            kept = (d for d in oracle.all_orientations(graph) if d.outdegrees() == alpha)
        else:
            kept = (d for d in oracle.all_orientations(graph) if oracle.brute_is_k_connected(d, args.k))
        if mode == "odseq":
            solutions, sink = sorted({d.outdegrees() for d in kept}), sequence_sink
        else:
            solutions, sink = kept, orientation_sink
        count = 0
        for solution in solutions:
            sink(solution)
            count += 1
    elif mode == "alpha":
        count = enumerate_alpha(graph, alpha, orientation_sink, meter=meter)
    elif mode == "korient":
        count = enumerate_k_connected(graph, args.k, orientation_sink, seed=seed, meter=meter)
    else:
        count = enumerate_outdegree_sequences(graph, args.k, seed, sequence_sink, meter=meter)

    if args.command == "bench":
        summary = {"record": "summary", "mode": mode}
        summary.update(meter.summary())
        emit(json.dumps(summary))
    else:
        emit(f"# count={count}")
    return EXIT_OK


def _discard_stdout() -> None:
    # Standard output is flushed again at exit; pointed at os.devnull, the
    # lines still buffered for a closed pipe go nowhere instead of raising.
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError):  # a stream with no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except BrokenPipeError:
        if not args.output:
            _discard_stdout()
        return EXIT_CLOSED
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (OSError, GraphParseError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS


if __name__ == "__main__":
    sys.exit(main())
