"""One measured run of a workload in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json REPORT`` with ``src`` on
``PYTHONPATH``.  The spec names the workload kind, its graphs and whether to
trace.  The report is one JSON header line followed by the raw bytes of the
solution timestamps (wall clock, then thread CPU time) and of the solutions
themselves; the parent checks them.
For the ``cli`` kind the solutions go to standard output through the CLI's
own ``main`` and the parent reads and timestamps them at the pipe.
"""
from __future__ import annotations

import json
import resource
import signal
import sys
import time
from array import array

clock = time.monotonic_ns  # the same clock as the parent's
cpu_clock = time.thread_time_ns


def _capture_meters(metering) -> list:
    # Records every DelayMeter built, so the CLI's own meter can be read.
    meters = []
    init = metering.DelayMeter.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        meters.append(self)

    metering.DelayMeter.__init__ = recording_init
    return meters


class TimeLimit(Exception):
    pass


def _on_alarm(signum, frame):
    raise TimeLimit()


def run_enumeration(spec, tracer):
    import orientations
    from orientations import metering

    kind = spec["kind"]
    n, edges = spec["graphs"][0]
    stamps = array("q")  # wall clock at each solution
    cpu_stamps = array("q")  # CPU time of the enumerating thread at each solution
    solutions = bytearray()
    stamp, cpu_stamp = stamps.append, cpu_stamps.append
    header = {}
    meters = _capture_meters(metering)

    if kind == "cli":
        from orientations import cli

        if tracer is not None:
            from tracing import TimedStream

            sys.stdout = TimedStream(sys.stdout, tracer)
        header["exit"] = cli.main(["enumerate", spec["graph_file"], "--mode", "korient", "--k", str(spec["k"])])
        sys.stdout.flush()
    else:
        if kind == "alpha":

            def sink(d):
                stamp(clock())
                cpu_stamp(cpu_clock())
                solutions.extend(d._dirs)

        else:

            def sink(seq, _witness):
                stamp(clock())
                cpu_stamp(cpu_clock())
                solutions.extend(bytes(seq))

        if tracer is not None:
            sink = tracer.wrap("sink", sink)
        graph = orientations.Multigraph(n, edges)
        meter = orientations.DelayMeter()
        if kind == "alpha":
            header["count"] = orientations.enumerate_alpha(graph, [spec["alpha"]] * n, sink, meter=meter)
        else:
            seed = orientations.find_k_connected_orientation(graph, spec["k"], meter)
            header["count"] = orientations.enumerate_outdegree_sequences(graph, spec["k"], seed, sink, meter=meter)
    header["end"] = clock()
    header["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    main = max(meters, key=lambda m: m.emissions)
    summary = main.summary()
    header["ops_per_solution"] = summary["amortized_ops"]
    header["max_delay_ops"] = summary["max_delay_ops"]
    if tracer is not None:
        from tracing import layer_metrics

        bytes_out = getattr(sys.stdout, "bytes_out", 0)
        header["layers"] = layer_metrics(tracer, meters, main.emissions, bytes_out)
    return header, stamps + cpu_stamps, solutions


def run_finder(spec, tracer):
    import orientations

    signal.signal(signal.SIGALRM, _on_alarm)
    calls = []
    meters = []
    for n, edges in spec["graphs"]:
        graph = orientations.Multigraph(n, edges)
        meter = orientations.DelayMeter()
        meters.append(meter)
        start = clock()
        signal.setitimer(signal.ITIMER_REAL, spec["time_limit_s"])
        try:
            witness = orientations.find_k_connected_orientation(graph, spec["k"], meter)
            status = "ok"
        except TimeLimit:
            witness, status = None, "time limit"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = clock()
        calls.append(
            {
                "start": start,
                "end": end,
                "status": status,
                "ops": meter.total_ops,
                "witness": witness.serialize() if witness is not None else None,
            }
        )
    header = {"calls": calls, "end": clock(), "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        from tracing import layer_metrics

        header["layers"] = layer_metrics(tracer, meters, len(calls), 0)
    return header, array("q"), bytearray()


def main(spec_path: str, report_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.install()
    run = run_finder if spec["kind"] == "finder" else run_enumeration
    header, stamps, solutions = run(spec, tracer)
    if tracer is not None:
        header["missing"] = tracer.missing
    header["stamps_bytes"] = len(stamps) * stamps.itemsize
    with open(report_path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        fh.write(stamps.tobytes())
        fh.write(solutions)
    return header.get("exit", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
