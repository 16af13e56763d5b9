"""Benchmark of the orientations package: one workload, one seed, one run.

    python3 perfbench/run.py --workload alpha-torus --seed 1 --seconds 30 --trace 0

Closed loop, one client: child runs follow one another, each in a fresh
interpreter (``child.py``), until ``--seconds`` have passed (and at least
three have run).  Child ``i`` of seed ``s`` gets its own seeded input, so a
run covers several relabellings of the workload graph.  Every child's output
is checked by code that does not call the package; a wrong count, duplicate,
invalid solution, crash or time limit counts as a failed operation.

With ``--trace 0`` the run reports the end-to-end metrics: medians over its
children, except the mean ``ops_per_solution`` and the largest
``max_delay_ops``.  The wall-clock ones are printed as a trend and left out
of the JSON result.  With ``--trace 1`` each input runs twice, untraced and
then with the span wrappers of ``tracing.py``, and the run reports the
per-layer metrics (medians over the traced children) and
``trace.overhead_ratio``.  The last line of standard output is the JSON
result.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_CHILDREN = 3
RUN_LIMIT_S = 170  # a run must end within 180 s

# Gated in BENCHMARK.json: the paper's machine-independent cost model, memory,
# and the set-up time.  Wall-clock figures drift by up to 1.7x within minutes on
# a shared VM, so they are printed as a trend, with the machine named in the
# baseline record, and never gated.
END_TO_END = {"setup_s": "s", "ops_per_solution": "ops", "max_delay_ops": "ops", "peak_rss_mb": "MB"}
TREND = {"wall_s": "s", "throughput_sps": "1/s", "delay_p50_us": "us", "delay_p999_us": "us", "setup_tail_s": "s"}

# Per-layer metric -> unit.  README.md maps each to the end-to-end metric and
# workload it should move.
PER_LAYER = {
    "cli.write_s": "s",
    "cli.bytes_out": "B",
    "multigraph.parse_s": "s",
    "multigraph.serialize_calls": "count",
    "multigraph.serialize_s": "s",
    "multigraph.copy_calls": "count",
    "multigraph.copy_s": "s",
    "paths.bfs_calls": "count",
    "paths.bfs_s": "s",
    "paths.bfs_hit_ratio": "ratio",
    "paths.lambda_calls": "count",
    "paths.lambda_s": "s",
    "paths.lambda_true_ratio": "ratio",
    "connectivity.is_k_connected_calls": "count",
    "connectivity.is_k_connected_s": "s",
    "connectivity.edge_connectivity_s": "s",
    "kconn.finder_s": "s",
    "kconn.finder_ops": "ops",
    "alpha.find_s": "s",
    "alpha.self_s": "s",
    "alpha.bfs_per_solution": "count",
    "sequences.self_s": "s",
    "sequences.flippable_calls": "count",
    "sequences.flippable_hit_ratio": "ratio",
    "metering.bfs_runs": "count",
    "metering.arc_touches": "count",
    "metering.gap_bytes": "B",
    "trace.overhead_ratio": "ratio",
}

# ROADMAP open item -> per-layer metrics predicted to move, and where it should show end to end.
PREDICTED_MOVERS = {
    "1 meter redesign and buffered output": {
        "layers": ["cli.write_s", "metering.gap_bytes"],
        "end_to_end": "throughput_sps, delay_p999_us, peak_rss_mb on korient-wheel-cli; peak_rss_mb on odseq-torus",
    },
    "3 one traversal core, in-place lambda test": {
        "layers": ["multigraph.copy_calls", "multigraph.copy_s", "paths.lambda_s"],
        "end_to_end": "throughput_sps on odseq-torus",
    },
    "4 polynomial first-solution finder": {
        "layers": ["kconn.finder_s", "kconn.finder_ops", "connectivity.is_k_connected_s"],
        "end_to_end": "setup_s, setup_tail_s, error_rate on finder-regular",
    },
    "5 trimmed alpha expansion": {
        "layers": ["paths.bfs_calls", "paths.bfs_hit_ratio", "alpha.bfs_per_solution", "alpha.self_s"],
        "end_to_end": "throughput_sps, ops_per_solution, delay_p999_us on alpha-torus and korient-wheel-cli; "
        "nothing on odseq-torus",
    },
}


# ------------------------------------------------------------ statistics


def rank(sorted_values, p: float):
    """Nearest-rank p-quantile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * p) - 1)]


def tail(sorted_values, minimum_beyond: int = 10):
    """Value at the highest of p99.9/p99/p95/p90/p75 with at least
    ``minimum_beyond`` samples above it (the median when none has)."""
    n = len(sorted_values)
    for p in (0.999, 0.99, 0.95, 0.9, 0.75):
        if n - math.ceil(n * p) >= minimum_beyond:
            return rank(sorted_values, p)
    return rank(sorted_values, 0.5)


# ------------------------------------------------------------ child runs


def spawn(wl: W.Workload, graphs, traced: bool, work: Path, tag: str, timeout_s: float):
    """Run one child; returns (start_ns, stdout stamps, stdout bytes, eof_ns, returncode, report, stderr)."""
    spec = {"kind": wl.kind, "graphs": graphs, "k": wl.k, "alpha": wl.alpha, "trace": traced,
            "time_limit_s": wl.time_limit_s}
    if wl.kind == "cli":
        graph_file = work / f"{tag}.graph"
        graph_file.write_text(W.graph_text(*graphs[0]), encoding="utf-8")
        spec["graph_file"] = str(graph_file)
    spec_file, report_file, err_file = work / f"{tag}.spec", work / f"{tag}.report", work / f"{tag}.err"
    spec_file.write_text(json.dumps(spec), encoding="utf-8")
    report_file.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    stamps = array("q")
    out = bytearray()
    with open(err_file, "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_file), str(report_file)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
        )
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            fd = proc.stdout.fileno()
            while True:
                chunk = os.read(fd, 1 << 16)
                now = time.monotonic_ns()
                if not chunk:
                    break
                out += chunk
                stamps.extend([now] * chunk.count(b"\n"))
            eof = time.monotonic_ns()
            proc.stdout.close()
            returncode = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    stderr = err_file.read_text(encoding="utf-8", errors="replace")[-2000:]
    report = None
    if report_file.exists():
        raw = report_file.read_bytes()
        head, _, body = raw.partition(b"\n")
        header = json.loads(head)
        cut = header["stamps_bytes"]
        child_stamps = array("q")
        child_stamps.frombytes(body[:cut])
        report = (header, child_stamps, body[cut:])
    return start, stamps, bytes(out), eof, returncode, report, stderr


def measure(wl: W.Workload, graphs, traced: bool, work: Path, tag: str, timeout_s: float) -> dict:
    """One child run, checked.  Keys: attempted, failed, errors, metrics, layers, calls."""
    start, pipe_stamps, out, eof, returncode, report, stderr = spawn(wl, graphs, traced, work, tag, timeout_s)
    attempted = len(graphs) if wl.kind == "finder" else 1
    if returncode != 0 or report is None:
        reason = f"child exited with {returncode}: {stderr.strip().splitlines()[-1] if stderr.strip() else ''}"
        return {"attempted": attempted, "failed": attempted, "errors": [reason]}
    header, stamps, body = report
    result = {"attempted": attempted, "errors": [], "layers": header.get("layers")}
    if header.get("missing"):
        print(f"warning: traced names not found: {', '.join(header['missing'])}", file=sys.stderr)
    n, edges = graphs[0]
    if wl.kind == "finder":
        result["calls"] = []
        for (gn, gedges), call in zip(graphs, header["calls"]):
            error = "time limit" if call["status"] != "ok" else W.check_witness(gn, gedges, call["witness"], wl.k)
            if error:
                result["errors"].append(error)
            result["calls"].append(((call["end"] - call["start"]) * 1e-9, call["ops"]))
        result["failed"] = len(result["errors"])
        result["metrics"] = {"wall_s": (header["end"] - start) * 1e-9, "peak_rss_mb": header["rss_kb"] / 1024}
        return result

    if wl.kind == "cli":
        lines = out.split(b"\n")
        if lines[-1] == b"":
            lines.pop()
        if not lines or lines[-1] != f"# count={wl.expected}".encode():
            result["errors"].append(f"last line {lines[-1][:40] if lines else b''!r}, expected '# count={wl.expected}'")
        solutions = lines[:-1]
        result["errors"] += W.check_orientation_lines(wl, graphs[0], solutions)
        wall = delay = pipe_stamps[: len(solutions)]
        end = eof
    else:
        width = n if wl.kind == "odseq" else len(edges)
        records = [body[i : i + width] for i in range(0, len(body), width)]
        half = len(stamps) // 2
        wall, delay = stamps[:half], stamps[half:]
        if header["count"] != len(records) or len(records) != half:
            result["errors"].append(f"returned count {header['count']} but {len(records)} solutions reached the sink")
        check = W.check_alpha_records if wl.kind == "alpha" else W.check_sequence_records
        result["errors"] += check(wl, graphs[0], records)
        end = header["end"]
    result["failed"] = 1 if result["errors"] else 0
    if len(wall) < 2:
        result["errors"].append("fewer than two solutions")
        result["failed"] = 1
        return result
    gaps = sorted(b - a for a, b in zip(delay, delay[1:]))
    result["metrics"] = {
        "wall_s": (end - start) * 1e-9,
        "throughput_sps": (len(wall) - 1) / ((end - wall[0]) * 1e-9),
        "setup_s": (wall[0] - start) * 1e-9,
        "delay_p50_us": rank(gaps, 0.5) * 1e-3,
        "delay_p999_us": rank(gaps, 0.999) * 1e-3,
        "ops_per_solution": header["ops_per_solution"],
        "max_delay_ops": header["max_delay_ops"],
        "peak_rss_mb": header["rss_kb"] / 1024,
    }
    return result


def finder_metrics(children: list[dict]) -> dict:
    # One finder call is one operation; its time stands in for both set-up and delay.
    calls = [c for child in children for c in child.get("calls", [])]
    times = sorted(t for t, _ in calls)
    ops = sorted(o for _, o in calls)
    done = len(calls) - sum(c["failed"] for c in children)
    return {
        "wall_s": statistics.median(c["metrics"]["wall_s"] for c in children),
        "throughput_sps": done / sum(times),
        "setup_s": statistics.median(times),
        "setup_tail_s": tail(times),
        "delay_p50_us": statistics.median(times) * 1e6,
        "delay_p999_us": tail(times) * 1e6,
        "ops_per_solution": statistics.median(ops),
        "max_delay_ops": ops[-1],
        "peak_rss_mb": statistics.median(c["metrics"]["peak_rss_mb"] for c in children),
    }


def run_workload(wl: W.Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Child runs until ``seconds`` have passed; returns the aggregated result."""
    began = time.monotonic()
    plain, traced, ratios = [], [], []
    attempted = failed = 0
    errors: list[str] = []
    index = 0
    while index < MIN_CHILDREN or time.monotonic() - began < seconds:
        remaining = RUN_LIMIT_S - (time.monotonic() - began)
        if remaining < 10:
            break
        graphs = wl.make_input(seed, index)
        modes = (False, True) if trace else (False,)
        results = [measure(wl, graphs, mode, work, f"{index}-{int(mode)}", remaining) for mode in modes]
        for mode, res in zip(modes, results):
            attempted += res["attempted"]
            failed += res["failed"]
            errors += res["errors"]
            if "metrics" in res and (wl.kind == "finder" or not res["failed"]):
                (traced if mode else plain).append(res)
        if trace and all("metrics" in r for r in results):
            ratios.append(results[1]["metrics"]["wall_s"] / results[0]["metrics"]["wall_s"])
        index += 1

    result = {"children": index * (2 if trace else 1), "attempted": attempted, "failed": failed, "errors": errors}
    if trace:
        layers = [r["layers"] for r in traced if r.get("layers")]
        if layers and ratios:
            metrics = {name: statistics.median(l[name] for l in layers) for name in layers[0]}
            metrics["trace.overhead_ratio"] = statistics.median(ratios)
            result["metrics"] = metrics
    elif plain:
        if wl.kind == "finder":
            result["metrics"] = finder_metrics(plain)
        else:
            r0 = plain[0]["metrics"]
            result["metrics"] = {
                name: statistics.median(r["metrics"][name] for r in plain) for name in r0
            }
            # Every child has the same number of solutions, so the mean is the run's
            # amortized cost; the run's worst delay is the largest of its children's.
            result["metrics"]["ops_per_solution"] = statistics.fmean(r["metrics"]["ops_per_solution"] for r in plain)
            result["metrics"]["max_delay_ops"] = max(r["metrics"]["max_delay_ops"] for r in plain)
    return result


# -------------------------------------------------------------- reporting


def baseline_record() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "src_lines": src_lines,
        "predicted_movers": PREDICTED_MOVERS,
    }


def unit_of(name: str) -> str:
    return {**END_TO_END, **TREND, **PER_LAYER}[name]


def with_units(values: dict) -> dict:
    return {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "orientations" / "__init__.py").is_file():
        print(f"error: no orientations package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = W.WORKLOADS[args.workload]
    work = HERE / "_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        result = run_workload(wl, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if "metrics" not in result:
        print(f"error: no child run succeeded; first error: {result['errors'][:1]}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    listed = {name: value for name, value in metrics.items() if name in END_TO_END or name in PER_LAYER}
    trend = {name: value for name, value in metrics.items() if name not in listed}
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  children {result['children']}")
    for message in sorted(set(result["errors"])):
        print(f"  FAILED: {message}")
    for name, value in listed.items():
        print(f"  {name:36s} {value:14.6g} {unit_of(name)}")
    for name, value in trend.items():
        print(f"  {name:36s} {value:14.6g} {unit_of(name)}  (trend only)")
    print(f"  {'error_rate':36s} {result['failed'] / result['attempted']:14.6g} ratio")
    print(json.dumps({"baseline": baseline_record(), "trend": with_units(trend)}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": with_units(listed)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
