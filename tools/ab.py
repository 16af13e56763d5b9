"""Compare two source trees of this package on one fixed list of runs.

Usage: ``python3 tools/ab.py BASE CHANGE [--runs N | --cpu N]``

BASE and CHANGE are checkouts of this repository (for instance one made
with ``git archive`` of the parent commit, and the working tree).  For each
side the script starts one worker interpreter with that side's ``src`` on
``PYTHONPATH``; the worker replays every run in-process and prints one JSON
record per run.  The run list is fixed and comes from this checkout, in
this order:

- every alpha class of the named graphs and of ``random_family(150,
  seed=61)`` of ``tests/families.py``, and of the doubled wheel;
- the 3x3 to 4x5 tori at alpha = 2, plain and relabelled with seeds 1-3;
- korient at k = 1..3 on the ladders L5, L6 and L8, the doubled L6 and the
  tripled 9-cycle, each plain and relabelled by ``relabelled`` of
  ``perfbench/workloads.py`` with seeds 1-2, stopped at the end of the
  outdegree class in which the 20,000th solution falls, so that a run
  lists whole classes;
- odseq at k = 1..3 on the same fifteen graphs, each stream whole;
- the perfbench children of seeds 1-3, children 0-3, of every workload
  that ``BENCHMARK.json`` names, each on the relabelled graph that
  ``perfbench/workloads.py`` draws for it and with the call its child
  makes (the CLI workload's sink charges m arc touches per line, as
  ``orientations enumerate`` does).

``--runs N`` replays only the first N runs of the list.  For each field
the script prints how many runs are equal, lower and higher in CHANGE than
in BASE: the sha256 of the stream in emission order and of its sorted
lines (for these two only equal or not), the number of solutions,
``total_ops``, BFS runs and ``max_delay_ops``.  Per perfbench workload it
then prints the mean ``ops_per_solution`` and the largest
``max_delay_ops`` of each side over the replayed children, the two
metrics the benchmark reports.  A korient run also records the sha256 of
the sorted lines of each outdegree class it lists.  A change to the order
of the classes can stop a capped run in another class, so when either
side's run was capped the two sides compare only the classes both list.
Each side also checks every class that it lists in a capped run, the
last one included, since a capped run stops at the end of a class,
against the sorted lines of ``enumerate_alpha`` on that class and that
side.  The script exits with status 1 when the two sides list different
sets: when a run that neither side capped differs in its sorted stream or
its solution count, or a capped run in a class both sides list; and when
a side lists a class in a capped run that its alpha expansion does not.
It exits with 0 otherwise.

``--cpu N`` replays no list.  It measures in-process CPU instead, on
child 1/0 (seed 1, child 0) of every workload that ``BENCHMARK.json``
names: N alternating pairs of BASE and CHANGE, the side that runs first
alternating from pair to pair, and as many pairs of two more BASE
workers, the A/A control; each of the four workers runs the child equally
often.  Per workload it prints the median of the ratios BASE CPU / CHANGE
CPU, above 1 when CHANGE is faster, and that of the control, which shows
how far identical code spreads on the machine.  The CPU of a run is that
of the package call and its sink, without the hashing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CAP = 20_000  # korient runs stop at the end of the class of this solution
FIELDS = ("stream_sha256", "sorted_sha256", "solutions", "total_ops", "bfs_runs", "max_delay_ops")


def _run_list() -> list[dict]:
    # The runs as plain data, in the docstring's order: the kind of call,
    # a name, the graph as (n, edges), the call's parameter and, for a
    # perfbench child, its workload.
    sys.path[:0] = [str(REPO / "tests"), str(REPO / "perfbench")]
    import families
    from workloads import WORKLOADS, relabelled

    def plain(graph) -> tuple[int, list]:
        return graph.n, [list(e) for e in graph.edges]

    def cycle(n: int, copies: int) -> tuple[int, list]:
        return n, [[i, (i + 1) % n] for i in range(n) for _ in range(copies)]

    runs = []
    for name, g in families.named_graphs() + families.random_family(150, seed=61) + [("doubled-wheel", families.doubled_wheel4())]:
        for alpha in _alpha_classes(*plain(g)):
            runs.append({"kind": "alpha", "name": f"{name} {alpha}", "graph": plain(g), "param": alpha})
    for rows in (3, 4):
        for cols in range(rows, 6):
            for seed in (None, 1, 2, 3):
                g = families.torus(rows, cols) if seed is None else families.relabelled_torus(rows, cols, seed)
                label = f"torus{rows}x{cols}" + ("" if seed is None else f" relabelled {seed}")
                runs.append({"kind": "alpha", "name": label, "graph": plain(g), "param": [2] * g.n})
    graphs = [(f"ladder{r}", plain(families.ladder(r))) for r in (5, 6, 8)]
    graphs += [("doubled-ladder6", plain(families.folded(families.ladder(6), 2))), ("tripled-cycle9", cycle(9, 3))]
    for seed in (1, 2):
        for name, (n, edges) in graphs[:5]:
            n, edges = relabelled(n, [tuple(e) for e in edges], random.Random(seed))
            graphs.append((f"{name} relabelled {seed}", (n, [list(e) for e in edges])))
    for name, graph in graphs:
        for k in (1, 2, 3):
            runs.append({"kind": "korient", "name": f"{name} k={k}", "graph": graph, "param": k})
    for name, graph in graphs:
        for k in (1, 2, 3):
            runs.append({"kind": "odseq", "name": f"{name} odseq k={k}", "graph": graph, "param": k})
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    for workload in (WORKLOADS[w["name"]] for w in benchmark["workloads"]):
        for seed in (1, 2, 3):
            for child in range(4):
                [(n, edges)] = workload.make_input(seed, child)
                param = [workload.alpha] * n if workload.kind == "alpha" else workload.k
                graph = (n, [list(e) for e in edges])
                name = f"{workload.name} {seed}/{child}"
                runs.append({"kind": workload.kind, "name": name, "graph": graph, "param": param, "workload": workload.name})
    return runs


def _alpha_classes(n: int, edges: list) -> list[list[int]]:
    # Every outdegree vector of the graph, in sorted order.
    vectors = {(0,) * n}
    for u, v in edges:
        vectors = {a[:x] + (a[x] + 1,) + a[x + 1 :] for a in vectors for x in (u, v)}
    return [list(a) for a in sorted(vectors)]


class _Enough(Exception):
    pass


def _replay(run: dict) -> dict:
    # One run on the package that this interpreter imports.
    import orientations

    n, edges = run["graph"]
    graph = orientations.Multigraph(n, [tuple(e) for e in edges])
    meter = orientations.DelayMeter()
    lines: list[str] = []
    kind, param = run["kind"], run["param"]
    capped = {}  # past the cap: the class, and the meter's totals at its last solution
    classes: dict[tuple, list[str]] = {}  # korient: each outdegree class's lines

    def orientation(d) -> None:
        line = d.serialize()
        if kind == "korient":
            out = d.outdegrees()
            if capped and out != capped["class"]:
                raise _Enough
            classes.setdefault(out, []).append(line)
        elif kind == "cli":
            meter.arcs(graph.m)
        lines.append(line)
        if kind == "korient" and len(lines) >= CAP:
            capped.update({"class": out, "total_ops": meter.total_ops, "bfs_runs": meter.bfs_runs})

    cpu = time.process_time()
    if kind == "alpha":
        orientations.enumerate_alpha(graph, param, orientation, meter=meter)
    elif kind == "odseq":
        seed = orientations.find_k_connected_orientation(graph, param, meter)
        orientations.enumerate_outdegree_sequences(
            graph, param, seed, lambda seq, _: lines.append(" ".join(map(str, seq))), meter=meter
        )
    else:
        try:
            orientations.enumerate_k_connected(graph, param, orientation, meter=meter)
        except _Enough:
            pass
    cpu = time.process_time() - cpu
    mismatches = []  # a capped run's classes whose lines are not those of the alpha expansion
    if capped:
        for out, found in classes.items():
            expanded: list[str] = []
            orientations.enumerate_alpha(graph, out, lambda d: expanded.append(d.serialize()))
            if sorted(expanded) != sorted(found):
                mismatches.append(" ".join(map(str, out)))
    return {
        "name": run["name"],
        "workload": run.get("workload"),
        "stream_sha256": _sha256(lines),
        "sorted_sha256": _sha256(sorted(lines)),
        "solutions": len(lines),
        "total_ops": capped.get("total_ops", meter.total_ops),
        "bfs_runs": capped.get("bfs_runs", meter.bfs_runs),
        "max_delay_ops": meter.max_delay_ops,
        "capped": bool(capped),
        "classes": {" ".join(map(str, out)): _sha256(sorted(c)) for out, c in classes.items()},
        "alpha_mismatches": mismatches,
        "cpu_s": cpu,
    }


def _sha256(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def replay(root: Path, runs: int | None = None) -> list[dict]:
    """The records of the first ``runs`` runs (all when None), replayed by
    one worker interpreter on the package in ``root/src``."""
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    command = [sys.executable, str(Path(__file__).resolve()), "--worker"]
    if runs is not None:
        command += ["--runs", str(runs)]
    out = subprocess.run(command, env=env, check=True, capture_output=True, text=True).stdout
    return [json.loads(line) for line in out.splitlines()]


class _Worker:
    # A worker interpreter on the package in ``root/src`` that replays, for
    # each run name it reads, that run, and prints its record.
    def __init__(self, root: Path):
        env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
        command = [sys.executable, str(Path(__file__).resolve()), "--worker", "--serve"]
        self.process = subprocess.Popen(command, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def replay(self, name: str) -> dict:
        self.process.stdin.write(name + "\n")
        self.process.stdin.flush()
        return json.loads(self.process.stdout.readline())

    def close(self) -> None:
        self.process.stdin.close()
        self.process.wait()


def cpu_pairs(base: Path, change: Path, pairs: int) -> None:
    """Prints, per benchmark workload, the median BASE / CHANGE CPU ratio
    of ``pairs`` alternating pairs on child 1/0, and that of as many pairs
    of two more BASE workers."""
    workloads = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]
    roots = {"base": base, "change": change, "base'": base, "control": base}
    workers = {side: _Worker(root) for side, root in roots.items()}
    try:
        for workload in workloads:
            ratios: dict[tuple[str, str], list[float]] = {("base", "change"): [], ("base'", "control"): []}
            for pair in range(pairs):
                for (first, second), found in ratios.items():
                    order = (first, second) if pair % 2 == 0 else (second, first)
                    cpu = {side: workers[side].replay(f"{workload} 1/0")["cpu_s"] for side in order}
                    found.append(cpu[first] / cpu[second])
            change_ratio, control = (statistics.median(found) for found in ratios.values())
            print(f"{workload} 1/0: CPU base/change {change_ratio:.3f} (A/A {control:.3f}, {pairs} pairs)", flush=True)
    finally:
        for worker in workers.values():
            worker.close()


def tally(base: list[dict], change: list[dict]) -> dict[str, tuple[int, int, int]]:
    """Per field, how many runs are (equal, lower, higher) in ``change``;
    a hash that differs counts as higher."""
    if [r["name"] for r in base] != [r["name"] for r in change]:
        raise ValueError("the two sides replayed different runs")
    counts = {}
    for field in FIELDS:
        equal = lower = higher = 0
        for b, c in zip(base, change):
            if b[field] == c[field]:
                equal += 1
            elif field.endswith("sha256") or c[field] > b[field]:
                higher += 1
            else:
                lower += 1
        counts[field] = (equal, lower, higher)
    return counts


def differing(base: list[dict], change: list[dict]) -> list[str]:
    """The names of the runs on which the two sides list different sets: a
    run that neither side capped and whose sorted streams or solution
    counts differ, or a capped run whose sorted hashes differ in a class
    that both sides list."""
    names = []
    for b, c in zip(base, change):
        if b["capped"] or c["capped"]:
            same = all(b["classes"][x] == c["classes"][x] for x in b["classes"].keys() & c["classes"].keys())
        else:
            same = b["sorted_sha256"] == c["sorted_sha256"] and b["solutions"] == c["solutions"]
        if not same:
            names.append(b["name"])
    return names


def alpha_mismatches(records: list[dict]) -> list[str]:
    """The runs and classes of one side's capped korient runs whose lines
    differ from those of ``enumerate_alpha`` on that side."""
    return [f"{r['name']}: {out}" for r in records for out in r["alpha_mismatches"]]


def _report(base: list[dict], change: list[dict]) -> int:
    counts = tally(base, change)
    print(f"{len(base)} runs")
    print(f"{'field':<16}{'equal':>8}{'lower':>8}{'higher':>8}")
    for field, (equal, lower, higher) in counts.items():
        if field.endswith("sha256"):
            print(f"{field:<16}{equal:>8}{'-':>8}{higher:>8} differ")
        else:
            print(f"{field:<16}{equal:>8}{lower:>8}{higher:>8}")
    workloads: dict[str, list] = {}
    for b, c in zip(base, change):
        if b["workload"] and b["solutions"]:
            workloads.setdefault(b["workload"], []).append((b, c))
    for name, pairs in workloads.items():
        figures = []
        for side in (0, 1):
            mean = sum(p[side]["total_ops"] / p[side]["solutions"] for p in pairs) / len(pairs)
            figures.append(f"{mean:.3f} / {max(p[side]['max_delay_ops'] for p in pairs)}")
        print(f"{name}: ops_per_solution / max_delay_ops {figures[0]} -> {figures[1]} ({len(pairs)} children)")
    capped = [(b, c) for b, c in zip(base, change) if b["capped"] or c["capped"]]
    if capped:
        common = sum(len(b["classes"].keys() & c["classes"].keys()) for b, c in capped)
        checked = [sum(len(r["classes"]) for r in side if r["capped"]) for side in (base, change)]
        print(f"{len(capped)} capped korient runs: compared {common} classes that both sides list")
        print(f"checked {checked[0]} / {checked[1]} classes of capped runs against their alpha expansions")
    different = differing(base, change)
    for name in different:
        print(f"different sets: {name}")
    mismatched = [(side, found) for side, records in (("base", base), ("change", change)) for found in alpha_mismatches(records)]
    for side, found in mismatched:
        print(f"class unlike its alpha expansion ({side}): {found}")
    return 1 if different or mismatched else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    choice = parser.add_mutually_exclusive_group()
    choice.add_argument("--runs", type=int, help="replay only the first RUNS runs")
    choice.add_argument("--cpu", type=int, metavar="N", help="measure N alternating CPU pairs per workload instead")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        runs = _run_list()
        if args.serve:
            named = {run["name"]: run for run in runs}
            for line in sys.stdin:
                print(json.dumps(_replay(named[line.strip()])), flush=True)
            return 0
        for run in runs[: args.runs]:
            print(json.dumps(_replay(run)), flush=True)
        return 0
    if args.base is None or args.change is None:
        parser.error("BASE and CHANGE are required")
    if args.cpu is not None:
        if args.cpu < 1:
            parser.error("--cpu needs at least one pair")
        cpu_pairs(args.base, args.change, args.cpu)
        return 0
    return _report(replay(args.base, args.runs), replay(args.change, args.runs))


if __name__ == "__main__":
    sys.exit(main())
