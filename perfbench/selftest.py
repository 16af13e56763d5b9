"""Fast self-test of the benchmark: ``python3 perfbench/selftest.py``.

1. Re-derives the frozen counts from sources independent of the package:
   brute force for the doubled wheel, the Tutte value T(0,1) for the 3x4
   torus, and a dynamic program over edges for the Eulerian orientations of
   the 4x5 torus.
2. Runs tiny variants of every workload kind (doubled triangle, 3x3 torus,
   small regular graphs) untraced and traced, and checks that every metric
   named in BENCHMARK.json and run.py is emitted.
3. Checks that the correctness gate fires on a deliberately wrong count and
   that the finder's witness check rejects a wrong orientation.
Exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import shutil
import sys
from collections import defaultdict
from dataclasses import replace

import run
import workloads as W


def count_k_connected(n, edges, k) -> int:
    """k-arc-connected orientations, by listing all 2^m of them."""
    checker = W.OrientationChecker(n, edges)
    verdict: dict[tuple, bool] = {}
    total = 0
    for bits in range(1 << len(edges)):
        alpha = checker.outdegrees(bits)
        if alpha not in verdict:
            verdict[alpha] = checker.k_connected_sequence(alpha, k)
        total += verdict[alpha]
    return total


def count_alpha_orientations(n, edges, alpha) -> int:
    """Orientations with outdegree vector ``alpha``, by a DP over edges whose
    state is the outdegree reached so far at every vertex."""
    last = {}
    for i, (u, v) in enumerate(edges):
        last[u] = last[v] = i
    states = {(0,) * n: 1}
    for i, (u, v) in enumerate(edges):
        following = defaultdict(int)
        for state, ways in states.items():
            for tail in (u, v):
                out = list(state)
                out[tail] += 1
                if out[tail] <= alpha[tail] and all(out[w] == alpha[w] for w in (u, v) if last[w] == i):
                    following[tuple(out)] += ways
        states = following
    return sum(states.values())


def tutte_0_1(edges) -> int:
    """T(0,1) by deletion-contraction: the number of outdegree sequences of
    strongly connected orientations of a connected graph."""
    memo: dict[tuple, int] = {}

    def canon(es):
        return tuple(sorted((min(u, v), max(u, v)) for u, v in es if u != v))

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
            if not joined(rest, u, v):
                memo[es] = 0  # a bridge contributes a factor x = 0
            else:
                merged = [(u if a == v else a, u if b == v else b) for a, b in rest]
                memo[es] = t(canon(rest)) + t(canon(merged))  # loops contribute y = 1
        return memo[es]

    return t(canon(edges))


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)
    print(f"ok: {message}")


def main() -> int:
    frozen = W.WORKLOADS
    check(count_k_connected(*W.doubled_wheel(), 1) == frozen["korient-wheel-cli"].expected,
          "brute force: doubled wheel has 56686 strong orientations")
    n, edges = W.torus(4, 5)
    check(count_alpha_orientations(n, edges, [2] * n) == frozen["alpha-torus"].expected,
          "edge DP: 4x5 torus has 16892 Eulerian orientations")
    check(tutte_0_1(W.torus(3, 4)[1]) == frozen["odseq-torus"].expected,
          "Tutte T(0,1) of the 3x4 torus is 54481")

    n3, e3 = W.torus(3, 3)
    tiny = {
        "cli": replace(frozen["korient-wheel-cli"], graph=W.doubled_triangle(),
                       expected=count_k_connected(*W.doubled_triangle(), 1)),
        "alpha": replace(frozen["alpha-torus"], graph=(n3, e3), expected=count_alpha_orientations(n3, e3, [2] * n3)),
        "odseq": replace(frozen["odseq-torus"], graph=(n3, e3), expected=tutte_0_1(e3)),
        "finder": replace(frozen["finder-regular"], sizes=(8, 10), batch=2),
    }
    triangle = W.doubled_triangle()
    check(W.check_witness(*triangle, "++++++", 2) is None and W.check_witness(*triangle, "+++++-", 2) is not None,
          "the witness check accepts a 2-arc-connected orientation and rejects one that is not")

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    check({w["name"] for w in bench["workloads"]} <= set(frozen), "BENCHMARK.json names known workloads")
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    check(end_to_end == set(run.END_TO_END) and per_layer == set(run.PER_LAYER),
          "BENCHMARK.json metrics match run.py")
    check(all(run.unit_of(m["name"]) == m["unit"] for m in bench["end_to_end"] + bench["per_layer"]),
          "BENCHMARK.json units match run.py")

    work = run.HERE / "_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        for kind, wl in tiny.items():
            plain = run.run_workload(wl, seed=7, seconds=0, trace=False, work=work)
            check(plain["failed"] == 0 and plain["attempted"] >= run.MIN_CHILDREN,
                  f"tiny {kind} passes its checks {plain['errors'][:1]}")
            wanted = set(run.END_TO_END) | set(run.TREND) - (set() if kind == "finder" else {"setup_tail_s"})
            check(set(plain["metrics"]) == wanted, f"tiny {kind} emits every end-to-end and trend metric")
            traced = run.run_workload(wl, seed=7, seconds=0, trace=True, work=work)
            check(traced["failed"] == 0 and set(traced["metrics"]) == set(run.PER_LAYER),
                  f"tiny {kind} traced emits every per-layer metric")
            if kind != "finder":
                wrong = run.run_workload(replace(wl, expected=wl.expected + 1), seed=7, seconds=0, trace=False, work=work)
                check(wrong["failed"] == wrong["attempted"] and "metrics" not in wrong,
                      f"tiny {kind} with a wrong expected count fails every operation")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
