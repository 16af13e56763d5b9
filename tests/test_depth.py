"""Inputs deeper than Python's default recursion limit of 1,000 frames.

Every search keeps its levels on an explicit stack, so a search tree with
thousands of levels runs under the default limit.  Each case stays around
two seconds.
"""
import ast
import sys
from pathlib import Path

import pytest

import orientations
from orientations import (
    Multigraph,
    Orientation,
    enumerate_alpha,
    enumerate_k_connected,
    enumerate_outdegree_sequences,
    find_k_connected_orientation,
    graph_to_text,
    is_k_connected,
)
from orientations.cli import main

PARALLEL = 3000


@pytest.fixture(autouse=True)
def default_recursion_limit():
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


@pytest.fixture
def bundle():
    """Two vertices joined by 3,000 parallel edges, with a strong orientation."""
    graph = Multigraph(2, [(0, 1)] * PARALLEL)
    return graph, Orientation(graph, [1, 0] * (PARALLEL // 2))


def cycle(n):
    return Multigraph(n, [(i, (i + 1) % n) for i in range(n)])


def test_alpha_on_a_long_cycle():
    n = 1500
    got = []
    assert enumerate_alpha(cycle(n), [1] * n, lambda d: got.append(d.serialize())) == 2
    assert sorted(got) == ["+" * n, "-" * n]


def test_finder_on_many_parallel_edges(bundle):
    graph, _ = bundle
    found = find_k_connected_orientation(graph, 1)
    assert found is not None and is_k_connected(found, 1)


def test_sequences_on_many_parallel_edges(bundle):
    graph, seed = bundle
    got = []
    count = enumerate_outdegree_sequences(graph, 1, seed, lambda s, w: got.append(s))
    assert count == len(set(got)) == PARALLEL - 1
    assert set(got) == {(a, PARALLEL - a) for a in range(1, PARALLEL)}


class _Stop(Exception):
    pass


def test_k_connected_stopped_by_the_sink_leaves_the_seed_alone(bundle):
    graph, seed = bundle
    before = seed.serialize()
    got = []

    def sink(d):
        got.append(d.serialize())
        if len(got) == 50:
            raise _Stop

    with pytest.raises(_Stop):
        enumerate_k_connected(graph, 1, sink, seed=seed)
    assert len(set(got)) == 50
    assert seed.serialize() == before


def test_no_function_in_the_package_calls_itself():
    calls = []
    for path in sorted(Path(orientations.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                if isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
                    name = callee.attr if callee.value.id in ("self", "cls") else None
                else:
                    name = getattr(callee, "id", None)
                if name == func.name:
                    calls.append(f"{path.name}:{node.lineno} {func.name}")
    assert calls == []


def test_cli_leaves_the_recursion_limit_alone(tmp_path, capsys):
    n = 300
    path = tmp_path / "cycle.txt"
    path.write_text(graph_to_text(cycle(n)))
    assert main(["count", str(path), "--mode", "alpha", "--alpha", ",".join(["1"] * n)]) == 0
    assert capsys.readouterr().out == "# count=2\n"
    assert sys.getrecursionlimit() == 1000
