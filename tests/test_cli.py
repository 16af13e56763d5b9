import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import families
import orientations
from orientations import Multigraph, cli, graph_to_text, is_k_connected, sequences
from orientations.cli import main

C4 = "4 4\n0 1\n1 2\n2 3\n3 0\n"
TRIANGLE = "3 3\n0 1\n1 2\n2 0\n"
DOUBLED_TRIANGLE = "3 6\n0 1\n0 1\n1 2\n1 2\n2 0\n2 0\n"


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text(C4)
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text(TRIANGLE)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_korient_four_cycle(capsys, c4_file):
    code, out, _ = run_cli(capsys, "enumerate", c4_file, "--mode", "korient", "--k", "1")
    assert code == 0
    assert out.splitlines() == ["++++", "----", "# count=2"]


def test_enumerate_alpha_four_cycle(capsys, c4_file, tmp_path):
    code, out, _ = run_cli(
        capsys, "enumerate", c4_file, "--mode", "alpha", "--alpha", "1,1,1,1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "# count=2"
    assert sorted(lines[:-1]) == ["++++", "----"]

    # A 0-vertex graph takes the empty vector and has the empty orientation.
    empty = tmp_path / "empty.txt"
    empty.write_text("0 0\n")
    code, out, _ = run_cli(capsys, "enumerate", str(empty), "--mode", "alpha", "--alpha", "")
    assert code == 0
    assert out.splitlines() == ["", "# count=1"]


def test_enumerate_odseq(capsys, c4_file):
    code, out, _ = run_cli(capsys, "enumerate", c4_file, "--mode", "odseq", "--k", "1")
    assert code == 0
    assert out.splitlines() == ["1 1 1 1", "# count=1"]


def test_infeasible_is_count_zero_exit_zero(capsys, triangle_file):
    code, out, _ = run_cli(capsys, "enumerate", triangle_file, "--mode", "korient", "--k", "2")
    assert code == 0
    assert out.splitlines() == ["# count=0"]


def test_count_matches_enumerate(capsys, c4_file):
    for mode, extra in (
        ("korient", ["--k", "1"]),
        ("odseq", ["--k", "1"]),
        ("alpha", ["--alpha", "1,1,1,1"]),
    ):
        _, full, _ = run_cli(capsys, "enumerate", c4_file, "--mode", mode, *extra)
        code, only, _ = run_cli(capsys, "count", c4_file, "--mode", mode, *extra)
        assert code == 0
        solutions = [line for line in full.splitlines() if not line.startswith("#")]
        assert only.strip() == f"# count={len(solutions)}"


def test_output_is_deterministic(capsys, tmp_path):
    path = tmp_path / "dt.txt"
    path.write_text(DOUBLED_TRIANGLE)
    _, first, _ = run_cli(capsys, "enumerate", str(path), "--mode", "korient", "--k", "1")
    _, second, _ = run_cli(capsys, "enumerate", str(path), "--mode", "korient", "--k", "1")
    assert first == second
    assert first.splitlines()[-1] == "# count=46"


def test_parse_error_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n0 1\n1 1\n")
    code, _, err = run_cli(capsys, "enumerate", str(path), "--mode", "korient", "--k", "1")
    assert code == 1
    assert "line 3" in err

    # Bytes that are not UTF-8 make the file malformed, not the parameters.
    path.write_bytes(b"4 4\n0 1\n1 2\n2 3\n3 0 \xe9\n")
    code, _, err = run_cli(capsys, "enumerate", str(path), "--mode", "korient", "--k", "1")
    assert code == 1
    assert "utf-8" in err


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "enumerate", "/nonexistent/g.txt", "--mode", "korient", "--k", "1")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--mode", "korient"),  # missing --k
        ("enumerate", "--mode", "alpha"),  # missing --alpha
        ("enumerate", "--mode", "korient", "--k", "0"),
        ("enumerate", "--mode", "alpha", "--alpha", "1,1"),  # wrong length
        ("enumerate", "--mode", "alpha", "--alpha", "a,b,c,d"),
        ("bench", "--mode", "korient", "--k", "1", "--oracle"),
    ],
)
def test_parameter_errors_exit_2(capsys, c4_file, argv):
    argv = list(argv)
    argv.insert(1, c4_file)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err


def test_bench_records(capsys, c4_file):
    code, out, _ = run_cli(capsys, "bench", c4_file, "--mode", "korient", "--k", "1")
    assert code == 0
    [summary] = [json.loads(line) for line in out.splitlines()]
    assert summary["record"] == "summary"
    assert summary["mode"] == "korient"
    assert summary["solutions"] == 2
    assert sum(summary["gap_histogram"]) == 3  # one per solution plus the trailing gap
    assert len(summary["gap_histogram"]) == summary["max_delay_ops"].bit_length() + 1
    assert summary["total_ops"] == summary["total_bfs_runs"] + summary["total_arc_touches"]


def test_readme_bench_example_is_current(capsys, c4_file):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("For the 4-cycle\n(`--mode korient --k 1`):\n\n```json\n")[1].split("```")[0]
    code, out, _ = run_cli(capsys, "bench", c4_file, "--mode", "korient", "--k", "1")
    assert code == 0
    assert json.loads(out) == json.loads(block)


def test_bench_zero_solutions(capsys, triangle_file):
    code, out, _ = run_cli(capsys, "bench", triangle_file, "--mode", "korient", "--k", "2")
    assert code == 0
    [summary] = [json.loads(line) for line in out.splitlines()]
    assert summary["record"] == "summary"
    assert summary["solutions"] == 0
    assert sum(summary["gap_histogram"]) == 1


def test_oracle_mode_agrees_with_algorithm(capsys, tmp_path):
    path = tmp_path / "dt.txt"
    path.write_text(DOUBLED_TRIANGLE)
    for mode, extra in (
        ("korient", ["--k", "1"]),
        ("odseq", ["--k", "1"]),
        ("alpha", ["--alpha", "2,2,2"]),
    ):
        _, fast, _ = run_cli(capsys, "enumerate", str(path), "--mode", mode, *extra)
        code, brute, _ = run_cli(
            capsys, "enumerate", str(path), "--mode", mode, *extra, "--oracle"
        )
        assert code == 0
        assert set(fast.splitlines()) == set(brute.splitlines())


def test_seed_orientation_flag(capsys, tmp_path):
    graph_path = tmp_path / "dt.txt"
    graph_path.write_text(DOUBLED_TRIANGLE)
    seed_path = tmp_path / "seed.txt"
    seed_path.write_text("+-+-+-\n")
    code, out, _ = run_cli(
        capsys,
        "enumerate", str(graph_path), "--mode", "korient", "--k", "2",
        "--seed-orientation", str(seed_path),
    )
    assert code == 0
    assert out.splitlines()[-1] == "# count=10"

    weak = tmp_path / "weak.txt"
    weak.write_text("+-++++\n")
    code, _, err = run_cli(
        capsys,
        "enumerate", str(graph_path), "--mode", "korient", "--k", "2",
        "--seed-orientation", str(weak),
    )
    assert code == 2
    assert "not k-connected" in err

    malformed = tmp_path / "malformed.txt"
    for content in (b"++\n", b"+-+-+\xe9\n"):  # too short; not UTF-8
        malformed.write_bytes(content)
        code, _, _ = run_cli(
            capsys,
            "enumerate", str(graph_path), "--mode", "korient", "--k", "2",
            "--seed-orientation", str(malformed),
        )
        assert code == 1


class _FlushLog(io.StringIO):
    # Records what had been written at each flush.
    def __init__(self):
        super().__init__()
        self.flushed = []

    def flush(self):
        self.flushed.append(self.getvalue())


def test_first_line_is_flushed_at_once_and_the_rest_in_batches(c4_file, monkeypatch):
    stream = _FlushLog()
    monkeypatch.setattr(sys, "stdout", stream)
    clock = iter([10.0, 10.06, 10.07])
    monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock))
    assert main(["enumerate", c4_file, "--mode", "korient", "--k", "1"]) == 0
    first, second, count = stream.getvalue().splitlines(keepends=True)
    # The first line at once, the second once 50 ms have passed since, the count line at exit.
    assert stream.flushed == [first, first + second, first + second + count]


def test_output_file_option(tmp_path, c4_file):
    target = tmp_path / "out.txt"
    code = main(["enumerate", c4_file, "--mode", "korient", "--k", "1", "-o", str(target)])
    assert code == 0
    assert target.read_text().splitlines()[-1] == "# count=2"


@pytest.mark.parametrize(
    "graph_text, extra, want",
    [
        ("3 2\n0 1\n1 1\n", ("--mode", "korient", "--k", "1"), 1),  # malformed graph
        (C4, ("--mode", "korient"), 2),  # missing --k
        ("2 26\n" + "0 1\n" * 26, ("--mode", "alpha", "--alpha", "13,13", "--oracle"), 2),
        (
            "13 13\n" + "".join(f"{i} {(i + 1) % 13}\n" for i in range(13)),
            ("--mode", "korient", "--k", "1", "--oracle"),
            2,
        ),
        (DOUBLED_TRIANGLE, ("--mode", "korient", "--k", "2", "--seed-orientation", "weak.txt"), 2),
        # Only the k-connected search reads a seed; a seed it would not read is rejected.
        (DOUBLED_TRIANGLE, ("--mode", "korient", "--k", "1", "--oracle", "--seed-orientation", "weak.txt"), 2),
        (DOUBLED_TRIANGLE, ("--mode", "alpha", "--alpha", "2,2,2", "--seed-orientation", "weak.txt"), 2),
        # Every mode rejects a parameter it would not read.
        (DOUBLED_TRIANGLE, ("--mode", "alpha", "--alpha", "2,2,2", "--k", "5"), 2),
        (DOUBLED_TRIANGLE, ("--mode", "odseq", "--k", "1", "--alpha", "9"), 2),
        (DOUBLED_TRIANGLE, ("--mode", "korient", "--k", "1", "--alpha", "2,2,2"), 2),
    ],
    ids=[
        "malformed-graph",
        "missing-k",
        "oracle-edge-limit",
        "oracle-vertex-limit",
        "weak-seed",
        "seed-with-oracle",
        "seed-in-alpha-mode",
        "k-in-alpha-mode",
        "alpha-in-odseq-mode",
        "alpha-in-korient-mode",
    ],
)
def test_output_file_survives_a_rejected_run(tmp_path, capsys, monkeypatch, graph_text, extra, want):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.txt").write_text(graph_text)
    (tmp_path / "weak.txt").write_text("+-++++\n")  # strongly but not 2-arc-connected
    target = tmp_path / "out.txt"
    target.write_text("keep me\n")
    code = main(["count", "graph.txt", *extra, "-o", str(target)])
    assert code == want
    assert capsys.readouterr().err
    assert target.read_text() == "keep me\n"


@pytest.mark.parametrize("output", ["missing-dir/out.txt", "."], ids=["missing-dir", "a-directory"])
def test_unwritable_output_fails_before_the_run(tmp_path, capsys, monkeypatch, output):
    def boom(*args, **kwargs):
        raise AssertionError("the enumeration ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "enumerate_k_connected", boom)
    (tmp_path / "graph.txt").write_text(DOUBLED_TRIANGLE)
    code = main(["count", "graph.txt", "--mode", "korient", "--k", "1", "-o", output])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["graph.txt"]


@pytest.mark.parametrize("existing", [True, False], ids=["read-only-file", "read-only-dir"])
def test_read_only_output_fails_before_the_run(tmp_path, capsys, monkeypatch, existing):
    def boom(*args, **kwargs):
        raise AssertionError("the enumeration ran")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "enumerate_k_connected", boom)
    (tmp_path / "graph.txt").write_text(DOUBLED_TRIANGLE)
    target = tmp_path / "out.txt"
    if existing:
        target.write_text("keep me\n")
    # The suite may run as root, who can write anywhere, so the check's answer is faked.
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    code = main(["count", "graph.txt", "--mode", "korient", "--k", "1", "-o", "out.txt"])
    assert code == 1
    assert "Permission denied" in capsys.readouterr().err
    if existing:
        assert target.read_text() == "keep me\n"
    else:
        assert not target.exists()


def test_seed_is_checked_once(capsys, tmp_path, monkeypatch):
    calls = []

    def counting(d, k):
        calls.append(k)
        return is_k_connected(d, k)

    monkeypatch.setattr(cli, "is_k_connected", counting, raising=False)
    monkeypatch.setattr(sequences, "is_k_connected", counting)
    graph_path = tmp_path / "dt.txt"
    graph_path.write_text(DOUBLED_TRIANGLE)
    seed_path = tmp_path / "seed.txt"
    seed_path.write_text("+-+-+-\n")
    code, out, _ = run_cli(
        capsys,
        "count", str(graph_path), "--mode", "korient", "--k", "2",
        "--seed-orientation", str(seed_path),
    )
    assert (code, out) == (0, "# count=10\n")
    assert calls == [2]


def test_oracle_odseq_keeps_no_row_per_orientation(capsys, tmp_path):
    # The run keeps only the set of outdegree vectors: 52 of them for the
    # 14-edge triangle, whose 2^14 orientations hold about 10^4 strong ones.
    # Its peak stays under 0.2 MB; one small tuple per strong orientation
    # kept in a list peaks above 1.1 MB.
    warm = tmp_path / "dt.txt"
    warm.write_text(DOUBLED_TRIANGLE)
    code, out, _ = run_cli(capsys, "count", str(warm), "--mode", "odseq", "--k", "1", "--oracle")
    assert (code, out) == (0, "# count=7\n")
    path = tmp_path / "triangle14.txt"
    path.write_text(graph_to_text(Multigraph(3, [(0, 1)] * 5 + [(1, 2)] * 5 + [(2, 0)] * 4)))
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, "count", str(path), "--mode", "odseq", "--k", "1", "--oracle")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (0, "# count=52\n")
    assert peak < 512 * 1024


def test_readme_lists_exactly_the_exports():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("The package exports exactly these names:")[1].split(".")[0]
    assert sorted(re.findall(r"`(\w+)`", sentence)) == sorted(orientations.__all__)


def test_enumerate_charges_m_per_orientation_line(capsys, monkeypatch, tmp_path):
    # count and bench keep no solution and charge nothing per leaf;
    # enumerate charges m for each orientation it serializes.
    meters = []

    class Recorded(orientations.DelayMeter):
        def __init__(self):
            super().__init__()
            meters.append(self)

    monkeypatch.setattr(cli, "DelayMeter", Recorded)
    path = tmp_path / "dt.txt"
    path.write_text(DOUBLED_TRIANGLE)
    for mode, extra, per_line in (
        ("korient", ["--k", "1"], 6),
        ("alpha", ["--alpha", "2,2,2"], 6),
        ("odseq", ["--k", "1"], 0),
    ):
        for command in ("enumerate", "count", "bench"):
            assert run_cli(capsys, command, str(path), "--mode", mode, *extra)[0] == 0
        enumerated, counted, benched = meters[-3:]
        assert counted.summary() == benched.summary()
        assert enumerated.bfs_runs == benched.bfs_runs
        assert enumerated.emissions == benched.emissions > 0
        assert enumerated.total_ops == benched.total_ops + per_line * benched.emissions


def test_a_closed_output_pipe_exits_3_quietly(tmp_path):
    # The doubled wheel's 56,686 lines overflow the pipe, so the run is
    # still writing when the reader closes it after the first line, which
    # is the finder's witness: the search keeps every vertex first.
    path = tmp_path / "wheel.txt"
    path.write_text(graph_to_text(families.doubled_wheel4()))
    proc = subprocess.Popen(
        [sys.executable, "-m", "orientations.cli", "enumerate", str(path), "--mode", "korient", "--k", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_CLOSED == 3
    assert (first, err) == (b"+++++++-++++++++\n", b"")


def test_a_closed_output_pipe_points_stdout_at_devnull(monkeypatch, c4_file):
    # What the stream still buffers then goes nowhere at the flush on exit.
    read, write = os.pipe()
    os.close(read)
    with open(write, "w", encoding="utf-8") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["enumerate", c4_file, "--mode", "korient", "--k", "1"]) == 3
        assert os.path.samestat(os.fstat(write), os.stat(os.devnull))
        stream.write("more\n")


def test_an_interrupted_run_exits_130_with_its_lines_flushed(monkeypatch, capsys, tmp_path):
    # The enumerator emits one line and is interrupted; the line stays
    # written, on standard output and in an -o file, and standard error gets
    # one line and no traceback.
    def interrupted(graph, k, seed, sink, *, meter=None):
        sink((2, 2), None)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "enumerate_outdegree_sequences", interrupted)
    graph = tmp_path / "doubled.txt"
    graph.write_text(DOUBLED_TRIANGLE)
    argv = ["enumerate", str(graph), "--mode", "odseq", "--k", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (cli.EXIT_INTERRUPTED, "2 2\n", "interrupted\n") and code == 130
    written = tmp_path / "out.txt"
    code, out, err = run_cli(capsys, *argv, "-o", str(written))
    assert (code, out, err) == (130, "", "interrupted\n")
    assert written.read_text() == "2 2\n"


def test_console_entry_point(c4_file):
    result = subprocess.run(
        [sys.executable, "-m", "orientations.cli", "count", c4_file, "--mode", "korient", "--k", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "# count=2"
