"""Frozen output bytes and order of the CLI ``enumerate`` stream.

Each case hashes what ``orientations enumerate`` writes, so any change to
the emitted solutions, their order or their text form changes a digest.
The 3x3 torus with ``--mode korient --k 1`` emits 76,684 lines; only its
first ``PREFIX_LINES`` are hashed to keep the module under a second.
"""
import hashlib
import io
import sys

import pytest

from orientations import Multigraph, graph_to_text
from orientations.cli import main

PREFIX_LINES = 5000


def torus(rows: int, cols: int) -> Multigraph:
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            edges.append((v, i * cols + (j + 1) % cols))
            edges.append((v, ((i + 1) % rows) * cols + j))
    return Multigraph(rows * cols, edges)


GRAPHS = {
    "doubled-triangle": Multigraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)]),
    "torus3x3": torus(3, 3),
}

# (graph, mode, parameters, lines hashed (None: all), sha256 of those bytes)
CASES = [
    ("doubled-triangle", "alpha", ("--alpha", "2,2,2"), None,
     "35328877c92f8a436fcc3ed56dc1f242d72b78e44965abbf5e228daa7dae32d7"),
    ("doubled-triangle", "odseq", ("--k", "1"), None,
     "4ae553d27815149ad145c041be60a4748b3caeeebf1b2ae2afb970093394e7e2"),
    ("doubled-triangle", "odseq", ("--k", "2"), None,
     "e5d51600d3737113d0ea5c14ab3fc6e899942fd9641e7ab0f07fbdebf58c567e"),
    ("doubled-triangle", "korient", ("--k", "1"), None,
     "e16266a51349ca8d4c0a2b0e6972dd15a3c7be745ab462ef7d4cbb3aebe82fa6"),
    ("doubled-triangle", "korient", ("--k", "2"), None,
     "35328877c92f8a436fcc3ed56dc1f242d72b78e44965abbf5e228daa7dae32d7"),
    ("torus3x3", "alpha", ("--alpha", "2,2,2,2,2,2,2,2,2"), None,
     "a21432dfd380608d86836dd0edea5c28199498cef9c43f7d5d925ebe5998327e"),
    ("torus3x3", "odseq", ("--k", "1"), None,
     "1641f887b1e9650b26bbdef7a32bb14e40ade0fa273545b2f45cd375caf7c410"),
    ("torus3x3", "odseq", ("--k", "2"), None,
     "5d2f75241fe5f26be4a78edd6a44cda3b1dce36a83fe817a52f1dab1be20284f"),
    ("torus3x3", "korient", ("--k", "1"), PREFIX_LINES,
     "2cddb33b7314b18428c448fa8a55b4840a0811e75422930a52d8e883f1c0a5e5"),
    ("torus3x3", "korient", ("--k", "2"), None,
     "a21432dfd380608d86836dd0edea5c28199498cef9c43f7d5d925ebe5998327e"),
]


class _Enough(Exception):
    pass


class _CappedStdout(io.StringIO):
    """Stdout stand-in that stops the run once ``limit`` lines are written."""

    def __init__(self, limit: int | None):
        super().__init__()
        self.limit = limit
        self.lines = 0

    def write(self, text: str) -> int:
        lines = text.count("\n")
        if self.limit is not None and self.lines + lines >= self.limit:
            # One write may carry several lines: keep those up to the limit.
            keep = self.limit - self.lines
            super().write("\n".join(text.split("\n")[:keep]) + "\n")
            self.lines = self.limit
            raise _Enough
        self.lines += lines
        return super().write(text)


@pytest.mark.parametrize(
    "name, mode, params, lines, digest", CASES, ids=[f"{c[0]}-{c[1]}-{c[2][1]}" for c in CASES]
)
def test_enumerate_stream_digest(tmp_path, monkeypatch, name, mode, params, lines, digest):
    path = tmp_path / f"{name}.txt"
    path.write_text(graph_to_text(GRAPHS[name]))
    stdout = _CappedStdout(lines)
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["enumerate", str(path), "--mode", mode, *params]) == 0
    except _Enough:
        assert stdout.lines == lines
    else:
        assert lines is None
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == digest


def test_capped_stdout_keeps_exactly_limit_lines():
    stdout = _CappedStdout(3)
    with pytest.raises(_Enough):
        for i in range(0, 10, 2):
            stdout.write(f"{i}\n{i + 1}\n")
    assert (stdout.lines, stdout.getvalue()) == (3, "0\n1\n2\n")
