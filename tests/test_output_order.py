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
     "61d5b7392283e1a4673786186b82eae4dee925a5ef48057f8530260c382540fc"),
    ("doubled-triangle", "odseq", ("--k", "1"), None,
     "7971c14624a69e8ea8d547cfca4bb9086f59de5311d6c387336517bd66458309"),
    ("doubled-triangle", "odseq", ("--k", "2"), None,
     "e5d51600d3737113d0ea5c14ab3fc6e899942fd9641e7ab0f07fbdebf58c567e"),
    ("doubled-triangle", "korient", ("--k", "1"), None,
     "22e0e7900b9d182920ed076528f65ff38a8700392c8f891f8a260d2edff36072"),
    ("doubled-triangle", "korient", ("--k", "2"), None,
     "61d5b7392283e1a4673786186b82eae4dee925a5ef48057f8530260c382540fc"),
    ("torus3x3", "alpha", ("--alpha", "2,2,2,2,2,2,2,2,2"), None,
     "530cd1ff228c7499afc811434e503fc283a2d3bf80134a7753612be916ed28d2"),
    ("torus3x3", "odseq", ("--k", "1"), None,
     "6b6125282e0d93594732b910eb55d636d776724006c606c1551c28845d95b1c7"),
    ("torus3x3", "odseq", ("--k", "2"), None,
     "5d2f75241fe5f26be4a78edd6a44cda3b1dce36a83fe817a52f1dab1be20284f"),
    ("torus3x3", "korient", ("--k", "1"), PREFIX_LINES,
     "c62747ac082cf123520600480834ca5a048daa136cd8c80fba5a906c3b0b43e7"),
    ("torus3x3", "korient", ("--k", "2"), None,
     "530cd1ff228c7499afc811434e503fc283a2d3bf80134a7753612be916ed28d2"),
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
