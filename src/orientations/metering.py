"""Machine-independent operation counting for enumeration runs.

Primitive operations are breadth-first searches and arc touches: an arc
that a search scans, an edge flipped, or an edge copied for a sink that
keeps the orientation, or serialized by the CLI.  Every search that
finds a path meets in the middle, those of the alpha finder, of a path
count and of the alpha expansion alike: it scans the out-arcs of the
vertices it grows from the source and the in-arcs of those it grows from
the target, or in the alpha finder's from every vertex below its target.
The sweeps of the strong-connectivity check search from one end: the
outward sweep scans only the arcs that leave the vertices it expands, and
the inward one only those that enter them.  Wall time never
enters the accounting, so delay and amortized-cost bounds can be
asserted portably.

A gap is the work between two consecutive emitted solutions, including the
work before the first and after the last; a finished run over ``s``
solutions therefore has ``s + 1`` gaps.  The meter keeps only running
values: the totals, the first gap, the largest gap and the largest after the
first, and a log2 histogram of the gaps, so its memory does not grow with
the number of solutions.
"""
from __future__ import annotations

__all__ = ["DelayMeter"]


class DelayMeter:
    """Counts primitive operations and folds them into per-gap maxima.

    ``max_delay_ops`` and ``max_delay_bfs`` are the largest operation and
    BFS counts of any closed gap.  ``first_gap_ops`` is the operation count
    of the first closed gap, the work before the first solution (the whole
    run when there is none), and ``max_later_delay_ops`` the largest of the
    gaps after it (0 when there are none), so ``max_delay_ops`` is the
    larger of the two.  ``gap_histogram[i]`` counts the closed gaps
    whose operation count has bit length ``i`` (so index 0 holds the empty
    gaps and index ``i > 0`` the gaps of ``2**(i-1)`` to ``2**i - 1`` ops).
    One meter instruments one enumeration run; create a fresh meter per run.
    """

    __slots__ = ("bfs_runs", "arc_touches", "emissions", "max_delay_ops", "max_delay_bfs",
                 "first_gap_ops", "max_later_delay_ops", "gap_histogram", "_mark_bfs",
                 "_mark_arcs", "_finished")

    def __init__(self):
        self.bfs_runs = 0
        self.arc_touches = 0
        self.emissions = 0
        self.max_delay_ops = 0
        self.max_delay_bfs = 0
        self.first_gap_ops = 0
        self.max_later_delay_ops = 0
        self.gap_histogram: list[int] = []
        self._mark_bfs = 0
        self._mark_arcs = 0
        self._finished = False

    def bfs(self) -> None:
        self.bfs_runs += 1

    def arcs(self, count: int) -> None:
        self.arc_touches += count

    def _close_gap(self) -> None:
        if self._finished:
            raise RuntimeError("meter already finished; use a fresh DelayMeter per run")
        bfs = self.bfs_runs - self._mark_bfs
        ops = bfs + self.arc_touches - self._mark_arcs
        self.max_delay_ops = max(self.max_delay_ops, ops)
        self.max_delay_bfs = max(self.max_delay_bfs, bfs)
        if not self.emissions:
            self.first_gap_ops = ops
        elif ops > self.max_later_delay_ops:
            self.max_later_delay_ops = ops
        histogram = self.gap_histogram
        bucket = ops.bit_length()
        if bucket >= len(histogram):
            histogram.extend([0] * (bucket + 1 - len(histogram)))
        histogram[bucket] += 1
        self._mark_bfs = self.bfs_runs
        self._mark_arcs = self.arc_touches

    def emitted(self) -> None:
        self._close_gap()
        self.emissions += 1

    def finished(self) -> None:
        """Close the trailing gap.  Call exactly once, after the run ends."""
        self._close_gap()
        self._finished = True

    @property
    def total_ops(self) -> int:
        return self.bfs_runs + self.arc_touches

    def amortized_ops(self) -> float | None:
        """Total operations per emitted solution; None when nothing was emitted."""
        if self.emissions == 0:
            return None
        return self.total_ops / self.emissions

    def summary(self) -> dict:
        return {
            "solutions": self.emissions,
            "total_bfs_runs": self.bfs_runs,
            "total_arc_touches": self.arc_touches,
            "total_ops": self.total_ops,
            "max_delay_ops": self.max_delay_ops,
            "max_delay_bfs": self.max_delay_bfs,
            "first_gap_ops": self.first_gap_ops,
            "max_later_delay_ops": self.max_later_delay_ops,
            "amortized_ops": self.amortized_ops(),
            "gap_histogram": list(self.gap_histogram),
        }
