"""The keep contract of the one emission loop.

Every enumerator hands its sink a view on the live orientation.  A view the
sink keeps becomes a copy that never changes, charged m arc touches in its
leaf's gap; a view it drops costs nothing.  Checked on the acceptance family
and the 3x3 torus, for all three enumerators.
"""
import gc

import pytest

import families
from orientations import (
    DelayMeter,
    Orientation,
    enumerate_alpha,
    enumerate_k_connected,
    enumerate_outdegree_sequences,
)


def _runs(graph, alphas, ks):
    # run(sink, meter) for every enumeration of ``graph``; each calls
    # sink(orientation) at every leaf (odseq with its witness).
    runs = [lambda sink, meter, a=a: enumerate_alpha(graph, a, sink, meter=meter) for a in alphas]
    for k in ks:
        runs.append(lambda sink, meter, k=k: enumerate_k_connected(graph, k, sink, meter=meter))
        runs.append(
            lambda sink, meter, k=k: enumerate_outdegree_sequences(graph, k, None, lambda _, w: sink(w), meter=meter)
        )
    return runs


def _cases():
    # (graph, run) pairs: on the acceptance family, alpha for the outdegrees
    # of the all-forward orientation and k = 1, 2; on the 3x3 torus the
    # Eulerian alpha, korient k = 2 and odseq k = 1, 2 (korient k = 1 has
    # 76,684 solutions).
    for _, graph in families.acceptance_family():
        for run in _runs(graph, [Orientation(graph).outdegrees()], (1, 2)):
            yield graph, run
    torus = families.torus(3, 3)
    for run in _runs(torus, [[2] * 9], (2,)) + _runs(torus, [], (1,))[1:]:
        yield torus, run


def _trace(run, keep):
    # Runs with a sink that keeps the leaves whose index ``keep`` picks;
    # returns the meter, each kept orientation with its text inside the
    # call, and the meter's total_ops on entry to every call.
    meter, kept, at = DelayMeter(), [], []

    def sink(d):
        if keep(len(at)):
            kept.append((d, d.serialize()))
        at.append(meter.total_ops)

    assert run(sink, meter) == len(at)
    return meter, kept, at


def test_a_kept_orientation_is_a_copy_charged_m_in_its_gap():
    checked = 0
    for graph, run in _cases():
        dropped, _, base = _trace(run, lambda i: False)
        assert dropped.first_gap_ops == (base[0] if base else dropped.total_ops)
        assert dropped.max_delay_ops == max(dropped.first_gap_ops, dropped.max_later_delay_ops)
        for keep in (lambda i: True, lambda i: i % 2 == 0):
            meter, kept, at = _trace(run, keep)
            assert len({text for _, text in kept}) == len(kept)
            assert [d.serialize() for d, _ in kept] == [text for _, text in kept]
            # Each leaf enters its call having paid m for every kept leaf before it.
            paid = [0]
            for i in range(len(base)):
                paid.append(paid[-1] + graph.m * keep(i))
            assert at == [ops + charge for ops, charge in zip(base, paid)]
            assert meter.total_ops == dropped.total_ops + paid[-1]
            assert meter.bfs_runs == dropped.bfs_runs
            assert meter.max_delay_ops <= dropped.max_delay_ops + graph.m
            checked += len(kept)
    assert checked > 10_000


class _Stop(Exception):
    pass


def test_an_orientation_stored_before_the_sink_raises_never_changes():
    stops = []
    for graph, run in _cases():
        count = run(lambda d: None, DelayMeter())
        for stop in sorted({0, count - 1} if count else ()):
            meter, stored = DelayMeter(), []

            def sink(d):
                if len(stored) == stop:
                    # d._dirs is the live buffer the walk would go on flipping.
                    stored.append((d, d.serialize(), d.outdegrees(), d._dirs, meter.arc_touches))
                    raise _Stop
                stored.append(None)

            with pytest.raises(_Stop):
                run(sink, meter)
            stops.append((graph.m, meter, stored[-1]))
    gc.collect()
    for m, meter, (d, text, out, live, touches) in stops:
        assert (d.serialize(), d.outdegrees()) == (text, out)
        live[:] = bytes(1 - x for x in live)
        assert (d.serialize(), d.outdegrees()) == (text, out)
        assert meter.arc_touches == touches + m
    assert len(stops) > 1_000
