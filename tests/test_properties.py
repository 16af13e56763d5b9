"""Generated-input properties of the k-connected enumeration (needs ``hypothesis``)."""
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_k_connected
from orientations import Multigraph, Orientation, enumerate_k_connected
from orientations.oracle import brute_is_k_connected
from witnesses import assert_masks_exact


@st.composite
def multigraphs(draw):
    """Loopless multigraphs with n <= 5 and n - 1 <= m <= 8."""
    n = draw(st.integers(1, 5))
    if n == 1:
        return Multigraph(1, [])
    # The second endpoint is a nonzero shift of the first, so there are no loops.
    edge = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(lambda p: (p[0], (p[0] + p[1]) % n))
    edges = draw(st.lists(edge, min_size=n - 1, max_size=8))
    return Multigraph(n, edges)


def stream(graph, k):
    got = []
    count = enumerate_k_connected(graph, k, lambda d: got.append(d.serialize()))
    assert count == len(got)
    return got


@settings(derandomize=True, deadline=None, max_examples=200)
@given(multigraphs(), st.sampled_from((1, 2)))
def test_k_connected_stream_is_the_oracle_set_in_a_fixed_order(graph, k):
    got = stream(graph, k)
    assert len(got) == len(set(got))
    assert all(brute_is_k_connected(Orientation.deserialize(graph, s), k) for s in got)
    assert len(got) == len(oracle_k_connected(graph, k))
    assert stream(graph, k) == got


@st.composite
def flipped(draw):
    """A multigraph, a start orientation and a list of edge batches to flip."""
    graph = draw(multigraphs())
    dirs = draw(st.lists(st.booleans(), min_size=graph.m, max_size=graph.m))
    if not graph.m:
        return graph, dirs, []
    return graph, dirs, draw(st.lists(st.lists(st.integers(0, graph.m - 1), max_size=6), max_size=8))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(flipped())
def test_flips_keep_the_out_arc_masks_exact(case):
    graph, dirs, batches = case
    d = Orientation(graph, dirs)
    copies = [d.copy()]
    for batch in batches:
        d._flip(batch)
        assert_masks_exact(d)
        copies.append(d.copy())
    for dup in copies:  # later flips of d leave every copy as it was
        assert_masks_exact(dup)
