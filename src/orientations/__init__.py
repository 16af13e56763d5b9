"""Enumeration of alpha-orientations and k-arc-connected orientations of multigraphs.

Every enumerator streams its solutions through a sink callback, visits each
solution exactly once, and can be instrumented with a :class:`DelayMeter`
that counts machine-independent primitive operations between emissions.
"""

from .alpha import enumerate_alpha, find_alpha_orientation
from .connectivity import edge_connectivity, is_k_connected
from .kconn import find_k_connected_orientation
from .metering import DelayMeter
from .multigraph import GraphParseError, Multigraph, Orientation, graph_to_text, parse_graph
from .paths import lambda_at_least
from .sequences import enumerate_k_connected, enumerate_outdegree_sequences

__all__ = [
    "DelayMeter",
    "GraphParseError",
    "Multigraph",
    "Orientation",
    "edge_connectivity",
    "enumerate_alpha",
    "enumerate_k_connected",
    "enumerate_outdegree_sequences",
    "find_alpha_orientation",
    "find_k_connected_orientation",
    "graph_to_text",
    "is_k_connected",
    "lambda_at_least",
    "parse_graph",
]

__version__ = "0.1.0"
