"""Graph substrate: CSR representation, builders, I/O and properties."""

from repro.graph.coo import EdgeList
from repro.graph.csr import CSRGraph
from repro.graph.builder import GraphBuilder, from_edge_array, from_edge_list

__all__ = [
    "CSRGraph",
    "EdgeList",
    "GraphBuilder",
    "from_edge_array",
    "from_edge_list",
]
