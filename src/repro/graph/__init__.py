"""Directed-graph substrate: structure, matrices, generators, IO, statistics.

Every similarity measure in this package operates on :class:`DiGraph`,
a plain directed graph with dense integer node ids and optional labels,
stored as read-only sorted CSR arrays in both directions (copies share
them; edits splice new ones). The linear-algebra views (adjacency
``A``, backward transition ``Q``, forward transition ``W``) live in
:mod:`repro.graph.matrices` and are built straight from those arrays.
"""

from repro.graph.digraph import DiGraph
from repro.graph.matrices import (
    adjacency_matrix,
    backward_transition_matrix,
    forward_transition_matrix,
    row_normalize,
)
from repro.graph.generators import (
    citation_dag,
    complete_digraph,
    cycle_graph,
    erdos_renyi,
    family_tree,
    figure1_citation_graph,
    path_graph,
    random_digraph,
    rmat,
    star_graph,
    two_ray_path,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.stats import GraphStats, degree_histogram, graph_stats

__all__ = [
    "DiGraph",
    "GraphStats",
    "adjacency_matrix",
    "backward_transition_matrix",
    "citation_dag",
    "complete_digraph",
    "cycle_graph",
    "degree_histogram",
    "erdos_renyi",
    "family_tree",
    "figure1_citation_graph",
    "forward_transition_matrix",
    "graph_stats",
    "path_graph",
    "random_digraph",
    "read_edge_list",
    "rmat",
    "row_normalize",
    "star_graph",
    "two_ray_path",
    "write_edge_list",
]
