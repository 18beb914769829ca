"""Single-source SimRank* queries and top-k retrieval.

The evaluation issues single-node queries ("500 query nodes ... we
mainly focus on single-node queries"), which do not need the full
``n x n`` similarity matrix. Because SimRank*'s recursion is
two-sided, a naive vector iteration of Eq. (14) cannot produce one
column; instead we evaluate the series column directly::

    s^(., q) = sum_l w_l / 2^l * sum_a binom(l, a) Q^a (Q^T)^{l-a} e_q

walking the ``(a, b)`` grid of partial products ``Q^a (Q^T)^b e_q``
column by column — ``O(L^2)`` sparse mat-vecs and ``O(n)`` extra
memory for a length-``L`` truncation.

:func:`single_source` is served as the ``B = 1`` case of the blocked
kernel :func:`repro.core.multi_source.multi_source`, which shares one
precomputed table of the ``w_l * binom(l, a) / 2^l`` factors across
the whole grid (and across calls). The pre-blocking per-query walk is
kept as :func:`single_source_reference` — an independent oracle for
the parity tests and the "before" side of the benchmark harness.

These functions are stateless; :class:`repro.engine.SimilarityEngine`
wraps them with cached transition matrices and memoized answers for
query-serving workloads (pass ``transition`` / ``transition_t`` to
reuse a prebuilt ``Q`` here directly).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from repro.core.multi_source import multi_source
from repro.core.weights import GeometricWeights, WeightScheme
from repro.graph.digraph import DiGraph
from repro.graph.matrices import backward_transition_matrix
from repro.validation import validate_damping, validate_iterations

__all__ = [
    "single_pair",
    "single_source",
    "single_source_reference",
    "top_k",
]


def single_source(
    graph: DiGraph,
    query: int,
    c: float = 0.6,
    num_terms: int = 10,
    weights: WeightScheme | None = None,
    transition: sp.csr_array | None = None,
    transition_t: sp.csr_array | None = None,
    dtype: np.dtype | str = np.float64,
) -> np.ndarray:
    """SimRank* scores of every node against ``query`` (one column).

    Equals column ``query`` of
    :func:`repro.core.series.simrank_star_series` with the same
    truncation. It is the ``B = 1`` case of the blocked kernel
    :func:`~repro.core.multi_source.multi_source`: at most ``2L``
    sparse mat-vecs, ``O(L m)``, instead of ``O(L n m)``.

    ``transition`` (the backward transition matrix ``Q``) and
    ``transition_t`` (``Q^T`` in CSR form) may be passed to reuse
    precomputed matrices across queries; both are rebuilt from the
    graph when omitted. ``dtype`` selects the arithmetic precision
    (``float64`` default, ``float32`` opt-in).

    Examples
    --------
    One column of the all-pairs matrix, without building the matrix:

    >>> import numpy as np
    >>> from repro import DiGraph, simrank_star, single_source
    >>> g = DiGraph(3, edges=[(0, 1), (0, 2)])
    >>> column = single_source(g, 2, c=0.6, num_terms=10)
    >>> matrix = simrank_star(g, c=0.6, num_iterations=10)
    >>> bool(np.allclose(column, matrix[:, 2]))
    True
    """
    if not 0 <= query < graph.num_nodes:
        raise IndexError(f"query node {query} out of range")
    block = multi_source(
        graph,
        (query,),
        c=c,
        num_terms=num_terms,
        weights=weights,
        transition=transition,
        transition_t=transition_t,
        dtype=dtype,
    )
    return np.ascontiguousarray(block[:, 0])


def single_source_reference(
    graph: DiGraph,
    query: int,
    c: float = 0.6,
    num_terms: int = 10,
    weights: WeightScheme | None = None,
    transition: sp.csr_array | None = None,
    transition_t: sp.csr_array | None = None,
) -> np.ndarray:
    """The pre-blocking per-query series walk (``O(L^2)`` mat-vecs).

    Kept verbatim as an independent oracle: the parity tests assert
    :func:`multi_source` reproduces it column by column, and the bench
    harness times it as the per-query baseline the blocked kernel is
    measured against. Recomputes every ``w_l * binom(l, a) / 2^l``
    factor inline — the inefficiency the shared coefficient table
    removes.
    """
    if not 0 <= query < graph.num_nodes:
        raise IndexError(f"query node {query} out of range")
    validate_damping(c)
    validate_iterations(num_terms, "num_terms")
    if weights is None:
        weights = GeometricWeights(c)
    elif weights.c != c:
        raise ValueError(
            f"weight scheme damping {weights.c} disagrees with c={c}"
        )
    n = graph.num_nodes
    q = transition if transition is not None else (
        backward_transition_matrix(graph)
    )
    qt = transition_t if transition_t is not None else q.T.tocsr()
    result = np.zeros(n)
    backward = np.zeros(n)  # (Q^T)^beta e_q
    backward[query] = 1.0
    for beta in range(num_terms + 1):
        if beta > 0:
            backward = qt @ backward
        walker = backward  # Q^alpha (Q^T)^beta e_q, alpha = 0
        length = beta
        result = result + (
            weights.length_weight(length)
            * math.comb(length, 0)
            / 2.0 ** length
        ) * walker
        for alpha in range(1, num_terms - beta + 1):
            walker = q @ walker
            length = alpha + beta
            result = result + (
                weights.length_weight(length)
                * math.comb(length, alpha)
                / 2.0 ** length
            ) * walker
    return result


def single_pair(
    graph: DiGraph,
    u: int,
    v: int,
    c: float = 0.6,
    num_terms: int = 10,
    weights: WeightScheme | None = None,
) -> float:
    """SimRank* score of one node pair."""
    return float(single_source(graph, u, c, num_terms, weights)[v])


def top_k(
    graph: DiGraph,
    query: int,
    k: int = 10,
    c: float = 0.6,
    num_terms: int = 10,
    weights: WeightScheme | None = None,
    include_query: bool = False,
):
    """The ``k`` nodes most SimRank*-similar to ``query``.

    Returns a :class:`repro.engine.Ranking` — a sequence of
    ``(node, score)`` pairs sorted by descending score (ties broken by
    node id for determinism) whose entries also carry the node's label
    when the graph has labels. It compares equal to the plain list of
    pairs this function used to return. The query node itself is
    excluded unless ``include_query`` is set.

    Examples
    --------
    >>> from repro import DiGraph, top_k
    >>> g = DiGraph(3, edges=[(0, 1), (0, 2)], labels=["a", "b", "c"])
    >>> ranking = top_k(g, 1, k=2)
    >>> sorted(entry.label for entry in ranking)  # parent + sibling
    ['a', 'c']
    """
    # Imported lazily: repro.engine sits above repro.core in the layer
    # stack, so a module-level import would be circular.
    from repro.engine.results import Ranking

    if k < 0:
        raise ValueError("k must be >= 0")
    scores = single_source(graph, query, c, num_terms, weights)
    # only tag provenance when the scores really are geometric
    # SimRank*; custom weight schemes produce a different measure
    is_geometric = weights is None or isinstance(
        weights, GeometricWeights
    )
    return Ranking.from_scores(
        scores,
        query=query,
        k=k,
        labels=graph.labels,
        include_query=include_query,
        measure="gSR*" if is_geometric else None,
    )
