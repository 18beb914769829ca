"""Sparse linear-algebra views of a :class:`~repro.graph.DiGraph`.

Matrix conventions follow the paper (Section 2):

* ``A`` — adjacency matrix, ``[A]_{ij} = 1`` iff there is an edge
  ``i -> j``.
* ``Q`` — *backward* transition matrix, the row-normalised ``A^T``:
  ``[Q]_{ij} = 1 / |I(i)|`` iff there is an edge ``j -> i``. Rows of
  nodes with no in-edges are all zero.
* ``W`` — *forward* transition matrix, the row-normalised ``A`` used by
  RWR / Personalized PageRank: ``[W]_{ij} = 1 / |O(i)|`` iff ``i -> j``.

All builders return ``scipy.sparse.csr_array`` with ``int64`` index
arrays, assembled from the graph's CSR views
(:meth:`~repro.graph.DiGraph.csr_arrays`) without a per-edge Python
loop: ``A`` is the out-view, ``Q`` the in-view and ``Q^T`` the out-view,
each with its values filled in. ``dtype`` defaults to ``float64``;
pass ``float32`` to halve the memory footprint of the serving kernels.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.digraph import DiGraph

__all__ = [
    "adjacency_matrix",
    "backward_transition_matrix",
    "forward_transition_matrix",
    "row_normalize",
    "transition_pair",
]


def adjacency_matrix(
    graph: DiGraph, dtype: np.dtype | str = np.float64
) -> sp.csr_array:
    """The 0/1 adjacency matrix ``A`` with ``[A]_{ij} = 1`` iff ``i -> j``."""
    indptr, indices = graph.csr_arrays("out")
    return _csr_matrix(
        np.ones(indices.size, dtype=np.dtype(dtype)), indices, indptr
    )


def row_normalize(matrix: sp.sparray) -> sp.csr_array:
    """Divide each row by its sum; all-zero rows stay zero.

    The zero-row convention matches the paper's handling of nodes with
    no in-neighbours: SimRank (and SimRank*) propagate nothing *into*
    such nodes, which the zero row of ``Q`` encodes exactly. The input
    dtype is preserved for floating matrices (integer input promotes
    to ``float64``).
    """
    dtype = (
        matrix.dtype
        if np.issubdtype(matrix.dtype, np.floating)
        else np.float64
    )
    csr = sp.csr_array(matrix, dtype=dtype, copy=True)
    row_sums = np.asarray(csr.sum(axis=1)).ravel()
    scale = np.divide(
        1.0,
        row_sums,
        out=np.zeros_like(row_sums),
        where=row_sums != 0,
    )
    diag = sp.dia_array(
        (scale[np.newaxis, :], [0]), shape=(len(scale), len(scale))
    )
    out = sp.csr_array(diag @ csr, dtype=dtype)
    # the dia @ csr product leaves column indices unsorted within a
    # row; canonicalise so every build of the same matrix is
    # byte-identical — the contract delta application (CSR row
    # surgery against sorted rows) and artifact checksums rely on
    out.sort_indices()
    return out


def backward_transition_matrix(
    graph: DiGraph, dtype: np.dtype | str = np.float64
) -> sp.csr_array:
    """The paper's ``Q``: row-normalised transpose of the adjacency.

    ``[Q]_{ij} = 1 / |I(i)|`` when ``j in I(i)``, else 0. Row ``i`` is
    the in-view's row ``i`` with every value ``1 / |I(i)|``.
    """
    indptr, indices = graph.csr_arrays("in")
    scale = _inverse_in_degrees(graph, dtype)
    return _csr_matrix(
        np.repeat(scale, np.diff(indptr)), indices, indptr
    )


def transition_pair(
    graph: DiGraph, dtype: np.dtype | str = np.float64
) -> tuple[sp.csr_array, sp.csr_array]:
    """``(Q, Q^T)`` both in CSR form, straight from the two CSR views.

    The serving kernels consume the pair together (backward pass over
    ``Q^T``, Horner sweep over ``Q``), so the engine's caches and the
    :mod:`repro.index` artifact layer both build them through this one
    function. Row ``j`` of ``Q^T`` is the out-view's row ``j``; entry
    ``(j, i)`` holds ``1 / |I(i)|``. Both are byte-identical to
    ``row_normalize(A.T)`` and its CSR transpose.
    """
    q = backward_transition_matrix(graph, dtype=dtype)
    indptr, indices = graph.csr_arrays("out")
    scale = _inverse_in_degrees(graph, dtype)
    return q, _csr_matrix(scale[indices], indices, indptr)


def forward_transition_matrix(
    graph: DiGraph, dtype: np.dtype | str = np.float64
) -> sp.csr_array:
    """The RWR transition ``W``: row-normalised adjacency.

    ``[W]_{ij} = 1 / |O(i)|`` when ``j in O(i)``, else 0.
    """
    return row_normalize(adjacency_matrix(graph, dtype=dtype))


def _inverse_in_degrees(graph: DiGraph, dtype) -> np.ndarray:
    """``1 / |I(i)|`` per node in ``dtype`` (0 where ``I(i)`` is
    empty): the same operation, on the same operands, as
    :func:`row_normalize`'s scale, so the values agree bit for bit."""
    counts = graph.in_degrees().astype(np.dtype(dtype))
    return np.divide(
        1.0, counts, out=np.zeros_like(counts), where=counts != 0
    )


def _csr_matrix(
    data: np.ndarray, indices: np.ndarray, indptr: np.ndarray
) -> sp.csr_array:
    """A canonical CSR array over private ``int64`` copies of a
    graph view's (shared, read-only) index arrays."""
    n = indptr.size - 1
    matrix = sp.csr_array(
        (data, indices.astype(np.int64), indptr.copy()), shape=(n, n)
    )
    # rows of a graph view are sorted and duplicate-free
    matrix.has_canonical_format = True
    return matrix
