"""Blocked multi-source SimRank* queries — many columns in one grid walk.

:func:`repro.core.queries.single_source` evaluates one series column by
walking the ``(alpha, beta)`` grid of partial products
``Q^alpha (Q^T)^beta e_q`` — ``O(L^2)`` sparse mat-*vecs* per query.
Serving a batch of ``B`` query nodes that way costs ``B`` independent
walks, and the per-call overhead of a sparse mat-vec dwarfs its
arithmetic on real graphs.

:func:`multi_source` evaluates the same truncated series for a dense
``n x B`` block of one-hot query columns ``E`` with at most ``2 L``
sparse products per block instead of ``B * O(L^2)`` mat-vecs, by
factorising the grid::

    S[:, queries] = sum_a Q^a U_a,
    U_a           = sum_b coef[b, a] (Q^T)^b E

1. **backward pass** — ``L`` sparse x block products build
   ``W_b = (Q^T)^b E`` for ``b = 0 .. L``;
2. **coefficient contraction** — one dense ``(L+1) x (L+1)`` GEMM
   against the stacked ``W`` turns the scalar table
   ``coef[b, a] = w_{a+b} * binom(a+b, a) / 2^{a+b}`` into every
   ``U_a`` at once (BLAS-3, no per-term Python);
3. **Horner sweep** — ``result = U_0 + Q (U_1 + Q (U_2 + ...))``,
   ``L`` more sparse x block products, each accumulated into ``U_a``
   in place through :func:`repro.core.kernels.spmm`.

A query's in-degree decides how much of that it needs, so each batch
is split into three classes, read off the CSR row pointers alone (a
stored zero only ever sends a query down the longer path):

* **in-linked** (row ``q`` of ``Q`` non-empty) — the full walk above;
* **in-link-free with out-links** — ``(Q^T) e_q = 0`` ends the
  backward pass at ``W_0 = E``, so one walk level, a ``K = 1`` GEMM
  and the full Horner sweep (``L`` products with ``Q``);
* **isolated** — ``Q e_q = 0`` too, so the column is ``w_0 e_q``,
  with no sparse product (zero terms).

Every class runs the same :func:`_solve_block`, and a column's bytes
never depend on its block-mates, the block width or the query order.

The coefficient table is precomputed once per ``(num_terms, weights)``
by :func:`series_coefficients` and shared with the single-source path,
which is now the ``B = 1`` case of this kernel. ``block_size`` caps
how many query columns of each class are in flight at once: working
memory is ``~2 (L+1) * n * block`` floats for in-linked queries (the
walks and the ``U_a``) and ``~(L+2) * n * block`` for the others.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.kernels import spmm
from repro.core.weights import GeometricWeights, WeightScheme
from repro.graph.digraph import DiGraph
from repro.graph.matrices import backward_transition_matrix
from repro.validation import validate_damping, validate_iterations

__all__ = ["multi_source", "series_coefficients"]

#: Default cap on query columns processed per pass; bounds the stacked
#: backward-walk storage at ``~2 (L+1) * n * 64`` floats.
DEFAULT_BLOCK_SIZE = 64


@functools.lru_cache(maxsize=64)
def _coefficients_cached(
    num_terms: int, weights: WeightScheme
) -> np.ndarray:
    table = np.zeros((num_terms + 1, num_terms + 1), dtype=np.float64)
    for beta in range(num_terms + 1):
        for alpha in range(num_terms + 1 - beta):
            length = alpha + beta
            table[beta, alpha] = (
                weights.length_weight(length)
                * math.comb(length, alpha)
                / 2.0 ** length
            )
    table.flags.writeable = False  # cached and shared across callers
    return table


def series_coefficients(
    num_terms: int, weights: WeightScheme
) -> np.ndarray:
    """The ``(L+1) x (L+1)`` table ``coef[beta, alpha]`` of series factors.

    ``coef[beta, alpha] = w_{alpha+beta} * binom(alpha+beta, alpha) /
    2^{alpha+beta}`` for ``alpha + beta <= num_terms`` (zero above the
    anti-diagonal). Memoized per ``(num_terms, weights)`` — weight
    schemes are frozen dataclasses, so equal configurations share one
    read-only table across every query batch.
    """
    validate_iterations(num_terms, "num_terms")
    return _coefficients_cached(num_terms, weights)


def _solve_block(
    q: sp.csr_array,
    qt: sp.csr_array,
    coef_t: np.ndarray,
    query_ids: np.ndarray,
    num_terms: int,
    levels: int,
) -> np.ndarray:
    """Backward pass + coefficient GEMM + Horner sweep for one block.

    ``levels`` backward-walk levels (``W_0 .. W_{levels-1}``) feed the
    ``num_terms`` Horner steps; returns the ``(n, width)`` block.
    """
    n = q.shape[0]
    width = query_ids.size
    walks = np.empty((levels, n, width), dtype=coef_t.dtype)
    walks[0].fill(0)  # spmm zero-fills every later level it writes
    walks[0][query_ids, np.arange(width)] = 1.0
    for b in range(1, levels):
        spmm(qt, walks[b - 1], out=walks[b])
    # u[a] = sum_b coef[b, a] * walks[b] — one BLAS-3 contraction.
    u = np.matmul(
        coef_t[: num_terms + 1, :levels], walks.reshape(levels, n * width)
    ).reshape(num_terms + 1, n, width)
    for a in range(num_terms - 1, -1, -1):
        spmm(q, u[a + 1], out=u[a], accumulate=True)
    return u[0]


def multi_source(
    graph: DiGraph,
    queries: Sequence[int],
    c: float = 0.6,
    num_terms: int = 10,
    weights: WeightScheme | None = None,
    transition: sp.csr_array | None = None,
    transition_t: sp.csr_array | None = None,
    dtype: np.dtype | str = np.float64,
    block_size: int = DEFAULT_BLOCK_SIZE,
    coefficients: np.ndarray | None = None,
) -> np.ndarray:
    """SimRank* scores of every node against a batch of query nodes.

    Returns an ``(n, B)`` array whose column ``j`` equals
    ``single_source(graph, queries[j], ...)`` (to ~1e-15 in float64 —
    the factorised evaluation reorders float additions — and to a
    loose ~1e-4 tolerance in float32). Duplicate queries are allowed
    and produce duplicate columns. The array is column-major, so each
    column is a contiguous view that can be ranked without a copy.

    Parameters mirror :func:`repro.core.queries.single_source`;
    ``dtype`` selects the arithmetic precision (``float64`` default,
    ``float32`` halves memory traffic), ``block_size`` caps the query
    columns processed per pass, and ``transition`` /
    ``transition_t`` reuse a prebuilt ``Q`` / ``Q^T`` (converted to
    ``dtype`` if they disagree). ``coefficients`` reuses a precomputed
    :func:`series_coefficients` table (e.g. one loaded from a
    :class:`~repro.index.SimilarityIndex`); its shape must match
    ``num_terms``.

    Examples
    --------
    One blocked walk answers the whole batch:

    >>> import numpy as np
    >>> from repro import DiGraph, multi_source, single_source
    >>> g = DiGraph(3, edges=[(0, 1), (0, 2)])
    >>> block = multi_source(g, (1, 2), c=0.6, num_terms=10)
    >>> block.shape
    (3, 2)
    >>> bool(np.allclose(block[:, 1], single_source(g, 2)))
    True
    """
    validate_damping(c)
    validate_iterations(num_terms, "num_terms")
    if weights is None:
        weights = GeometricWeights(c)
    elif weights.c != c:
        raise ValueError(
            f"weight scheme damping {weights.c} disagrees with c={c}"
        )
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    dtype = np.dtype(dtype)
    n = graph.num_nodes
    query_ids = np.asarray(list(queries))
    if query_ids.ndim != 1:
        raise ValueError("queries must be a flat sequence of node ids")
    if query_ids.size and not np.issubdtype(
        query_ids.dtype, np.integer
    ):
        # an unsafe intp cast would silently truncate 1.7 -> node 1
        raise TypeError(
            f"query ids must be integers, got dtype {query_ids.dtype}"
        )
    query_ids = query_ids.astype(np.intp)
    if query_ids.size and not (
        (0 <= query_ids).all() and (query_ids < n).all()
    ):
        bad = query_ids[(query_ids < 0) | (query_ids >= n)][0]
        raise IndexError(f"query node {int(bad)} out of range")
    num_queries = query_ids.size
    if coefficients is None:
        coef = series_coefficients(num_terms, weights)
    else:
        coef = np.asarray(coefficients)
        if coef.shape != (num_terms + 1, num_terms + 1):
            raise ValueError(
                f"coefficients table has shape {coef.shape}; "
                f"num_terms={num_terms} needs "
                f"{(num_terms + 1, num_terms + 1)}"
            )
    coef_t = np.ascontiguousarray(coef.T, dtype=dtype)

    q = transition if transition is not None else (
        backward_transition_matrix(graph, dtype=dtype)
    )
    if q.dtype != dtype:
        q = q.astype(dtype)
    qt = transition_t if transition_t is not None else q.T.tocsr()
    if qt.dtype != dtype:
        qt = qt.astype(dtype)

    # Without in-links (row q of Q empty) every (Q^T)^b e_q, b >= 1, is
    # zero, so one walk level serves; without out-links as well (row q
    # of Q^T empty) every Q^a e_q, a >= 1, is zero too: no terms.
    has_in = q.indptr[query_ids + 1] > q.indptr[query_ids]
    has_out = qt.indptr[query_ids + 1] > qt.indptr[query_ids]
    result = np.empty((num_queries, n), dtype=dtype).T
    for members, terms, levels in (
        (has_in, num_terms, num_terms + 1),
        (~has_in & has_out, num_terms, 1),
        (~has_in & ~has_out, 0, 1),
    ):
        positions = np.flatnonzero(members)
        for start in range(0, positions.size, block_size):
            cols = positions[start : start + block_size]
            result[:, cols] = _solve_block(
                q, qt, coef_t, query_ids[cols], terms, levels
            )
    return result
