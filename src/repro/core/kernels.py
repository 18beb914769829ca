"""Allocation-free sparse x dense building blocks for the iteration cores.

``scipy.sparse`` matmul (``q @ s``) allocates a fresh dense result on
every call, which at ``K`` iterations over an ``n x n`` iterate means
``K`` full-matrix allocations per run — pure constant-factor waste in
the serving hot paths. CPython exposes the underlying CSR kernel
(``csr_matvecs``: ``Y += A @ X`` into a caller-owned buffer) through
``scipy.sparse._sparsetools``; :func:`spmm` wraps it with an ``out``
parameter and falls back to the public operator when the private hook
is unavailable, so correctness never depends on a scipy internal.

Callers should pass C-contiguous ``float32`` / ``float64`` buffers
whose dtype matches the sparse operand — that is the allocation-free
fast path. Mismatched dtypes or non-contiguous buffers stay *correct*
but quietly degrade to the allocating public operator, exactly like a
missing private hook; the in-repo iteration cores always satisfy the
fast-path contract.

The approx estimator's row gather (``csr_row_index``, scaled by
``csr_scale_rows``) and scatter (``csc_matvec``) use three more of
those loops. They run without the GIL and trust every index, so their
callers first pass each structure through :func:`check_csr`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

try:  # pragma: no cover - exercised indirectly by every kernel test
    from scipy.sparse import _sparsetools as _st

    _HAVE_SPARSETOOLS = all(hasattr(_st, loop) for loop in (
        "csr_matvecs", "csr_row_index", "csr_scale_rows", "csc_matvec"))
except ImportError:  # pragma: no cover - older/newer scipy layouts
    _st = None
    _HAVE_SPARSETOOLS = False

__all__ = ["add_scaled_identity", "check_csr", "gather_rows",
           "scatter_rows", "spmm", "symmetrize"]


def _as_csr(matrix: sp.sparray) -> sp.csr_array:
    if not isinstance(matrix, (sp.csr_array, sp.csr_matrix)):
        raise TypeError(
            f"spmm needs a CSR operand, got {type(matrix).__name__}"
        )
    return matrix


def spmm(
    matrix: sp.csr_array,
    dense: np.ndarray,
    out: np.ndarray,
    accumulate: bool = False,
) -> np.ndarray:
    """``out[:] = matrix @ dense`` (or ``out += ...``) without allocating.

    ``dense`` and ``out`` must be distinct C-contiguous 2-D arrays of
    the sparse operand's dtype. Returns ``out``.
    """
    _as_csr(matrix)
    n_row, n_col = matrix.shape
    if dense.ndim != 2 or out.ndim != 2:
        raise ValueError("spmm operates on 2-D dense blocks")
    if dense.shape[0] != n_col or out.shape != (n_row, dense.shape[1]):
        raise ValueError(
            f"shape mismatch: {matrix.shape} @ {dense.shape} -> {out.shape}"
        )
    if out is dense or np.shares_memory(out, dense):
        raise ValueError("out must not alias the dense operand")
    if not (
        _HAVE_SPARSETOOLS
        and dense.flags.c_contiguous
        and out.flags.c_contiguous
        and dense.dtype == matrix.dtype == out.dtype
    ):
        # Public-API fallback: one temporary, still correct.
        if accumulate:
            out += matrix @ dense
        else:
            out[...] = matrix @ dense
        return out
    if not accumulate:
        out.fill(0)
    _st.csr_matvecs(
        n_row,
        n_col,
        dense.shape[1],
        matrix.indptr,
        matrix.indices,
        matrix.data,
        dense.ravel(),
        out.ravel(),
    )
    return out


def check_csr(indptr: np.ndarray, indices: np.ndarray, n: int) -> None:
    """Raise ``ValueError`` unless ``(indptr, indices)`` is an ``n x n``
    CSR structure: ``n + 1`` row pointers that start at 0, never
    decrease and end at the entry count, and every index in ``[0, n)``.
    """
    if (
        indptr.shape != (n + 1,)
        or indptr[0] != 0
        or indptr[-1] != indices.size
        or (np.diff(indptr) < 0).any()
        or (indices.size and not 0 <= indices.min() <= indices.max() < n)
    ):
        raise ValueError(f"not a valid {n} x {n} CSR structure")


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
    rows: np.ndarray, scale: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows ``rows`` of the CSR ``(indptr, indices, data)``, as CSR.

    Returns ``(row_ptr, cols, vals)``: row ``i`` holds the entries of
    row ``rows[i]`` in stored order, each value times ``scale[i]``
    when ``scale`` is given. ``indptr`` and ``indices`` must share one
    integer dtype and pass :func:`check_csr`.
    """
    rows = rows.astype(indptr.dtype, copy=False)
    row_ptr = np.zeros(rows.size + 1, dtype=indptr.dtype)
    np.cumsum(indptr[rows + 1] - indptr[rows], out=row_ptr[1:])
    if not _HAVE_SPARSETOOLS:
        shape = (indptr.size - 1, int(indices.max(initial=0)) + 1)
        picked = sp.csr_array((data, indices, indptr), shape=shape)[rows]
        cols, vals = picked.indices.astype(indptr.dtype), picked.data
        if scale is not None:
            vals *= np.repeat(scale, np.diff(row_ptr))
        return row_ptr, cols, vals
    cols = np.empty(int(row_ptr[-1]), dtype=indptr.dtype)
    vals = np.empty(cols.size, dtype=data.dtype)
    _st.csr_row_index(rows.size, rows, indptr, indices, data, cols, vals)
    if scale is not None:
        _st.csr_scale_rows(rows.size, 0, row_ptr, cols, vals, scale)
    return row_ptr, cols, vals


def scatter_rows(
    row_ptr: np.ndarray, cols: np.ndarray, vals: np.ndarray,
    weights: np.ndarray, out: np.ndarray,
) -> np.ndarray:
    """``out[cols[k]] += vals[k] * weights[i]`` for each entry ``k`` of
    row ``i``, in stored order; ``out`` and ``weights`` are ``float64``.
    """
    if _HAVE_SPARSETOOLS:
        _st.csc_matvec(
            out.size, weights.size, row_ptr, cols, vals, weights, out
        )
    else:  # np.add.at adds in the same order: the same bytes
        np.add.at(out, cols, vals * np.repeat(weights, np.diff(row_ptr)))
    return out


def symmetrize(m: np.ndarray, out: np.ndarray, scale: float) -> np.ndarray:
    """``out[:] = scale * (m + m.T)`` in place (``out`` distinct from ``m``)."""
    if m is out or np.shares_memory(m, out):
        raise ValueError("symmetrize needs distinct in/out buffers")
    np.add(m, m.T, out=out)
    out *= scale
    return out


def add_scaled_identity(matrix: np.ndarray, value: float) -> np.ndarray:
    """``matrix += value * I`` without materialising the identity."""
    n = matrix.shape[0]
    matrix.flat[:: n + 1] += value
    return matrix
