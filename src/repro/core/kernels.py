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
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

try:  # pragma: no cover - exercised indirectly by every kernel test
    from scipy.sparse import _sparsetools as _st

    _HAVE_SPARSETOOLS = hasattr(_st, "csr_matvecs")
except ImportError:  # pragma: no cover - older/newer scipy layouts
    _st = None
    _HAVE_SPARSETOOLS = False

__all__ = ["add_scaled_identity", "spmm", "symmetrize"]


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
