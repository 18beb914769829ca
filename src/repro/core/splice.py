"""Replace whole rows of a CSR matrix by splicing contiguous slices.

Applying an edge batch to the transition matrices only changes the
rows the edits touch — ``O(delta)`` rows out of ``n``.
:func:`replace_rows` builds the edited matrix by copying the untouched
rows as contiguous slices of the base buffers and dropping the new
rows in between: a memcpy plus a Python step per run of consecutive
replaced rows, with no per-entry work on the untouched rows. The
untouched entries keep their bytes, so the result is bit-identical to
a fresh build whose replaced rows match.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["replace_rows"]


def _splice_ranges(
    old: np.ndarray,
    values: np.ndarray,
    old_starts: list[int],
    old_ends: list[int],
    value_starts: list[int],
    value_ends: list[int],
) -> np.ndarray:
    """``old`` with ``old[old_starts[j]:old_ends[j]]`` replaced by
    ``values[value_starts[j]:value_ends[j]]`` for every ``j``.

    The ranges are ascending and disjoint (empty ones insert or delete
    only). The result concatenates contiguous slices: a memcpy plus a
    Python step per range, cheap when few ranges change.
    """
    pieces = []
    resume = 0
    for lo, hi, value_lo, value_hi in zip(
        old_starts, old_ends, value_starts, value_ends
    ):
        pieces += (old[resume:lo], values[value_lo:value_hi])
        resume = hi
    pieces.append(old[resume:])
    return np.concatenate(pieces).astype(old.dtype, copy=False)


def replace_rows(
    base: sp.csr_array, rows: np.ndarray, patch: sp.csr_array
) -> sp.csr_array:
    """``base`` with row ``rows[i]`` replaced by row ``i`` of ``patch``.

    ``rows`` is sorted and unique; ``patch`` has one row per entry of
    ``rows`` and ``base``'s column count. ``base`` is never modified.
    The result keeps ``base``'s index dtype, so its arrays stay
    byte-compatible with a fresh build of the same matrix.
    """
    rows = np.asarray(rows, dtype=np.intp)
    n = base.shape[0]
    base_indptr = np.asarray(base.indptr, dtype=np.int64)
    patch_indptr = np.asarray(patch.indptr, dtype=np.int64)
    counts = np.diff(base_indptr)
    counts[rows] = np.diff(patch_indptr)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    # keep the base's index dtype (scipy picks int32 when the matrix
    # is small enough)
    idx_dtype = base.indptr.dtype
    if indptr[-1] <= np.iinfo(idx_dtype).max:
        indptr = indptr.astype(idx_dtype, copy=False)
    # each run of consecutive rows rows[firsts[j]:ends[j]] replaces
    # one contiguous range of base entries
    gaps = np.flatnonzero(np.diff(rows) != 1) + 1
    firsts = np.concatenate(([0], gaps)) if rows.size else gaps
    ends = np.concatenate((gaps, [rows.size])) if rows.size else gaps
    ranges = (
        base_indptr[rows[firsts]].tolist(),
        base_indptr[rows[ends - 1] + 1].tolist(),
        patch_indptr[firsts].tolist(),
        patch_indptr[ends].tolist(),
    )
    indices = _splice_ranges(base.indices, patch.indices, *ranges)
    data = _splice_ranges(base.data, patch.data, *ranges)
    return sp.csr_array((data, indices, indptr), shape=base.shape)
