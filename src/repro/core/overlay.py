"""Base + delta CSR overlay: whole-row patches consulted by the kernels.

Applying an edge batch to the transition matrix ``Q`` only changes the
rows of the edit targets — ``O(delta)`` rows out of ``n``. Rebuilding a
clean CSR for that is an ``O(nnz)`` memcpy; :class:`CsrOverlay` instead
keeps the untouched base CSR *byte-for-byte intact* and carries the
replaced rows as a small side CSR. The :func:`repro.core.kernels.spmm`
entry point dispatches on the overlay (``spmm_into``), so the iteration
cores run unchanged: the base product fills every row, then the patch
rows are recomputed from the side CSR — each output row is produced by
the exact same ``csr_matvecs`` accumulation a compacted matrix would
run, so results are bit-identical, not merely close.

Overlays chain (a second delta over an un-compacted first) via
:meth:`with_rows`, and :meth:`tocsr` compacts back to a clean CSR by
splicing contiguous slices when :attr:`patch_fraction` crosses the
caller's lazy-compaction threshold.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["CsrOverlay"]


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


class CsrOverlay:
    """A CSR matrix logically equal to ``base`` with some rows replaced.

    Parameters
    ----------
    base:
        The untouched base CSR (never mutated, never copied).
    patch_rows:
        Sorted, unique row indices whose contents are overridden.
    patch:
        A ``(len(patch_rows), base.shape[1])`` CSR holding the
        replacement rows, in ``patch_rows`` order.
    """

    __slots__ = ("base", "patch_rows", "patch")

    def __init__(
        self,
        base: sp.csr_array,
        patch_rows: np.ndarray,
        patch: sp.csr_array,
    ) -> None:
        patch_rows = np.asarray(patch_rows, dtype=np.intp)
        if patch_rows.ndim != 1:
            raise ValueError("patch_rows must be a flat index vector")
        if patch_rows.size:
            if not (np.diff(patch_rows) > 0).all():
                raise ValueError("patch_rows must be sorted and unique")
            if patch_rows[0] < 0 or patch_rows[-1] >= base.shape[0]:
                raise IndexError("patch_rows out of range for base")
        if patch.shape != (patch_rows.size, base.shape[1]):
            raise ValueError(
                f"patch shape {patch.shape} disagrees with "
                f"{patch_rows.size} rows over {base.shape[1]} columns"
            )
        if patch.dtype != base.dtype:
            raise TypeError(
                f"patch dtype {patch.dtype} != base dtype {base.dtype}"
            )
        self.base = base
        self.patch_rows = patch_rows
        self.patch = patch

    # -- matrix-protocol surface consumed by the kernels ---------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.base.shape

    @property
    def dtype(self) -> np.dtype:
        return self.base.dtype

    @property
    def nnz(self) -> int:
        """Logical nonzeros (base rows replaced, not added)."""
        counts = np.diff(self.base.indptr)
        replaced = int(counts[self.patch_rows].sum())
        return int(self.base.nnz) - replaced + int(self.patch.nnz)

    @property
    def patch_fraction(self) -> float:
        """Patched-entry mass relative to the base — compaction trigger."""
        replaced = int(
            np.diff(self.base.indptr)[self.patch_rows].sum()
        )
        overlay_nnz = max(int(self.patch.nnz), replaced)
        return overlay_nnz / max(1, int(self.base.nnz))

    def astype(self, dtype) -> "CsrOverlay | sp.csr_array":
        if np.dtype(dtype) == self.base.dtype:
            return self
        return CsrOverlay(
            self.base.astype(dtype),
            self.patch_rows,
            self.patch.astype(dtype),
        )

    def spmm_into(self, dense: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out[:] = overlay @ dense`` — base product, then patch rows.

        Untouched rows come from the base CSR's own kernel run; patch
        rows are recomputed from the side CSR through the same kernel,
        so every output row is bit-identical to a compacted matrix's.
        """
        from repro.core.kernels import spmm

        spmm(self.base, dense, out=out)
        if self.patch_rows.size:
            patched = np.zeros(
                (self.patch_rows.size, dense.shape[1]), dtype=out.dtype
            )
            spmm(self.patch, dense, out=patched)
            out[self.patch_rows] = patched
        return out

    # -- delta maintenance ---------------------------------------------
    def row_arrays(
        self, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Current column indices of ``rows`` as ``(row_per_entry, cols)``.

        Consults the patch for overridden rows and the base otherwise,
        returning entries grouped by ``rows`` order (columns sorted
        within each row) — the gather primitive delta application uses
        to edit touched rows without materialising the whole matrix.
        """
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size == 0:
            empty = np.empty(0, dtype=np.intp)
            return empty, empty
        pos = np.searchsorted(self.patch_rows, rows)
        pos_c = np.minimum(pos, max(0, self.patch_rows.size - 1))
        in_patch = (
            (self.patch_rows[pos_c] == rows)
            if self.patch_rows.size
            else np.zeros(rows.size, dtype=bool)
        )
        # per-requested-row source slices, gathered without a Python
        # loop: compute each row's count and source start, then turn
        # (start, count) pairs into flat source positions. Both
        # ``where`` branches index with always-valid positions (the
        # patch side clipped, the base side the request itself).
        base_indptr = np.asarray(self.base.indptr, dtype=np.int64)
        if self.patch_rows.size:
            patch_indptr = np.asarray(self.patch.indptr, dtype=np.int64)
            starts = np.where(
                in_patch, patch_indptr[pos_c], base_indptr[rows]
            )
            counts = np.where(
                in_patch,
                patch_indptr[pos_c + 1] - patch_indptr[pos_c],
                base_indptr[rows + 1] - base_indptr[rows],
            )
        else:
            starts = base_indptr[rows]
            counts = base_indptr[rows + 1] - base_indptr[rows]
        total = int(counts.sum())
        within = np.repeat(np.arange(rows.size, dtype=np.intp), counts)
        offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        rank = np.arange(total, dtype=np.int64) - offsets[within]
        src = starts[within] + rank
        cols = np.empty(total, dtype=np.intp)
        from_patch = in_patch[within]
        cols[from_patch] = np.asarray(self.patch.indices)[
            src[from_patch]
        ]
        cols[~from_patch] = np.asarray(self.base.indices)[
            src[~from_patch]
        ]
        return rows[within].astype(np.intp), cols

    def with_rows(
        self, rows: np.ndarray, replacement: sp.csr_array
    ) -> "CsrOverlay":
        """A new overlay over the same base with ``rows`` (re)patched.

        Rows already in the patch are overridden by ``replacement``;
        the union stays sorted. This is how a second delta chains on an
        un-compacted first without touching the shared base.
        """
        rows = np.asarray(rows, dtype=np.intp)
        merged = np.union1d(self.patch_rows, rows)
        if merged.size == 0:
            return CsrOverlay(
                self.base,
                merged,
                sp.csr_array(
                    (0, self.base.shape[1]), dtype=self.dtype
                ),
            )
        pick_new = np.isin(merged, rows)
        new_pos = np.minimum(
            np.searchsorted(rows, merged), max(0, rows.size - 1)
        )
        old_pos = np.minimum(
            np.searchsorted(self.patch_rows, merged),
            max(0, self.patch_rows.size - 1),
        )
        # one vectorised splice instead of a per-row scipy slice loop
        # (row slicing costs ~50µs each — ruinous at tens of
        # thousands of patched rows)
        new_indptr = np.asarray(replacement.indptr, dtype=np.int64)
        old_indptr = np.asarray(self.patch.indptr, dtype=np.int64)
        if rows.size:
            new_starts = new_indptr[new_pos]
            new_counts = new_indptr[new_pos + 1] - new_starts
        else:
            new_starts = new_counts = np.zeros(
                merged.size, dtype=np.int64
            )
        if self.patch_rows.size:
            old_starts = old_indptr[old_pos]
            old_counts = old_indptr[old_pos + 1] - old_starts
        else:
            old_starts = old_counts = np.zeros(
                merged.size, dtype=np.int64
            )
        starts = np.where(pick_new, new_starts, old_starts)
        counts = np.where(pick_new, new_counts, old_counts)
        indptr = np.zeros(merged.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        nnz = int(indptr[-1])
        within = np.repeat(
            np.arange(merged.size, dtype=np.intp), counts
        )
        rank = np.arange(nnz, dtype=np.int64) - indptr[within]
        src = starts[within] + rank
        take_new = pick_new[within]
        idx_dtype = np.asarray(self.patch.indices).dtype
        indices = np.empty(nnz, dtype=idx_dtype)
        data = np.empty(nnz, dtype=self.dtype)
        if take_new.any():
            sel = src[take_new]
            indices[take_new] = np.asarray(replacement.indices)[sel]
            data[take_new] = np.asarray(replacement.data)[sel]
        keep_old = ~take_new
        if keep_old.any():
            sel = src[keep_old]
            indices[keep_old] = np.asarray(self.patch.indices)[sel]
            data[keep_old] = np.asarray(self.patch.data)[sel]
        patch = sp.csr_array(
            (data, indices, indptr), shape=(merged.size, self.base.shape[1])
        )
        return CsrOverlay(self.base, merged, patch)

    def tocsr(self) -> sp.csr_array:
        """Compact to a clean CSR by splicing contiguous slices.

        Each run of consecutive patch rows replaces one contiguous
        range of the base buffers with one contiguous slice of the
        patch. The cost is a memcpy plus a Python step per run, so it
        suits the few scattered rows one delta patches.
        """
        base, patch, rows = self.base, self.patch, self.patch_rows
        n = base.shape[0]
        base_indptr = np.asarray(base.indptr, dtype=np.int64)
        patch_indptr = np.asarray(patch.indptr, dtype=np.int64)
        counts = np.diff(base_indptr)
        counts[rows] = np.diff(patch_indptr)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # keep the base's index dtype so untouched arrays stay
        # byte-compatible with a fresh build (scipy picks int32 when
        # the matrix is small enough)
        idx_dtype = base.indptr.dtype
        if indptr[-1] <= np.iinfo(idx_dtype).max:
            indptr = indptr.astype(idx_dtype, copy=False)
        # each run of consecutive patch rows rows[firsts[j]:ends[j]]
        # replaces one contiguous range of base entries
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
        return sp.csr_array(
            (data, indices, indptr), shape=base.shape
        )

    def __repr__(self) -> str:
        return (
            f"CsrOverlay(shape={self.shape}, "
            f"patched_rows={self.patch_rows.size}, "
            f"patch_fraction={self.patch_fraction:.4f})"
        )
