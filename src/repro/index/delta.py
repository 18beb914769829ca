"""Delta-aware incremental maintenance of :class:`SimilarityIndex`.

A graph mutation touches ``O(delta)`` rows of every artifact, yet the
serving stack used to rebuild all of them from scratch. This module
applies an edge batch *to the artifacts themselves*:

* ``Q`` (backward transition): only the rows of edit **targets**
  change (row ``v`` of ``Q`` is the normalised in-adjacency of ``v``),
  so the new rows are spliced into a plain CSR between contiguous
  slices of the untouched ones (:func:`repro.core.splice.replace_rows`).
* ``Q^T``: structure changes only in edit **source** rows (row ``u``
  lists ``O(u)``), and every value is a pure gather of the per-column
  scale table ``1/|I(i)|`` — one slice splice plus one gather
  rebuilds it exactly.
* biclique factors: touched rows are *demoted* out of their bicliques
  (``E_direct`` row := the full new in-adjacency, ``H_out`` row :=
  empty), preserving ``A^T = E_direct + H_out H_in`` while keeping
  every untouched factor row bit-identical; a later
  ``python -m repro.index compact`` / full rebuild re-compresses.
* walks (approx mode): only walks that stand on an edit **target**
  before their last step can change, and those are the sources in the
  targets' buckets. Their walks are drawn again from the same uniforms
  (the sampler's draw sequence is position-determined, so
  ``PCG64.advance`` regenerates them), once on the old ``Q`` and once
  on the new, and each level's buckets are patched by the difference
  — exactly what a from-scratch rebuild would draw, at a cost set by
  the affected walks, not by the index size.

Values are computed with the same operations (``np.divide`` of the
same operands, the same CSR kernels) as a fresh build, so delta-path
scores are **bit-identical** to a from-scratch rebuild — the property
the parity suite asserts, down to two serving snapshot managers.

Mutations persist as ``delta-<seq>.simidx`` segments: the shared
container format (checksummed array table) carrying only the edge
edits plus chain fingerprints — the digest of the base generation they
apply to and of the generation they produce. A restart maps the base
once and applies the deltas on top, so a mutation writes only the
delta.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core.splice import replace_rows
from repro.index.artifacts import (
    IndexMeta,
    IndexMismatchError,
    SimilarityIndex,
    _mismatch,
    _mismatch_error,
)
from repro.index.store import (
    IndexFormatError,
    container_kind,
    read_header,
    write_container,
)

__all__ = [
    "IndexDelta",
    "apply_delta",
    "apply_delta_file",
    "delta_sibling_path",
    "find_delta_siblings",
    "load_delta",
    "save_delta",
]


# ---------------------------------------------------------------------------
# the delta record
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class IndexDelta:
    """One edge batch plus the fingerprints chaining it to its base.

    ``added`` / ``removed`` are ``(k, 2)`` int64 arrays of ``(u, v)``
    edges, each sorted by ``(u, v)`` with no duplicates and no overlap
    between the two. The delta applies **only** onto the generation
    whose content digest is ``base_digest`` and deterministically
    produces the generation fingerprinted by ``result_digest`` /
    ``result_meta`` — patches are recomputed from the edits at apply
    time, so the segment stays tiny no matter how large the graph.

    Examples
    --------
    >>> from repro import DiGraph, SimilarityIndex
    >>> from repro.index import apply_delta
    >>> base = SimilarityIndex.build(
    ...     DiGraph(3, edges=[(0, 1), (2, 1)]), measure="gSR*")
    >>> _, delta = apply_delta(base, added=[(0, 2)])
    >>> delta.num_edits, delta.chain_depth
    (1, 1)
    >>> delta.describe()["added"]
    1
    """

    added: np.ndarray
    removed: np.ndarray
    num_nodes: int
    base_digest: str
    base_num_edges: int
    result_digest: str
    result_num_edges: int
    result_meta: IndexMeta
    chain_depth: int = 1

    @property
    def num_edits(self) -> int:
        return int(self.added.shape[0] + self.removed.shape[0])

    def describe(self) -> dict:
        return {
            "added": int(self.added.shape[0]),
            "removed": int(self.removed.shape[0]),
            "num_nodes": self.num_nodes,
            "base_digest": self.base_digest,
            "base_num_edges": self.base_num_edges,
            "result_digest": self.result_digest,
            "result_num_edges": self.result_num_edges,
            "chain_depth": self.chain_depth,
        }


# ---------------------------------------------------------------------------
# edit normalisation and key splicing
# ---------------------------------------------------------------------------
def _as_edge_array(pairs, num_nodes: int, what: str) -> np.ndarray:
    """``(k, 2)`` int64, deduped, sorted by ``(u, v)``, range-checked."""
    arr = np.asarray(list(pairs) if not isinstance(
        pairs, np.ndarray) else pairs, dtype=np.int64)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(
            f"{what} edges must be (u, v) pairs, got shape {arr.shape}"
        )
    if arr.min() < 0 or arr.max() >= num_nodes:
        raise IndexError(
            f"{what} edge endpoint out of range for {num_nodes} nodes"
        )
    keys = np.unique(arr[:, 0] * num_nodes + arr[:, 1])
    out = np.empty((keys.size, 2), dtype=np.int64)
    out[:, 0], out[:, 1] = np.divmod(keys, num_nodes)
    return out


def _splice_keys(
    keys: np.ndarray,
    rem_keys: np.ndarray,
    add_keys: np.ndarray,
    what: str,
) -> np.ndarray:
    """Delete ``rem_keys`` from and insert ``add_keys`` into sorted
    ``keys``, validating presence/absence."""
    if rem_keys.size:
        pos = np.searchsorted(keys, rem_keys)
        ok = (pos < keys.size) if keys.size else np.zeros(
            rem_keys.size, dtype=bool
        )
        if keys.size:
            ok &= keys[np.minimum(pos, keys.size - 1)] == rem_keys
        if not ok.all():
            raise ValueError(
                f"delta removes an edge absent from the base {what}"
            )
        keep = np.ones(keys.size, dtype=bool)
        keep[pos] = False
        keys = keys[keep]
    if add_keys.size:
        pos = np.searchsorted(keys, add_keys)
        if keys.size:
            clash = (pos < keys.size) & (
                keys[np.minimum(pos, keys.size - 1)] == add_keys
            )
            if clash.any():
                raise ValueError(
                    f"delta adds an edge already in the base {what}"
                )
        keys = np.insert(keys, pos, add_keys)
    return keys


def _gather_rows(
    matrix: sp.csr_array, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(row_per_entry, cols)`` of ``rows``."""
    indptr = np.asarray(matrix.indptr)
    counts = np.diff(indptr)[rows]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    starts = indptr[rows]
    shift = np.cumsum(counts) - counts
    offsets = (
        np.arange(total, dtype=np.int64) - np.repeat(shift, counts)
    )
    pos = np.repeat(starts, counts) + offsets
    return (
        np.repeat(np.asarray(rows, dtype=np.intp), counts),
        np.asarray(matrix.indices)[pos].astype(np.intp),
    )


def _row_scales(matrix: sp.csr_array) -> np.ndarray:
    """``scale[v]`` (= the constant value of row ``v``) for every row.

    ``Q`` stores ``1/|I(v)|`` in every entry of row ``v``, so the
    table is recovered exactly — same bits as the ``np.divide`` that
    produced it — by reading each non-empty row's first value.
    """
    indptr = np.asarray(matrix.indptr)
    counts = np.diff(indptr)
    scales = np.zeros(matrix.shape[0], dtype=matrix.dtype)
    nz = counts > 0
    scales[nz] = np.asarray(matrix.data)[indptr[:-1][nz]]
    return scales


def _fingerprint_from_qt(qt: sp.csr_array) -> str:
    """The graph content digest, recomputed from ``Q^T`` structure.

    Row ``u`` of ``Q^T`` holds ``O(u)`` in sorted order, so walking
    rows enumerates edges exactly in :meth:`DiGraph.edge_arrays`
    order — the digest matches
    :func:`repro.index.graph_fingerprint` byte for byte.
    """
    n = qt.shape[0]
    counts = np.diff(np.asarray(qt.indptr))
    heads = np.repeat(np.arange(n, dtype=np.int64), counts)
    digest = hashlib.sha256()
    digest.update(np.int64(n).tobytes())
    digest.update(np.ascontiguousarray(heads, dtype="<i8"))
    digest.update(np.ascontiguousarray(qt.indices, dtype="<i8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# application
# ---------------------------------------------------------------------------
def apply_delta(
    base_index: SimilarityIndex,
    added: Iterable[Sequence[int]] | np.ndarray,
    removed: Iterable[Sequence[int]] | np.ndarray = (),
    *,
    chain_depth: int = 1,
) -> tuple[SimilarityIndex, IndexDelta]:
    """Apply an edge batch to every artifact of ``base_index``.

    Returns ``(new_index, delta)``: the post-mutation index (its meta
    is bit-for-bit what a fresh build over the mutated graph would
    record) and the :class:`IndexDelta` chaining record ready for
    :func:`save_delta`. The base index is never modified; every CSR
    artifact of the result is a plain ``csr_array`` whose untouched
    rows byte-copy the base's.

    ``added`` edges must be absent from and ``removed`` edges present
    in the base edge set (``ValueError`` otherwise — a failed apply
    leaves nothing half-mutated).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import DiGraph, SimilarityIndex
    >>> from repro.index.delta import apply_delta
    >>> base = SimilarityIndex.build(
    ...     DiGraph(4, edges=[(0, 1), (2, 1), (2, 3)]), measure="gSR*")
    >>> applied, delta = apply_delta(base, added=[(0, 3)])
    >>> fresh = SimilarityIndex.build(
    ...     DiGraph(4, edges=[(0, 1), (2, 1), (2, 3), (0, 3)]),
    ...     measure="gSR*")
    >>> applied.meta == fresh.meta
    True
    >>> bool(np.array_equal(
    ...     applied.transition.toarray(),
    ...     fresh.transition.toarray()))
    True
    """
    meta = base_index.meta
    q = base_index.transition
    qt = base_index.transition_t
    if q is None or qt is None:
        raise ValueError(
            "delta application needs transition artifacts; index "
            f"carries {list(meta.artifacts)}"
        )
    n = meta.num_nodes
    added = _as_edge_array(added, n, "added")
    removed = _as_edge_array(removed, n, "removed")
    if added.shape[0] == 0 and removed.shape[0] == 0:
        raise ValueError("empty delta: nothing to apply")
    both = np.intersect1d(
        added[:, 0] * n + added[:, 1], removed[:, 0] * n + removed[:, 1]
    )
    if both.size:
        u, v = divmod(int(both[0]), n)
        raise ValueError(
            f"edge {u} -> {v} appears in both added and removed"
        )
    dtype = q.dtype

    # -- per-row scale table 1/|I(v)| after the edits ------------------
    counts = np.diff(np.asarray(q.indptr)).astype(np.int64)
    delta_counts = np.zeros(n, dtype=np.int64)
    if added.shape[0]:
        np.add.at(delta_counts, added[:, 1], 1)
    if removed.shape[0]:
        np.subtract.at(delta_counts, removed[:, 1], 1)
    new_counts = counts + delta_counts
    inv_new = _row_scales(q)
    changed = np.flatnonzero(delta_counts != 0)
    if changed.size:
        # identical operation (and therefore identical bits) to
        # row_normalize's scale = divide(1, row_sums, where=nonzero)
        cc = new_counts[changed].astype(dtype)
        inv_new[changed] = np.divide(
            1.0, cc, out=np.zeros_like(cc), where=cc != 0
        )

    # -- Q: per-row patch of the edit-target rows ----------------------
    q_rows = np.unique(
        np.concatenate((added[:, 1], removed[:, 1]))
    ).astype(np.intp)
    rows_e, cols_e = _gather_rows(q, q_rows)
    q_keys = rows_e.astype(np.int64) * n + cols_e
    q_keys = _splice_keys(
        q_keys,
        np.sort(removed[:, 1] * n + removed[:, 0]),
        np.sort(added[:, 1] * n + added[:, 0]),
        "transition",
    )
    prow, pcol = np.divmod(q_keys, n)
    left = np.searchsorted(prow, q_rows, side="left")
    right = np.searchsorted(prow, q_rows, side="right")
    patch_indptr = np.zeros(q_rows.size + 1, dtype=np.int64)
    np.cumsum(right - left, out=patch_indptr[1:])
    idx_dtype = np.asarray(q.indices).dtype
    q_patch = sp.csr_array(
        (
            inv_new[prow],
            pcol.astype(idx_dtype),
            patch_indptr.astype(idx_dtype),
        ),
        shape=(q_rows.size, n),
    )
    new_q = replace_rows(q, q_rows, q_patch)

    # -- Q^T: row surgery on the edit-source rows + value gather -------
    qt_rows = np.unique(
        np.concatenate((added[:, 0], removed[:, 0]))
    ).astype(np.intp)
    rows_e, cols_e = _gather_rows(qt, qt_rows)
    qt_keys = rows_e.astype(np.int64) * n + cols_e
    qt_keys = _splice_keys(
        qt_keys,
        np.sort(removed[:, 0] * n + removed[:, 1]),
        np.sort(added[:, 0] * n + added[:, 1]),
        "transposed transition",
    )
    trow, tcol = np.divmod(qt_keys, n)
    left = np.searchsorted(trow, qt_rows, side="left")
    right = np.searchsorted(trow, qt_rows, side="right")
    t_indptr = np.zeros(qt_rows.size + 1, dtype=np.int64)
    np.cumsum(right - left, out=t_indptr[1:])
    qt_idx_dtype = np.asarray(qt.indices).dtype
    qt_patch = sp.csr_array(
        (
            inv_new[tcol],
            tcol.astype(qt_idx_dtype),
            t_indptr.astype(qt_idx_dtype),
        ),
        shape=(qt_rows.size, n),
    )
    qt_struct = replace_rows(qt, qt_rows, qt_patch)
    # every Q^T value is 1/|I(column)| — one gather refreshes rows the
    # surgery never touched but whose referenced in-degrees changed
    qt_indices = np.asarray(qt_struct.indices)
    new_qt = sp.csr_array(
        (inv_new[qt_indices], qt_indices, np.asarray(qt_struct.indptr)),
        shape=(n, n),
    )

    # -- fingerprints: derived from artifacts alone (no DiGraph) ------
    new_edges = int(new_qt.nnz)
    expected = meta.num_edges + added.shape[0] - removed.shape[0]
    if new_edges != expected:  # pragma: no cover - internal invariant
        raise AssertionError(
            f"delta bookkeeping drifted: {new_edges} edges in Q^T, "
            f"expected {expected}"
        )
    result_digest = _fingerprint_from_qt(new_qt)
    new_meta = dataclasses.replace(
        meta, num_edges=new_edges, graph_digest=result_digest
    )

    # -- factors: demote touched rows out of their bicliques -----------
    factors = None
    if base_index.factors is not None:
        e_direct, h_out, h_in = base_index.factors
        ed_patch = sp.csr_array(
            (
                np.ones(pcol.size, dtype=e_direct.dtype),
                pcol.astype(np.asarray(e_direct.indices).dtype),
                patch_indptr.astype(np.asarray(e_direct.indices).dtype),
            ),
            shape=(q_rows.size, n),
        )
        new_ed = replace_rows(e_direct, q_rows, ed_patch)
        empty = sp.csr_array(
            (q_rows.size, h_out.shape[1]), dtype=h_out.dtype
        )
        new_ho = replace_rows(h_out, q_rows, empty)
        factors = (new_ed, new_ho, h_in)

    # -- walks: re-walk the sources standing on an edit target ---------
    walks = None
    if base_index.walks is not None:
        walks = base_index.walks.rewalked(q, new_q, q_rows)

    new_index = SimilarityIndex(
        meta=new_meta,
        transition=new_q,
        transition_t=new_qt,
        factors=factors,
        coefficients=base_index.coefficients,
        walks=walks,
    )
    delta = IndexDelta(
        added=added,
        removed=removed,
        num_nodes=n,
        base_digest=meta.graph_digest,
        base_num_edges=meta.num_edges,
        result_digest=result_digest,
        result_num_edges=new_edges,
        result_meta=new_meta,
        chain_depth=chain_depth,
    )
    return new_index, delta


# ---------------------------------------------------------------------------
# persistence: delta-<seq>.simidx segments
# ---------------------------------------------------------------------------
def save_delta(delta: IndexDelta, path: str | Path) -> Path:
    """Write ``delta`` as a checksummed ``.simidx`` delta segment.

    The segment reuses the index container format (same magic, same
    checksummed array table, same atomic rename) with
    ``kind="delta"``: it stores only the edge-edit arrays plus the
    chain fingerprints — :func:`load_index` refuses it, and
    :func:`load_delta` refuses full indexes, so the two can never be
    confused.

    Examples
    --------
    >>> import tempfile
    >>> from pathlib import Path
    >>> from repro import DiGraph, SimilarityIndex
    >>> from repro.index import apply_delta, load_delta, save_delta
    >>> base = SimilarityIndex.build(
    ...     DiGraph(3, edges=[(0, 1), (2, 1)]), measure="gSR*")
    >>> _, delta = apply_delta(base, added=[(0, 2)])
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     path = save_delta(delta, Path(tmp) / "g.delta-000001.simidx")
    ...     load_delta(path).describe() == delta.describe()
    True
    """
    header = {
        "kind": "delta",
        "meta": delta.result_meta.to_dict(),
        "csr_shapes": {},
        "delta": delta.describe(),
    }
    return write_container(
        path,
        header,
        {
            "delta/added": delta.added,
            "delta/removed": delta.removed,
        },
    )


def load_delta(path: str | Path) -> IndexDelta:
    """Read a delta segment back, verifying every checksum.

    Delta segments are tiny (the edits, not the patches), so unlike
    :func:`load_index` this always pays the sha256 pass — a corrupt
    or truncated segment raises :exc:`IndexFormatError` here rather
    than poisoning a generation chain at apply time.

    Examples
    --------
    See :func:`save_delta` for the save/load round trip;
    :func:`load_delta` refuses non-delta containers:

    >>> import tempfile
    >>> from pathlib import Path
    >>> from repro import DiGraph, SimilarityIndex
    >>> from repro.index import IndexFormatError, load_delta
    >>> index = SimilarityIndex.build(
    ...     DiGraph(2, edges=[(0, 1)]), measure="gSR*")
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     try:
    ...         load_delta(index.save(Path(tmp) / "full.simidx"))
    ...     except IndexFormatError as exc:
    ...         print("refused:", "not a delta segment" in str(exc))
    refused: True
    """
    path = Path(path)
    header, payload_start = read_header(path)
    if container_kind(header) != "delta":
        raise IndexFormatError(
            f"{path} is a {container_kind(header)!r} container, not a "
            "delta segment"
        )
    info = header.get("delta")
    if not isinstance(info, dict):
        raise IndexFormatError(f"{path} is missing its delta section")
    arrays = {}
    with open(path, "rb") as handle:
        for name in ("delta/added", "delta/removed"):
            entry = header["arrays"].get(name)
            if entry is None:
                raise IndexFormatError(
                    f"{path} is missing array {name!r}"
                )
            handle.seek(payload_start + entry["offset"])
            raw = handle.read(entry["nbytes"])
            if len(raw) != entry["nbytes"]:
                raise IndexFormatError(
                    f"{path}: short read (truncated delta segment)"
                )
            if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
                raise IndexFormatError(
                    f"{path}: checksum mismatch on {name}"
                )
            try:
                arrays[name] = np.frombuffer(
                    raw, dtype=np.dtype(entry["dtype"])
                ).reshape(tuple(entry["shape"]))
            except (TypeError, ValueError) as exc:
                raise IndexFormatError(
                    f"{path}: corrupt array entry {name!r}: {exc}"
                ) from exc
    try:
        meta = IndexMeta.from_dict(header["meta"])
        delta = IndexDelta(
            added=arrays["delta/added"],
            removed=arrays["delta/removed"],
            num_nodes=int(info["num_nodes"]),
            base_digest=str(info["base_digest"]),
            base_num_edges=int(info["base_num_edges"]),
            result_digest=str(info["result_digest"]),
            result_num_edges=int(info["result_num_edges"]),
            result_meta=meta,
            chain_depth=int(info["chain_depth"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise IndexFormatError(
            f"{path} has a malformed delta section: {exc}"
        ) from exc
    for name, arr in arrays.items():
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype != np.int64:
            raise IndexFormatError(
                f"{path}: {name} is not a (k, 2) int64 edge array"
            )
    return delta


def apply_delta_file(
    base_index: SimilarityIndex,
    path: str | Path,
) -> tuple[SimilarityIndex, IndexDelta]:
    """Load ``path`` and apply it onto ``base_index``, verifying the chain.

    Raises :exc:`IndexMismatchError` (with structured ``mismatches``)
    when the segment was recorded against a different base generation
    or configuration, and :exc:`IndexFormatError` when applying does
    not reproduce the recorded result digest.

    Examples
    --------
    >>> import tempfile
    >>> from pathlib import Path
    >>> from repro import DiGraph, SimilarityIndex
    >>> from repro.index import (
    ...     apply_delta, apply_delta_file, save_delta)
    >>> base = SimilarityIndex.build(
    ...     DiGraph(3, edges=[(0, 1), (2, 1)]), measure="gSR*")
    >>> applied, delta = apply_delta(base, added=[(0, 2)])
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     path = save_delta(delta, Path(tmp) / "g.delta-000001.simidx")
    ...     replayed, _ = apply_delta_file(base, path)
    >>> replayed.meta == applied.meta
    True
    """
    delta = load_delta(path)
    expected_base = dataclasses.replace(
        delta.result_meta,
        num_edges=delta.base_num_edges,
        graph_digest=delta.base_digest,
    )
    if expected_base != base_index.meta:
        mismatches = [
            _mismatch(
                "chain", name,
                getattr(expected_base, name),
                getattr(base_index.meta, name),
            )
            for name in (
                f.name for f in dataclasses.fields(IndexMeta)
            )
            if getattr(expected_base, name)
            != getattr(base_index.meta, name)
        ]
        raise _mismatch_error(
            mismatches,
            f"delta segment {Path(path).name} does not chain to this "
            "base generation",
        )
    new_index, applied = apply_delta(
        base_index,
        delta.added,
        delta.removed,
        chain_depth=delta.chain_depth,
    )
    if new_index.meta.graph_digest != delta.result_digest:
        raise IndexFormatError(
            f"{path}: applying the delta did not reproduce its "
            f"recorded result digest ({delta.result_digest[:12]}...)"
        )
    return new_index, applied


# ---------------------------------------------------------------------------
# naming conventions
# ---------------------------------------------------------------------------
def delta_sibling_path(index_path: str | Path, seq: int) -> Path:
    """Where :class:`~repro.serve.SnapshotManager` persists the delta
    for generation ``seq`` beside its base index file.

    Examples
    --------
    >>> from repro.index import delta_sibling_path
    >>> delta_sibling_path("graphs/g.simidx", 3).as_posix()
    'graphs/g.delta-000003.simidx'
    """
    index_path = Path(index_path)
    return index_path.with_name(
        f"{index_path.stem}.delta-{seq:06d}{index_path.suffix}"
    )


def find_delta_siblings(
    index_path: str | Path,
) -> list[tuple[int, Path]]:
    """``(seq, path)`` of every delta segment beside ``index_path``,
    sorted by sequence number.

    Examples
    --------
    >>> import tempfile
    >>> from pathlib import Path
    >>> from repro.index import delta_sibling_path, find_delta_siblings
    >>> with tempfile.TemporaryDirectory() as tmp:
    ...     base = Path(tmp) / "g.simidx"
    ...     for seq in (2, 1):
    ...         _ = delta_sibling_path(base, seq).write_bytes(b"")
    ...     [seq for seq, _ in find_delta_siblings(base)]
    [1, 2]
    """
    index_path = Path(index_path)
    out: list[tuple[int, Path]] = []
    pattern = f"{index_path.stem}.delta-*{index_path.suffix}"
    for candidate in index_path.parent.glob(pattern):
        tag = candidate.name[
            len(index_path.stem) + len(".delta-"):
            len(candidate.name) - len(index_path.suffix)
        ]
        try:
            out.append((int(tag), candidate))
        except ValueError:
            continue
    return sorted(out)
