"""On-disk container for :class:`~repro.index.SimilarityIndex`.

One ``.simidx`` file holds every artifact of one index::

    bytes 0..7    magic  b"SIMIDX01"
    bytes 8..15   header length (little-endian uint64)
    ...           JSON header (utf-8)
    ...           zero padding to a 64-byte boundary
    ...           array segments, each 64-byte aligned

The header records the index metadata plus an array table — for every
buffer its dtype (with byte order), shape, payload-relative offset,
byte length, and sha256. Array offsets are relative to the payload
start (itself derived from the header length), so the header can be
serialised in one pass.

Why not ``.npz``? :func:`numpy.load` cannot memory-map members of a
zip container — it inflates them onto the heap. This layout keeps
every buffer page-aligned inside one flat file, so ``mmap=True`` loads
are zero-copy: the CSR ``data`` / ``indices`` / ``indptr`` buffers and
the coefficient table are read-only :class:`numpy.memmap` views, N
processes mapping the same index share one page cache, and
bytes are only faulted in when a query actually touches them.

Corruption is rejected loudly: bad magic, an unsupported format
version, a header that does not parse, or a file too short for its
declared payload all raise :exc:`IndexFormatError` at load time;
:func:`verify_index` additionally recomputes every checksum and
checks CSR structural invariants (the ``verify`` CLI).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DEFAULT_SUFFIX",
    "FORMAT_VERSION",
    "IndexFormatError",
    "container_kind",
    "load_index",
    "read_header",
    "save_index",
    "verify_index",
    "write_container",
]

MAGIC = b"SIMIDX01"
FORMAT_VERSION = 1
ALIGNMENT = 64

#: Conventional file extension for saved indexes.
DEFAULT_SUFFIX = ".simidx"


class IndexFormatError(ValueError):
    """The file is not a readable similarity index of this version.

    >>> import tempfile, os
    >>> from repro.index import IndexFormatError, load_index
    >>> path = os.path.join(tempfile.mkdtemp(), "junk.simidx")
    >>> with open(path, "wb") as f:
    ...     _ = f.write(b"not an index")
    >>> try:
    ...     load_index(path)
    ... except IndexFormatError as exc:
    ...     "bad magic" in str(exc)
    True
    """


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


# ---------------------------------------------------------------------------
# save
# ---------------------------------------------------------------------------
def _flat_arrays(index) -> tuple[dict[str, np.ndarray], dict]:
    """``(name -> buffer, csr name -> shape)`` for every stored array."""
    arrays: dict[str, np.ndarray] = {}
    csr_shapes: dict[str, list[int]] = {}
    for name, matrix in index._csr_items().items():
        csr_shapes[name] = list(matrix.shape)
        arrays[f"{name}/data"] = np.ascontiguousarray(matrix.data)
        arrays[f"{name}/indices"] = np.ascontiguousarray(
            matrix.indices
        )
        arrays[f"{name}/indptr"] = np.ascontiguousarray(matrix.indptr)
    if index.coefficients is not None:
        arrays["coefficients"] = np.ascontiguousarray(
            index.coefficients
        )
    if index.walks is not None:
        walks = index.walks
        arrays["walks/sources"] = np.ascontiguousarray(walks.sources)
        arrays["walks/counts"] = np.ascontiguousarray(walks.counts)
        arrays["walks/indptr"] = np.ascontiguousarray(walks.indptr)
        arrays["walks/level_offsets"] = np.ascontiguousarray(
            walks.level_offsets
        )
    return arrays, csr_shapes


def write_container(
    path: str | Path, header_fields: dict, arrays: dict[str, np.ndarray]
) -> Path:
    """Write a generic ``.simidx`` container atomically.

    Shared by full-index saves and ``delta-<seq>.simidx`` segments:
    the caller supplies the header sections specific to its payload
    kind (``meta``, ``csr_shapes``, ``kind``, ``delta`` ...); this
    function adds ``format_version`` and the checksummed array table,
    lays the segments out 64-byte aligned, and renames a temp file
    into place so concurrent readers never see a torn write.
    """
    path = Path(path)
    table: dict[str, dict] = {}
    offset = 0
    contiguous = {
        name: np.ascontiguousarray(array)
        for name, array in arrays.items()
    }
    for name, array in contiguous.items():
        offset = _align(offset)
        table[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": int(array.nbytes),
            "sha256": hashlib.sha256(memoryview(array)).hexdigest(),
        }
        offset += array.nbytes
    header = dict(header_fields)
    header["format_version"] = FORMAT_VERSION
    header["arrays"] = table
    header_bytes = json.dumps(header, sort_keys=True).encode()
    payload_start = _align(16 + len(header_bytes))
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack("<Q", len(header_bytes)))
            handle.write(header_bytes)
            handle.write(
                b"\0" * (payload_start - 16 - len(header_bytes))
            )
            position = 0
            for name, array in contiguous.items():
                padded = _align(position)
                handle.write(b"\0" * (padded - position))
                handle.write(memoryview(array))  # no bytes copy
                position = padded + array.nbytes
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed write
            tmp.unlink()
    return path


def container_kind(header: dict) -> str:
    """The payload kind a container header declares.

    Headers written before delta segments existed carry no ``kind``
    field; they are full indexes.
    """
    return header.get("kind", "index")


def save_index(index, path: str | Path) -> Path:
    """Write ``index`` to ``path`` atomically (temp file + rename).

    The rename makes a concurrently loading process see either the old
    complete file or the new complete file, never a torn write — the
    property :class:`~repro.serve.SnapshotManager` relies on when it
    persists a freshly built index while older workers may still be
    mapping the previous one.

    Examples
    --------
    >>> import tempfile, os
    >>> from repro import DiGraph, SimilarityIndex
    >>> from repro.index import load_index, save_index, verify_index
    >>> index = SimilarityIndex.build(
    ...     DiGraph(3, edges=[(0, 1), (0, 2)]), measure="gSR*")
    >>> path = save_index(
    ...     index, os.path.join(tempfile.mkdtemp(), "g.simidx"))
    >>> verify_index(path)            # no problems
    []
    >>> load_index(path).meta == index.meta
    True
    """
    arrays, csr_shapes = _flat_arrays(index)
    return write_container(
        path,
        {"meta": index.meta.to_dict(), "csr_shapes": csr_shapes},
        arrays,
    )


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------
def read_header(path: str | Path) -> tuple[dict, int]:
    """``(header, payload_start)`` after full format validation.

    Cheap — reads only the fixed prefix and the JSON header, never an
    array segment. The ``inspect`` CLI and
    :class:`~repro.serve.SnapshotManager`'s is-it-worth-loading check
    both go through here.

    Examples
    --------
    >>> import tempfile, os
    >>> from repro import DiGraph, SimilarityIndex
    >>> from repro.index import FORMAT_VERSION, read_header
    >>> path = SimilarityIndex.build(
    ...     DiGraph(2, edges=[(0, 1)]), measure="gSR*"
    ... ).save(os.path.join(tempfile.mkdtemp(), "g.simidx"))
    >>> header, payload_start = read_header(path)
    >>> header["format_version"] == FORMAT_VERSION
    True
    >>> payload_start > 0
    True
    """
    path = Path(path)
    try:
        size = path.stat().st_size
    except OSError as exc:
        raise IndexFormatError(f"cannot read {path}: {exc}") from exc
    with open(path, "rb") as handle:
        prefix = handle.read(16)
        if len(prefix) < 16 or prefix[:8] != MAGIC:
            raise IndexFormatError(
                f"{path} is not a similarity index (bad magic)"
            )
        (header_len,) = struct.unpack("<Q", prefix[8:16])
        if 16 + header_len > size:
            raise IndexFormatError(
                f"{path} is truncated: header declares "
                f"{header_len} bytes, file has {size}"
            )
        try:
            header = json.loads(handle.read(header_len))
        except (ValueError, UnicodeDecodeError) as exc:
            raise IndexFormatError(
                f"{path} has a corrupt header: {exc}"
            ) from exc
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise IndexFormatError(
            f"{path} uses index format version {version!r}; this "
            f"build reads version {FORMAT_VERSION} — rebuild the "
            "index with `python -m repro.index build`"
        )
    if not isinstance(header.get("arrays"), dict) or not isinstance(
        header.get("meta"), dict
    ):
        raise IndexFormatError(f"{path} header is missing sections")
    payload_start = _align(16 + header_len)
    end = payload_start
    for name, entry in header["arrays"].items():
        try:
            end = max(
                end,
                payload_start + int(entry["offset"])
                + int(entry["nbytes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise IndexFormatError(
                f"{path} array table entry {name!r} is malformed"
            ) from exc
    if end > size:
        raise IndexFormatError(
            f"{path} is truncated: payload needs {end} bytes, "
            f"file has {size}"
        )
    return header, payload_start


def _load_array(
    path: Path,
    payload_start: int,
    entry: dict,
    mmap: bool,
) -> np.ndarray:
    try:
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
    except (TypeError, ValueError) as exc:
        raise IndexFormatError(
            f"{path} has a corrupt array entry: {exc}"
        ) from exc
    try:
        if entry["nbytes"] == 0:
            return np.zeros(shape, dtype=dtype)
        if mmap:
            return np.memmap(
                path,
                dtype=dtype,
                mode="r",
                offset=payload_start + entry["offset"],
                shape=shape,
            )
        with open(path, "rb") as handle:
            handle.seek(payload_start + entry["offset"])
            raw = handle.read(entry["nbytes"])
        if len(raw) != entry["nbytes"]:
            raise IndexFormatError(
                f"{path}: short read (truncated file)"
            )
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
    except IndexFormatError:
        raise
    except (TypeError, ValueError) as exc:
        # dtype/shape/nbytes that disagree with each other
        raise IndexFormatError(
            f"{path} has a corrupt array entry: {exc}"
        ) from exc


def load_index(path: str | Path, mmap: bool = True):
    """Reassemble a :class:`SimilarityIndex` from ``path``.

    ``mmap=True`` maps every buffer read-only and zero-copy;
    ``mmap=False`` reads private (still read-only) heap copies.

    Examples
    --------
    >>> import tempfile, os
    >>> from repro import DiGraph, SimilarityIndex
    >>> from repro.index import load_index
    >>> path = SimilarityIndex.build(
    ...     DiGraph(2, edges=[(0, 1)]), measure="gSR*"
    ... ).save(os.path.join(tempfile.mkdtemp(), "g.simidx"))
    >>> index = load_index(path, mmap=True)
    >>> type(index.coefficients).__name__    # mapped, not copied
    'memmap'
    >>> index.transition.data.flags.writeable
    False
    """
    from repro.index.artifacts import IndexMeta, SimilarityIndex

    path = Path(path)
    header, payload_start = read_header(path)
    if container_kind(header) != "index":
        raise IndexFormatError(
            f"{path} is a {container_kind(header)!r} segment, not a "
            "full index — apply it onto its base generation "
            "(repro.index.delta) or fold the chain with "
            "`python -m repro.index compact`"
        )
    arrays = header["arrays"]

    def array(name: str) -> np.ndarray:
        return _load_array(path, payload_start, arrays[name], mmap)

    def csr(name: str) -> sp.csr_array | None:
        if name not in header.get("csr_shapes", {}):
            return None
        try:
            parts = (
                array(f"{name}/data"),
                array(f"{name}/indices"),
                array(f"{name}/indptr"),
            )
            return sp.csr_array(
                parts, shape=tuple(header["csr_shapes"][name])
            )
        except IndexFormatError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            # a header that parses as JSON but describes impossible
            # buffers (wrong dtype string, inconsistent shapes) is
            # corruption, not a caller error — keep the contract that
            # every unreadable file raises IndexFormatError
            raise IndexFormatError(
                f"{path}: csr {name!r} is unreadable: {exc}"
            ) from exc

    try:
        meta = IndexMeta.from_dict(header["meta"])
    except TypeError as exc:
        raise IndexFormatError(
            f"{path} has an incomplete meta block: {exc}"
        ) from exc
    e_direct = csr("e_direct")
    h_out = csr("h_out")
    h_in = csr("h_in")
    factors = (
        (e_direct, h_out, h_in)
        if e_direct is not None
        and h_out is not None
        and h_in is not None
        else None
    )
    walks = None
    # files written before the walk index dropped its per-walk
    # endpoint array still carry a walks/endpoints segment; nothing
    # reads it
    if "walks/sources" in arrays:
        from repro.approx.walks import WalkIndex

        try:
            walks = WalkIndex.from_arrays(
                array("walks/sources"),
                array("walks/counts"),
                array("walks/indptr"),
                array("walks/level_offsets"),
                samples=meta.walk_samples,
                seed=meta.seed,
            )
        except IndexFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            # same contract as the csr loader: a header describing
            # inconsistent walk buffers is corruption, not a caller
            # error
            raise IndexFormatError(
                f"{path}: walk segments are unreadable: {exc}"
            ) from exc
    return SimilarityIndex(
        meta=meta,
        transition=csr("transition"),
        transition_t=csr("transition_t"),
        factors=factors,
        coefficients=(
            array("coefficients")
            if "coefficients" in arrays
            else None
        ),
        walks=walks,
    )


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------
def verify_index(path: str | Path) -> list[str]:
    """Deep-check ``path``; returns problems (empty = healthy).

    Recomputes every array checksum against the header (so a flipped
    byte anywhere in the payload is caught) and validates the CSR
    structural invariants — monotone ``indptr`` starting at 0 and
    ending at ``nnz``, column indices inside the declared shape.
    Format-level corruption (bad magic / version / truncation) is
    reported the same way instead of raising.

    Examples
    --------
    >>> import tempfile, os
    >>> from repro import DiGraph, SimilarityIndex
    >>> from repro.index import verify_index
    >>> path = SimilarityIndex.build(
    ...     DiGraph(2, edges=[(0, 1)]), measure="gSR*"
    ... ).save(os.path.join(tempfile.mkdtemp(), "g.simidx"))
    >>> verify_index(path)
    []
    >>> with open(path, "r+b") as f:       # flip one payload byte
    ...     _ = f.seek(-1, os.SEEK_END)
    ...     byte = f.read(1)
    ...     _ = f.seek(-1, os.SEEK_END)
    ...     _ = f.write(bytes([byte[0] ^ 0xFF]))
    >>> problems = verify_index(path)
    >>> len(problems) >= 1
    True
    """
    path = Path(path)
    try:
        header, payload_start = read_header(path)
    except IndexFormatError as exc:
        return [str(exc)]
    problems: list[str] = []
    with open(path, "rb") as handle:
        for name, entry in sorted(header["arrays"].items()):
            handle.seek(payload_start + entry["offset"])
            raw = handle.read(entry["nbytes"])
            if len(raw) != entry["nbytes"]:
                problems.append(f"{name}: short read (truncated)")
                continue
            digest = hashlib.sha256(raw).hexdigest()
            if digest != entry["sha256"]:
                problems.append(
                    f"{name}: checksum mismatch (stored "
                    f"{entry['sha256'][:12]}..., actual "
                    f"{digest[:12]}...)"
                )
    if problems:
        return problems
    for name, shape in header.get("csr_shapes", {}).items():
        rows, cols = shape
        indptr = _load_array(
            path, payload_start,
            header["arrays"][f"{name}/indptr"], mmap=False,
        )
        indices = _load_array(
            path, payload_start,
            header["arrays"][f"{name}/indices"], mmap=False,
        )
        if len(indptr) != rows + 1 or (rows >= 0 and indptr[0] != 0):
            problems.append(f"{name}: malformed indptr")
            continue
        if np.any(np.diff(indptr) < 0):
            problems.append(f"{name}: indptr not monotone")
        if indptr[-1] != indices.size:
            problems.append(
                f"{name}: indptr end {int(indptr[-1])} != "
                f"nnz {indices.size}"
            )
        if indices.size and (
            indices.min() < 0 or indices.max() >= cols
        ):
            problems.append(f"{name}: column index out of range")
    problems.extend(_verify_walks(path, payload_start, header))
    return problems


def _verify_walks(
    path: Path, payload_start: int, header: dict
) -> list[str]:
    """Structural invariants of the optional walk segments.

    Checksums (already verified by the caller) catch flipped bytes;
    these checks catch a header/payload combination that is internally
    consistent but describes impossible walks — sources outside the
    node range, non-monotone bucket boundaries, a sources array that
    disagrees with its level offsets, a source with more walks at a
    level than it drew, or a source whose walks grow from one level to
    the next (walks only die).
    """
    arrays = header["arrays"]
    if "walks/sources" not in arrays:
        return []
    problems: list[str] = []

    def load(name: str) -> np.ndarray:
        return _load_array(
            path, payload_start, arrays[name], mmap=False
        )

    try:
        sources = load("walks/sources")
        counts = load("walks/counts")
        indptr = load("walks/indptr")
        level_offsets = load("walks/level_offsets")
        meta = header["meta"]
        walk_length = int(meta["walk_length"])
        num_nodes = int(meta["num_nodes"])
        samples = int(meta["walk_samples"])
    except (KeyError, TypeError, ValueError, IndexFormatError) as exc:
        return [f"walks: segment set incomplete or unreadable: {exc}"]
    if indptr.shape != (walk_length, num_nodes + 1):
        return [
            f"walks: indptr shape {indptr.shape} disagrees with "
            f"walk_length {walk_length} over {num_nodes} nodes"
        ]
    if level_offsets.shape != (walk_length + 1,):
        return [
            f"walks: level_offsets shape {level_offsets.shape} "
            f"disagrees with walk_length {walk_length}"
        ]
    if np.any(np.diff(indptr, axis=-1) < 0) or np.any(
        indptr[:, 0] != 0
    ):
        problems.append("walks: bucket indptr not monotone from 0")
    if (
        np.any(level_offsets[1:] - level_offsets[:-1] != indptr[:, -1])
        or level_offsets[0] != 0
        or int(level_offsets[-1]) != sources.size
    ):
        problems.append(
            "walks: level offsets disagree with sources length"
        )
    if sources.size and int(sources.max()) >= num_nodes:
        problems.append(
            f"walks: source {int(sources.max())} out of range for "
            f"{num_nodes} nodes"
        )
    if counts.shape != sources.shape:
        problems.append(
            f"walks: counts length {counts.size} disagrees with "
            f"sources length {sources.size}"
        )
    elif counts.size and (
        int(counts.min()) < 1 or int(counts.max()) > samples
    ):
        problems.append(
            "walks: bucket count outside [1, samples] "
            f"(samples={samples})"
        )
    if problems:
        return problems
    # walks alive per (level, source): at most samples, never growing
    previous = np.full(num_nodes, samples, dtype=np.int64)
    for level in range(walk_length):
        lo, hi = int(level_offsets[level]), int(level_offsets[level + 1])
        alive = np.bincount(
            sources[lo:hi], weights=counts[lo:hi], minlength=num_nodes
        ).astype(np.int64)
        if np.any(alive > previous):
            problems.append(
                f"walks: level {level + 1} holds more walks of a "
                "source than it drew or than the level before"
            )
            break
        previous = alive
    return problems
