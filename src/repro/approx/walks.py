"""Reverse-random-walk sample store — the approx tier's precomputation.

The Monte-Carlo estimator (:mod:`repro.approx.estimator`) rewrites the
truncated SimRank* series as an expectation over *reverse* random
walks: ``Q^alpha[u, w]`` — the weight the exact kernel computes by
``alpha`` sparse products — is exactly the probability that a length-
``alpha`` walk from ``u`` along the backward transition matrix ``Q``
ends at ``w``. A :class:`WalkIndex` materialises that distribution
empirically: ``samples`` independent walks from every node, a walk
dying at an in-degree-0 node (mirroring the absorbing zero rows of
``Q``).

The walks are stored in one layout, the one the estimator reads: an
**inverted index** per level — ``bucket(l, w)`` lists every walk
source whose step-``l`` endpoint is ``w``, stored *run-length
deduplicated*: each (source, endpoint) pair appears once in
``sources`` with its multiplicity in the aligned ``counts`` array.
Walks concentrate heavily on hub endpoints (several walks from one
source often meet at the same node), so deduplication both shrinks
the index and cuts the estimator's dominant gather volume.

The walks themselves are not kept, because any of them can be drawn
again. Every step draws one uniform per walk from a single PCG64
stream whatever the graph is: walk ``w = i * samples + r`` (walk ``r``
of node ``i``) takes draw ``s * n * samples + w`` of
``np.random.default_rng(seed)`` at step ``s``. An edge edit changes
only the ``Q`` rows of its targets, so :meth:`WalkIndex.rewalked`
regenerates exactly the walks that stand on a target
(``PCG64.advance``) and patches their bucket entries — the result is
byte-identical to a fresh :meth:`WalkIndex.build`.

The buckets are plain contiguous arrays, which is what lets
:mod:`repro.index.store` persist them as optional ``.simidx`` segments
and memory-map them back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np
import scipy.sparse as sp

from repro.core.kernels import check_csr, gather_rows
from repro.core.splice import _splice_ranges

__all__ = ["WalkIndex"]


def _validate_build_args(walk_length: int, samples: int) -> None:
    if not isinstance(walk_length, int) or isinstance(walk_length, bool):
        raise TypeError(f"walk_length must be an int, got {walk_length!r}")
    if walk_length < 0:
        raise ValueError(f"walk_length must be >= 0, got {walk_length}")
    if (
        not isinstance(samples, int)
        or isinstance(samples, bool)
        or samples < 1
    ):
        raise ValueError(f"samples must be a positive int, got {samples!r}")
    if samples > 0xFFFF:
        raise ValueError(
            f"samples must fit the uint16 bucket counts, got {samples}"
        )


def _walk_buckets(
    transition: sp.csr_array,
    origins: np.ndarray,
    samples: int,
    walk_length: int,
    draws: Callable[[int], np.ndarray],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Walk ``samples`` walks from each of ``origins``; per level, yield
    the sorted ``endpoint * n + source`` keys and their walk counts.

    Walk ``j * samples + r`` starts at ``origins[j]`` and moves with
    uniform ``draws(step)[j * samples + r]`` at ``step``: it picks
    in-neighbour ``floor(u * degree)`` of its node, or dies there when
    the degree is 0. Dead walks drop out of every later level.
    """
    n = int(transition.shape[0])
    indptr = np.asarray(transition.indptr, dtype=np.int64)
    indices = np.asarray(transition.indices)
    live = np.arange(origins.size * samples, dtype=np.int64)
    pos = np.repeat(origins, samples)
    for step in range(walk_length):
        uniforms = draws(step)
        deg = indptr[pos + 1] - indptr[pos]
        moving = deg > 0
        live, pos, deg = live[moving], pos[moving], deg[moving]
        offset = np.minimum(
            (uniforms[live] * deg).astype(np.int64), deg - 1
        )
        pos = indices[indptr[pos] + offset].astype(np.int64)
        yield np.unique(
            pos * n + origins[live // samples], return_counts=True
        )


def _regenerate_draws(
    seed: int,
    num_nodes: int,
    samples: int,
    walk_length: int,
    origins: np.ndarray,
) -> np.ndarray:
    """The uniforms :meth:`WalkIndex.build` gives the walks of ``origins``.

    ``out[step, j * samples + r]`` is draw
    ``(step * num_nodes + origins[j]) * samples + r`` of
    ``default_rng(seed)``; each run of consecutive origins is one
    ``advance`` plus one contiguous ``random`` call per step (PCG64
    spends one 64-bit output per double).
    """
    bitgen = np.random.PCG64(seed)
    gen = np.random.Generator(bitgen)
    breaks = np.flatnonzero(np.diff(origins) != 1) + 1
    firsts = np.concatenate(([0], breaks)).tolist()
    ends = np.concatenate((breaks, [origins.size])).tolist()
    out = np.empty((walk_length, origins.size * samples))
    cursor = 0
    for step in range(walk_length):
        for a, b in zip(firsts, ends):
            start = (step * num_nodes + int(origins[a])) * samples
            bitgen.advance(start - cursor)
            out[step, a * samples: b * samples] = gen.random(
                (b - a) * samples
            )
            cursor = start + (b - a) * samples
    return out


@dataclass(frozen=True, eq=False)
class WalkIndex:
    """``samples`` reverse walks per node, endpoint-indexed per level.

    Attributes
    ----------
    sources:
        ``uint32`` concatenation of every level's inverted buckets,
        one entry per distinct (source, endpoint) pair.
    counts:
        ``uint16`` array aligned with :attr:`sources`; how many of the
        source's walks end on the bucket's node at that level (at most
        ``samples``, which the build caps at ``uint16`` range).
    indptr:
        ``int64`` array of shape ``(walk_length, num_nodes + 1)``;
        per-level CSR-style bucket boundaries (level-local offsets).
    level_offsets:
        ``int64`` array of shape ``(walk_length + 1,)``; where each
        level's buckets start inside :attr:`sources`.
    samples:
        Independent walks drawn per node.
    seed:
        The RNG seed the walks were drawn with — part of the index
        fingerprint, so equal seeds mean bit-identical estimates.

    Examples
    --------
    Walks die at in-degree-0 nodes, exactly like the exact kernel's
    absorbing transition rows. Node 0 has no in-edges; node 1's only
    in-neighbour is 0; node 2's are 0 and 1:

    >>> from repro.graph.digraph import DiGraph
    >>> from repro.graph.matrices import backward_transition_matrix
    >>> g = DiGraph(3, edges=[(0, 1), (0, 2), (1, 2)])
    >>> q = backward_transition_matrix(g)
    >>> walks = WalkIndex.build(q, walk_length=2, samples=4, seed=0)
    >>> walks.walk_length, walks.num_nodes, walks.samples
    (2, 3, 4)
    >>> walks.bucket(1, 0).tolist()   # 1 always steps to 0, 2 may
    [1, 2]
    >>> walks.bucket(1, 2).tolist()   # nothing steps onto 2
    []

    Buckets are deduplicated; the aligned counts keep the walk
    multiplicities, so no sampled mass is lost — after one step, the
    four walks of node 1 and the four of node 2 are alive:

    >>> int(walks.counts[: int(walks.level_offsets[1])].sum())
    8

    An edit of node 0's in-edges re-draws only the walks standing on
    node 0, and matches a fresh build:

    >>> q2 = backward_transition_matrix(
    ...     DiGraph(3, edges=[(0, 1), (0, 2), (1, 2), (2, 0)]))
    >>> fresh = WalkIndex.build(q2, walk_length=2, samples=4, seed=0)
    >>> walks.rewalked(q, q2, targets=[0]) == fresh
    True
    """

    sources: np.ndarray
    counts: np.ndarray
    indptr: np.ndarray
    level_offsets: np.ndarray
    samples: int
    seed: int

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        transition: sp.csr_array,
        walk_length: int,
        samples: int,
        seed: int = 0,
    ) -> "WalkIndex":
        """Draw ``samples`` reverse walks per node along ``transition``.

        ``transition`` is the backward transition matrix ``Q`` in CSR
        form (row ``i`` holds the uniform step distribution over
        ``i``'s in-neighbours). Sampling is fully vectorised — per
        step, one draw of ``num_nodes * samples`` uniforms and one
        gather over the walks still alive — and deterministic per
        ``seed``. Each level is inverted into its buckets as soon as
        it is drawn.
        """
        _validate_build_args(walk_length, samples)
        n = int(transition.shape[0])
        if n > np.iinfo(np.uint32).max:
            raise ValueError(
                f"graph has {n} nodes; bucket sources are uint32"
            )
        rng = np.random.default_rng(seed)
        indptr = np.zeros((walk_length, n + 1), dtype=np.int64)
        source_parts, count_parts = [], []
        levels = _walk_buckets(
            transition,
            np.arange(n, dtype=np.int64),
            samples,
            walk_length,
            lambda step: rng.random(n * samples),
        )
        for step, (keys, multiplicity) in enumerate(levels):
            source_parts.append((keys % n).astype(np.uint32))
            count_parts.append(multiplicity.astype(np.uint16))
            np.cumsum(
                np.bincount(keys // n, minlength=n), out=indptr[step, 1:]
            )
        level_offsets = np.zeros(walk_length + 1, dtype=np.int64)
        level_offsets[1:] = np.cumsum(
            [part.size for part in source_parts], dtype=np.int64
        )
        return cls(
            sources=np.concatenate(
                [np.empty(0, dtype=np.uint32), *source_parts]
            ),
            counts=np.concatenate(
                [np.empty(0, dtype=np.uint16), *count_parts]
            ),
            indptr=indptr,
            level_offsets=level_offsets,
            samples=samples,
            seed=seed,
        )

    @classmethod
    def from_arrays(
        cls,
        sources: np.ndarray,
        counts: np.ndarray,
        indptr: np.ndarray,
        level_offsets: np.ndarray,
        samples: int,
        seed: int = 0,
    ) -> "WalkIndex":
        """Reassemble a walk index from its (possibly mmap'd) arrays.

        The persistence layer's constructor: shape and dtype
        consistency is checked here (cheap, structural); content
        integrity (checksums, bucket invariants) is the store's
        ``verify_index`` job.
        """
        sources = np.asarray(sources)
        counts = np.asarray(counts)
        indptr = np.asarray(indptr)
        level_offsets = np.asarray(level_offsets)
        if indptr.ndim != 2 or indptr.shape[1] < 1:
            raise ValueError(
                "indptr must have shape (walk_length, num_nodes + 1), "
                f"got {indptr.shape}"
            )
        walk_length = indptr.shape[0]
        _validate_build_args(walk_length, int(samples))
        if level_offsets.shape != (walk_length + 1,):
            raise ValueError(
                f"level_offsets shape {level_offsets.shape} disagrees "
                f"with walk_length {walk_length}"
            )
        if sources.ndim != 1 or sources.dtype != np.uint32:
            raise ValueError(
                "sources must be a flat uint32 array, got "
                f"{sources.dtype} shape {sources.shape}"
            )
        if counts.shape != sources.shape or counts.dtype != np.uint16:
            raise ValueError(
                "counts must be a uint16 array aligned with sources, "
                f"got {counts.dtype} shape {counts.shape}"
            )
        if walk_length and int(level_offsets[-1]) != sources.size:
            raise ValueError(
                f"sources has {sources.size} entries but level_offsets "
                f"ends at {int(level_offsets[-1])}"
            )
        return cls(
            sources=sources,
            counts=counts,
            indptr=indptr,
            level_offsets=level_offsets,
            samples=int(samples),
            seed=int(seed),
        )

    # ------------------------------------------------------------------
    # incremental maintenance
    # ------------------------------------------------------------------
    def rewalked(
        self,
        old_transition: sp.csr_array,
        new_transition: sp.csr_array,
        targets,
    ) -> "WalkIndex":
        """This index after an edit that replaced ``targets``' rows of
        ``Q``, equal byte for byte to ``build(new_transition, ...)``.

        ``self`` must be the walks of ``old_transition``, and the two
        matrices may differ only in the rows ``targets``. A walk uses
        row ``v`` only while it stands on ``v`` before its last step,
        so only the sources in ``bucket(l, v)`` for ``l <
        walk_length`` (and the targets themselves, at level 0) can
        change. Their walks are drawn again from the regenerated
        uniforms, once on each matrix, and each level's buckets are
        patched by the difference. Raises ``ValueError`` when the old
        walks are not in this index (it was drawn on another matrix).
        """
        n, samples = self.num_nodes, self.samples
        targets = np.unique(np.asarray(targets, dtype=np.int64))
        if self.walk_length == 0 or targets.size == 0:
            return self
        if not 0 <= targets[0] <= targets[-1] < n:
            raise ValueError(f"edit targets must lie in [0, {n})")
        parts = [gather_rows(*lv, targets)[1] for lv in self.levels[:-1]]
        origins = np.unique(np.concatenate([targets, *parts]))
        draws = _regenerate_draws(
            self.seed, n, samples, self.walk_length, origins
        )
        old_levels = _walk_buckets(
            old_transition, origins, samples, self.walk_length,
            draws.__getitem__,
        )
        new_levels = _walk_buckets(
            new_transition, origins, samples, self.walk_length,
            draws.__getitem__,
        )
        indptr = np.array(self.indptr, dtype=np.int64)
        drop_parts, at_parts, src_parts, cnt_parts = [], [], [], []
        for level, ((old_keys, old_counts), (new_keys, new_counts)) in (
            enumerate(zip(old_levels, new_levels), start=1)
        ):
            _, old_at, new_at = np.intersect1d(
                old_keys, new_keys, assume_unique=True,
                return_indices=True,
            )
            same = old_counts[old_at] == new_counts[new_at]
            gone = np.ones(old_keys.size, dtype=bool)
            gone[old_at[same]] = False
            come = np.ones(new_keys.size, dtype=bool)
            come[new_at[same]] = False
            old_nodes, old_srcs = np.divmod(old_keys, n)
            come_nodes, come_srcs = np.divmod(new_keys[come], n)
            held = self._bucket_positions(level, old_nodes, old_srcs)
            ends = (
                int(self.level_offsets[level - 1])
                + self.indptr[level - 1][old_nodes + 1]
            )
            found = held < ends
            found[found] = (
                (self.sources[held[found]] == old_srcs[found])
                & (self.counts[held[found]] == old_counts[found])
            )
            if not found.all():
                raise ValueError(
                    "walk index disagrees with the transition matrix "
                    "it is being patched from"
                )
            drop_parts.append(held[gone])
            at_parts.append(
                self._bucket_positions(level, come_nodes, come_srcs)
            )
            src_parts.append(come_srcs.astype(np.uint32))
            cnt_parts.append(new_counts[come].astype(np.uint16))
            indptr[level - 1, 1:] += np.cumsum(
                np.bincount(come_nodes, minlength=n)
                - np.bincount(old_nodes[gone], minlength=n)
            )
        level_offsets = np.zeros(self.walk_length + 1, dtype=np.int64)
        np.cumsum(indptr[:, -1], out=level_offsets[1:])
        # both position lists are level-major and key-sorted, so
        # ascending: at each changed position, drop the entry there if
        # it went and insert the new entries that sort before it
        drop = np.concatenate(drop_parts)
        at = np.concatenate(at_parts)
        cuts = np.union1d(drop, at)
        ranges = (
            cuts.tolist(),
            (cuts + np.isin(cuts, drop)).tolist(),
            np.searchsorted(at, cuts, side="left").tolist(),
            np.searchsorted(at, cuts, side="right").tolist(),
        )
        return WalkIndex(
            sources=_splice_ranges(
                self.sources, np.concatenate(src_parts), *ranges
            ),
            counts=_splice_ranges(
                self.counts, np.concatenate(cnt_parts), *ranges
            ),
            indptr=indptr,
            level_offsets=level_offsets,
            samples=samples,
            seed=self.seed,
        )

    def _bucket_positions(
        self, level: int, nodes: np.ndarray, srcs: np.ndarray
    ) -> np.ndarray:
        """Per pair, the index into :attr:`sources` of the first entry
        of ``bucket(level, nodes[i])`` whose source is ``>= srcs[i]``.

        One vectorised binary search over all pairs at once (each
        bucket's sources are sorted).
        """
        row = self.indptr[level - 1]
        base = int(self.level_offsets[level - 1])
        lo = base + row[nodes]
        hi = base + row[nodes + 1]
        last = max(self.sources.size - 1, 0)
        while True:
            active = lo < hi
            if not active.any():
                return lo
            mid = (lo + hi) >> 1
            right = active & (self.sources[np.minimum(mid, last)] < srcs)
            lo = np.where(right, mid + 1, lo)
            hi = np.where(active & ~right, mid, hi)

    # ------------------------------------------------------------------
    # shape / access
    # ------------------------------------------------------------------
    @property
    def walk_length(self) -> int:
        """Number of recorded step levels (level 0 is analytic)."""
        return int(self.indptr.shape[0])

    @property
    def num_nodes(self) -> int:
        return int(self.indptr.shape[1]) - 1

    @cached_property
    def levels(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Each level's buckets as an ``n x n`` CSR ``(row_ptr, sources,
        counts)``, checked once by :func:`~repro.core.kernels.check_csr`
        (``ValueError``): ``int32`` row pointers and a zero-copy
        ``int32`` view of the sources when they fit, else ``int64``.
        """
        n, out = self.num_nodes, []
        for level in range(self.walk_length):
            lo, hi = self.level_offsets[level: level + 2]
            sources = self.sources[lo:hi]
            if max(n, hi - lo) > np.iinfo(np.int32).max:
                sources = sources.astype(np.int64)
            else:
                sources = sources.view(np.int32)
            row_ptr = self.indptr[level].astype(sources.dtype)
            check_csr(row_ptr, sources, n)
            out.append((row_ptr, sources, self.counts[lo:hi]))
        return tuple(out)

    @property
    def nbytes(self) -> int:
        """Total bytes across all stored arrays (mmap'd or not)."""
        return int(
            self.sources.nbytes
            + self.counts.nbytes
            + self.indptr.nbytes
            + self.level_offsets.nbytes
        )

    def bucket(self, level: int, node: int) -> np.ndarray:
        """Walk sources whose step-``level`` endpoint is ``node``.

        ``level`` is 1-based (level 0 would be the identity — every
        node trivially "meets itself", which the estimator handles
        analytically). Returns a zero-copy slice of :attr:`sources`
        with one entry per distinct source; the matching slice of
        :attr:`counts` carries the walk multiplicities.
        """
        if not 1 <= level <= self.walk_length:
            raise IndexError(
                f"level must be in [1, {self.walk_length}], got {level}"
            )
        row = self.indptr[level - 1]
        base = int(self.level_offsets[level - 1])
        return self.sources[
            base + int(row[node]): base + int(row[node + 1])
        ]

    def describe(self) -> dict:
        """A JSON-ready shape/size summary (for ``/status`` + CLI)."""
        return {
            "walk_length": self.walk_length,
            "num_nodes": self.num_nodes,
            "samples": self.samples,
            "seed": self.seed,
            "nbytes": self.nbytes,
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, WalkIndex):
            return NotImplemented
        return (
            self.seed == other.seed
            and self.samples == other.samples
            and self.indptr.shape == other.indptr.shape
            and bool(np.array_equal(self.sources, other.sources))
            and bool(np.array_equal(self.counts, other.counts))
            and bool(np.array_equal(self.indptr, other.indptr))
            and bool(
                np.array_equal(self.level_offsets, other.level_offsets)
            )
        )

    def __repr__(self) -> str:
        return (
            f"WalkIndex(walk_length={self.walk_length}, "
            f"num_nodes={self.num_nodes}, samples={self.samples}, "
            f"seed={self.seed})"
        )
