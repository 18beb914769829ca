"""Immutable serving snapshots and the hot-swap that replaces them.

A :class:`Snapshot` pins one ``(graph copy, engine)`` pair for the
lifetime of every query dispatched against it. Mutations never touch a
live snapshot: :meth:`SnapshotManager.mutate` splices the edits into
a copy of the current graph, builds (and warms) a fresh
:class:`~repro.engine.SimilarityEngine` on the copy, and only then
swaps the ``current`` pointer — an atomic reference assignment under a
lock. Queries that grabbed the old snapshot before the swap finish on
it untouched; the old engine is garbage-collected once the last
in-flight batch drops its reference. That is the classic index-server
"build offline, flip a pointer" discipline, applied to the paper's
preprocess-once regime.

With an ``index_path`` configured, the manager additionally treats the
precomputation as a *persistent* artifact (:mod:`repro.index`): a
replacement engine is warmed from the on-disk
:class:`~repro.index.SimilarityIndex` whenever its graph/config
fingerprint matches the graph about to be served, and freshly built
engines persist their artifacts back after warmup — so a server
restart loads (memory-maps) instead of rebuilding, and N workers
pointed at the same file share one page cache.
"""

from __future__ import annotations

import threading
from collections import deque

import numpy as np
from pathlib import Path
from time import perf_counter
from typing import Iterable, Sequence

from repro.engine.config import SimilarityConfig
from repro.engine.engine import SimilarityEngine
from repro.graph.digraph import DiGraph
from repro.index.artifacts import IndexMismatchError, SimilarityIndex
from repro.index.delta import (
    IndexDelta,
    apply_delta,
    apply_delta_file,
    delta_sibling_path,
    find_delta_siblings,
    save_delta,
)
from repro.index.store import IndexFormatError

__all__ = ["Snapshot", "SnapshotManager"]


class Snapshot:
    """One immutable generation of the served graph.

    Attributes
    ----------
    engine:
        The :class:`~repro.engine.SimilarityEngine` answering queries
        for this generation. Its graph is private to the snapshot.
    seq:
        Monotonic generation number (0 for the initial snapshot).
    version:
        The underlying graph's mutation counter at snapshot build
        time — part of every result-cache key.
    delta:
        The :class:`~repro.index.delta.IndexDelta` this generation was
        derived through, or ``None`` when it came from a full build.
    base_seq:
        ``seq`` of the generation a delta snapshot chains onto
        (``None`` for full builds).
    chain_depth:
        Delta generations stacked on the last full build (0 for a
        full build; a restart that replays ``k`` persisted segments
        starts at ``k``).

    Examples
    --------
    >>> from repro.graph import figure1_citation_graph
    >>> from repro.serve import SnapshotManager
    >>> manager = SnapshotManager(
    ...     figure1_citation_graph(), measure="gSR*")
    >>> snapshot = manager.current
    >>> snapshot.seq, snapshot.graph.num_nodes
    (0, 11)
    >>> snapshot.describe()["measure"]
    'gSR*'
    """

    __slots__ = (
        "engine", "seq", "version", "delta", "base_seq", "chain_depth"
    )

    def __init__(
        self,
        engine: SimilarityEngine,
        seq: int,
        delta: IndexDelta | None = None,
        base_seq: int | None = None,
        chain_depth: int = 0,
    ) -> None:
        self.engine = engine
        self.seq = seq
        self.version = engine.graph.version
        self.delta = delta
        self.base_seq = base_seq
        self.chain_depth = chain_depth

    @property
    def graph(self) -> DiGraph:
        return self.engine.graph

    def describe(self) -> dict:
        """A JSON-ready summary (the ``/status`` endpoint's shape)."""
        graph = self.engine.graph
        return {
            "seq": self.seq,
            "version": self.version,
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "measure": self.engine.measure.name,
            "swap_kind": "delta" if self.delta is not None else "full",
            "base_seq": self.base_seq,
            "engine_stats": self.engine.stats.snapshot(),
        }

    def __repr__(self) -> str:
        return (
            f"Snapshot(seq={self.seq}, version={self.version}, "
            f"graph={self.engine.graph!r})"
        )


class SnapshotManager:
    """Owns the ``current`` snapshot and performs atomic hot-swaps.

    Parameters
    ----------
    graph:
        The initial graph. It is **copied** — the manager's snapshots
        never alias caller-owned mutable state, so external mutation
        of ``graph`` cannot corrupt serving (pass ``copy=False`` to
        opt out when the caller hands over ownership).
    config:
        A :class:`~repro.engine.SimilarityConfig`; keyword overrides
        may be passed instead of (or on top of) it, mirroring
        :class:`~repro.engine.SimilarityEngine`.
    index_path:
        Optional path of a persistent :class:`~repro.index.SimilarityIndex`.
        When the file exists and fingerprint-matches the graph being
        (re)built, the engine adopts its (memory-mapped) artifacts
        instead of rebuilding — a restart serves its first query
        without rebuilding ``Q`` / ``Q^T`` / the compressed factors.
        Freshly built engines persist their artifacts back to this
        path on :meth:`warmup` and :meth:`mutate` (atomic
        write-then-rename), keeping the file current with the served
        generation. A stale, corrupt, or missing file is never an
        error — it is simply not used (and overwritten on the next
        persist).
    persist_index:
        Set ``False`` to load from ``index_path`` but never write it
        (read-only replicas sharing a file owned by a primary).
    max_delta_fraction:
        A mutation batch goes through
        :func:`repro.index.delta.apply_delta` — ``O(delta)`` artifact
        surgery instead of an ``O(graph)`` rebuild, with the result
        bit-identical to a from-scratch build — only while
        ``num_edits <= max_delta_fraction * num_edges``. Past that,
        row surgery approaches rebuild cost and a full build resets
        the chain instead; ``0`` rebuilds on every mutation. Any
        failure on the delta path falls back to a full rebuild
        automatically (counted in ``delta_fallbacks``); correctness
        never depends on the fast path.
    max_chain_depth:
        Deltas stack (each chains onto the previous generation); once
        a swap would exceed this depth the manager takes the full
        path, folding the chain into a fresh base.

    Examples
    --------
    A mutation never touches the serving snapshot — it builds a new
    one and swaps the pointer:

    >>> from repro.graph import figure1_citation_graph
    >>> from repro.serve import SnapshotManager
    >>> manager = SnapshotManager(
    ...     figure1_citation_graph(), measure="gSR*")
    >>> before = manager.current
    >>> fresh = manager.mutate(add=[("a", "k")])
    >>> (before.seq, fresh.seq, manager.current is fresh)
    (0, 1, True)
    >>> before.graph.num_edges < fresh.graph.num_edges
    True
    """

    def __init__(
        self,
        graph: DiGraph,
        config: SimilarityConfig | None = None,
        *,
        copy: bool = True,
        index_path: str | Path | None = None,
        persist_index: bool = True,
        max_delta_fraction: float = 0.10,
        max_chain_depth: int = 8,
        **overrides,
    ) -> None:
        if config is None:
            config = SimilarityConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        self.index_path = (
            Path(index_path) if index_path is not None else None
        )
        self.persist_index = persist_index
        self.max_delta_fraction = float(max_delta_fraction)
        self.max_chain_depth = int(max_chain_depth)
        self._swap_lock = threading.Lock()   # guards `_current`
        self._build_lock = threading.Lock()  # serialises rebuilds
        self.builds = 0
        self.swaps = 0
        self.full_swaps = 0
        self.delta_swaps = 0
        self.delta_fallbacks = 0
        self.last_delta_fallback: str | None = None
        self.delta_segments_loaded = 0
        self.index_loads = 0
        self.index_saves = 0
        self.index_load_errors = 0
        self.canary_prepares = 0
        self.canary_promotes = 0
        self.canary_rollbacks = 0
        # optional telemetry hook: called with each recorded swap's
        # stage-timing row (repro.obs feeds these into the
        # repro_swap_stage_seconds histogram)
        self.swap_observer = None
        self._last_persisted: SimilarityEngine | None = None
        # delta segments are numbered independently of snapshot seq so
        # a restart (seq resets to 0) never overwrites a live segment
        self._delta_seq = 0
        if self.index_path is not None:
            siblings = find_delta_siblings(self.index_path)
            if siblings:
                self._delta_seq = siblings[-1][0]
        self._swap_latency: deque[dict] = deque(maxlen=256)
        # monotonic generation allocator: a rolled-back green's seq is
        # never reused, because result-cache keys carry the seq — a
        # later generation reusing it could be served answers cached
        # from the rejected green
        self._seq_alloc = 0
        engine, depth = self._engine_for(graph.copy() if copy else graph)
        self._current = Snapshot(engine, seq=0, chain_depth=depth)

    # ------------------------------------------------------------------
    # persistent-index plumbing
    # ------------------------------------------------------------------
    def _engine_for(
        self, graph: DiGraph
    ) -> tuple[SimilarityEngine, int]:
        """An engine over ``graph``, warmed from disk when possible,
        and the delta chain depth it was loaded at (0 if built)."""
        index, depth = self._load_index()
        if index is not None:
            try:
                # the engine's constructor verifies the fingerprint;
                # one pass, no separate matches() pre-check
                engine = SimilarityEngine.from_index(
                    index, graph, self.config
                )
            except IndexMismatchError:
                pass  # stale content: rebuild (and later overwrite)
            else:
                self.index_loads += 1
                return engine, depth
        return SimilarityEngine(graph, self.config), 0

    def _load_index(self) -> tuple[SimilarityIndex | None, int]:
        if self.index_path is None or not self.index_path.exists():
            return None, 0
        try:
            index = SimilarityIndex.load(self.index_path, mmap=True)
        except (IndexFormatError, OSError):
            # unreadable files are treated as absent, not fatal: the
            # next persist overwrites them with a healthy one
            self.index_load_errors += 1
            return None, 0
        # replay any delta segments persisted beside the base: a
        # restart resumes the chained generation without a rebuild. A
        # broken link ends the chain — serve what replays cleanly and
        # let the fingerprint check decide whether it is current.
        depth = 0
        for _seq, path in find_delta_siblings(self.index_path):
            try:
                index, applied = apply_delta_file(index, path)
            except (
                IndexFormatError,
                IndexMismatchError,
                OSError,
                ValueError,
            ):
                self.index_load_errors += 1
                break
            depth = applied.chain_depth
            self.delta_segments_loaded += 1
        return index, depth

    def _persist_index(self, engine: SimilarityEngine) -> None:
        if self.index_path is None or not self.persist_index:
            return
        if engine.index is not None or engine is self._last_persisted:
            # adopted from this very file, or already written once —
            # nothing new to put on disk
            return
        engine.export_index().save(self.index_path)
        self._last_persisted = engine
        self.index_saves += 1
        # the fresh full base supersedes every delta segment chained
        # onto the old one; leaving them behind would corrupt the next
        # restart's replay
        for _seq, path in find_delta_siblings(self.index_path):
            try:
                path.unlink()
            except OSError:
                pass
        self._delta_seq = 0

    def _persist_delta(self, delta: IndexDelta) -> None:
        """Persist one delta segment beside the base index file.

        Skipped (not an error) when there is no base on disk to chain
        onto — the segment would be unreplayable at restart.
        """
        if self.index_path is None or not self.persist_index:
            return
        if not self.index_path.exists():
            return
        self._delta_seq += 1
        save_delta(
            delta, delta_sibling_path(self.index_path, self._delta_seq)
        )
        self.index_saves += 1

    @property
    def current(self) -> Snapshot:
        """The snapshot serving new queries right now.

        Callers must read this **once** per logical operation and use
        the returned object throughout — re-reading mid-operation may
        observe a swap.
        """
        with self._swap_lock:
            return self._current

    def warmup(self) -> dict:
        """Force-build the current engine's shared artifacts.

        Builds ``Q`` / ``Q^T`` (and the compressed graph when the
        measure consumes it) so the first real query pays only its
        own walk — with a matching on-disk index these are adoptions,
        not builds. A freshly built engine's artifacts are persisted
        to ``index_path`` afterwards (when configured), making the
        *next* restart's warmup near-zero. Returns the engine's stats
        snapshot.
        """
        snapshot = self.current
        engine = snapshot.engine
        engine.transition_t  # builds transition as a dependency
        if "compressed" in engine.measure.uses:
            engine.compressed
        if engine.config.mode == "approx":
            engine.walk_index
        self._persist_index(engine)
        return engine.stats.snapshot()

    def mutate(
        self,
        add: Iterable[Sequence] = (),
        remove: Iterable[Sequence] = (),
    ) -> Snapshot:
        """Apply edge edits through a background build and hot-swap.

        ``add`` / ``remove`` are iterables of ``(u, v)`` pairs (ids or
        labels, resolved against the *pre-mutation* snapshot). The new
        engine is built and warmed entirely off to the side; the old
        snapshot keeps serving until the atomic pointer swap, and
        in-flight queries that read it finish on it afterwards.

        A batch that stays under ``max_delta_fraction`` of the edge
        set goes through the ``O(delta)`` incremental path
        (:func:`repro.index.delta.apply_delta`): only the touched CSR
        rows and factor rows are recomputed, the result is
        bit-identical to a full rebuild, and only a tiny chained
        segment is persisted. Any delta-path failure falls back to the
        full rebuild transparently.

        Returns the new :class:`Snapshot`, or the current one when the
        batch has no net edit (re-adding an existing edge, adding and
        removing the same edge): nothing is built, swapped or
        persisted. Raises (and swaps nothing) if any edit is invalid —
        a failed mutation leaves serving untouched.
        """
        add = list(add)
        remove = list(remove)
        with self._build_lock:
            return self._mutate_locked(add, remove)

    def _mutate_locked(
        self, add: list, remove: list
    ) -> Snapshot:
        base = self.current
        add_ids = self._resolve_pairs(base.engine, add)
        remove_ids = self._resolve_pairs(base.engine, remove)
        # validate up front (KeyError on a bad removal) so *both*
        # paths inherit the all-or-nothing contract
        eff_add, eff_rem = self._effective_edits(
            base.graph, add_ids, remove_ids
        )
        if not eff_add and not eff_rem:
            return base  # no net edit: the current generation stands
        fresh: Snapshot | None = None
        if self._delta_eligible(base, eff_add, eff_rem):
            try:
                fresh = self._mutate_delta(base, eff_add, eff_rem)
            except Exception as exc:  # noqa: BLE001 — any delta
                # failure must degrade to the always-correct full
                # rebuild, never to a failed mutation
                self.delta_fallbacks += 1
                self.last_delta_fallback = (
                    f"{type(exc).__name__}: {exc}"
                )
        if fresh is None:
            fresh = self._mutate_full(base, eff_add, eff_rem)
        return fresh

    @staticmethod
    def _resolve_pairs(
        engine: SimilarityEngine, pairs: list
    ) -> list[tuple[int, int]]:
        """``(u, v)`` pairs resolved to dense node ids.

        All-integer batches take a vectorised range check (integers
        are always node ids — :meth:`SimilarityEngine.resolve_node`'s
        rule); anything else falls back to per-pair label resolution.
        A mutation batch at serving scale is tens of thousands of id
        pairs, so the per-edge Python loop matters.
        """
        if not pairs:
            return []
        try:
            raw = np.asarray(pairs)
        except (TypeError, ValueError):
            raw = np.empty(0, dtype=object)
        if (
            raw.dtype.kind in "iu"
            and raw.ndim == 2
            and raw.shape[1] == 2
        ):
            arr = raw.astype(np.int64, copy=False)
            n = engine.graph.num_nodes
            flat = arr.ravel()
            bad = flat[(flat < 0) | (flat >= n)]
            if bad.size:
                raise IndexError(
                    f"node {int(bad[0])} out of range for graph "
                    f"with {n} nodes"
                )
            return arr
        resolve = engine.resolve_node
        return [(resolve(u), resolve(v)) for u, v in pairs]

    @staticmethod
    def _effective_edits(
        graph: DiGraph,
        add_ids,
        remove_ids,
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Net ``(added, removed)`` batches against ``graph``.

        Replicates the sequential adds-then-removes semantics of the
        full path without touching a graph copy: adding an existing
        edge is a no-op, removing a just-added edge cancels the add,
        and removing an absent (or already-removed) edge raises
        ``KeyError`` exactly like :meth:`DiGraph.remove_edge`. All
        membership checks are one vectorised binary search per edge
        within its row (:meth:`DiGraph.has_edges`): no per-edge
        ``has_edge`` loop and no pass over all ``m`` edges.
        """
        n = graph.num_nodes
        add_arr = np.asarray(add_ids, dtype=np.int64).reshape(-1, 2)
        rem_arr = np.asarray(remove_ids, dtype=np.int64).reshape(-1, 2)
        if n == 0 or (add_arr.size == 0 and rem_arr.size == 0):
            return [], []

        def _present(keys: np.ndarray) -> np.ndarray:
            return graph.has_edges(*np.divmod(keys, n))

        add_keys = np.unique(add_arr[:, 0] * n + add_arr[:, 1])
        added_keys = add_keys[~_present(add_keys)]
        rem_keys = rem_arr[:, 0] * n + rem_arr[:, 1]
        rem_unique, rem_counts = np.unique(
            rem_keys, return_counts=True
        )
        if (rem_counts > 1).any():
            # the second removal of the same edge sees it gone
            dup = int(rem_unique[rem_counts > 1][0])
            raise KeyError(
                f"edge {dup // n} -> {dup % n} not in graph"
            )
        cancelled = np.isin(rem_unique, added_keys)
        must_exist = rem_unique[~cancelled]
        present = _present(must_exist)
        if not present.all():
            missing = int(must_exist[~present][0])
            raise KeyError(
                f"edge {missing // n} -> {missing % n} not in graph"
            )
        added_final = added_keys[~np.isin(added_keys, rem_unique)]
        return (
            [(int(k) // n, int(k) % n) for k in added_final],
            [(int(k) // n, int(k) % n) for k in must_exist],
        )

    def _delta_eligible(
        self,
        base: Snapshot,
        eff_add: list[tuple[int, int]],
        eff_rem: list[tuple[int, int]],
    ) -> bool:
        if base.chain_depth + 1 > self.max_chain_depth:
            return False  # fold the chain into a fresh base
        num_edits = len(eff_add) + len(eff_rem)
        budget = self.max_delta_fraction * max(1, base.graph.num_edges)
        return num_edits <= budget

    def _warm(self, engine: SimilarityEngine) -> None:
        # warm the expensive shared artifacts *before* the swap so
        # post-swap first queries pay only their own walk
        engine.transition_t
        if "compressed" in engine.measure.uses:
            engine.compressed
        if engine.config.mode == "approx":
            engine.walk_index

    def _record_swap(
        self, kind: str, build_s: float, commit_s: float
    ) -> None:
        row = {
            "kind": kind,
            "build_s": build_s,
            "commit_s": commit_s,
            "total_s": build_s + commit_s,
        }
        self._swap_latency.append(row)
        if self.swap_observer is not None:
            try:
                self.swap_observer(row)
            except Exception:  # noqa: BLE001 - telemetry must never
                pass  # fail a mutation

    def _swap_pointer(self, fresh: Snapshot) -> float:
        """Flip ``current`` to ``fresh``; returns the commit seconds."""
        t_commit = perf_counter()
        with self._swap_lock:
            self._current = fresh
            self.swaps += 1
        return perf_counter() - t_commit

    def _mutate_delta(
        self,
        base: Snapshot,
        eff_add: list[tuple[int, int]],
        eff_rem: list[tuple[int, int]],
    ) -> Snapshot:
        """The ``O(delta)`` path: artifact surgery, no rebuild."""
        t_build = perf_counter()
        graph = base.graph.copy_with_edits(eff_add, eff_rem)
        base_index = base.engine.export_index()
        applied, delta = apply_delta(
            base_index,
            eff_add,
            eff_rem,
            chain_depth=base.chain_depth + 1,
        )
        # from_index re-verifies the fingerprint against the edited
        # graph — a wrong splice can never reach serving
        engine = SimilarityEngine.from_index(applied, graph, self.config)
        self._warm(engine)
        self.builds += 1
        build_s = perf_counter() - t_build
        fresh = Snapshot(
            engine,
            seq=self._alloc_seq(base),
            delta=delta,
            base_seq=base.seq,
            chain_depth=delta.chain_depth,
        )
        commit_s = self._swap_pointer(fresh)
        self.delta_swaps += 1
        # persist only after the swap (segment write must not extend
        # how long traffic is served by the stale snapshot); a delta
        # swap ships the segment, never the full artifact file
        self._persist_delta(delta)
        self._record_swap("delta", build_s, commit_s)
        return fresh

    def _mutate_full(
        self,
        base: Snapshot,
        eff_add: list[tuple[int, int]],
        eff_rem: list[tuple[int, int]],
    ) -> Snapshot:
        """The classic path: edit a graph copy, rebuild, hot-swap."""
        t_build = perf_counter()
        graph = base.graph.copy_with_edits(eff_add, eff_rem)
        engine, depth = self._engine_for(graph)
        self._warm(engine)
        self.builds += 1
        build_s = perf_counter() - t_build
        fresh = Snapshot(
            engine, seq=self._alloc_seq(base), chain_depth=depth
        )
        commit_s = self._swap_pointer(fresh)
        self.full_swaps += 1
        # persist only after the swap: the disk write (checksums
        # + full file) must not extend how long traffic is served
        # by the stale snapshot
        self._persist_index(engine)
        self._record_swap("full", build_s, commit_s)
        return fresh

    def _alloc_seq(self, base: Snapshot) -> int:
        """Next generation number — monotonic, never reused.

        Equals ``base.seq + 1`` on the ordinary mutation path; only a
        rolled-back canary leaves a gap (its seq is burned, so no
        later generation can hit the rejected one's cached answers).
        """
        self._seq_alloc = max(self._seq_alloc, base.seq) + 1
        return self._seq_alloc

    # ------------------------------------------------------------------
    # blue-green (canary) swaps
    # ------------------------------------------------------------------
    def prepare_canary(
        self,
        add: Iterable[Sequence] = (),
        remove: Iterable[Sequence] = (),
    ) -> tuple[Snapshot, Snapshot | None]:
        """Build a green candidate beside the serving blue snapshot.

        The blue-green variant of :meth:`mutate`: the edited graph's
        engine is built and warmed — but the ``current`` pointer is
        *not* swapped and the persisted index is *not* touched.
        Returns ``(blue, green)``; the caller
        (the serving service) shifts a traffic fraction to green and
        later calls :meth:`promote_canary` or :meth:`rollback_canary`.
        A batch with no net edit returns ``(blue, None)``, as
        :meth:`mutate` returns the current snapshot: nothing is built
        and no generation number is used.

        Raises (building nothing servable) if any edit is invalid,
        exactly like :meth:`mutate`.
        """
        add = list(add)
        remove = list(remove)
        with self._build_lock:
            base = self.current
            add_ids = self._resolve_pairs(base.engine, add)
            remove_ids = self._resolve_pairs(base.engine, remove)
            # validate with mutate's exact all-or-nothing semantics
            eff_add, eff_rem = self._effective_edits(
                base.graph, add_ids, remove_ids
            )
            if not eff_add and not eff_rem:
                return base, None
            graph = base.graph.copy_with_edits(eff_add, eff_rem)
            engine, depth = self._engine_for(graph)
            self._warm(engine)
            self.builds += 1
            green = Snapshot(
                engine, seq=self._alloc_seq(base), chain_depth=depth
            )
            self.canary_prepares += 1
            return base, green

    def promote_canary(self, green: Snapshot) -> Snapshot:
        """Make the green candidate the serving snapshot.

        Flips the pointer to green — whose engine, built and warmed by
        :meth:`prepare_canary`, keeps serving — and persists its index;
        from here on this is exactly a completed :meth:`mutate`.
        """
        with self._build_lock:
            commit_s = self._swap_pointer(green)
            self.full_swaps += 1
            self.canary_promotes += 1
            self._persist_index(green.engine)
            self._record_swap("full", 0.0, commit_s)
            return green

    def rollback_canary(self, blue: Snapshot) -> Snapshot:
        """Reject the green candidate; blue keeps serving untouched.

        Nothing was swapped and nothing was persisted, so rollback
        only counts it. Returns ``blue``.
        """
        with self._build_lock:
            self.canary_rollbacks += 1
            return blue

    def swap_latency_summary(self) -> dict:
        """count/p50/p90/max per stage, split full vs delta swaps.

        Aggregated over the last 256 swaps. Stages: ``build`` (graph
        edit + artifact work + warmup) and ``commit`` (pointer flip).
        """
        out: dict = {}
        rows = list(self._swap_latency)
        for kind in ("full", "delta"):
            kind_rows = [r for r in rows if r["kind"] == kind]
            entry: dict = {"count": len(kind_rows)}
            if kind_rows:
                for stage in ("build_s", "commit_s", "total_s"):
                    vals = sorted(r[stage] for r in kind_rows)
                    entry[stage] = {
                        "p50": vals[len(vals) // 2],
                        "p90": vals[min(
                            len(vals) - 1, (len(vals) * 9) // 10
                        )],
                        "max": vals[-1],
                    }
            out[kind] = entry
        return out

    def describe(self) -> dict:
        """JSON-ready manager state: current snapshot + swap counters."""
        current = self.current
        return {
            "current": current.describe(),
            "builds": self.builds,
            "swaps": self.swaps,
            "delta": {
                "max_delta_fraction": self.max_delta_fraction,
                "max_chain_depth": self.max_chain_depth,
                "chain_depth": current.chain_depth,
                "swaps": self.delta_swaps,
                "full_swaps": self.full_swaps,
                "fallbacks": self.delta_fallbacks,
                "last_fallback": self.last_delta_fallback,
                "segments_loaded": self.delta_segments_loaded,
            },
            "canary": {
                "prepares": self.canary_prepares,
                "promotes": self.canary_promotes,
                "rollbacks": self.canary_rollbacks,
            },
            "swap_latency": self.swap_latency_summary(),
            "index": {
                "path": (
                    str(self.index_path)
                    if self.index_path is not None
                    else None
                ),
                "persist": self.persist_index,
                "loads": self.index_loads,
                "saves": self.index_saves,
                "load_errors": self.index_load_errors,
            },
        }

    def __repr__(self) -> str:
        return (
            f"SnapshotManager(current={self.current!r}, "
            f"swaps={self.swaps})"
        )
