"""`ShardRouter` — split micro-batches into per-worker shards.

The broker hands the router one coalesced micro-batch of resolved
top-k / score tasks; it splits them into up to K contiguous shards,
runs each shard on its worker concurrently (one dispatch thread per
shard), and returns the finished answers in task order. This is
exactly the shape single-source SimRank-family evaluation shards into:
every query column is an independent solve, so the split needs no
coordination beyond the merge.

The router also owns the *pinning* discipline that makes hot-swaps
safe under concurrency: :meth:`pin` atomically reads the current
snapshot and counts the batch in-flight against its generation, and
:meth:`post_swap` retires old generations, releasing each one to the
workers only once its in-flight count drains to zero. A batch
therefore always computes against the exact generation it pinned —
never a mix, never a dropped request.

Worker crashes are handled below the caller's line of sight: a
shard whose worker raised :class:`~repro.cluster.WorkerCrash` respawns
the worker — rebuilding every live generation — and retries, up to
``max_retries`` per shard. Repeated failures trip that worker's
circuit breaker (a :class:`~repro.serve.guard.BreakerBoard`): while
open, shards bound for it are answered by the pinned snapshot's own
engine instead of queueing behind a sick worker, and a half-open probe
after the cooldown restores it.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.cluster.thread_pool import (
    ClusterError,
    ThreadWorkerPool,
    WorkerCrash,
)
from repro.engine.results import run_tasks

__all__ = ["ShardRouter"]


class ShardRouter:
    """Route coalesced batches across a :class:`ThreadWorkerPool`.

    Parameters
    ----------
    pool:
        The worker pool that owns the workers and generations.
    snapshots:
        The parent :class:`~repro.serve.SnapshotManager`; its
        ``current`` snapshot is what :meth:`pin` pins, and its
        hot-swap hooks should point at :meth:`pre_swap` /
        :meth:`post_swap`.
    max_retries:
        Dispatch attempts per shard beyond the first (each retry
        respawns the shard's worker first).
    obs:
        Optional :class:`~repro.obs.Observability`; when set, each
        shard's round-trip is observed into the
        ``repro_shard_dispatch_seconds{worker=...}`` histogram and
        :meth:`collect_worker_metrics` merges worker-side metric
        snapshots into its registry.

    Construction is inert:

    >>> from repro.cluster import ShardRouter, ThreadWorkerPool
    >>> from repro.graph import figure1_citation_graph
    >>> from repro.serve import SnapshotManager
    >>> router = ShardRouter(
    ...     ThreadWorkerPool(workers=2),
    ...     SnapshotManager(figure1_citation_graph(), measure="gSR*"),
    ... )
    >>> router.started
    False
    """

    def __init__(
        self,
        pool: ThreadWorkerPool,
        snapshots,
        *,
        max_retries: int = 2,
        obs=None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 5.0,
    ) -> None:
        from repro.serve.guard import BreakerBoard

        self.pool = pool
        self.snapshots = snapshots
        self.max_retries = int(max_retries)
        self.obs = obs
        self._lock = threading.Lock()   # pins + retirement
        self._inflight: dict[int, int] = {}
        self._retired: set[int] = set()
        self._executor: ThreadPoolExecutor | None = None
        self.batches_routed = 0
        self.shards_dispatched = 0
        self.shard_retries = 0
        #: per-worker circuit breakers around shard dispatch
        self.breakers = BreakerBoard(
            pool.size,
            threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s,
        )
        # seq -> Snapshot for every generation a batch may pin: the
        # fallback engine an open breaker serves from
        self._fallback_snapshots: dict[int, object] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self.pool.started

    def start(self) -> None:
        """Start the pool on the manager's current snapshot."""
        if self.started:
            return
        self.pool.start(self.snapshots.current)
        self._executor = ThreadPoolExecutor(
            max_workers=self.pool.size,
            thread_name_prefix="repro-cluster-shard",
        )

    def stop(self) -> None:
        """Stop the pool and the shard-dispatch threads (idempotent)."""
        self.pool.stop()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
        with self._lock:
            self._inflight.clear()
            self._retired.clear()

    # ------------------------------------------------------------------
    # snapshot pinning (the hot-swap safety contract)
    # ------------------------------------------------------------------
    def pin(self):
        """Atomically grab the current snapshot and count it in-flight.

        The read of ``snapshots.current`` and the in-flight increment
        happen under one lock — the same lock :meth:`post_swap`
        retires generations under — so a generation can never be
        released between a batch pinning it and registering itself.
        """
        with self._lock:
            snapshot = self.snapshots.current
            self._inflight[snapshot.seq] = (
                self._inflight.get(snapshot.seq, 0) + 1
            )
            self._fallback_snapshots[snapshot.seq] = snapshot
            return snapshot

    def pin_snapshot(self, snapshot):
        """Pin a *specific* snapshot (the canary green generation).

        Same in-flight accounting as :meth:`pin`, but for a snapshot
        that is deliberately not ``snapshots.current`` — blue-green
        serving reads old and new generations side by side. The
        caller must have had the generation prepared on the workers
        first (:meth:`pre_swap`).
        """
        with self._lock:
            self._inflight[snapshot.seq] = (
                self._inflight.get(snapshot.seq, 0) + 1
            )
            self._fallback_snapshots[snapshot.seq] = snapshot
            return snapshot

    def unpin(self, seq: int) -> None:
        """Drop one in-flight count; release the gen if fully drained."""
        with self._lock:
            remaining = self._inflight.get(seq, 0) - 1
            if remaining > 0:
                self._inflight[seq] = remaining
                return
            self._inflight.pop(seq, None)
            release = seq in self._retired
            if release:
                self._retired.discard(seq)
                self._fallback_snapshots.pop(seq, None)
        if release:
            self.pool.release(seq)

    def pre_swap(self, snapshot) -> None:
        """Hot-swap phase one: all workers prepare ``snapshot``.

        Serves both a plain swap and a blue-green canary's green
        generation. Raising here aborts the swap in
        :meth:`~repro.serve.SnapshotManager.mutate` — the old
        generation keeps serving, untouched.
        """
        if self.started:
            self.pool.prepare(snapshot)
        with self._lock:
            self._fallback_snapshots[snapshot.seq] = snapshot

    def abort_prepared(self, snapshot) -> None:
        """Drop a prepared-but-rejected generation (canary rollback).

        Respects pinning: a green batch still in flight keeps its
        generation alive until its last unpin, exactly like a
        retired generation after a normal swap.
        """
        seq = snapshot.seq
        with self._lock:
            if self._inflight.get(seq, 0) > 0:
                self._retired.add(seq)  # released on last unpin
                return
            self._retired.discard(seq)
            self._fallback_snapshots.pop(seq, None)
        if self.started:
            self.pool.release(seq)

    def post_swap(self, old, new) -> None:
        """Hot-swap phase two: commit ``new``, retire older gens."""
        if not self.started:
            return
        self.pool.commit(new.seq)
        to_release = []
        with self._lock:
            known = set(self._inflight) | set(self._retired)
            known.add(old.seq)
            for seq in known:
                if seq >= new.seq:
                    continue
                if self._inflight.get(seq, 0) > 0:
                    self._retired.add(seq)  # released on last unpin
                else:
                    self._retired.discard(seq)
                    self._fallback_snapshots.pop(seq, None)
                    to_release.append(seq)
        for seq in to_release:
            self.pool.release(seq)

    # ------------------------------------------------------------------
    # the query plane
    # ------------------------------------------------------------------
    def _split(self, ids: list) -> list[list]:
        """Contiguous, balanced shards — at most one per worker.

        Never yields an empty shard, and never a shard twice another's
        width: when ``len(ids) % k`` would leave some workers with
        ``base + 1`` ids against a ``base`` of 1 (e.g. 5 ids over 4
        workers splitting 2/1/1/1), the shard count drops until widths
        are either equal or within a ``(base + 1) / base <= 1.5``
        ratio — a 3/2 split on two workers beats four workers where
        one does double duty and the batch waits on it.
        """
        k = min(self.pool.size, len(ids))
        while k > 1 and len(ids) % k and len(ids) // k < 2:
            k -= 1
        base, extra = divmod(len(ids), k)
        shards, cursor = [], 0
        for i in range(k):
            width = base + (1 if i < extra else 0)
            shards.append(ids[cursor:cursor + width])
            cursor += width
        return shards

    def compute_tasks(
        self, seq: int, tasks: list[dict], meta: dict | None = None
    ) -> list:
        """Answer ``tasks`` from generation ``seq``, shard-parallel.

        Splits the tasks (see :func:`~repro.engine.results.run_tasks`)
        into contiguous shards over the pool's workers, runs them
        concurrently, and returns one result per task, in task order:
        a :class:`~repro.engine.Ranking`, a float score, or that
        task's own exception. Blocking — the broker calls it through
        an executor thread.

        ``meta`` is an optional telemetry exchange dict: its
        ``trace_ids`` entry (the batch's request trace ids) is handed
        to every worker, and on return its ``shards`` entry holds one
        timing dict per dispatched shard (worker index, task count,
        seconds, start, echoed trace ids) — what the broker turns into
        per-shard trace spans.
        """
        if not self.started:
            raise ClusterError("router not started")
        if not tasks:
            return []
        shards = self._split(list(tasks))
        # rotate the starting worker per batch: without the offset,
        # every batch smaller than the pool (the common case under
        # steady non-bursty traffic) would land on worker 0 alone
        offset = self.batches_routed % self.pool.size
        self.batches_routed += 1
        if meta is not None:
            meta.setdefault("shards", [])
        if len(shards) == 1:
            return list(self._run_shard(offset, seq, shards[0], meta))
        futures = [
            self._executor.submit(
                self._run_shard,
                (offset + i) % self.pool.size,
                seq,
                shard,
                meta,
            )
            for i, shard in enumerate(shards)
        ]
        merged: list = []
        errors = []
        for future in futures:
            try:
                merged.extend(future.result())
            except Exception as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
        if errors:
            raise ClusterError(
                f"{len(errors)} of {len(shards)} shards failed "
                f"after retries: {errors[0]}"
            ) from errors[0]
        return merged

    def _run_shard(
        self,
        worker_index: int,
        seq: int,
        shard: list,
        meta: dict | None = None,
    ) -> list:
        """One shard on one worker: breaker, respawn-and-retry, fallback."""
        with self._lock:  # shard threads run concurrently
            self.shards_dispatched += 1
        if not self.breakers.allow(worker_index):
            # circuit open: don't queue behind a sick worker — the
            # pinned snapshot's own engine answers instead
            return self._fallback_shard(worker_index, seq, shard, meta)
        trace_ids = meta.get("trace_ids") if meta else None
        attempts = self.max_retries + 1
        for attempt in range(attempts):
            try:
                t0 = time.perf_counter()
                shard_meta: dict = {}
                results = self.pool.shard_tasks(
                    worker_index,
                    seq,
                    shard,
                    trace_ids=trace_ids,
                    meta=shard_meta,
                )
                elapsed = time.perf_counter() - t0
                self.breakers.record_success(worker_index)
                if self.obs is not None and self.obs.enabled:
                    self.obs.shard_dispatch.labels(
                        worker=str(worker_index)
                    ).observe(elapsed)
                if meta is not None:
                    row = {
                        "worker": worker_index,
                        "ids": len(shard),
                        "seconds": elapsed,
                        "start_s": t0,
                    }
                    if shard_meta:
                        row.update(shard_meta)
                    with self._lock:
                        meta["shards"].append(row)
                return results
            except WorkerCrash:
                opened = self.breakers.record_failure(worker_index)
                if opened:
                    # the breaker just tripped: heal the worker now so
                    # the half-open probe after the cooldown meets a
                    # fresh worker, and serve this shard from the
                    # fallback engine
                    try:
                        self.pool.respawn(worker_index)
                    except Exception:  # noqa: BLE001 - best effort
                        pass
                    return self._fallback_shard(
                        worker_index, seq, shard, meta
                    )
                if attempt == attempts - 1:
                    raise
                with self._lock:
                    self.shard_retries += 1
                self.pool.respawn(worker_index)
        raise AssertionError("unreachable")

    def _fallback_shard(
        self,
        worker_index: int,
        seq: int,
        shard: list,
        meta: dict | None = None,
    ) -> list:
        """Serve one shard from the pinned snapshot's own engine.

        The open-breaker degraded mode: correctness is identical (the
        fallback engine is the exact pinned snapshot the batch would
        have computed against on the worker), only that worker's
        share of the parallelism is given up while it heals.
        """
        with self._lock:
            snapshot = self._fallback_snapshots.get(seq)
        if snapshot is None:
            raise WorkerCrash(
                f"worker {worker_index} circuit open and no "
                f"fallback engine for generation {seq}"
            )
        self.breakers.record_fallback()
        t0 = time.perf_counter()
        result = run_tasks(snapshot.engine, shard)
        if meta is not None:
            row = {
                "worker": worker_index,
                "ids": len(shard),
                "seconds": time.perf_counter() - t0,
                "start_s": t0,
                "fallback": True,
            }
            with self._lock:
                meta["shards"].append(row)
        return result

    def collect_worker_metrics(self, registry) -> int:
        """Merge every worker's metric snapshot into ``registry``.

        Each worker's cumulative :class:`~repro.obs.MetricsRegistry`
        snapshot is merged with replacement semantics
        (:meth:`~repro.obs.MetricsRegistry.ingest`) under the source
        id ``worker-<index>`` — re-ingesting never double-counts.
        Returns how many workers were merged.
        """
        if not self.started:
            return 0
        merged = 0
        for entry in self.pool.worker_status(strip_metrics=False):
            snapshot = entry.get("metrics")
            if not snapshot:
                continue
            registry.ingest(f"worker-{entry['index']}", snapshot)
            merged += 1
        return merged

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-ready router + pool state (the ``/status`` shape)."""
        with self._lock:
            inflight = dict(self._inflight)
        out = {
            "pool": self.pool.describe(),
            "batches_routed": self.batches_routed,
            "shards_dispatched": self.shards_dispatched,
            "shard_retries": self.shard_retries,
            "inflight": inflight,
            "breaker": self.breakers.describe(),
        }
        if self.started:
            out["worker_status"] = self.pool.worker_status()
        return out

    def __repr__(self) -> str:
        return (
            f"ShardRouter(pool={self.pool!r}, "
            f"batches_routed={self.batches_routed})"
        )
