"""`ShardRouter` — split micro-batches into per-worker shards.

The broker hands the router one coalesced micro-batch of resolved
top-k / score tasks and the snapshot the batch read; the router splits
the tasks into up to K contiguous shards, runs each on its worker lane
concurrently (one dispatch thread per shard, the calling thread for a
lone shard), and returns the finished answers in task order. Every
shard answers from the snapshot's own engine: each query column is an
independent solve over one read-only operator, so the split needs no
coordination beyond the merge, and a hot-swap needs none at all — the
batch holds its snapshot by reference until it is answered.

A shard that raises fails only its own tasks: its exception fills each
of its task slots, and the broker fails those requests one by one
while the other shards' answers are delivered.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.cluster.thread_pool import ClusterError, ThreadWorkerPool

__all__ = ["ShardRouter"]


class ShardRouter:
    """Route coalesced batches across a :class:`ThreadWorkerPool`.

    Parameters
    ----------
    pool:
        The worker pool whose lanes answer the shards.
    obs:
        Optional :class:`~repro.obs.Observability`; when set, each
        shard's round-trip is observed into the
        ``repro_shard_dispatch_seconds{worker=...}`` histogram.

    Construction is inert:

    >>> from repro.cluster import ShardRouter, ThreadWorkerPool
    >>> router = ShardRouter(ThreadWorkerPool(workers=2))
    >>> router.started
    False
    """

    def __init__(self, pool: ThreadWorkerPool, *, obs=None) -> None:
        self.pool = pool
        self.obs = obs
        self._lock = threading.Lock()   # counters + shard rows
        self._executor: ThreadPoolExecutor | None = None
        self.batches_routed = 0
        self.shards_dispatched = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self.pool.started

    def start(self) -> None:
        """Start the pool (idempotent)."""
        if self.started:
            return
        self.pool.start()
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
        self, snapshot, tasks: list[dict], meta: dict | None = None
    ) -> list:
        """Answer ``tasks`` from ``snapshot``'s engine, shard-parallel.

        Splits the tasks (see :func:`~repro.engine.results.run_tasks`)
        into contiguous shards over the pool's workers, runs them
        concurrently — a lone shard on the calling thread — and
        returns one result per task, in task order: a
        :class:`~repro.engine.Ranking`, a float score, or that task's
        own exception. A shard that raises puts its exception in each
        of its own task slots; the other shards' answers stand.
        Blocking — the broker calls it through an executor thread.

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
        engine = snapshot.engine
        shards = self._split(list(tasks))
        # rotate the starting worker per batch: without the offset,
        # every batch smaller than the pool (the common case under
        # steady non-bursty traffic) would land on worker 0 alone
        offset = self.batches_routed % self.pool.size
        self.batches_routed += 1
        if meta is not None:
            meta.setdefault("shards", [])
        if len(shards) == 1:
            return self._run_shard(offset, engine, shards[0], meta)
        futures = [
            self._executor.submit(
                self._run_shard,
                (offset + i) % self.pool.size,
                engine,
                shard,
                meta,
            )
            for i, shard in enumerate(shards)
        ]
        return [result for future in futures for result in future.result()]

    def _run_shard(
        self,
        worker_index: int,
        engine,
        shard: list,
        meta: dict | None = None,
    ) -> list:
        """One shard on one worker lane; if it raises, its tasks fail."""
        with self._lock:  # shard threads run concurrently
            self.shards_dispatched += 1
        trace_ids = meta.get("trace_ids") if meta else None
        t0 = time.perf_counter()
        shard_meta: dict = {}
        try:
            results = self.pool.shard_tasks(
                worker_index,
                engine,
                shard,
                trace_ids=trace_ids,
                meta=shard_meta,
            )
        except Exception as exc:  # noqa: BLE001 - fails its own tasks
            return [exc] * len(shard)
        elapsed = time.perf_counter() - t0
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
            row.update(shard_meta)
            with self._lock:
                meta["shards"].append(row)
        return results

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """JSON-ready router + pool state (the ``/status`` shape)."""
        out = {
            "pool": self.pool.describe(),
            "batches_routed": self.batches_routed,
            "shards_dispatched": self.shards_dispatched,
            # constant placeholders: perfbench/common.py:73-74 reads
            # both keys on every timed run (a KeyError there fails
            # every workload); they go when that read does
            "shard_retries": 0,
            "breaker": {},
        }
        if self.started:
            out["worker_status"] = self.pool.worker_status()
        return out

    def __repr__(self) -> str:
        return (
            f"ShardRouter(pool={self.pool!r}, "
            f"batches_routed={self.batches_routed})"
        )
