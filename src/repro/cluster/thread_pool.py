"""`ThreadWorkerPool` — K engines over one in-process index.

The blocked column kernels spend their time inside scipy's sparse
matmul and BLAS — C code that releases the GIL — so a pool of
*threads*, each with its own engine over **one** shared in-process
index, scales the column work with no transport at all: a shard runs
directly on the router's dispatch thread and returns finished answers.

* ``prepare`` exports the snapshot engine's index once and has every
  worker adopt it (shared artifact arrays, private column memos), so a
  generation swap is O(1) per worker.
* The chaos hooks (``kill_worker`` / ``hang_worker`` /
  ``corrupt_next_reply``) simulate faults at the dispatch contract: a
  "killed" worker forgets its generations (the next shard raises
  :class:`WorkerCrash`), a "hung" one sleeps out ``shard_timeout``
  before crashing, a "corrupted" reply crashes immediately. They
  drive the router's breaker, respawn-and-retry and fallback paths.
  A thread cannot be killed, so nothing bounds a kernel call that
  genuinely hangs.
* Each worker owns a :class:`~repro.obs.MetricsRegistry`, so the
  ``repro_shard_dispatch_seconds`` vs ``repro_worker_compute_seconds``
  split and :meth:`ShardRouter.collect_worker_metrics
  <repro.cluster.ShardRouter.collect_worker_metrics>` report
  per-worker series.
"""

from __future__ import annotations

import threading
from time import perf_counter, sleep
from typing import Any

from repro.engine.results import run_tasks

__all__ = ["ClusterError", "ThreadWorkerPool", "WorkerCrash"]


class ClusterError(RuntimeError):
    """A cluster-level operation failed (prepare, dispatch, ...).

    >>> from repro.cluster import ClusterError, WorkerCrash
    >>> issubclass(WorkerCrash, ClusterError)
    True
    """


class WorkerCrash(ClusterError):
    """One worker crashed or hung while holding a shard.

    Raised by :meth:`ThreadWorkerPool.shard_tasks` so the router can
    respawn the worker and retry — callers of the serving API never
    see it unless the retry budget is exhausted.

    >>> from repro.cluster import WorkerCrash
    >>> raise WorkerCrash("worker 2 crashed mid-shard")
    Traceback (most recent call last):
        ...
    repro.cluster.thread_pool.WorkerCrash: worker 2 crashed mid-shard
    """


class _ThreadWorker:
    """One worker: a bundle of per-generation engines."""

    __slots__ = (
        "index", "engines", "registry", "m_shards", "m_columns",
        "m_compute", "shards_served", "respawns", "columns_served",
        "tasks_served", "lock", "hang_until", "corrupt_next",
    )

    def __init__(self, index: int) -> None:
        from repro.obs import MetricsRegistry

        self.index = index
        self.engines: dict[int, Any] = {}
        self.shards_served = 0
        self.respawns = 0
        self.columns_served = 0
        self.tasks_served = 0
        self.hang_until = 0.0
        self.corrupt_next = False
        self.lock = threading.Lock()
        self.registry = MetricsRegistry()
        self.m_shards = self.registry.counter(
            "repro_worker_shards_total",
            "Shards this worker served.",
        )
        self.m_columns = self.registry.counter(
            "repro_worker_columns_served_total",
            "Distinct query columns this worker computed for shards.",
        )
        self.m_compute = self.registry.histogram(
            "repro_worker_compute_seconds",
            "Worker-side compute time per shard (column walk and "
            "ranking).",
        )
        self.registry.counter_fn(
            "repro_worker_tasks_total",
            "Top-k / score tasks this worker answered.",
            lambda: self.tasks_served,
        )
        self.registry.gauge_fn(
            "repro_worker_generations",
            "Engine generations this worker currently holds.",
            lambda: len(self.engines),
        )


class ThreadWorkerPool:
    """K thread-local engines over one shared in-process index.

    The worker pool behind :class:`~repro.cluster.ShardRouter`
    (``ServingService(workers=K)``). ``prepare`` exports the snapshot
    engine's index once and has every worker adopt it — the artifact
    arrays are shared, only the per-engine memo state is private — so
    a generation swap is O(1) per worker and a shard dispatch is a
    plain method call on the router's shard thread.

    Construction is inert:

    >>> from repro.cluster import ThreadWorkerPool
    >>> pool = ThreadWorkerPool(workers=4)
    >>> pool.size, pool.started
    (4, False)
    """

    def __init__(
        self, *, workers: int = 2, shard_timeout: float = 120.0
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.size = int(workers)
        self.shard_timeout = float(shard_timeout)
        self._workers: list[_ThreadWorker] = []
        # seq -> (exported index, graph, config): what a respawn (or a
        # late prepare) rebuilds engines from without touching the
        # snapshot manager again
        self._sources: dict[int, tuple] = {}
        self._lock = threading.Lock()
        self.current_seq = -1
        self.started = False
        self.releases = 0

    # ------------------------------------------------------------------
    # lifecycle + generations
    # ------------------------------------------------------------------
    def start(self, snapshot) -> None:
        """Create the workers, primed with ``snapshot`` as gen 0."""
        if self.started:
            raise ClusterError("pool already started")
        self._workers = [_ThreadWorker(i) for i in range(self.size)]
        self.started = True
        self.prepare(snapshot)
        self.commit(snapshot.seq)

    def stop(self) -> None:
        """Drop every engine (idempotent)."""
        if not self.started:
            return
        self.started = False
        for worker in self._workers:
            worker.engines.clear()
        with self._lock:
            self._sources.clear()
        self.current_seq = -1

    def prepare(self, snapshot) -> None:
        """Phase one: every worker adopts ``snapshot``'s index.

        The export is computed once; each worker's
        ``SimilarityEngine.from_index`` adoption shares the artifact
        arrays (transition CSR, factors, walk segments) and keeps only
        the column memo private. Every engine is built before any is
        installed, so a failed prepare leaves no worker — and no later
        respawn — holding the aborted generation.

        Preparing a generation the pool already holds (a promoted
        canary) is an adoption: workers keep their engines and warm
        memos, and only a worker that lost the generation gets one.
        """
        if not self.started:
            return
        from repro.engine.engine import SimilarityEngine

        with self._lock:
            source = self._sources.get(snapshot.seq)
        if source is None:
            source = (
                snapshot.engine.export_index(),
                snapshot.graph,
                snapshot.engine.config,
            )
        missing = [
            worker for worker in self._workers
            if snapshot.seq not in worker.engines
        ]
        engines = [
            SimilarityEngine.from_index(*source) for _ in missing
        ]
        with self._lock:
            self._sources[snapshot.seq] = source
        for worker, engine in zip(missing, engines):
            worker.engines[snapshot.seq] = engine

    def commit(self, seq: int) -> None:
        """Phase two: mark ``seq`` current (pure bookkeeping)."""
        if self.started:
            self.current_seq = max(self.current_seq, seq)

    def release(self, seq: int) -> None:
        """Drop generation ``seq`` everywhere (synchronous, cheap)."""
        with self._lock:
            dropped = self._sources.pop(seq, None) is not None
        for worker in self._workers:
            worker.engines.pop(seq, None)
        if dropped:
            self.releases += 1

    def respawn(self, worker_index: int) -> None:
        """Rebuild one worker's engines from the recorded sources."""
        if not self.started:
            raise ClusterError(
                "pool is stopped; refusing to respawn a worker"
            )
        from repro.engine.engine import SimilarityEngine

        worker = self._workers[worker_index]
        with self._lock:
            sources = dict(self._sources)
        worker.engines = {
            seq: SimilarityEngine.from_index(index, graph, config)
            for seq, (index, graph, config) in sorted(sources.items())
        }
        worker.respawns += 1

    # ------------------------------------------------------------------
    # chaos hooks
    # ------------------------------------------------------------------
    def kill_worker(self, worker_index: int) -> None:
        """Simulate one worker's crash (chaos hook).

        The worker forgets every generation, and the next shard
        routed at it raises :class:`WorkerCrash` — recovered by the
        router's respawn-and-retry. Refuses on a pool that was never
        started.
        """
        if not self.started:
            raise ClusterError(
                "pool has no workers to kill before start(); chaos "
                "drills need a started pool"
            )
        self._workers[worker_index].engines = {}

    def hang_worker(self, worker_index: int, seconds: float) -> None:
        """Simulate one worker wedging for ``seconds`` (chaos hook).

        The next shard routed at the worker sleeps: a hang that
        outlives ``shard_timeout`` raises :class:`WorkerCrash` after
        sleeping the timeout; a shorter one just delays the shard.
        """
        if not self.started:
            raise ClusterError("pool not started")
        worker = self._workers[worker_index]
        worker.hang_until = perf_counter() + float(seconds)

    def corrupt_next_reply(self, worker_index: int) -> None:
        """Poison one worker's next shard reply (chaos hook).

        The next shard routed at the worker raises
        :class:`WorkerCrash` immediately.
        """
        if not self.started:
            raise ClusterError("pool not started")
        self._workers[worker_index].corrupt_next = True

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _engine(self, worker: _ThreadWorker, seq: int):
        if worker.corrupt_next:
            worker.corrupt_next = False
            raise WorkerCrash(
                f"worker {worker.index} returned a corrupted reply "
                "(chaos hook)"
            )
        if worker.hang_until:
            remaining = worker.hang_until - perf_counter()
            if remaining >= self.shard_timeout:
                sleep(self.shard_timeout)
                worker.hang_until = 0.0
                raise WorkerCrash(
                    f"worker {worker.index} hung past shard_timeout "
                    f"{self.shard_timeout}s (chaos hook)"
                )
            if remaining > 0:
                sleep(remaining)
            worker.hang_until = 0.0
        engine = worker.engines.get(seq)
        if engine is None:
            raise WorkerCrash(
                f"worker {worker.index} holds no generation {seq} "
                f"(live: {sorted(worker.engines)})"
            )
        return engine

    def shard_tasks(
        self,
        worker_index: int,
        seq: int,
        tasks: list[dict],
        *,
        trace_ids: list[str] | None = None,
        meta: dict | None = None,
    ) -> list:
        """Answer one shard of tasks on the calling thread.

        Returns :func:`~repro.engine.results.run_tasks`'s per-task
        results from this worker's engine for generation ``seq``;
        ``meta``, when given, gets the batch's ``trace_ids`` echoed
        back.
        """
        worker = self._workers[worker_index]
        engine = self._engine(worker, seq)
        t0 = perf_counter()
        results = run_tasks(engine, tasks)
        compute_s = perf_counter() - t0
        columns = len({int(t["query"]) for t in tasks})
        with worker.lock:
            worker.shards_served += 1
            worker.tasks_served += len(tasks)
            worker.columns_served += columns
            worker.m_shards.inc()
            worker.m_columns.inc(columns)
            worker.m_compute.observe(compute_s)
        if meta is not None and trace_ids is not None:
            meta["trace_ids"] = list(trace_ids)
        return results

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def worker_status(self, *, strip_metrics: bool = True) -> list[dict]:
        """Per-worker status (``metrics`` snapshots unless stripped)."""
        out = []
        for worker in self._workers:
            entry = {
                "index": worker.index,
                "alive": self.started,
                "shards_served": worker.shards_served,
                "respawns": worker.respawns,
                "current_seq": self.current_seq,
                "generations": sorted(worker.engines),
                "columns_served": worker.columns_served,
                "tasks_served": worker.tasks_served,
            }
            if not strip_metrics:
                entry["metrics"] = worker.registry.snapshot()
            out.append(entry)
        return out

    def describe(self) -> dict:
        """JSON-ready pool state (the ``/status`` ``pool`` section)."""
        with self._lock:
            generations = sorted(self._sources)
        return {
            "workers": self.size,
            "started": self.started,
            "current_seq": self.current_seq,
            "generations": generations,
            "releases": self.releases,
            "respawns": sum(w.respawns for w in self._workers),
        }

    def __repr__(self) -> str:
        return (
            f"ThreadWorkerPool(workers={self.size}, "
            f"started={self.started}, "
            f"current_seq={self.current_seq})"
        )
