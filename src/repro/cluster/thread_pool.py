"""`ThreadWorkerPool` — K lanes of shard work over one shared engine.

The blocked column kernels spend their time inside scipy's sparse
matmul and BLAS — C code that releases the GIL — so K threads
answering shards from **one** engine scale the column work with no
transport at all: each shard runs on the router's dispatch thread
against the engine of the snapshot its batch read, and returns
finished answers. Every single-source column is an independent solve
over one read-only operator, so the threads share the engine's
artifacts *and* its column memo; the engine computes outside its
lock and never computes one column twice.

A *lane* is one worker's slot in the pool. It holds no engine, only
its counters and its chaos flags:

* ``kill_worker`` marks a lane crashed until ``respawn``: its next
  shard raises :class:`WorkerCrash`.
* ``hang_worker`` makes the lane's next shard sleep; a hang that
  outlives ``shard_timeout`` sleeps the timeout and then crashes.
* ``corrupt_next_reply`` makes the lane's next shard crash at once.

They drive the router's breaker, respawn-and-retry and fallback
paths. A thread cannot be killed, so nothing bounds a kernel call
that genuinely hangs.

A started pool caps every loaded OpenBLAS at ``max(1, cores // lanes)``
threads until it stops (:mod:`repro.cluster.blas`).
"""

from __future__ import annotations

import threading
from time import perf_counter, sleep

from repro.cluster.blas import BLAS
from repro.engine.results import run_tasks

__all__ = ["ClusterError", "ThreadWorkerPool", "WorkerCrash"]


class ClusterError(RuntimeError):
    """A cluster-level operation failed (dispatch, respawn, ...).

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


class _Lane:
    """One worker's counters and chaos flags."""

    __slots__ = (
        "index", "shards_served", "respawns", "columns_served",
        "tasks_served", "lock", "crashed", "hang_until", "corrupt_next",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.shards_served = 0
        self.respawns = 0
        self.columns_served = 0
        self.tasks_served = 0
        self.lock = threading.Lock()
        self.crashed = False
        self.hang_until = 0.0
        self.corrupt_next = False


class ThreadWorkerPool:
    """K worker lanes answering shards from the snapshot's engine.

    The worker pool behind :class:`~repro.cluster.ShardRouter`
    (``ServingService(workers=K)``). Lanes hold no engines: a shard
    dispatch is a plain :func:`~repro.engine.results.run_tasks` call
    on the engine it is handed, so a snapshot swap costs the pool
    nothing.

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
        self._workers: list[_Lane] = []
        self._blas_cap: int | None = None
        self.started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Create the lanes and cap OpenBLAS at ``cores // lanes``."""
        if self.started:
            raise ClusterError("pool already started")
        self._workers = [_Lane(i) for i in range(self.size)]
        self._blas_cap = BLAS.acquire(self.size)
        self.started = True

    def stop(self) -> None:
        """Stop taking shards and give back the BLAS cap (idempotent)."""
        self.started = False
        cap, self._blas_cap = self._blas_cap, None
        if cap is not None:
            BLAS.release(cap)

    def respawn(self, worker_index: int) -> None:
        """Heal one lane: clear its crash and chaos flags."""
        if not self.started:
            raise ClusterError(
                "pool is stopped; refusing to respawn a worker"
            )
        lane = self._workers[worker_index]
        lane.crashed = False
        lane.hang_until = 0.0
        lane.corrupt_next = False
        lane.respawns += 1

    # ------------------------------------------------------------------
    # chaos hooks
    # ------------------------------------------------------------------
    def kill_worker(self, worker_index: int) -> None:
        """Simulate one worker's crash (chaos hook).

        The lane counts as crashed until :meth:`respawn`: every shard
        routed at it raises :class:`WorkerCrash` — recovered by the
        router's respawn-and-retry. Refuses on a pool that was never
        started.
        """
        if not self.started:
            raise ClusterError(
                "pool has no workers to kill before start(); chaos "
                "drills need a started pool"
            )
        self._workers[worker_index].crashed = True

    def hang_worker(self, worker_index: int, seconds: float) -> None:
        """Simulate one worker wedging for ``seconds`` (chaos hook).

        The next shard routed at the worker sleeps: a hang that
        outlives ``shard_timeout`` raises :class:`WorkerCrash` after
        sleeping the timeout; a shorter one just delays the shard.
        """
        if not self.started:
            raise ClusterError("pool not started")
        lane = self._workers[worker_index]
        lane.hang_until = perf_counter() + float(seconds)

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
    def _check(self, lane: _Lane) -> None:
        """Raise :class:`WorkerCrash` if a chaos hook says so."""
        if lane.crashed:
            raise WorkerCrash(
                f"worker {lane.index} crashed (chaos hook)"
            )
        if lane.corrupt_next:
            lane.corrupt_next = False
            raise WorkerCrash(
                f"worker {lane.index} returned a corrupted reply "
                "(chaos hook)"
            )
        if lane.hang_until:
            remaining = lane.hang_until - perf_counter()
            if remaining >= self.shard_timeout:
                sleep(self.shard_timeout)
                lane.hang_until = 0.0
                raise WorkerCrash(
                    f"worker {lane.index} hung past shard_timeout "
                    f"{self.shard_timeout}s (chaos hook)"
                )
            if remaining > 0:
                sleep(remaining)
            lane.hang_until = 0.0

    def shard_tasks(
        self,
        worker_index: int,
        engine,
        tasks: list[dict],
        *,
        trace_ids: list[str] | None = None,
        meta: dict | None = None,
    ) -> list:
        """Answer one shard of tasks from ``engine`` on this thread.

        Returns :func:`~repro.engine.results.run_tasks`'s per-task
        results; ``meta``, when given, gets the batch's ``trace_ids``
        echoed back.
        """
        lane = self._workers[worker_index]
        self._check(lane)
        results = run_tasks(engine, tasks)
        with lane.lock:
            lane.shards_served += 1
            lane.tasks_served += len(tasks)
            lane.columns_served += len({int(t["query"]) for t in tasks})
        if meta is not None and trace_ids is not None:
            meta["trace_ids"] = list(trace_ids)
        return results

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def worker_status(self) -> list[dict]:
        """Per-lane status and counters."""
        return [
            {
                "index": lane.index,
                "alive": self.started and not lane.crashed,
                "shards_served": lane.shards_served,
                "respawns": lane.respawns,
                "columns_served": lane.columns_served,
                "tasks_served": lane.tasks_served,
            }
            for lane in self._workers
        ]

    def describe(self) -> dict:
        """JSON-ready pool state (the ``/status`` ``pool`` section).

        ``blas_threads`` is the OpenBLAS thread count in effect
        (``None`` where no OpenBLAS is loaded).
        """
        return {
            "workers": self.size,
            "started": self.started,
            "respawns": sum(lane.respawns for lane in self._workers),
            "blas_threads": BLAS.threads(),
        }

    def __repr__(self) -> str:
        return (
            f"ThreadWorkerPool(workers={self.size}, "
            f"started={self.started})"
        )
