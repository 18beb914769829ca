"""`ThreadWorkerPool` — K lanes of shard work over one shared engine.

The blocked column kernels spend their time inside scipy's sparse
matmul and BLAS — C code that releases the GIL — so K threads
answering shards from **one** engine scale the column work with no
transport at all: each shard runs on the router's dispatch thread
against the engine of the snapshot its batch read, and returns
finished answers. Every single-source column is an independent solve
over one read-only operator, so the threads share the engine's
artifacts but not its column memo, which served reads skip; the engine
computes outside its lock, never one column twice at once.

A *lane* is one worker's slot in the pool. It holds no engine, only
its counters. A shard that raises fails only its own tasks (see
:meth:`~repro.cluster.ShardRouter.compute_tasks`); a call that hangs
keeps its thread until it returns, and the broker bounds the wait by
the batch's deadlines.

A started pool caps every loaded OpenBLAS at ``max(1, cores // lanes)``
threads until it stops (:mod:`repro.cluster.blas`).
"""

from __future__ import annotations

import threading

from repro.cluster.blas import BLAS
from repro.engine.results import run_tasks

__all__ = ["ClusterError", "ThreadWorkerPool"]


class ClusterError(RuntimeError):
    """A cluster-level operation failed (dispatch before start, ...).

    >>> from repro.cluster import ClusterError
    >>> raise ClusterError("router not started")
    Traceback (most recent call last):
        ...
    repro.cluster.thread_pool.ClusterError: router not started
    """


class _Lane:
    """One worker's counters."""

    __slots__ = (
        "index", "shards_served", "columns_served", "tasks_served", "lock",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.shards_served = 0
        self.columns_served = 0
        self.tasks_served = 0
        self.lock = threading.Lock()


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

    def __init__(self, *, workers: int = 2) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.size = int(workers)
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

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
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
        """Per-lane counters."""
        return [
            {
                "index": lane.index,
                "shards_served": lane.shards_served,
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
            "blas_threads": BLAS.threads(),
        }

    def __repr__(self) -> str:
        return (
            f"ThreadWorkerPool(workers={self.size}, "
            f"started={self.started})"
        )
