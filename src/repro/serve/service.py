"""`ServingService` — the one object that is "the server".

Wires a :class:`~repro.serve.snapshot.SnapshotManager`, a
:class:`~repro.serve.cache.ResultCache`, and a
:class:`~repro.serve.broker.QueryBroker` together and owns their
lifecycle. Two ways to run it:

* **async-native** (tests, notebooks, an existing event loop)::

      async with ServingService(graph, measure="gSR*") as service:
          ranking = await service.top_k("h", k=5)

* **background loop** (the HTTP front end, sync callers)::

      service = ServingService(graph)
      service.start_background()
      ranking = service.top_k_sync("h", k=5)   # thread-safe
      service.close()

The sync methods submit coroutines to the service's private event
loop with ``run_coroutine_threadsafe``, so sixty-four HTTP handler
threads all funnel into the same coalescing broker — which is the
entire point.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Iterable, Sequence

from repro.engine.config import SimilarityConfig
from repro.engine.results import Ranking
from repro.graph.digraph import DiGraph
from repro.serve.broker import QueryBroker
from repro.serve.cache import ResultCache
from repro.serve.guard import Canary
from repro.serve.snapshot import Snapshot, SnapshotManager

__all__ = ["ServingService"]


class ServingService:
    """A long-running similarity query service over one graph.

    Parameters
    ----------
    graph:
        The graph to serve (copied into the first snapshot).
    config:
        Optional :class:`~repro.engine.SimilarityConfig`; engine
        keyword overrides (``measure=``, ``c=``, ...) may be passed
        directly.
    max_batch / max_wait_ms:
        Broker coalescing knobs — see
        :class:`~repro.serve.broker.QueryBroker`.
    cache_entries:
        Result-cache bound; ``0`` disables the result cache entirely
        (every request goes through the broker).
    index_path:
        Optional persistent-index file for the snapshot manager: a
        matching index on disk makes startup (and every hot-swap back
        to known content) adopt memory-mapped artifacts instead of
        rebuilding, and freshly built precomputation is persisted
        there on warmup/mutate. See
        :class:`~repro.serve.snapshot.SnapshotManager`.
    workers:
        Worker *threads* answering per-worker shards of every
        coalesced micro-batch, split by a
        :class:`~repro.cluster.ShardRouter` over a
        :class:`~repro.cluster.ThreadWorkerPool`. Every shard answers
        from the engine of the snapshot its batch read — one engine
        per snapshot, whatever the count, and served columns skip its
        memo — so a mutation is just the snapshot swap. ``0`` (default)
        starts one worker per core the process may run on. While the
        workers run, OpenBLAS is capped at ``max(1, cores //
        workers)`` threads, so the workers' BLAS calls never ask for
        more threads than there are cores. A batch that fits in one
        shard runs on the broker's executor thread. A shard that
        raises fails only its own requests.
    backend:
        ``"thread"`` (default), the only worker backend. ``"process"``
        is still accepted with ``workers=0``, where it changes
        nothing; with ``workers >= 1`` it raises ``ValueError``
        because the process backend was removed.
    max_delta_fraction / max_chain_depth:
        Incremental-maintenance knobs, passed to the
        :class:`~repro.serve.snapshot.SnapshotManager`: small edge
        batches go through ``O(delta)`` index surgery (bit-identical
        results, chained ``.delta-<n>`` segments on disk) instead of a
        full rebuild. ``max_delta_fraction=0`` rebuilds on every
        mutation.
    telemetry:
        ``True`` (default) builds a full
        :class:`~repro.obs.Observability` — hot-path histograms,
        per-request traces, pull-time callback series over every
        layer's stats, and the ``/metrics`` Prometheus exposition
        (:meth:`metrics_text`). ``False`` swaps in the no-op
        :class:`~repro.obs.NullObservability`.
    max_queue_depth:
        Load-shedding bound on the broker's admission queue: a request
        arriving while ``max_queue_depth`` requests are already queued
        is rejected immediately with
        :class:`~repro.serve.guard.Overloaded` (HTTP 429 +
        ``Retry-After``) instead of growing the backlog. ``0``
        (default) disables shedding.
    default_deadline_ms:
        Server-wide per-request deadline in milliseconds; a request
        whose answer is not rendered within its budget fails with
        :class:`~repro.serve.guard.DeadlineExceeded` (HTTP 504)
        without poisoning the rest of its micro-batch — even when its
        kernel call hangs, since the broker waits on a batch no longer
        than its earliest live deadline. Per-request ``deadline_ms``
        overrides it; ``0`` (default) disables, and a request with no
        deadline waits as long as its compute takes.
    canary_fraction / canary_min_requests / canary_max_error_delta / canary_max_p95_ratio:
        Blue-green swap policy for :meth:`mutate_canary`: route
        ``canary_fraction`` of traffic to the new (green) snapshot,
        and after ``canary_min_requests`` green observations
        auto-promote — unless green's error rate exceeds blue's by
        more than ``canary_max_error_delta`` or its p95 latency is
        more than ``canary_max_p95_ratio`` times blue's, in which
        case auto-rollback. See :class:`~repro.serve.guard.Canary`.
    slow_query_ms / slow_query_log:
        Slow-query logging knobs (telemetry only): a finished request
        trace at or above ``slow_query_ms`` milliseconds — or one
        that errored — is written to the bounded JSON-lines
        :class:`~repro.obs.SlowQueryLog` at path ``slow_query_log``
        (memory-only ring when ``None``). ``slow_query_ms=None``
        disables the log.

    Examples
    --------
    >>> import asyncio
    >>> from repro.graph import figure1_citation_graph
    >>> from repro.serve import ServingService
    >>> async def demo():
    ...     async with ServingService(
    ...             figure1_citation_graph(), measure="gSR*",
    ...             num_iterations=10) as service:
    ...         ranking = await service.top_k("h", k=2)
    ...         score = await service.score("h", "d")
    ...     return len(ranking), score > 0
    >>> asyncio.run(demo())
    (2, True)
    """

    def __init__(
        self,
        graph: DiGraph,
        config: SimilarityConfig | None = None,
        *,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        cache_entries: int = 1024,
        index_path=None,
        workers: int = 0,
        backend: str = "thread",
        max_delta_fraction: float = 0.10,
        max_chain_depth: int = 8,
        telemetry: bool = True,
        slow_query_ms: float | None = 250.0,
        slow_query_log=None,
        max_queue_depth: int = 0,
        default_deadline_ms: float = 0.0,
        canary_fraction: float = 0.1,
        canary_min_requests: int = 20,
        canary_max_error_delta: float = 0.10,
        canary_max_p95_ratio: float = 3.0,
        **overrides,
    ) -> None:
        from repro.obs import NullObservability, Observability

        self.observability = (
            Observability(
                slow_query_ms=slow_query_ms,
                slow_query_log_path=slow_query_log,
            )
            if telemetry
            else NullObservability()
        )
        self.snapshots = SnapshotManager(
            graph,
            config,
            index_path=index_path,
            max_delta_fraction=max_delta_fraction,
            max_chain_depth=max_chain_depth,
            **overrides,
        )
        self.cache = (
            ResultCache(cache_entries) if cache_entries else None
        )
        if backend not in ("process", "thread"):
            raise ValueError(
                f"unknown backend {backend!r}; the worker backend is "
                "'thread'"
            )
        if workers and backend == "process":
            raise ValueError(
                "the process worker backend was removed; use "
                "backend='thread' (the default) with workers >= 1"
            )
        from repro.cluster import ShardRouter, ThreadWorkerPool
        from repro.cluster.blas import usable_cores

        self.cluster = ShardRouter(
            ThreadWorkerPool(workers=workers or usable_cores()),
            obs=self.observability,
        )
        self.broker = QueryBroker(
            self.snapshots,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            cache=self.cache,
            router=self.cluster,
            obs=self.observability,
            max_queue_depth=max_queue_depth,
            default_deadline_ms=default_deadline_ms,
        )
        self.canary_fraction = float(canary_fraction)
        self.canary_min_requests = int(canary_min_requests)
        self.canary_max_error_delta = float(canary_max_error_delta)
        self.canary_max_p95_ratio = float(canary_max_p95_ratio)
        self._canary_lock = threading.Lock()
        # the last decided canary's final describe() document; a live
        # canary is broker.canary, and nothing else keeps a decided one
        # (or the snapshots it holds) alive
        self._canary_outcome: dict | None = None
        self.observability.bind_service(self)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started_monotonic = time.monotonic()

    @property
    def config(self) -> SimilarityConfig:
        return self.snapshots.config

    # ------------------------------------------------------------------
    # async lifecycle + queries
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "ServingService":
        await self.broker.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.broker.stop()
        self.cluster.stop()

    async def top_k(
        self,
        query,
        k: int = 10,
        include_query: bool = False,
        deadline_ms: float | None = None,
    ) -> Ranking:
        """Coalesced top-k (see :meth:`QueryBroker.top_k`).

        ``deadline_ms`` overrides the server's default deadline for
        this request (``None`` inherits it; ``0`` disables).
        """
        return await self.broker.top_k(
            query,
            k=k,
            include_query=include_query,
            deadline_ms=deadline_ms,
        )

    async def score(self, u, v, deadline_ms: float | None = None) -> float:
        """Coalesced pair score (see :meth:`QueryBroker.score`)."""
        return await self.broker.score(u, v, deadline_ms=deadline_ms)

    # ------------------------------------------------------------------
    # background-loop lifecycle + sync queries
    # ------------------------------------------------------------------
    def start_background(self) -> None:
        """Run the broker on a private event loop in a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("service already running in background")
        loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.broker.start())
            started.set()
            loop.run_forever()
            # drain-stop once run_forever is released by close()
            loop.run_until_complete(self.broker.stop())
            loop.close()

        self._loop = loop
        self._thread = threading.Thread(
            target=run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        started.wait()

    def close(self, timeout: float | None = 10.0) -> None:
        """Stop the background loop and the worker pool (idempotent)."""
        if self._thread is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)
            self._thread = None
            self._loop = None
        self.cluster.stop()

    def submit(self, coro):
        """Schedule a coroutine on the service loop (thread-safe).

        Returns the ``concurrent.futures.Future`` from
        :func:`asyncio.run_coroutine_threadsafe`.
        """
        if self._loop is None:
            coro.close()  # avoid a never-awaited warning
            raise RuntimeError(
                "background loop not running; call start_background()"
            )
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def top_k_sync(
        self,
        query,
        k: int = 10,
        include_query: bool = False,
        timeout: float | None = 30.0,
        deadline_ms: float | None = None,
    ) -> Ranking:
        """Blocking top-k from any thread (funnels into the broker)."""
        return self.submit(
            self.top_k(
                query,
                k=k,
                include_query=include_query,
                deadline_ms=deadline_ms,
            )
        ).result(timeout)

    def score_sync(
        self,
        u,
        v,
        timeout: float | None = 30.0,
        deadline_ms: float | None = None,
    ) -> float:
        """Blocking pair score from any thread."""
        return self.submit(
            self.score(u, v, deadline_ms=deadline_ms)
        ).result(timeout)

    # ------------------------------------------------------------------
    # control plane
    # ------------------------------------------------------------------
    def warmup(self) -> dict:
        """Pre-build the current snapshot's shared artifacts."""
        return self.snapshots.warmup()

    def mutate(
        self,
        add: Iterable[Sequence] = (),
        remove: Iterable[Sequence] = (),
    ) -> Snapshot:
        """Apply graph edits via background build + snapshot hot-swap.

        Safe to call from any thread while queries are in flight:
        batches that read the old snapshot finish on it, later
        batches see the new one. Refused with ``RuntimeError`` (HTTP
        409) while a canary is in flight: promoting its green, built
        from the older graph, would drop this write.
        """
        with self._canary_lock:
            self._refuse_during_canary()
            return self.snapshots.mutate(add=add, remove=remove)

    def _refuse_during_canary(self) -> None:
        if self.broker.canary is not None:
            raise RuntimeError(
                "a canary is in flight; wait for it to promote or "
                "roll back before mutating again"
            )

    def mutate_canary(
        self,
        add: Iterable[Sequence] = (),
        remove: Iterable[Sequence] = (),
        *,
        fraction: float | None = None,
    ) -> Canary | None:
        """Apply graph edits as a blue-green canary instead of a swap.

        The edited snapshot (*green*) is built and warmed next to the
        serving one (*blue*), then a configurable traffic ``fraction``
        is routed to it. After ``canary_min_requests`` green
        observations the :class:`~repro.serve.guard.Canary` either
        auto-promotes green (normal pointer swap) or auto-rolls back
        to blue when green's error rate or p95 regresses past the
        service thresholds. Returns the live ``Canary`` — poll
        :meth:`canary_status` (or ``/status``) for its outcome — or
        ``None`` when the batch has no net edit: then nothing is
        built and no canary starts. Only one canary may be in flight
        at a time, and no plain :meth:`mutate` runs beside it.
        """
        with self._canary_lock:
            self._refuse_during_canary()
            blue, green = self.snapshots.prepare_canary(
                add=add, remove=remove
            )
            if green is None:
                return None
            canary = Canary(
                blue,
                green,
                fraction=(
                    self.canary_fraction if fraction is None else fraction
                ),
                min_requests=self.canary_min_requests,
                max_error_delta=self.canary_max_error_delta,
                max_p95_ratio=self.canary_max_p95_ratio,
            )

            def settle(finish, snapshot) -> None:
                finish(snapshot)
                self._canary_outcome = canary.describe()
                # the callbacks close over the canary: drop them so the
                # decided canary is freed as soon as the broker lets go
                canary.on_promote = canary.on_rollback = None

            canary.on_promote = lambda: settle(
                self.snapshots.promote_canary, green
            )
            canary.on_rollback = lambda: settle(
                self.snapshots.rollback_canary, blue
            )
            self.broker.canary = canary
            return canary

    def canary_status(self) -> dict | None:
        """The most recent canary's :meth:`~repro.serve.guard.Canary.describe`
        document (``None`` if no canary has ever been started): the live
        one's, else the final document of the last decided one."""
        canary = self.broker.canary
        if canary is not None:
            return canary.describe()
        return self._canary_outcome

    def status(self) -> dict:
        """A JSON-ready status document (the ``/status`` endpoint).

        Every caching layer reports its counters: ``cache`` is the
        rendered-answer :class:`~repro.serve.cache.ResultCache`, the
        one serving cache (hits / misses / evictions / entries /
        hit_rate), ``engine`` the current snapshot's
        :class:`~repro.engine.engine.EngineStats` (artifact builds vs.
        index adoptions; column misses start a compute, hits join one),
        and ``snapshots`` the hot-swap and persistent-index counters.
        In approx mode an ``approx`` section adds the Monte-Carlo
        tier's walk geometry and estimator counters (columns, samples
        drawn, support truncations, walk-index bytes).
        """
        engine = self.snapshots.current.engine
        return {
            "engine": engine.stats.snapshot(),
            "approx": engine.approx_status(),
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "config": {
                "measure": self.config.measure,
                "c": self.config.c,
                "num_iterations": self.config.num_iterations,
                "epsilon": self.config.epsilon,
                "weights": self.config.weights,
                "dtype": self.config.dtype,
                "mode": self.config.mode,
                "seed": self.config.seed,
            },
            "batching": {
                "max_batch": self.broker.max_batch,
                "max_wait_ms": self.broker.max_wait * 1e3,
            },
            "broker": self.broker.stats.snapshot(),
            "cache": (
                self.cache.stats.snapshot()
                if self.cache is not None
                else None
            ),
            "snapshots": self.snapshots.describe(),
            "cluster": self.cluster.describe(),
            "guard": {
                "max_queue_depth": self.broker.max_queue_depth,
                "default_deadline_ms": (
                    self.broker.default_deadline * 1e3
                ),
                "queue_depth": self.broker.queue_depth,
                "shed": self.broker.stats.shed,
                "deadline_expired": self.broker.stats.deadline_expired,
                "canary": self.canary_status(),
            },
            "observability": self.observability.describe(),
        }

    def metrics_text(self) -> str:
        """The Prometheus text exposition (the ``/metrics`` body).

        Renders every registered series at call time — the callback
        series read the broker/cache/snapshot/cluster/engine stats on
        this very call, so the document always reflects the live
        counters.

        With telemetry disabled, returns a one-line comment document
        (still valid Prometheus text).
        """
        return self.observability.render()
