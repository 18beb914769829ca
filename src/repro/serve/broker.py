"""The asyncio request broker: coalesce arrivals into blocked batches.

Queries arrive one at a time — a recommender asks for one user's
top-k, an HTTP thread asks for one pair score — but the blocked
multi-source kernel (PR 2) answers a *batch* of columns for barely
more than one. The broker closes that gap: requests land on an
``asyncio.Queue``; a single dispatcher task takes the first request,
then keeps collecting until either ``max_batch`` requests are in hand
or ``max_wait_ms`` has elapsed since the first one, and dispatches the
whole micro-batch through one
:meth:`~repro.cluster.ShardRouter.compute_tasks` call (blocked column
walks on the worker threads, then ranking). While a batch computes
in the executor, new arrivals pile up on
the queue, so sustained load coalesces even harder — classic
backpressure batching, as in index-serving systems built on
shared-precomputation similarity search (SLING-style serving).

Each batch reads one :class:`~repro.serve.snapshot.Snapshot` and holds
it by reference until it is answered, so a concurrent hot-swap never
mixes generations within a batch nor frees the engine it computes on.
A batch whose members carry deadlines is awaited no longer than the
earliest live one: a kernel call that hangs is answered
:class:`~repro.serve.guard.DeadlineExceeded` on time, and once every
member has expired the batch is abandoned to its executor thread
(counted in ``abandoned_batches``) while the next one dispatches.
Answers are published to the versioned
:class:`~repro.serve.cache.ResultCache` (when one is attached) before
the caller's future resolves.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.engine.results import Ranking
from repro.serve.cache import ResultCache
from repro.serve.guard import DeadlineExceeded, Overloaded
from repro.serve.snapshot import Snapshot, SnapshotManager

__all__ = ["BrokerStats", "QueryBroker"]

_STOP = object()


@dataclass
class BrokerStats:
    """Counters proving (or disproving) that coalescing happened.

    >>> from repro.serve import BrokerStats
    >>> stats = BrokerStats(dispatched=6, batches=2)
    >>> stats.mean_batch_size
    3.0
    >>> stats.snapshot()["batches"]
    2
    """

    requests: int = 0
    cache_hits: int = 0
    dispatched: int = 0
    batches: int = 0
    coalesced_requests: int = 0
    largest_batch: int = 0
    errors: int = 0
    shed: int = 0
    deadline_expired: int = 0
    #: batches whose every member expired while their compute ran
    abandoned_batches: int = 0
    batch_sizes: dict[int, int] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        return self.dispatched / self.batches if self.batches else 0.0

    def snapshot(self) -> dict:
        out = dict(self.__dict__)
        out["batch_sizes"] = {
            str(size): count
            for size, count in sorted(self.batch_sizes.items())
        }
        out["mean_batch_size"] = self.mean_batch_size
        return out


class _Request:
    """One pending query: what was asked, and the future to resolve."""

    __slots__ = (
        "kind", "node", "u", "k", "include_query", "future",
        "trace", "enqueued", "deadline", "deadline_ms",
    )

    def __init__(
        self,
        kind: str,
        node,
        *,
        u=None,
        k: int = 10,
        include_query: bool = False,
        deadline_ms: float | None = None,
    ) -> None:
        self.kind = kind
        self.node = int(node) if isinstance(node, (int, np.integer)) else node
        self.u = int(u) if isinstance(u, (int, np.integer)) else u
        self.k = int(k)
        self.include_query = bool(include_query)
        self.future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        # telemetry trace (set by the broker only when it is enabled)
        self.trace = None
        self.enqueued = 0.0
        # absolute perf_counter() instant this request must be
        # answered by (None = no deadline); set by the broker at
        # submission from deadline_ms or the server default
        self.deadline: float | None = None
        self.deadline_ms = deadline_ms

    def cache_key(self, snapshot: Snapshot, config_key) -> tuple:
        return (
            snapshot.seq,
            snapshot.version,
            config_key,
            self.kind,
            self.node,
            self.u,
            self.k,
            self.include_query,
        )


class QueryBroker:
    """Coalesce independently arriving queries into blocked batches.

    Parameters
    ----------
    snapshots:
        The :class:`SnapshotManager` whose ``current`` engine answers
        each batch.
    max_batch:
        Hard cap on requests per dispatched batch.
    max_wait_ms:
        How long the dispatcher lingers after the *first* request of a
        batch before dispatching a partial one. ``0`` still coalesces
        everything already queued (pure backpressure batching), it
        just never waits for stragglers.
    cache:
        Optional :class:`ResultCache`; hits are served before the
        request ever queues.
    obs:
        Optional :class:`~repro.obs.Observability`. When set (and
        enabled), every request is traced
        (``coalesce -> dispatch -> shard -> compute -> render``
        spans) and the hot-path histograms (coalesce wait, batch
        compute, render, end-to-end duration) are observed. ``None``
        (or a :class:`~repro.obs.NullObservability`) keeps the hot
        path free of telemetry work.
    router:
        The :class:`~repro.cluster.ShardRouter` whose worker threads
        answer each batch's tasks, sharded across them, from the
        engine of the snapshot the batch read. ``None`` (default)
        builds a one-worker router, whose single shard runs on the
        broker's executor thread.

    Examples
    --------
    Concurrent awaits coalesce into fewer dispatched batches:

    >>> import asyncio
    >>> from repro.graph import figure1_citation_graph
    >>> from repro.serve import QueryBroker, SnapshotManager
    >>> async def demo():
    ...     broker = QueryBroker(SnapshotManager(
    ...         figure1_citation_graph(), measure="gSR*",
    ...         num_iterations=10))
    ...     await broker.start()
    ...     rankings = await asyncio.gather(
    ...         *(broker.top_k(q, k=3) for q in range(8)))
    ...     await broker.stop()
    ...     return len(rankings), broker.stats.batches
    >>> answered, batches = asyncio.run(demo())
    >>> answered, batches <= 8
    (8, True)
    """

    def __init__(
        self,
        snapshots: SnapshotManager,
        *,
        max_batch: int = 32,
        max_wait_ms: float = 2.0,
        cache: ResultCache | None = None,
        router=None,
        obs=None,
        max_queue_depth: int = 0,
        default_deadline_ms: float = 0.0,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {max_wait_ms}"
            )
        if max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be >= 0, got {max_queue_depth}"
            )
        if default_deadline_ms < 0:
            raise ValueError(
                "default_deadline_ms must be >= 0, got "
                f"{default_deadline_ms}"
            )
        if obs is None:
            from repro.obs import NullObservability

            obs = NullObservability()
        self._obs = obs
        self._snapshots = snapshots
        self.max_batch = max_batch
        self.max_wait = max_wait_ms / 1e3
        self._cache = cache
        if router is None:
            from repro.cluster import ShardRouter, ThreadWorkerPool

            router = ShardRouter(ThreadWorkerPool(workers=1), obs=obs)
        self._router = router
        self._config_key = snapshots.config
        self.max_queue_depth = int(max_queue_depth)
        self.default_deadline = float(default_deadline_ms) / 1e3
        self.stats = BrokerStats()
        self._queue: asyncio.Queue | None = None
        self._task: asyncio.Task | None = None
        self._stopping = False
        # EWMA of observed batch compute seconds — the basis of the
        # Retry-After hint a shed request carries
        self._compute_ewma = 0.0
        #: active blue-green decision state (a
        #: :class:`~repro.serve.guard.Canary`), attached by the
        #: service during a canary mutation; None otherwise
        self.canary = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    @property
    def queue_depth(self) -> int:
        """Requests admitted but not yet collected into a batch."""
        return self._queue.qsize() if self._queue is not None else 0

    async def start(self) -> None:
        """Start the dispatcher task on the running event loop."""
        if self.running:
            raise RuntimeError("broker already running")
        self._router.start()
        self._queue = asyncio.Queue()
        self._stopping = False
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="repro-serve-broker"
        )

    async def stop(self) -> None:
        """Drain-stop: dispatched work finishes, queued work fails."""
        if self._task is None:
            return
        self._stopping = True
        await self._queue.put(_STOP)
        await self._task
        self._task = None
        # anything still queued after the dispatcher exited gets an
        # explicit failure instead of hanging its awaiter forever
        while not self._queue.empty():
            request = self._queue.get_nowait()
            if request is _STOP:
                continue
            if not request.future.done():
                request.future.set_exception(
                    RuntimeError("broker stopped")
                )

    # ------------------------------------------------------------------
    # public query surface
    # ------------------------------------------------------------------
    async def top_k(
        self,
        query,
        k: int = 10,
        include_query: bool = False,
        deadline_ms: float | None = None,
    ) -> Ranking:
        """The coalesced equivalent of ``engine.top_k``."""
        if k < 0:
            # reject before queueing: a bad parameter must fail its
            # own caller, never reach the shared dispatcher
            raise ValueError(f"k must be >= 0, got {k}")
        return await self._submit(
            _Request(
                "top_k", query, k=k, include_query=include_query,
                deadline_ms=deadline_ms,
            )
        )

    async def score(self, u, v, deadline_ms: float | None = None) -> float:
        """The coalesced equivalent of ``engine.score``."""
        return await self._submit(
            _Request("score", v, u=u, deadline_ms=deadline_ms)
        )

    async def _submit(self, request: _Request):
        if not self.running:
            raise RuntimeError(
                "broker is not running (use ServingService as an "
                "async context manager, or call start())"
            )
        self.stats.requests += 1
        request.enqueued = perf_counter()
        budget = (
            request.deadline_ms / 1e3
            if request.deadline_ms is not None
            else self.default_deadline
        )
        if budget > 0:
            request.deadline = request.enqueued + budget
        obs = self._obs
        if obs.enabled:
            if request.kind == "top_k":
                obs.requests_top_k.inc()
            else:
                obs.requests_score.inc()
            request.trace = obs.start_trace(request.kind)
        if self._cache is not None:
            cached = self._cache.get(
                request.cache_key(
                    self._snapshots.current, self._config_key
                )
            )
            if cached is not None:
                self.stats.cache_hits += 1
                if request.trace is not None:
                    request.trace.add_span(
                        "cache",
                        perf_counter() - request.enqueued,
                        start_s=request.enqueued,
                    )
                    obs.finish_trace(request.trace, "cache_hit")
                    obs.request_duration.observe(
                        perf_counter() - request.enqueued
                    )
                return cached
        if (
            self.max_queue_depth
            and self._queue.qsize() >= self.max_queue_depth
        ):
            # admission control: refuse with an explicit, retryable
            # error instead of letting the backlog (and every queued
            # request's latency) grow without bound
            self.stats.shed += 1
            retry_after = self._retry_after_hint()
            if obs.enabled:
                obs.requests_shed.inc()
                obs.request_duration.observe(
                    perf_counter() - request.enqueued
                )
                if request.trace is not None:
                    obs.finish_trace(request.trace, "shed")
            raise Overloaded(
                f"admission queue full (depth {self._queue.qsize()} "
                f">= max_queue_depth {self.max_queue_depth})",
                retry_after=retry_after,
            )
        await self._queue.put(request)
        return await request.future

    def _retry_after_hint(self) -> float:
        """Seconds until the backlog has plausibly drained.

        Derived from the EWMA of observed batch compute time: the
        current queue is ``qsize / max_batch`` batches deep, each
        costing roughly one EWMA; floored at 50ms so a cold broker
        never advertises an instant retry storm.
        """
        per_batch = self._compute_ewma or 0.05
        backlog = self._queue.qsize() / self.max_batch if self._queue else 0.0
        return round(max(0.05, per_batch * (1.0 + backlog)), 3)

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            if first is _STOP:
                return
            batch = [first]
            deadline = loop.time() + self.max_wait
            stop_seen = False
            while len(batch) < self.max_batch:
                # drain whatever is already queued for free —
                # asyncio.wait_for spawns a task + timer per call, a
                # real per-request cost at serving rates, so it is
                # reserved for genuinely waiting on stragglers
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    timeout = deadline - loop.time()
                    if timeout <= 0:
                        break
                    try:
                        item = await asyncio.wait_for(
                            self._queue.get(), timeout
                        )
                    except asyncio.TimeoutError:
                        break
                if item is _STOP:
                    stop_seen = True
                    break
                batch.append(item)
            try:
                await self._dispatch(batch)
            except Exception as exc:
                # last line of defence: _dispatch handles per-request
                # failures itself, but the dispatcher task dying would
                # brick the whole broker — fail this batch and live on
                for request in batch:
                    self._fail_request(request, exc)
            if stop_seen or (self._stopping and self._queue.empty()):
                return

    def _fail_request(
        self, request: _Request, exc: Exception, side: str | None = None
    ) -> None:
        """Fail one request's future and close out its telemetry."""
        self.stats.errors += 1
        if side is not None and self.canary is not None:
            self.canary.record(
                side, False, perf_counter() - request.enqueued
            )
        if request.trace is not None:
            self._obs.request_errors.inc()
            self._obs.request_duration.observe(
                perf_counter() - request.enqueued
            )
            self._obs.finish_trace(request.trace, "error")
        if not request.future.done():
            request.future.set_exception(exc)

    def _expire_request(self, request: _Request) -> None:
        """Answer one request ``DeadlineExceeded``; batch unharmed."""
        self.stats.deadline_expired += 1
        obs = self._obs
        if obs.enabled:
            obs.deadline_exceeded.inc()
            obs.request_duration.observe(
                perf_counter() - request.enqueued
            )
            if request.trace is not None:
                obs.finish_trace(request.trace, "deadline")
        budget_ms = (
            (request.deadline - request.enqueued) * 1e3
            if request.deadline is not None
            else 0.0
        )
        if not request.future.done():
            request.future.set_exception(
                DeadlineExceeded(
                    f"deadline of {budget_ms:.1f}ms exceeded before "
                    "the answer was rendered"
                )
            )

    async def _dispatch(self, batch: list[_Request]) -> None:
        # blue-green: while a canary is live, a deterministic fraction
        # of whole batches reads the green (candidate) snapshot; the
        # rest keep reading blue. Split by batch, not by member, so a
        # batch never mixes generations.
        canary = self.canary
        side = None
        if canary is not None and canary.outcome is None:
            side = canary.choose()
        snapshot = (
            canary.green if side == "green" else self._snapshots.current
        )
        await self._dispatch_on(batch, snapshot, canary_side=side)
        if side is not None:
            await self._maybe_finalize_canary()

    async def _maybe_finalize_canary(self) -> None:
        """Promote or roll back once the canary verdict is conclusive."""
        canary = self.canary
        if canary is None:
            return
        verdict = canary.decide()
        if verdict is None or not canary.finalize(verdict):
            return
        callback = (
            canary.on_promote
            if verdict == "promote"
            else canary.on_rollback
        )
        if callback is not None:
            # promote swaps the pointer and persists the index —
            # keep that off the event loop
            await asyncio.get_running_loop().run_in_executor(
                None, callback
            )
        if self.canary is canary:
            self.canary = None

    def _drop_expired(self, requests: list[_Request]) -> list[_Request]:
        """Answer the members past their deadline; return the others."""
        now = perf_counter()
        live = []
        for request in requests:
            if request.deadline is not None and now >= request.deadline:
                self._expire_request(request)
            else:
                live.append(request)
        return live

    async def _await_within_deadlines(
        self, compute: asyncio.Future, work: list[_Request]
    ) -> list[_Request]:
        """Wait on ``compute`` no longer than the earliest live deadline.

        A kernel call that hangs cannot be stopped, so the wait is
        bounded instead. Each time the earliest deadline of the members
        still waiting passes, those past it are answered
        ``DeadlineExceeded``; members without a deadline wait as long
        as the compute takes. ``asyncio.wait`` never cancels the
        compute. Returns the members still waiting when it finishes,
        or ``[]`` once none is left: the batch is then abandoned — its
        executor thread keeps the call until it returns, and its
        result is dropped.
        """
        pending = work
        while not compute.done():
            deadlines = [
                r.deadline for r in pending if r.deadline is not None
            ]
            if not deadlines:
                break
            await asyncio.wait(
                (compute,), timeout=min(deadlines) - perf_counter()
            )
            if compute.done():
                break
            pending = self._drop_expired(pending)
            if not pending:
                self.stats.abandoned_batches += 1
                # fetch the late outcome so a failure is not logged as
                # an exception nobody retrieved
                compute.add_done_callback(
                    lambda done: done.cancelled() or done.exception()
                )
                return []
        return pending

    async def _dispatch_on(
        self,
        batch: list[_Request],
        snapshot: Snapshot,
        canary_side: str | None = None,
    ) -> None:
        # deadline checkpoint one: a member already past its deadline
        # is answered DeadlineExceeded here, without poisoning the
        # rest of the batch; if *every* member expired, the dispatch
        # (and its shard fan-out) is skipped entirely
        batch = self._drop_expired(batch)
        if not batch:
            return
        engine = snapshot.engine
        obs = self._obs
        size = len(batch)
        self.stats.batches += 1
        self.stats.dispatched += size
        self.stats.largest_batch = max(self.stats.largest_batch, size)
        self.stats.batch_sizes[size] = (
            self.stats.batch_sizes.get(size, 0) + 1
        )
        if size > 1:
            self.stats.coalesced_requests += size
        if obs.enabled:
            obs.batch_size.observe(size)
            now = perf_counter()
            for request in batch:
                wait = now - request.enqueued
                obs.coalesce_wait.observe(wait)
                if request.trace is not None:
                    request.trace.add_span(
                        "coalesce",
                        wait,
                        start_s=request.enqueued,
                        batch=size,
                    )

        work: list[_Request] = []
        tasks: list[dict] = []
        for request in batch:
            try:
                query = engine.resolve_node(request.node)
                if request.kind == "score":
                    task = {
                        "op": "score",
                        "query": query,
                        "u": engine.resolve_node(request.u),
                    }
                else:
                    task = {
                        "op": "top_k",
                        "query": query,
                        "k": request.k,
                        "include_query": request.include_query,
                    }
            except Exception as exc:
                self._fail_request(request, exc, side=canary_side)
                continue
            work.append(request)
            tasks.append(task)
        if not work:
            return

        shard_meta = None
        if obs.enabled:
            shard_meta = {
                "trace_ids": [
                    r.trace.trace_id for r in work if r.trace is not None
                ],
            }

        canary = self.canary

        def timed_compute():
            # runs on the executor thread: times the blocked column
            # work and ranking, separate from the executor hop
            t0 = perf_counter()
            results = self._router.compute_tasks(
                snapshot, tasks, meta=shard_meta
            )
            return results, t0, perf_counter() - t0

        t_dispatch = perf_counter()
        compute = asyncio.get_running_loop().run_in_executor(
            None, timed_compute
        )
        pending = work
        if any(request.deadline is not None for request in work):
            pending = await self._await_within_deadlines(compute, work)
            if not pending:
                return
        try:
            results, t_compute, compute_s = await compute
        except Exception as exc:
            for request in pending:
                self._fail_request(request, exc, side=canary_side)
            return
        dispatch_s = perf_counter() - t_dispatch
        # feed the Retry-After estimator (EWMA, alpha 0.2)
        self._compute_ewma = (
            compute_s
            if self._compute_ewma == 0.0
            else 0.2 * compute_s + 0.8 * self._compute_ewma
        )
        if obs.enabled:
            obs.batch_compute.observe(compute_s)
            shards = shard_meta.get("shards", ())
            for request in pending:
                trace = request.trace
                if trace is None:
                    continue
                trace.add_span(
                    "dispatch",
                    dispatch_s,
                    start_s=t_dispatch,
                    batch=len(tasks),
                )
                for shard in shards:
                    trace.add_span(
                        "shard",
                        shard.get("seconds", 0.0),
                        start_s=shard.get("start_s", t_compute),
                        worker=shard.get("worker"),
                        ids=shard.get("ids"),
                        # the worker echoed the batch's trace ids: True
                        # proves this request's shard reached a worker
                        echoed=trace.trace_id
                        in shard.get("trace_ids", ()),
                    )
                trace.add_span(
                    "compute",
                    compute_s,
                    start_s=t_compute,
                    batch=len(tasks),
                )

        answers = zip(work, results)
        if pending is not work:
            # the others were answered DeadlineExceeded during the wait
            alive = set(pending)
            answers = [pair for pair in answers if pair[0] in alive]
        for request, result in answers:
            # deadline checkpoint two: the compute may have outlived a
            # member's deadline — answer it DeadlineExceeded instead
            # of a stale result, and keep rendering its peers
            if (
                request.deadline is not None
                and perf_counter() >= request.deadline
            ):
                self._expire_request(request)
                continue
            # per-request: a failed task (bad k, exotic payload) fails
            # its own future only — the dispatcher and the rest of the
            # batch must survive any single request
            if isinstance(result, Exception):
                self._fail_request(request, result, side=canary_side)
                continue
            try:
                t_render = perf_counter()
                if self._cache is not None:
                    self._cache.put(
                        request.cache_key(snapshot, self._config_key),
                        result,
                    )
            except Exception as exc:
                self._fail_request(request, exc, side=canary_side)
                continue
            if canary_side is not None and canary is not None:
                canary.record(
                    canary_side,
                    True,
                    perf_counter() - request.enqueued,
                )
            if request.trace is not None:
                done = perf_counter()
                obs.render_seconds.observe(done - t_render)
                request.trace.add_span(
                    "render", done - t_render, start_s=t_render
                )
                obs.request_duration.observe(done - request.enqueued)
                obs.finish_trace(request.trace, "ok")
            if not request.future.done():
                request.future.set_result(result)
