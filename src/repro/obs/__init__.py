"""`repro.obs` — metrics, request tracing, and the slow-query log.

The observability layer of the serving stack (PR 8). Three pieces:

* :mod:`repro.obs.metrics` — a zero-dependency
  :class:`MetricsRegistry` of counters, gauges, and fixed-bucket
  histograms with a Prometheus text exposition (served at
  ``/metrics``).
* :mod:`repro.obs.trace` — per-request :class:`Trace` span timelines
  (``coalesce -> dispatch -> shard -> compute -> render``) and the
  bounded, rotated JSON-lines :class:`SlowQueryLog`.
* :class:`Observability` — the facade a
  :class:`~repro.serve.ServingService` owns: it creates the hot-path
  instruments the broker/router/snapshot manager write into and
  registers pull-time callback series over the existing stats
  objects.

Instrumentation is opt-out (``ServingService(telemetry=False)``): the
:class:`NullObservability` variant exposes the same attribute surface
as no-ops, so the hot path stays branch-free either way. No maintained
tool measures the enabled-vs-disabled cost at present (see
``docs/observability.md``).

>>> from repro.graph import figure1_citation_graph
>>> from repro.serve import ServingService
>>> service = ServingService(figure1_citation_graph(), measure="gSR*")
>>> text = service.metrics_text()
>>> "# TYPE repro_requests_total counter" in text
True
"""

from __future__ import annotations

import time

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LatencyStats,
    MetricsRegistry,
)
from repro.obs.trace import SlowQueryLog, Span, Trace, Tracer

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "LatencyStats",
    "MetricsRegistry",
    "NullObservability",
    "Observability",
    "SlowQueryLog",
    "Span",
    "Trace",
    "Tracer",
]

#: Micro-batch width buckets (requests per dispatched batch).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)


class _Noop:
    """Absorbs every instrument call on the disabled path."""

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def labels(self, **labels):
        return self


_NOOP = _Noop()


class NullObservability:
    """The disabled twin of :class:`Observability`.

    Same attribute surface, no-op instruments, ``enabled = False`` —
    so instrumented code never branches on configuration beyond the
    cheap ``if trace is not None`` guards.

    >>> from repro.obs import NullObservability
    >>> obs = NullObservability()
    >>> obs.enabled, obs.start_trace("top_k") is None
    (False, True)
    """

    enabled = False

    def __init__(self) -> None:
        self.registry = None
        self.tracer = None
        self.requests_top_k = _NOOP
        self.requests_score = _NOOP
        self.requests_shed = _NOOP
        self.deadline_exceeded = _NOOP
        self.request_errors = _NOOP
        self.request_duration = _NOOP
        self.coalesce_wait = _NOOP
        self.batch_compute = _NOOP
        self.batch_size = _NOOP
        self.render_seconds = _NOOP
        self.shard_dispatch = _NOOP
        self.swap_stage = _NOOP

    def start_trace(self, kind: str):
        return None

    def finish_trace(self, trace, status: str = "ok") -> None:
        pass

    def observe_swap(self, row: dict) -> None:
        pass

    def bind_service(self, service) -> None:
        pass

    def render(self) -> str:
        return (
            "# telemetry disabled (ServingService(telemetry=False))\n"
        )

    def describe(self) -> dict:
        return {"enabled": False}


class Observability:
    """The serving stack's metric + tracing facade.

    Owns one :class:`MetricsRegistry` and one :class:`Tracer`, creates
    the hot-path instruments the broker / router / snapshot manager
    write into, and (via :meth:`bind_service`) registers pull-time
    callback series over every layer's existing stats counters — so a
    ``/metrics`` scrape reflects broker coalescing, both caches,
    snapshot/delta maintenance, the cluster, and the engine without
    adding a single hot-path increment for them.

    Parameters
    ----------
    slow_query_ms:
        Threshold for the slow-query log; ``None`` disables the log
        (tracing still runs).
    slow_query_log_path:
        Optional JSON-lines file for slow traces (bounded + rotated,
        see :class:`SlowQueryLog`).
    trace_capacity:
        Recently finished traces kept for ``tracer.last()``.

    Examples
    --------
    >>> from repro.obs import Observability
    >>> obs = Observability(slow_query_ms=None)
    >>> obs.requests_top_k.inc()
    >>> "repro_requests_total" in obs.render()
    True
    """

    enabled = True

    def __init__(
        self,
        *,
        slow_query_ms: float | None = 250.0,
        slow_query_log_path=None,
        slow_query_log_bytes: int = 1_000_000,
        trace_capacity: int = 64,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer(
            slow_query_ms=slow_query_ms,
            slow_query_log=SlowQueryLog(
                slow_query_log_path, max_bytes=slow_query_log_bytes
            ),
            capacity=trace_capacity,
        )
        registry = self.registry
        requests = registry.counter(
            "repro_requests_total",
            "Queries accepted by the broker, by request kind.",
            labelnames=("kind",),
        )
        self.requests_top_k = requests.labels(kind="top_k")
        self.requests_score = requests.labels(kind="score")
        self.requests_shed = registry.counter(
            "repro_requests_shed_total",
            "Requests rejected at admission because the broker queue "
            "was at max_queue_depth (answered 429 + Retry-After).",
        )
        self.deadline_exceeded = registry.counter(
            "repro_deadline_exceeded_total",
            "Requests whose per-request deadline expired before the "
            "answer was rendered (answered 504).",
        )
        self.request_errors = registry.counter(
            "repro_request_errors_total",
            "Requests that resolved to an error.",
        )
        self.request_duration = registry.histogram(
            "repro_request_duration_seconds",
            "End-to-end broker latency per request "
            "(enqueue to future resolution).",
        )
        self.coalesce_wait = registry.histogram(
            "repro_coalesce_wait_seconds",
            "Time a request waited in the queue for its micro-batch "
            "to dispatch.",
        )
        self.batch_compute = registry.histogram(
            "repro_batch_compute_seconds",
            "Compute time per dispatched micro-batch (blocked "
            "column walk and ranking).",
        )
        self.batch_size = registry.histogram(
            "repro_batch_size",
            "Requests per dispatched micro-batch.",
            buckets=BATCH_SIZE_BUCKETS,
        )
        self.render_seconds = registry.histogram(
            "repro_render_seconds",
            "Per-request time after compute: result-cache insert "
            "and answer hand-off (ranking runs inside compute).",
        )
        self.shard_dispatch = registry.histogram(
            "repro_shard_dispatch_seconds",
            "Time per shard dispatched to a worker thread.",
            labelnames=("worker",),
        )
        self.swap_stage = registry.histogram(
            "repro_swap_stage_seconds",
            "Snapshot hot-swap stage durations, by maintenance path.",
            labelnames=("kind", "stage"),
        )
        registry.counter_fn(
            "repro_slow_queries_total",
            "Finished traces at or above the slow-query threshold.",
            lambda: self.tracer.slow_queries,
        )

    # ------------------------------------------------------------------
    # tracing passthrough
    # ------------------------------------------------------------------
    def start_trace(self, kind: str) -> Trace:
        return self.tracer.start(kind)

    def finish_trace(self, trace, status: str = "ok") -> None:
        if trace is not None:
            self.tracer.finish(trace, status)

    # ------------------------------------------------------------------
    # swap instrumentation (SnapshotManager.swap_observer hook)
    # ------------------------------------------------------------------
    def observe_swap(self, row: dict) -> None:
        """Feed one recorded swap's stage timings into the histogram."""
        kind = row.get("kind", "full")
        for stage in ("build_s", "commit_s", "total_s"):
            self.swap_stage.labels(
                kind=kind, stage=stage[:-2]
            ).observe(row.get(stage, 0.0))

    # ------------------------------------------------------------------
    # pull-time series over the existing stats objects
    # ------------------------------------------------------------------
    def bind_service(self, service) -> None:
        """Register callback series reading ``service``'s layers.

        Call once, after the service has built its broker, cache,
        snapshot manager, and cluster router. Every series here is
        computed at scrape time — zero hot-path cost.
        """
        registry = self.registry
        broker = service.broker
        for field, help_text in (
            ("requests", "Requests the broker accepted."),
            ("dispatched", "Requests dispatched in micro-batches."),
            ("batches", "Micro-batches dispatched."),
            ("coalesced_requests",
             "Requests that shared a batch with at least one other."),
            ("cache_hits", "Requests served from the result cache."),
            ("errors", "Requests that failed inside the broker."),
            ("abandoned_batches",
             "Batches whose every member passed its deadline while "
             "the compute ran (left to finish on its thread)."),
        ):
            registry.counter_fn(
                f"repro_broker_{field}_total",
                help_text,
                (lambda f=field: getattr(broker.stats, f)),
            )
        registry.gauge_fn(
            "repro_broker_largest_batch",
            "Largest micro-batch dispatched so far.",
            lambda: broker.stats.largest_batch,
        )
        registry.gauge_fn(
            "repro_broker_mean_batch_size",
            "Mean requests per dispatched micro-batch.",
            lambda: broker.stats.mean_batch_size,
        )
        registry.gauge_fn(
            "repro_queue_depth",
            "Requests waiting in the broker's admission queue.",
            lambda: broker.queue_depth,
        )
        registry.gauge_fn(
            "repro_canary_active",
            "1 while a blue-green canary is receiving traffic.",
            lambda: 1.0 if broker.canary is not None else 0.0,
        )
        registry.gauge_fn(
            "repro_canary_error_delta",
            "Green error rate minus blue error rate for the most "
            "recent canary (0 before the first canary).",
            lambda: self._canary_error_delta(service),
        )
        registry.gauge_fn(
            "repro_canary_p95_ratio",
            "Green p95 latency over blue p95 for the most recent "
            "canary (0 before the first canary).",
            lambda: self._canary_p95_ratio(service),
        )
        if service.cache is not None:
            cache = service.cache
            for field, help_text in (
                ("hits", "Result-cache hits."),
                ("misses", "Result-cache misses."),
                ("evictions", "Result-cache LRU evictions."),
            ):
                registry.counter_fn(
                    f"repro_cache_{field}_total",
                    help_text,
                    (lambda f=field: getattr(cache.stats, f)),
                )
            registry.gauge_fn(
                "repro_cache_entries",
                "Rendered answers currently cached.",
                lambda: cache.stats.entries,
            )
        snapshots = service.snapshots
        snapshots.swap_observer = self.observe_swap
        for field, help_text in (
            ("builds", "Replacement snapshot builds."),
            ("swaps", "Completed snapshot hot-swaps."),
            ("delta_swaps",
             "Mutations that took the O(delta) surgery path."),
            ("full_swaps", "Mutations that took the full rebuild."),
            ("delta_fallbacks",
             "Delta-path failures degraded to a full rebuild."),
            ("index_loads", "Persistent-index adoptions at build."),
            ("index_saves", "Persistent-index writes."),
            ("index_load_errors",
             "Unreadable persistent-index files skipped."),
        ):
            registry.counter_fn(
                f"repro_snapshot_{field}_total",
                help_text,
                (lambda f=field: getattr(snapshots, f)),
            )
        registry.gauge_fn(
            "repro_snapshot_seq",
            "Sequence number of the serving snapshot.",
            lambda: snapshots.current.seq,
        )
        registry.gauge_fn(
            "repro_snapshot_chain_depth",
            "Delta generations stacked on the current base index.",
            lambda: snapshots.current.chain_depth,
        )
        registry.gauge_fn(
            "repro_graph_nodes",
            "Nodes in the serving snapshot's graph.",
            lambda: snapshots.current.graph.num_nodes,
        )
        registry.gauge_fn(
            "repro_graph_edges",
            "Edges in the serving snapshot's graph.",
            lambda: snapshots.current.graph.num_edges,
        )
        # engine series read the *current* snapshot's stats — the one
        # engine every worker answers from. They are gauges, not
        # counters, because a hot-swap replaces the engine and resets
        # them (documented in docs/observability.md)
        for field, help_text in (
            ("hits", "Reads joining an in-flight compute (current engine)."),
            ("misses", "Reads that started a compute (current engine)."),
            ("column_computes",
             "Fresh columns computed (current engine)."),
            ("transition_builds",
             "Transition-matrix builds (current engine)."),
            ("compression_builds",
             "Biclique compression builds (current engine)."),
            ("matrix_builds",
             "Dense similarity-matrix builds (current engine)."),
            ("walk_builds", "Walk-index builds (current engine)."),
            ("index_adoptions",
             "Persistent-index adoptions (current engine)."),
            ("invalidations",
             "Cache invalidations (current engine)."),
        ):
            registry.gauge_fn(
                f"repro_engine_{field}",
                help_text,
                (lambda f=field: getattr(
                    snapshots.current.engine.stats, f
                )),
            )
        registry.counter_fn(
            "repro_approx_samples_drawn_total",
            "Monte-Carlo source samples merged by the approx "
            "estimator (empty unless mode=approx).",
            lambda: self._approx_samples(snapshots),
        )
        router = service.cluster
        for field, help_text in (
            ("batches_routed", "Micro-batches routed to shards."),
            ("shards_dispatched", "Shards dispatched to workers."),
        ):
            registry.counter_fn(
                f"repro_cluster_{field}_total",
                help_text,
                (lambda f=field: getattr(router, f)),
            )
        registry.gauge_fn(
            "repro_cluster_workers",
            "Configured worker threads.",
            lambda: router.pool.size,
        )
        for name, key, help_text in (
            ("shards", "shards_served", "Shards each worker served."),
            ("columns_served", "columns_served",
             "Distinct query columns in the shards each worker "
             "served."),
            ("tasks", "tasks_served",
             "Top-k / score tasks each worker answered."),
        ):
            registry.counter_fn(
                f"repro_worker_{name}_total",
                help_text,
                (lambda k=key: [
                    ({"worker": str(w["index"])}, w[k])
                    for w in router.pool.worker_status()
                ]),
            )
        started = time.monotonic()
        registry.gauge_fn(
            "repro_uptime_seconds",
            "Seconds since this service registered its metrics.",
            lambda: time.monotonic() - started,
        )

    @staticmethod
    def _canary_error_delta(service) -> float:
        canary = service.canary_status()
        if canary is None:
            return 0.0
        rates = canary["error_rate"]
        return rates["green"] - rates["blue"]

    @staticmethod
    def _canary_p95_ratio(service) -> float:
        canary = service.canary_status()
        if canary is None:
            return 0.0
        p95 = canary["p95_ms"]
        return p95["green"] / p95["blue"] if p95["blue"] else 0.0

    @staticmethod
    def _approx_samples(snapshots):
        status = snapshots.current.engine.approx_status()
        if not status:
            return []
        return [({}, status["estimator"].get("samples_drawn", 0))]

    # ------------------------------------------------------------------
    # exposition
    # ------------------------------------------------------------------
    def render(self) -> str:
        """The Prometheus text document (the ``/metrics`` body)."""
        return self.registry.render()

    def describe(self) -> dict:
        """JSON-ready tracer/slow-log counters for ``/status``."""
        return {"enabled": True, "tracing": self.tracer.describe()}
