"""Load generation for the serving subsystem, with latency histograms.

Where :mod:`repro.bench.runner` times *kernels*, this module measures
the *service*: it stands up an in-process
:class:`~repro.serve.ServingService`, fires ``clients`` concurrent
request streams at it, and records per-request latency percentiles
(p50/p95/p99), a log-bucketed latency histogram, throughput, and the
broker's coalescing evidence. A sequential baseline — the same request
sequence served one at a time by the per-request ``single_source``
path, sharing the same precomputed ``Q`` / ``Q^T`` — anchors the
derived ``speedup_throughput`` ratio, which is machine-independent in
the same way the runner's batching speedups are.

``python -m repro.bench --serve`` embeds this document under the
``"serving"`` key of ``BENCH_<tag>.json``; ``--telemetry`` runs
:func:`run_telemetry_overhead` — the same coalesced workload served
with the observability stack enabled and disabled — and gates the
relative p50 cost of metrics + tracing (under the ``"telemetry"``
key).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "LATENCY_BUCKETS_MS",
    "LatencyStats",
    "run_cluster_scaling",
    "run_serving_load",
    "run_telemetry_overhead",
]

#: Upper edges (ms) of the latency histogram's log-spaced buckets; the
#: final implicit bucket is "slower than the last edge".
LATENCY_BUCKETS_MS = (
    0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
    128.0, 256.0, 512.0, 1024.0,
)


@dataclass(frozen=True)
class LatencyStats:
    """Percentiles and a log-bucketed histogram of request latencies."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    histogram: dict

    @classmethod
    def from_seconds(cls, seconds: Sequence[float]) -> "LatencyStats":
        if not len(seconds):
            raise ValueError("no latency samples")
        ms = np.asarray(seconds, dtype=np.float64) * 1e3
        edges = np.asarray(LATENCY_BUCKETS_MS)
        counts = np.histogram(
            ms, bins=np.concatenate(([0.0], edges, [np.inf]))
        )[0]
        # numpy bins are half-open [a, b): label them accordingly
        histogram = {
            f"<{edge:g}ms": int(counts[i])
            for i, edge in enumerate(edges)
        }
        histogram[f">={edges[-1]:g}ms"] = int(counts[-1])
        return cls(
            count=int(ms.size),
            mean_ms=float(ms.mean()),
            p50_ms=float(np.percentile(ms, 50)),
            p95_ms=float(np.percentile(ms, 95)),
            p99_ms=float(np.percentile(ms, 99)),
            max_ms=float(ms.max()),
            histogram=histogram,
        )

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _request_stream(
    num_nodes: int,
    clients: int,
    requests_per_client: int,
    seed: int,
) -> tuple[list[list[int]], list[int]]:
    """Distinct-leaning query assignments, one list per client.

    Queries are drawn without replacement while the pool lasts (the
    worst case for any cache, the pure test of coalescing), recycling
    only when the workload exceeds the node count.
    """
    rng = np.random.default_rng(seed)
    total = clients * requests_per_client
    pool = rng.permutation(num_nodes)
    picks = [int(pool[i % num_nodes]) for i in range(total)]
    streams = [
        picks[i * requests_per_client:(i + 1) * requests_per_client]
        for i in range(clients)
    ]
    # untimed warmup queries, disjoint from the timed workload when
    # the graph is big enough (so warmup never pre-fills its columns)
    warmup = [
        int(pool[(total + i) % num_nodes]) for i in range(clients)
    ]
    return streams, warmup


def _drive_coalesced(
    service, streams: list[list[int]], warm_queries: list[int], k: int
) -> tuple[float, list[float]]:
    """Fire the client streams at ``service``; (wall, latencies).

    Runs an untimed warmup round over the disjoint ``warm_queries``
    first — spinning the executor threads and the broker path once —
    so the timed window measures steady-state serving.
    """
    latencies: list[float] = []

    async def client(stream: list[int]) -> list[float]:
        lat = []
        for q in stream:
            t0 = time.perf_counter()
            await service.top_k(q, k=k)
            lat.append(time.perf_counter() - t0)
        return lat

    async def drive() -> float:
        async with service:
            await asyncio.gather(
                *(service.top_k(q, k=k) for q in warm_queries)
            )
            t0 = time.perf_counter()
            per_client = await asyncio.gather(
                *(client(stream) for stream in streams)
            )
            wall = time.perf_counter() - t0
        for lat in per_client:
            latencies.extend(lat)
        return wall

    wall = asyncio.run(drive())
    return wall, latencies


def run_serving_load(
    nodes: int = 2000,
    edges: int = 12000,
    *,
    clients: int = 32,
    requests_per_client: int = 4,
    k: int = 10,
    num_terms: int = 10,
    measure: str = "gSR*",
    c: float = 0.6,
    dtype: str = "float64",
    max_batch: int = 32,
    max_wait_ms: float = 2.0,
    cache_entries: int = 0,
    seed: int = 42,
) -> dict:
    """Measure coalesced serving against the sequential baseline.

    Builds a seeded random digraph, then times two servings of the
    identical request sequence (``clients x requests_per_client``
    top-k queries over distinct-leaning query nodes):

    * **sequential baseline** — one ``single_source`` walk plus
      ranking per request, back to back, with ``Q`` / ``Q^T`` prebuilt
      (the strongest per-request serving loop available before the
      broker existed);
    * **coalesced service** — ``clients`` concurrent async streams
      submitting to a :class:`~repro.serve.ServingService`, whose
      broker batches them into blocked multi-source calls.

    The result cache is disabled by default (``cache_entries=0``) so
    the measured speedup isolates coalescing rather than memoization.
    Returns a JSON-ready document with both sides' throughput and
    latency statistics, the broker stats, and the derived
    ``speedup_throughput``.
    """
    from repro.core.queries import single_source
    from repro.engine.results import Ranking
    from repro.graph.generators import random_digraph
    from repro.graph.matrices import backward_transition_matrix
    from repro.serve.service import ServingService

    graph = random_digraph(nodes, edges, seed=seed)
    streams, warm_queries = _request_stream(
        graph.num_nodes, clients, requests_per_client, seed
    )
    flat_requests = [q for stream in streams for q in stream]

    # --- sequential baseline: per-request single_source + ranking ---
    transition = backward_transition_matrix(graph, dtype=dtype)
    transition_t = transition.T.tocsr()
    for q in warm_queries[:4]:  # untimed: BLAS / cache warmup
        single_source(
            graph, q, c, num_terms,
            transition=transition, transition_t=transition_t,
            dtype=dtype,
        )
    base_latencies: list[float] = []
    base_start = time.perf_counter()
    for q in flat_requests:
        t0 = time.perf_counter()
        scores = single_source(
            graph, q, c, num_terms,
            transition=transition, transition_t=transition_t,
            dtype=dtype,
        )
        Ranking.from_scores(scores, query=q, k=k)
        base_latencies.append(time.perf_counter() - t0)
    base_wall = time.perf_counter() - base_start

    # --- coalesced service: concurrent clients through the broker ---
    service = ServingService(
        graph,
        measure=measure,
        c=c,
        num_iterations=num_terms,
        dtype=dtype,
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
        cache_entries=cache_entries,
    )
    service.warmup()  # both sides start with Q / Q^T prebuilt
    serve_wall, latencies = _drive_coalesced(
        service, streams, warm_queries, k
    )

    total = len(flat_requests)
    base_rps = total / base_wall if base_wall > 0 else float("inf")
    serve_rps = total / serve_wall if serve_wall > 0 else float("inf")
    return {
        "params": {
            "nodes": nodes,
            "edges": edges,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "total_requests": total,
            "k": k,
            "num_terms": num_terms,
            "measure": measure,
            "c": c,
            "dtype": dtype,
            "max_batch": max_batch,
            "max_wait_ms": max_wait_ms,
            "cache_entries": cache_entries,
            "seed": seed,
        },
        "sequential": {
            "wall_seconds": base_wall,
            "requests_per_second": base_rps,
            "latency": LatencyStats.from_seconds(
                base_latencies
            ).to_dict(),
        },
        "coalesced": {
            "wall_seconds": serve_wall,
            "requests_per_second": serve_rps,
            "latency": LatencyStats.from_seconds(latencies).to_dict(),
        },
        "speedup_throughput": (
            serve_rps / base_rps if base_rps > 0 else float("inf")
        ),
        "broker": service.broker.stats.snapshot(),
    }


def run_telemetry_overhead(
    nodes: int = 2000,
    edges: int = 12000,
    *,
    clients: int = 32,
    requests_per_client: int = 4,
    k: int = 10,
    num_terms: int = 10,
    measure: str = "gSR*",
    c: float = 0.6,
    dtype: str = "float64",
    max_batch: int = 32,
    max_wait_ms: float = 2.0,
    seed: int = 42,
    rounds: int = 3,
    overhead_limit: float | None = 0.05,
) -> dict:
    """Price the observability layer: telemetry on vs off, same load.

    Serves the identical coalesced workload (the ``--serve`` scenario,
    minus its sequential baseline) through two otherwise-identical
    :class:`~repro.serve.ServingService` instances — one built with
    ``telemetry=False`` (the :class:`~repro.obs.NullObservability`
    fast path), one with the full metrics + tracing stack — and
    compares p50 latency. Each round runs both sides, alternating
    which goes first so thermal / allocator drift cancels; the
    per-side p50 is the **median across rounds** (single p50s at
    millisecond latencies are too noisy to gate on).

    ``overhead_limit`` gates the relative p50 overhead
    (``enabled/disabled - 1``); ``None`` reports without gating (the
    quick preset — CI machines are too noisy for a 5% latency gate at
    CI scale). A consistency check always runs: after the final
    enabled round, the scraped registry's ``repro_requests_total``
    must equal the number of requests served, proving the metrics
    pipeline did not drop under load while being priced.
    """
    from repro.graph.generators import random_digraph
    from repro.serve.service import ServingService

    graph = random_digraph(nodes, edges, seed=seed)
    streams, warm_queries = _request_stream(
        graph.num_nodes, clients, requests_per_client, seed
    )
    total = clients * requests_per_client

    def one_run(telemetry: bool) -> tuple[LatencyStats, str]:
        service = ServingService(
            graph,
            measure=measure,
            c=c,
            num_iterations=num_terms,
            dtype=dtype,
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            cache_entries=0,
            telemetry=telemetry,
        )
        service.warmup()
        _, latencies = _drive_coalesced(
            service, streams, warm_queries, k
        )
        metrics_text = service.metrics_text()
        return LatencyStats.from_seconds(latencies), metrics_text

    p50s: dict[bool, list[float]] = {False: [], True: []}
    means: dict[bool, list[float]] = {False: [], True: []}
    enabled_metrics = ""
    for round_index in range(rounds):
        order = (
            (False, True) if round_index % 2 == 0 else (True, False)
        )
        for telemetry in order:
            stats, metrics_text = one_run(telemetry)
            p50s[telemetry].append(stats.p50_ms)
            means[telemetry].append(stats.mean_ms)
            if telemetry:
                enabled_metrics = metrics_text
    disabled_p50 = float(np.median(p50s[False]))
    enabled_p50 = float(np.median(p50s[True]))
    overhead = (
        enabled_p50 / disabled_p50 - 1.0
        if disabled_p50 > 0 else 0.0
    )
    requests_counted = 0.0
    for line in enabled_metrics.splitlines():
        if line.startswith("repro_requests_total"):
            requests_counted += float(line.rsplit(" ", 1)[1])
    checks = {
        # warmup round + timed workload, every one on the books
        "metrics_counted_every_request": (
            requests_counted == total + len(warm_queries)
        ),
    }
    if overhead_limit is not None:
        checks["telemetry_overhead_within_limit"] = (
            overhead <= overhead_limit
        )
    return {
        "params": {
            "nodes": nodes,
            "edges": edges,
            "clients": clients,
            "requests_per_client": requests_per_client,
            "total_requests": total,
            "k": k,
            "num_terms": num_terms,
            "dtype": dtype,
            "max_batch": max_batch,
            "max_wait_ms": max_wait_ms,
            "seed": seed,
            "rounds": rounds,
            "overhead_limit": overhead_limit,
        },
        "disabled": {
            "p50_ms": disabled_p50,
            "p50_ms_rounds": p50s[False],
            "mean_ms_rounds": means[False],
        },
        "enabled": {
            "p50_ms": enabled_p50,
            "p50_ms_rounds": p50s[True],
            "mean_ms_rounds": means[True],
        },
        "p50_overhead": overhead,
        "checks": checks,
    }


def run_cluster_scaling(
    nodes: int = 2000,
    edges: int = 12000,
    *,
    worker_counts: Sequence[int] = (1, 4),
    batches: int = 8,
    batch_size: int = 64,
    k: int = 10,
    num_terms: int = 10,
    measure: str = "gSR*",
    c: float = 0.6,
    dtype: str = "float64",
    seed: int = 42,
) -> dict:
    """Measure scale-out of the sharded thread pool.

    For each entry of ``worker_counts``, stands up a
    :class:`~repro.cluster.ThreadWorkerPool` behind a ``ShardRouter``
    over the same seeded random digraph and pushes the identical
    workload through it: ``batches`` micro-batches of ``batch_size``
    top-``k`` tasks over *distinct* query columns each (distinct so no
    memo hit hides compute), dispatched back to back
    through ``router.compute_tasks``. Pool startup and the warmup
    batch are excluded from the timed window — this isolates
    steady-state shard-parallel serving, which is what ``--workers K``
    buys over ``--workers 1``.

    The derived ``speedup_workers_<b>_vs_<a>`` ratio (last count vs
    first) is machine-independent *given enough cores*: K workers on
    >= K idle cores can approach ``Kx`` only as far as the kernels
    release the GIL. The compare gate therefore only enforces its
    floor when the recording machine actually has at least ``b`` CPUs
    (``machine.cpu_count`` in the bench document); on smaller
    machines the ratio is reported but cannot be meaningful. Returns
    a JSON-ready document with per-count throughput, per-batch
    latency statistics, and the speedup.
    """
    from repro.cluster import ShardRouter, ThreadWorkerPool
    from repro.engine import SimilarityConfig
    from repro.graph.generators import random_digraph
    from repro.serve import SnapshotManager

    worker_counts = tuple(int(w) for w in worker_counts)
    if len(worker_counts) < 2:
        raise ValueError("worker_counts needs at least two entries")
    graph = random_digraph(nodes, edges, seed=seed)
    config = SimilarityConfig(
        measure=measure, c=c, num_iterations=num_terms, dtype=dtype
    )
    rng = np.random.default_rng(seed)
    pool_size = (batches + 1) * batch_size
    picks = [
        int(q) for q in (
            rng.permutation(nodes)[:pool_size]
            if pool_size <= nodes
            else rng.integers(0, nodes, size=pool_size)
        )
    ]

    def tasks(ids):
        return [{"op": "top_k", "query": q, "k": k} for q in ids]

    warmup_batch = tasks(picks[:batch_size])
    workload = [
        tasks(picks[(i + 1) * batch_size:(i + 2) * batch_size])
        for i in range(batches)
    ]

    per_count: dict[str, dict] = {}
    for count in worker_counts:
        # a fresh snapshot per count: no memo hit from the last count
        snapshot = SnapshotManager(graph, config).current
        router = ShardRouter(ThreadWorkerPool(workers=count))
        start = time.perf_counter()
        router.start()
        startup = time.perf_counter() - start
        try:
            router.compute_tasks(snapshot, warmup_batch)  # untimed
            batch_seconds: list[float] = []
            wall_start = time.perf_counter()
            for batch in workload:
                t0 = time.perf_counter()
                results = router.compute_tasks(snapshot, batch)
                batch_seconds.append(time.perf_counter() - t0)
                if any(isinstance(r, Exception) for r in results):
                    raise RuntimeError(
                        f"failed tasks at workers={count}"
                    )
            wall = time.perf_counter() - wall_start
        finally:
            router.stop()
        total = batches * batch_size
        per_count[str(count)] = {
            "startup_seconds": startup,
            "wall_seconds": wall,
            "columns_per_second": total / wall if wall > 0 else 0.0,
            "batch_latency": LatencyStats.from_seconds(
                batch_seconds
            ).to_dict(),
            "shards_dispatched": router.shards_dispatched,
        }

    low, high = worker_counts[0], worker_counts[-1]
    low_rps = per_count[str(low)]["columns_per_second"]
    high_rps = per_count[str(high)]["columns_per_second"]
    return {
        "params": {
            "nodes": nodes,
            "edges": edges,
            "worker_counts": list(worker_counts),
            "batches": batches,
            "batch_size": batch_size,
            "total_columns": batches * batch_size,
            "k": k,
            "num_terms": num_terms,
            "measure": measure,
            "c": c,
            "dtype": dtype,
            "seed": seed,
        },
        "workers": per_count,
        "speedup_key": f"speedup_workers_{high}_vs_{low}",
        f"speedup_workers_{high}_vs_{low}": (
            high_rps / low_rps if low_rps > 0 else float("inf")
        ),
    }
