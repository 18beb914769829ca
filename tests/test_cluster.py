"""Tests for :mod:`repro.cluster` — sharded serving, failure paths.

The happy-path tests share one module-scoped router; the
failure-injection and engine-sharing tests build their own, on
deliberately small graphs.
"""

from __future__ import annotations

import asyncio
import gc
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cluster import ClusterError, ShardRouter, ThreadWorkerPool
from repro.engine import SimilarityConfig, SimilarityEngine
from repro.graph.generators import random_digraph
from repro.serve import ServingService, SnapshotManager

CONFIG = SimilarityConfig(measure="gSR*", c=0.6, num_iterations=8)


def top_k_tasks(ids, k=5):
    return [{"op": "top_k", "query": q, "k": k} for q in ids]


def full_columns(router, snapshot, ids, num_nodes):
    """Every score of each query's column, via full-width rankings."""
    results = router.compute_tasks(snapshot, [
        {"op": "top_k", "query": q, "k": num_nodes,
         "include_query": True}
        for q in ids
    ])
    columns = {}
    for q, ranking in zip(ids, results):
        column = np.zeros(num_nodes)
        for node, score in ranking:
            column[node] = score
        columns[q] = column
    return columns


@pytest.fixture(scope="module")
def cluster_env():
    """A started 2-worker router over a 300-node graph."""
    graph = random_digraph(300, 1800, seed=7)
    snapshots = SnapshotManager(graph, CONFIG)
    router = ShardRouter(ThreadWorkerPool(workers=2))
    router.start()
    yield graph, snapshots.current, router
    router.stop()


@pytest.fixture(scope="module")
def reference_engine(cluster_env):
    graph, _, _ = cluster_env
    return SimilarityEngine(graph, CONFIG)


def test_pool_rejects_bad_worker_count():
    with pytest.raises(ValueError, match="workers"):
        ThreadWorkerPool(workers=0)


def test_router_compute_requires_start():
    snapshots = SnapshotManager(random_digraph(20, 60, seed=1), CONFIG)
    router = ShardRouter(ThreadWorkerPool(workers=1))
    with pytest.raises(ClusterError, match="not started"):
        router.compute_tasks(snapshots.current, top_k_tasks([0, 1]))


# ---------------------------------------------------------------------------
# sharded serving: parity + distribution
# ---------------------------------------------------------------------------
def test_sharded_columns_match_in_process_engine(
    cluster_env, reference_engine
):
    graph, snapshot, router = cluster_env
    ids = list(range(0, 40))
    columns = full_columns(router, snapshot, ids, graph.num_nodes)
    for q in ids:
        np.testing.assert_array_equal(
            columns[q], reference_engine.single_source(q)
        )


def test_batch_is_sharded_across_every_worker(cluster_env):
    _, snapshot, router = cluster_env
    router.compute_tasks(snapshot, top_k_tasks(range(100, 140)))
    status = router.pool.worker_status()
    assert all(w["shards_served"] >= 1 for w in status)
    assert router.shards_dispatched >= 2


def test_small_batches_rotate_across_workers(cluster_env):
    """Size-1 batches must not all land on worker 0 (round-robin)."""
    _, snapshot, router = cluster_env
    before = [
        w["shards_served"] for w in router.pool.worker_status()
    ]
    for q in range(60, 60 + 2 * router.pool.size):
        router.compute_tasks(snapshot, top_k_tasks([q]))
    after = [
        w["shards_served"] for w in router.pool.worker_status()
    ]
    assert all(b > a for a, b in zip(before, after)), (
        "single-query batches were not rotated across the pool"
    )


def test_duplicate_and_empty_batches(cluster_env):
    _, snapshot, router = cluster_env
    results = router.compute_tasks(snapshot, top_k_tasks([5, 5, 9, 5]))
    assert [r.query for r in results] == [5, 5, 9, 5]
    assert results[0] == results[1] == results[3]
    assert router.compute_tasks(snapshot, []) == []


# ---------------------------------------------------------------------------
# a shard that raises fails only its own tasks
# ---------------------------------------------------------------------------
def test_raising_shard_fails_only_its_own_tasks(cluster_env):
    """Four tasks over two workers split [0, 1] / [2, 3]: the shard
    holding the poisoned query 2 fails both its tasks, and the other
    shard's answers stand."""
    graph, _, _ = cluster_env
    snapshots = SnapshotManager(graph, CONFIG)
    engine = snapshots.current.engine
    columns = engine.columns

    def poisoned(queries, *args, **kwargs):
        if 2 in queries:
            raise RuntimeError("injected kernel failure")
        return columns(queries, *args, **kwargs)

    engine.columns = poisoned
    router = ShardRouter(ThreadWorkerPool(workers=2))
    router.start()
    try:
        results = router.compute_tasks(
            snapshots.current, top_k_tasks([0, 1, 2, 3])
        )
    finally:
        router.stop()
    assert [r.query for r in results[:2]] == [0, 1]
    assert all(isinstance(r, RuntimeError) for r in results[2:])
    assert str(results[2]) == "injected kernel failure"


# ---------------------------------------------------------------------------
# one engine per snapshot: workers share its artifacts and stats
# ---------------------------------------------------------------------------
def serve_reads(config, workers, reads):
    """Serve ``reads`` concurrently through a fresh service; its
    /status document."""
    graph = random_digraph(120, 600, seed=29)

    async def drive():
        async with ServingService(
            graph, config, workers=workers, cache_entries=0,
            telemetry=False,
        ) as service:
            await asyncio.gather(*(service.top_k(q, k=5) for q in reads))
            return service.status()

    return asyncio.run(drive())


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_worker_reads_count_in_the_snapshot_engine(mode):
    """/status, repro_engine_* and repro_approx_* see worker work."""
    config = CONFIG.replace(mode=mode, seed=5)
    reads = list(range(40))
    local = serve_reads(config, 0, reads)
    sharded = serve_reads(config, 2, reads)
    assert sharded["cluster"]["shards_dispatched"] >= 2
    for field in ("misses", "hits", "column_computes"):
        assert sharded["engine"][field] == local["engine"][field], field
    assert sharded["engine"]["column_computes"] == 40
    if mode == "approx":
        estimator = sharded["approx"]["estimator"]
        assert estimator["columns"] == 40
        assert estimator == local["approx"]["estimator"]


def test_one_compute_per_column_across_workers():
    """Two lanes reading one query at once compute it once: the lane
    that comes second joins the first one's compute."""
    snapshots = SnapshotManager(random_digraph(120, 600, seed=29), CONFIG)
    engine = snapshots.current.engine
    gate, entered = threading.Event(), threading.Event()
    compute = engine._compute_columns

    def gated_compute(queries):
        entered.set()
        gate.wait(5)
        return compute(queries)

    engine._compute_columns = gated_compute
    router = ShardRouter(ThreadWorkerPool(workers=2))
    router.start()
    try:
        with ThreadPoolExecutor(1) as caller:
            # [7, 7] splits into one shard per lane
            answer = caller.submit(
                router.compute_tasks, snapshots.current, top_k_tasks([7, 7])
            )
            assert entered.wait(5)
            deadline = time.monotonic() + 5
            while engine.stats.hits < 1 and time.monotonic() < deadline:
                time.sleep(0.001)  # until the second lane has joined
            gate.set()
            first, second = answer.result(10)
        served = [w["shards_served"] for w in router.pool.worker_status()]
    finally:
        gate.set()
        router.stop()
    assert served == [1, 1]
    assert first.to_pairs() == second.to_pairs()
    assert engine.stats.column_computes == 1
    assert (engine.stats.misses, engine.stats.hits) == (1, 1)
    assert len(engine._caches.columns) == 0  # served reads skip the memo


@pytest.mark.parametrize(
    "mode, nodes, edges",
    [("exact", 20000, 100000), ("approx", 2000, 10000)],
    ids=["exact", "approx"],
)
def test_serving_reads_hold_no_columns(mode, nodes, edges):
    """128 distinct concurrent reads at workers=2 leave less than 16
    dense columns' worth of numpy buffers behind: served columns are
    dropped once answered, not kept in the engine's column memo."""
    graph = random_digraph(nodes, edges, seed=37)
    config = CONFIG.replace(mode=mode, seed=5)
    # numpy's own trace domain: only array buffers, so the answers,
    # traces and cache entries (O(k) per read, not O(n)) do not count
    arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)

    async def drive():
        async with ServingService(graph, config, workers=2) as service:
            await service.top_k(0, k=10)  # artifacts built before tracing
            tracemalloc.start()
            try:
                await asyncio.gather(
                    *(service.top_k(q, k=10) for q in range(1, 129))
                )
                gc.collect()
                snapshot = tracemalloc.take_snapshot()
            finally:
                tracemalloc.stop()
        return sum(t.size for t in snapshot.filter_traces([arrays]).traces)

    held = asyncio.run(drive())
    assert held < 16 * nodes * 8, f"{held / (nodes * 8):.1f} columns held"


def test_one_engine_per_snapshot(monkeypatch):
    """Start plus one mutation at workers=2 builds two engines."""
    built = []
    init = SimilarityEngine.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SimilarityEngine, "__init__", counting_init)
    service = ServingService(
        random_digraph(80, 400, seed=31), CONFIG, workers=2,
        cache_entries=0,
    )
    service.start_background()
    try:
        service.top_k_sync(3, k=3)
        fresh = service.mutate(add=[(0, 3)])
        service.top_k_sync(3, k=3)
    finally:
        service.close()
    assert len(built) == 2
    assert built[-1] is fresh.engine
    assert fresh.engine.stats.column_computes == 1


@pytest.mark.parametrize("memoize", [True, False])
def test_inflight_column_is_computed_once(memoize):
    """A column another thread is computing is awaited, not redone."""
    engine = SimilarityEngine(random_digraph(60, 300, seed=33), CONFIG)
    gate, entered = threading.Event(), threading.Event()
    compute = engine._compute_columns

    def slow_compute(queries):
        entered.set()
        gate.wait(5)
        return compute(queries)

    engine._compute_columns = slow_compute
    first = threading.Thread(
        target=engine.columns, args=([4],), kwargs={"memoize": memoize}
    )
    first.start()
    assert entered.wait(5)
    awaited = {}
    waiter = threading.Thread(
        target=lambda: awaited.update(
            engine.columns([4, 5], memoize=memoize)
        )
    )
    waiter.start()
    time.sleep(0.05)
    gate.set()
    for thread in (first, waiter):
        thread.join(10)
        assert not thread.is_alive()
    assert engine.stats.column_computes == 2  # 4 once, 5 once
    assert (engine.stats.misses, engine.stats.hits) == (2, 1)
    assert len(engine._caches.columns) == (2 if memoize else 0)
    assert not engine._caches.inflight
    if memoize:  # the claim's waiter holds the memo's own copy
        assert awaited[4] is engine._caches.columns.get(4)


@pytest.mark.parametrize("memoize", [True, False])
def test_failed_compute_reaches_its_waiters(memoize):
    engine = SimilarityEngine(random_digraph(60, 300, seed=34), CONFIG)
    gate, entered = threading.Event(), threading.Event()

    def broken(queries):
        entered.set()
        gate.wait(5)
        raise RuntimeError("injected kernel failure")

    engine._compute_columns = broken
    errors = []

    def read():
        try:
            engine.columns([4], memoize=memoize)
        except RuntimeError as exc:
            errors.append(exc)

    first = threading.Thread(target=read)
    first.start()
    assert entered.wait(5)
    waiter = threading.Thread(target=read)
    waiter.start()
    time.sleep(0.05)
    gate.set()
    for thread in (first, waiter):
        thread.join(10)
        assert not thread.is_alive()
    assert [str(e) for e in errors] == ["injected kernel failure"] * 2
    # the failed claim is gone: the next read computes afresh
    del engine._compute_columns
    assert engine.columns([4], memoize=memoize)[4].shape == (60,)
    assert engine.stats.column_computes == 1
    assert len(engine._caches.columns) == (1 if memoize else 0)


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_concurrent_reads_keep_shared_counters_exact(mode):
    """More threads than cores on one engine: no lost update."""
    graph = random_digraph(80, 400, seed=36)
    config = CONFIG.replace(mode=mode, seed=5)
    shared = SimilarityEngine(graph, config)
    reference = SimilarityEngine(graph, config)
    reference.columns(range(80))
    pairs = [(i % 80, (7 * i) % 80) for i in range(400)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            list(pool.map(shared.columns, pairs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    stats = shared.stats
    assert stats.column_computes == stats.misses == 80
    assert stats.hits + stats.misses == sum(len(set(p)) for p in pairs)
    if mode == "approx":
        assert (
            shared._approx_estimator.stats
            == reference._approx_estimator.stats
        )


def test_invalidate_mid_compute_keeps_stale_column_out():
    engine = SimilarityEngine(random_digraph(60, 300, seed=35), CONFIG)
    compute = engine._compute_columns

    def invalidating_compute(queries):
        engine.invalidate()  # e.g. a mutation lands mid-kernel
        return compute(queries)

    engine._compute_columns = invalidating_compute
    engine.columns([4])
    assert 4 not in engine._caches.columns
    assert not engine._caches.inflight


# ---------------------------------------------------------------------------
# the full service: concurrent traffic + mutation, zero failures
# ---------------------------------------------------------------------------
def test_service_with_workers_serves_and_swaps_mid_traffic():
    graph = random_digraph(120, 600, seed=13)
    service = ServingService(
        graph,
        CONFIG,
        workers=2,
        max_batch=16,
        max_wait_ms=1.0,
        cache_entries=0,
    )

    async def drive():
        async with service:
            loop = asyncio.get_running_loop()
            first = asyncio.gather(
                *(service.top_k(q, k=5) for q in range(40))
            )
            # hot-swap while those queries are in flight
            mutated = loop.run_in_executor(
                None, service.mutate, [(0, 9), (1, 9)]
            )
            rankings = await first
            fresh = await mutated
            after = await asyncio.gather(
                *(service.top_k(q, k=5) for q in range(40, 60))
            )
            return rankings, fresh, after, service.status()

    rankings, fresh, after, status = asyncio.run(drive())
    assert len(rankings) == 40 and len(after) == 20
    assert all(len(r) == 5 for r in rankings + after)
    assert fresh.seq == 1
    assert status["broker"]["errors"] == 0
    assert status["snapshots"]["current"]["seq"] == fresh.seq
    cluster = status["cluster"]
    assert cluster["pool"]["workers"] == 2
    assert cluster["shards_dispatched"] > 0
    assert len(cluster["worker_status"]) == 2
    service.close()


def test_index_path_written_after_swap_with_workers(tmp_path):
    """workers=K + index_path: the manager persists every generation.

    Warmup writes the base container. A small mutation rides the
    delta path: the base file stays untouched and a chained segment
    lands beside it, and the chain must fingerprint-match the
    *served* graph after the mutation — a restarted manager
    warm-loads base + segment without rebuilding.
    """
    from repro.index import SimilarityIndex
    from repro.index.delta import delta_sibling_path

    graph = random_digraph(80, 400, seed=19)
    path = tmp_path / "g.simidx"
    service = ServingService(
        graph, CONFIG, workers=1, cache_entries=0,
        index_path=str(path),
    )
    service.start_background()
    try:
        service.warmup()
        assert path.exists()
        saves_after_warmup = service.snapshots.index_saves
        base_graph = service.snapshots.current.graph.copy()
        fresh = service.mutate(add=[(0, 9)])
        # the delta swap leaves the base container alone and chains
        # one persisted segment beside it
        base = SimilarityIndex.load(path)
        assert base.matches(base_graph, service.config)
        assert delta_sibling_path(path, 1).exists()
        # exactly one more persist per mutation (the segment)
        assert service.snapshots.index_saves == saves_after_warmup + 1
        # the persisted chain matches the served graph: a restart
        # over the mutated content warm-loads instead of rebuilding
        restarted = SnapshotManager(
            fresh.graph.copy(), CONFIG, index_path=path
        )
        assert restarted.index_loads == 1
        assert restarted.delta_segments_loaded == 1
    finally:
        service.close()


def test_service_background_sync_with_workers():
    graph = random_digraph(80, 400, seed=17)
    service = ServingService(
        graph, CONFIG, workers=1, cache_entries=0
    )
    service.start_background()
    try:
        ranking = service.top_k_sync(4, k=3)
        assert len(ranking) == 3
        score = service.score_sync(2, 3)
        expected = SimilarityEngine(graph, CONFIG).score(2, 3)
        assert score == pytest.approx(expected, abs=1e-12)
        assert service.status()["cluster"]["pool"]["started"]
    finally:
        service.close()
    assert not service.cluster.started
