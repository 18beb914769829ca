"""Tests for :mod:`repro.cluster` — sharded serving, failure paths.

The happy-path tests share one module-scoped router; the
failure-injection and hot-swap tests build their own, on deliberately
small graphs.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.cluster import ClusterError, ShardRouter, ThreadWorkerPool
from repro.engine import SimilarityConfig, SimilarityEngine
from repro.graph.generators import random_digraph
from repro.serve import ServingService, SnapshotManager

CONFIG = SimilarityConfig(measure="gSR*", c=0.6, num_iterations=8)


def top_k_tasks(ids, k=5):
    return [{"op": "top_k", "query": q, "k": k} for q in ids]


def full_columns(router, seq, ids, num_nodes):
    """Every score of each query's column, via full-width rankings."""
    results = router.compute_tasks(seq, [
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
    router = ShardRouter(ThreadWorkerPool(workers=2), snapshots)
    router.start()
    yield graph, snapshots, router
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
    router = ShardRouter(ThreadWorkerPool(workers=1), snapshots)
    with pytest.raises(ClusterError, match="not started"):
        router.compute_tasks(0, top_k_tasks([0, 1]))


# ---------------------------------------------------------------------------
# sharded serving: parity + distribution
# ---------------------------------------------------------------------------
def test_sharded_columns_match_in_process_engine(
    cluster_env, reference_engine
):
    graph, _, router = cluster_env
    snapshot = router.pin()
    try:
        ids = list(range(0, 40))
        columns = full_columns(router, snapshot.seq, ids, graph.num_nodes)
    finally:
        router.unpin(snapshot.seq)
    for q in ids:
        np.testing.assert_array_equal(
            columns[q], reference_engine.single_source(q)
        )


def test_batch_is_sharded_across_every_worker(cluster_env):
    _, _, router = cluster_env
    snapshot = router.pin()
    try:
        router.compute_tasks(snapshot.seq, top_k_tasks(range(100, 140)))
    finally:
        router.unpin(snapshot.seq)
    status = router.pool.worker_status()
    assert all(w["alive"] for w in status)
    assert all(w["shards_served"] >= 1 for w in status)
    assert router.shards_dispatched >= 2


def test_small_batches_rotate_across_workers(cluster_env):
    """Size-1 batches must not all land on worker 0 (round-robin)."""
    _, _, router = cluster_env
    before = [
        w["shards_served"] for w in router.pool.worker_status()
    ]
    snapshot = router.pin()
    try:
        for q in range(60, 60 + 2 * router.pool.size):
            router.compute_tasks(snapshot.seq, top_k_tasks([q]))
    finally:
        router.unpin(snapshot.seq)
    after = [
        w["shards_served"] for w in router.pool.worker_status()
    ]
    assert all(b > a for a, b in zip(before, after)), (
        "single-query batches were not rotated across the pool"
    )


def test_duplicate_and_empty_batches(cluster_env):
    _, _, router = cluster_env
    snapshot = router.pin()
    try:
        results = router.compute_tasks(
            snapshot.seq, top_k_tasks([5, 5, 9, 5])
        )
        assert [r.query for r in results] == [5, 5, 9, 5]
        assert results[0] == results[1] == results[3]
        assert router.compute_tasks(snapshot.seq, []) == []
    finally:
        router.unpin(snapshot.seq)


# ---------------------------------------------------------------------------
# worker failure: crashed workers respawn, requests never drop
# ---------------------------------------------------------------------------
def test_killed_worker_is_respawned_and_shard_retried(cluster_env):
    _, _, router = cluster_env
    before = router.pool.describe()["respawns"]
    router.pool.kill_worker(0)
    snapshot = router.pin()
    try:
        results = router.compute_tasks(
            snapshot.seq, top_k_tasks(range(150, 190))
        )
    finally:
        router.unpin(snapshot.seq)
    assert [r.query for r in results] == list(range(150, 190))
    assert router.pool.describe()["respawns"] == before + 1
    assert router.shard_retries >= 1
    assert all(w["alive"] for w in router.pool.worker_status())


def test_kill_mid_batch_request_still_completes(cluster_env):
    _, _, router = cluster_env
    before = router.pool.describe()["respawns"]
    ids = list(range(190, 260))
    killer = threading.Thread(
        target=lambda: (time.sleep(0.005),
                        router.pool.kill_worker(1))
    )
    snapshot = router.pin()
    try:
        killer.start()
        first = router.compute_tasks(snapshot.seq, top_k_tasks(ids))
        killer.join()
        # whether the kill landed mid-shard or between batches, the
        # next batch must route through a healthy (respawned) worker
        second = router.compute_tasks(
            snapshot.seq, top_k_tasks(range(260, 290))
        )
    finally:
        router.unpin(snapshot.seq)
    assert [r.query for r in first] == ids
    assert [r.query for r in second] == list(range(260, 290))
    assert router.pool.describe()["respawns"] >= before + 1


# ---------------------------------------------------------------------------
# hot-swap: two-phase propagation, abort-on-failure
# ---------------------------------------------------------------------------
@pytest.fixture()
def swap_env():
    graph = random_digraph(120, 600, seed=11)
    snapshots = SnapshotManager(graph, CONFIG)
    router = ShardRouter(ThreadWorkerPool(workers=2), snapshots)
    snapshots.pre_swap = router.pre_swap
    snapshots.post_swap = router.post_swap
    router.start()
    yield graph, snapshots, router
    router.stop()


def test_two_phase_swap_propagates_to_all_workers(swap_env):
    graph, snapshots, router = swap_env
    n = graph.num_nodes
    base_seq = snapshots.current.seq
    snapshot = router.pin()
    old_columns = full_columns(router, snapshot.seq, [3], n)
    router.unpin(snapshot.seq)

    fresh = snapshots.mutate(add=[(0, 3), (1, 3), (2, 3)])
    assert fresh.seq == base_seq + 1
    status = router.pool.worker_status()
    assert all(w["current_seq"] == fresh.seq for w in status)

    pinned = router.pin()
    try:
        assert pinned.seq == fresh.seq
        new_columns = full_columns(router, pinned.seq, [3], n)
    finally:
        router.unpin(pinned.seq)
    # the mutation gave node 3 new in-links: its column must change
    assert not np.array_equal(new_columns[3], old_columns[3])
    expected = SimilarityEngine(
        fresh.graph, CONFIG
    ).single_source(3)
    np.testing.assert_array_equal(new_columns[3], expected)
    # the drained old generation is released from the workers
    gens = [w["generations"] for w in router.pool.worker_status()]
    assert all(g == [fresh.seq] for g in gens)


def test_failed_prepare_aborts_swap_and_old_snapshot_serves(
    swap_env, monkeypatch
):
    _, snapshots, router = swap_env
    base = snapshots.current

    def broken_prepare(snapshot):
        raise ClusterError("injected: workers cannot prepare")

    monkeypatch.setattr(router.pool, "prepare", broken_prepare)
    with pytest.raises(ClusterError, match="injected"):
        snapshots.mutate(add=[(0, 5)])
    # no swap happened; the old generation still answers queries
    assert snapshots.current is base
    snapshot = router.pin()
    try:
        results = router.compute_tasks(snapshot.seq, top_k_tasks([0, 1, 2]))
    finally:
        router.unpin(snapshot.seq)
    assert [r.query for r in results] == [0, 1, 2]


def test_aborted_prepare_unregisters_the_failed_generation(
    swap_env, monkeypatch
):
    """A failed swap must not poison later respawns with a bad gen."""
    from repro.engine.engine import SimilarityEngine as Engine

    _, snapshots, router = swap_env
    pool = router.pool
    # full rebuilds only: every from_index call below is the pool's
    snapshots.delta_mode = "off"
    adopt = Engine.from_index.__func__
    calls = []

    def fail_on_second_worker(cls, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ClusterError("injected: prepare failed")
        return adopt(cls, *args, **kwargs)

    monkeypatch.setattr(
        Engine, "from_index", classmethod(fail_on_second_worker)
    )
    with pytest.raises(ClusterError, match="injected"):
        snapshots.mutate(add=[(0, 5)])
    monkeypatch.undo()
    # the failed generation is gone from the replay set and every
    # worker, including the one whose engine was built
    assert pool.describe()["generations"] == [0]
    assert all(w["generations"] == [0] for w in pool.worker_status())
    # crash recovery replays only healthy generations
    pool.kill_worker(0)
    snapshot = router.pin()
    try:
        results = router.compute_tasks(
            snapshot.seq, top_k_tasks([0, 1, 2, 3])
        )
    finally:
        router.unpin(snapshot.seq)
    assert [r.query for r in results] == [0, 1, 2, 3]
    assert pool.worker_status()[0]["generations"] == [0]


def test_respawn_refused_after_stop():
    snapshots = SnapshotManager(
        random_digraph(30, 90, seed=2), CONFIG
    )
    router = ShardRouter(ThreadWorkerPool(workers=1), snapshots)
    router.start()
    router.stop()
    with pytest.raises(ClusterError, match="stopped"):
        router.pool.respawn(0)


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
    cluster = status["cluster"]
    assert cluster["pool"]["workers"] == 2
    assert cluster["shards_dispatched"] > 0
    assert all(
        w["current_seq"] == fresh.seq
        for w in cluster["worker_status"]
        if w["alive"]
    )
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
