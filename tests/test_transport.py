"""Tests for the shard answer path and the thread worker backend.

Covers :func:`~repro.engine.results.run_tasks` (the one function every
batch is answered by, in-process or on a worker), worker-side top-k
tie-break parity, the :class:`~repro.cluster.ThreadWorkerPool`
backend and the ``backend`` keyword, and the rebalanced
:meth:`~repro.cluster.ShardRouter._split`.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.cluster import ShardRouter, ThreadWorkerPool, run_tasks
from repro.cluster.blas import usable_cores
from repro.engine import SimilarityConfig, SimilarityEngine
from repro.graph import DiGraph
from repro.graph.generators import random_digraph
from repro.serve import ServingService, SnapshotManager

CONFIG = SimilarityConfig(measure="gSR*", c=0.6, num_iterations=8)


def tie_heavy_graph() -> DiGraph:
    """A complete bipartite digraph: every left node is structurally
    identical, so top-k rankings are wall-to-wall score ties — the
    regime where worker-side selection must reproduce the in-process
    tie-break exactly. Labelled, so label attachment is checked too."""
    left, right = 6, 5
    edges = [(u, left + v) for u in range(left) for v in range(right)]
    labels = [f"n{i}" for i in range(left + right)]
    return DiGraph(left + right, edges=edges, labels=labels)


# ---------------------------------------------------------------------------
# the answer path
# ---------------------------------------------------------------------------
def test_run_tasks_matches_engine_and_isolates_bad_tasks():
    engine = SimilarityEngine(tie_heavy_graph(), CONFIG)
    results = run_tasks(engine, [
        {"op": "top_k", "query": 0, "k": 4},
        {"op": "score", "query": 0, "u": 1},
        {"op": "top_k", "query": 0, "k": -2},   # bad on its own terms
        {"op": "top_k", "query": 2, "k": 3, "include_query": True},
    ])
    assert engine.stats.misses == 2  # queries 0 and 2, deduplicated
    expected = engine.top_k(0, k=4)
    assert results[0] == expected
    assert results[0].labels == expected.labels
    assert results[0].measure == expected.measure == "gSR*"
    assert results[1] == engine.score(1, 0)
    assert isinstance(results[2], ValueError)
    assert results[3] == engine.top_k(2, k=3, include_query=True)


def test_worker_topk_ties_match_parent_selection():
    """compute_tasks through the worker threads reproduces the
    engine's exact tie-break (argpartition + lexsort) on a tie-heavy
    graph."""
    graph = tie_heavy_graph()
    snapshots = SnapshotManager(graph, CONFIG)
    router = ShardRouter(ThreadWorkerPool(workers=2))
    router.start()
    try:
        tasks = [
            {"op": "top_k", "query": q, "k": 4, "include_query": False}
            for q in range(6)
        ]
        results = router.compute_tasks(snapshots.current, tasks)
    finally:
        router.stop()
    reference = SimilarityEngine(graph, CONFIG)
    for q, ranking in enumerate(results):
        expected = reference.top_k(q, k=4)
        assert ranking.to_pairs() == expected.to_pairs(), (
            f"tie-break @ {q}"
        )
        assert ranking.labels == expected.labels


def test_service_worker_topk_matches_inprocess():
    """workers=0 and workers=2 answer a top_k/score mix identically:
    nodes, scores, labels, measure, ties included."""
    graph = tie_heavy_graph()

    async def run():
        async with ServingService(
            graph, CONFIG, workers=2,
            cache_entries=0, telemetry=False,
        ) as svc:
            rankings = await asyncio.gather(
                *(svc.top_k(q, k=4) for q in range(6))
            )
            score = await svc.score(0, 7)
        async with ServingService(
            graph, CONFIG, cache_entries=0, telemetry=False
        ) as ref:
            expected = await asyncio.gather(
                *(ref.top_k(q, k=4) for q in range(6))
            )
            ref_score = await ref.score(0, 7)
        return rankings, score, expected, ref_score

    rankings, score, expected, ref_score = asyncio.run(run())
    assert score == ref_score
    for got, want in zip(rankings, expected):
        assert got.to_pairs() == want.to_pairs()
        assert got.labels == want.labels
        assert (got.query, got.query_label, got.measure) == (
            want.query, want.query_label, want.measure
        )


def test_service_bad_k_fails_only_its_own_request():
    graph = tie_heavy_graph()

    async def run():
        async with ServingService(
            graph, CONFIG, workers=1, cache_entries=0,
            telemetry=False,
        ) as svc:
            good, bad = await asyncio.gather(
                svc.top_k(0, k=3),
                svc.top_k(1, k=-1),
                return_exceptions=True,
            )
        return good, bad

    good, bad = asyncio.run(run())
    assert not isinstance(good, Exception) and len(good) == 3
    assert isinstance(bad, Exception)


# ---------------------------------------------------------------------------
# thread backend
# ---------------------------------------------------------------------------
class TestThreadBackend:
    def test_pool_duck_types_and_rejects_chaos(self):
        pool = ThreadWorkerPool(workers=3)
        assert pool.size == 3
        assert pool.started is False
        assert pool.worker_status() == []
        # the pool has no chaos option any more: the old simulated-hang
        # timeout is an unknown keyword, an error, not silently ignored
        with pytest.raises(TypeError, match="shard_timeout"):
            ThreadWorkerPool(workers=2, shard_timeout=1)

    def test_router_parity_and_describe(self):
        graph = random_digraph(90, 450, seed=9)
        snapshots = SnapshotManager(graph, CONFIG)
        router = ShardRouter(ThreadWorkerPool(workers=3))
        router.start()
        try:
            tasks = [
                {"op": "top_k", "query": q, "k": 3,
                 "include_query": False}
                for q in range(12)
            ] + [{"op": "score", "query": 1, "u": 2}]
            results = router.compute_tasks(snapshots.current, tasks)
            description = router.describe()
        finally:
            router.stop()
        reference = SimilarityEngine(graph, CONFIG)
        for q in range(12):
            assert results[q] == reference.top_k(q, k=3)
        assert results[12] == reference.score(2, 1)
        pool_doc = description["pool"]
        assert pool_doc["workers"] == 3
        assert pool_doc["started"] is True
        assert len(description["worker_status"]) == 3

    def test_service_mutation_swaps_through_thread_pool(self):
        graph = random_digraph(60, 240, seed=13)

        async def run():
            async with ServingService(
                graph, CONFIG, workers=2,
                cache_entries=0, telemetry=False,
            ) as svc:
                before = await svc.top_k(0, k=3)
                await asyncio.get_running_loop().run_in_executor(
                    None, svc.mutate, [(0, 0)]
                )
                after = await svc.top_k(0, k=3)
                status = svc.status()
            return before, after, status

        before, after, status = asyncio.run(run())
        assert len(before) == 3 and len(after) == 3
        assert status["snapshots"]["swaps"] >= 1
        assert status["snapshots"]["current"]["seq"] >= 1
        assert status["cluster"]["shards_dispatched"] >= 2

    def test_service_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ServingService(
                random_digraph(20, 60, seed=1), CONFIG,
                workers=1, backend="fiber",
            )

    def test_process_backend_is_accepted_only_without_workers(self):
        graph = random_digraph(20, 60, seed=1)
        service = ServingService(
            graph, CONFIG, workers=0, backend="process"
        )
        # workers=0 starts one thread lane per usable core
        assert service.cluster.pool.size == usable_cores()
        service.start_background()
        try:
            assert len(service.top_k_sync(0, k=3)) == 3
        finally:
            service.close()
        with pytest.raises(ValueError, match="removed"):
            ServingService(graph, CONFIG, workers=2, backend="process")
        with pytest.raises(ValueError, match="backend"):
            ServingService(graph, CONFIG, backend="fiber")


# ---------------------------------------------------------------------------
# shard splitting
# ---------------------------------------------------------------------------
class TestSplitBalance:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 5, 8])
    @pytest.mark.parametrize(
        "batch", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64]
    )
    def test_split_never_empty_never_lopsided(self, workers, batch):
        router = ShardRouter(ThreadWorkerPool(workers=workers))
        ids = list(range(batch))
        shards = router._split(ids)
        # order-preserving cover, no shard empty, at most one/worker
        assert [q for shard in shards for q in shard] == ids
        assert all(shards)
        assert len(shards) <= workers
        widths = [len(s) for s in shards]
        assert max(widths) < 2 * min(widths)
        assert max(widths) - min(widths) <= 1
