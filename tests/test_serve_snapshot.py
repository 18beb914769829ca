"""Mutation-during-serving: snapshots, hot-swap, and staleness.

Covers the satellite checklist: ``DiGraph.edge_arrays`` refresh after
mutation, engine staleness fingerprints after direct graph mutation,
and the snapshot-swap path — the old snapshot keeps answering
(identically) while the new generation serves fresh results, with
zero failed requests across a mid-traffic mutation.
"""

import asyncio

import numpy as np
import pytest

from repro.engine import SimilarityEngine
from repro.graph import DiGraph, random_digraph
from repro.serve import ServingService, SnapshotManager


class TestEdgeArraysUnderMutation:
    def test_edge_arrays_refresh_after_add_edge(self):
        g = DiGraph(4, edges=[(0, 1), (1, 2)])
        heads, tails = g.edge_arrays()
        assert list(zip(heads, tails)) == [(0, 1), (1, 2)]
        g.add_edge(2, 3)
        heads2, tails2 = g.edge_arrays()
        assert list(zip(heads2, tails2)) == [(0, 1), (1, 2), (2, 3)]

    def test_edge_arrays_refresh_after_remove_edge(self):
        g = DiGraph(3, edges=[(0, 1), (1, 2)])
        g.edge_arrays()
        g.remove_edge(0, 1)
        heads, tails = g.edge_arrays()
        assert list(zip(heads, tails)) == [(1, 2)]

    def test_edge_arrays_stable_without_mutation(self):
        g = DiGraph(3, edges=[(0, 1)])
        heads1, tails1 = g.edge_arrays()
        heads2, tails2 = g.edge_arrays()
        assert np.array_equal(heads1, heads2)
        assert np.array_equal(tails1, tails2)

    def test_edge_count_preserving_swap_changes_arrays(self):
        g = DiGraph(4, edges=[(0, 1), (2, 3)])
        g.edge_arrays()
        g.remove_edge(0, 1)
        g.add_edge(1, 0)  # same m, different edges
        heads, tails = g.edge_arrays()
        assert list(zip(heads, tails)) == [(1, 0), (2, 3)]


class TestEngineStaleness:
    def test_direct_graph_mutation_detected_by_fingerprint(self):
        g = random_digraph(30, 120, seed=8)
        engine = SimilarityEngine(g, num_iterations=6)
        before = engine.single_source(0).copy()
        g.add_edge(0, 5) if not g.has_edge(0, 5) else g.remove_edge(0, 5)
        after = engine.single_source(0)
        assert engine.stats.invalidations == 1
        assert engine.stats.transition_builds == 2
        assert not np.array_equal(before, after)

    def test_edge_swap_preserving_count_still_invalidates(self):
        g = DiGraph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        engine = SimilarityEngine(g, num_iterations=6)
        engine.single_source(1)
        g.remove_edge(0, 1)
        g.add_edge(1, 0)  # num_edges unchanged, version moved
        engine.single_source(1)
        assert engine.stats.invalidations == 1


class TestSnapshotManager:
    def test_initial_snapshot_copies_the_graph(self):
        g = DiGraph(3, edges=[(0, 1)])
        manager = SnapshotManager(g, num_iterations=5)
        snapshot = manager.current
        assert snapshot.graph is not g
        assert snapshot.graph == g
        # external mutation of the caller's graph is invisible
        g.add_edge(1, 2)
        assert not snapshot.graph.has_edge(1, 2)

    def test_mutate_swaps_to_new_generation(self):
        manager = SnapshotManager(
            DiGraph(4, edges=[(0, 1), (1, 2)]), num_iterations=5
        )
        old = manager.current
        fresh = manager.mutate(add=[(2, 3)])
        assert manager.current is fresh
        assert fresh.seq == old.seq + 1
        assert fresh.graph.has_edge(2, 3)
        assert not old.graph.has_edge(2, 3)  # old generation untouched
        assert manager.swaps == 1 and manager.builds == 1

    def test_mutate_remove_and_labels(self):
        g = DiGraph.from_label_edges(
            [("a", "b"), ("b", "c"), ("c", "a")]
        )
        manager = SnapshotManager(g, num_iterations=5)
        fresh = manager.mutate(remove=[("a", "b")])
        assert not fresh.graph.has_edge(
            fresh.graph.node_of("a"), fresh.graph.node_of("b")
        )

    def test_failed_mutation_swaps_nothing(self):
        manager = SnapshotManager(
            DiGraph(3, edges=[(0, 1)]), num_iterations=5
        )
        old = manager.current
        with pytest.raises(KeyError):
            manager.mutate(remove=[(1, 2)])  # edge absent
        assert manager.current is old
        assert manager.swaps == 0

    def test_new_snapshot_arrives_warm(self):
        manager = SnapshotManager(
            random_digraph(20, 80, seed=10), num_iterations=5
        )
        fresh = manager.mutate(add=[(0, 1)])
        # Q / Q^T arrived during the background build, pre-swap —
        # built outright on the full path, adopted from the spliced
        # index on the delta path
        stats = fresh.engine.stats
        assert stats.transition_builds + stats.index_adoptions == 1

    def test_warmup_builds_artifacts(self):
        manager = SnapshotManager(
            random_digraph(20, 80, seed=11), num_iterations=5
        )
        stats = manager.warmup()
        assert stats["transition_builds"] == 1


class TestSwapMidTraffic:
    def test_zero_failed_requests_across_mutation(self):
        """The acceptance scenario: mutate while queries are in flight."""
        graph = random_digraph(80, 400, seed=12)
        service = ServingService(
            graph, num_iterations=6, max_batch=8, max_wait_ms=1.0,
            cache_entries=0,
        )
        mutation_done = asyncio.Event()

        async def traffic(rounds=6):
            answered = 0
            for r in range(rounds):
                rankings = await asyncio.gather(
                    *(service.top_k(q, k=5) for q in range(12))
                )
                answered += len(rankings)
                if r == 2:
                    # mid-traffic mutation (synchronous build + swap
                    # in an executor, exactly like the HTTP endpoint)
                    await asyncio.get_running_loop().run_in_executor(
                        None, service.mutate, [(0, 1), (1, 0)]
                    )
                    mutation_done.set()
            return answered

        async def drive():
            async with service:
                return await traffic()

        answered = asyncio.run(drive())
        assert answered == 72                    # zero failed requests
        assert mutation_done.is_set()
        assert service.broker.stats.errors == 0
        assert service.snapshots.swaps == 1
        assert service.snapshots.current.seq == 1

    def test_old_snapshot_keeps_answering_new_serves_fresh(self):
        graph = DiGraph(5, edges=[(0, 2), (1, 2), (3, 2), (3, 4)])
        manager = SnapshotManager(graph, num_iterations=8)
        old = manager.current
        before = old.engine.top_k(2, k=3)
        fresh = manager.mutate(add=[(4, 2), (0, 4)])
        # the pinned old snapshot answers exactly as before the swap
        assert old.engine.top_k(2, k=3) == before
        # the new generation sees the mutation
        after = fresh.engine.top_k(2, k=3)
        assert [e.score for e in after] != [e.score for e in before]
        # and the manager now routes new queries to the new snapshot
        assert manager.current is fresh

    def test_cached_results_are_version_scoped(self):
        service = ServingService(
            DiGraph(4, edges=[(0, 2), (1, 2)]),
            num_iterations=6,
            cache_entries=64,
        )

        async def drive():
            async with service:
                before = await service.top_k(2, k=2)
                service.mutate(add=[(3, 2)])
                after = await service.top_k(2, k=2)
                return before, after

        before, after = asyncio.run(drive())
        # the post-swap request missed the (versioned) cache and was
        # answered by the new snapshot
        assert service.broker.stats.cache_hits == 0
        assert [e.score for e in before] != [e.score for e in after]


class TestPersistentIndex:
    """Restart-from-disk: the snapshot manager and repro.index."""

    def _manager(self, graph, path, **overrides):
        from repro.engine import SimilarityConfig

        config = SimilarityConfig(
            measure="memo-gSR*", num_iterations=6
        )
        return SnapshotManager(
            graph, config, index_path=path, **overrides
        )

    def test_warmup_persists_a_fresh_index(self, tmp_path):
        path = tmp_path / "serve.simidx"
        manager = self._manager(random_digraph(80, 480, seed=3), path)
        assert not path.exists()
        manager.warmup()
        assert path.exists()
        assert manager.index_saves == 1
        assert manager.index_loads == 0
        # a second warmup does not rewrite an adopted/just-saved index
        manager.warmup()
        assert manager.index_saves == 1

    def test_restart_serves_first_query_without_rebuilding(
        self, tmp_path
    ):
        path = tmp_path / "serve.simidx"
        graph = random_digraph(80, 480, seed=3)
        self._manager(graph, path).warmup()

        # "restart": a brand-new manager process over the same graph
        restarted = self._manager(graph, path)
        assert restarted.index_loads == 1
        engine = restarted.current.engine
        column = engine.single_source(7)
        restarted.warmup()
        stats = engine.stats.snapshot()
        assert stats["transition_builds"] == 0
        assert stats["compression_builds"] == 0
        assert stats["index_adoptions"] >= 2
        assert restarted.index_saves == 0  # nothing new to persist
        # identical answers to a cold-built engine
        fresh = self._manager(graph, tmp_path / "other.simidx")
        np.testing.assert_allclose(
            column, fresh.current.engine.single_source(7), atol=1e-14
        )

    def test_mutate_persists_the_new_generation(self, tmp_path):
        path = tmp_path / "serve.simidx"
        graph = random_digraph(40, 200, seed=4)
        manager = self._manager(graph, path)
        manager.warmup()
        if graph.has_edge(0, 1):
            manager.mutate(remove=[(0, 1)])
        else:
            manager.mutate(add=[(0, 1)])
        assert manager.index_saves == 2
        # a restart over the *mutated* content warm-loads
        mutated = manager.current.graph.copy()
        restarted = self._manager(mutated, path)
        assert restarted.index_loads == 1

    def test_stale_index_is_ignored_not_fatal(self, tmp_path):
        path = tmp_path / "serve.simidx"
        self._manager(random_digraph(40, 200, seed=5), path).warmup()
        other = random_digraph(40, 200, seed=6)
        manager = self._manager(other, path)
        assert manager.index_loads == 0  # fingerprint mismatch
        manager.warmup()  # rebuilds and overwrites
        assert manager.index_saves == 1
        assert self._manager(other, path).index_loads == 1

    def test_corrupt_index_is_ignored_not_fatal(self, tmp_path):
        path = tmp_path / "serve.simidx"
        graph = random_digraph(40, 200, seed=5)
        self._manager(graph, path).warmup()
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        manager = self._manager(graph, path)
        assert manager.index_load_errors == 1
        assert manager.current.engine.single_source(0) is not None

    def test_persist_index_false_never_writes(self, tmp_path):
        path = tmp_path / "serve.simidx"
        graph = random_digraph(40, 200, seed=5)
        manager = self._manager(graph, path, persist_index=False)
        manager.warmup()
        assert not path.exists()
        assert manager.index_saves == 0

    def test_describe_reports_index_counters(self, tmp_path):
        path = tmp_path / "serve.simidx"
        manager = self._manager(random_digraph(40, 200, seed=5), path)
        manager.warmup()
        document = manager.describe()
        assert document["index"]["path"] == str(path)
        assert document["index"]["saves"] == 1
        assert document["index"]["loads"] == 0
        assert document["index"]["load_errors"] == 0

    def test_service_passthrough_and_status(self, tmp_path):
        path = tmp_path / "serve.simidx"
        graph = random_digraph(40, 200, seed=5)
        service = ServingService(
            graph,
            measure="gSR*",
            num_iterations=6,
            index_path=path,
        )
        service.warmup()
        status = service.status()
        assert status["snapshots"]["index"]["saves"] == 1
        assert "transition_builds" in status["engine"]
