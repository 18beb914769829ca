"""Delta-aware incremental maintenance: O(delta) mutations.

Property-style correctness for the PR's tentpole claim — applying an
edge batch through :func:`repro.index.apply_delta` must be
**bit-identical** to rebuilding every artifact from scratch on the
edited graph, across dtypes and modes; persisted segments must be
checksummed and fingerprint-chained so a corrupt, truncated, or
wrong-base segment can never poison a generation; and the serving
layer must route eligible batches through the fast path (falling back
to a full rebuild transparently) while the compact CLI folds chains
offline.
"""

import inspect
import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.splice import replace_rows
from repro.datasets import scale_free_graph
from repro.engine import SimilarityConfig, SimilarityEngine
from repro.graph import DiGraph, random_digraph
from repro.index import (
    IndexFormatError,
    IndexMismatchError,
    SimilarityIndex,
    apply_delta,
    apply_delta_file,
    delta_sibling_path,
    find_delta_siblings,
    load_delta,
    load_index,
    save_delta,
)
from repro.serve import SnapshotManager


def _random_batch(graph, rng, k):
    """``(add, remove)``: k fresh non-self-loop edges in, k out."""
    heads, tails = graph.edge_arrays()
    picks = rng.choice(heads.size, size=k, replace=False)
    remove = [(int(heads[i]), int(tails[i])) for i in picks]
    existing = set(zip(heads.tolist(), tails.tolist()))
    add = []
    while len(add) < k:
        u, v = (int(x) for x in rng.integers(0, graph.num_nodes, 2))
        if u != v and (u, v) not in existing:
            existing.add((u, v))
            add.append((u, v))
    return add, remove


def _edited(graph, add, remove):
    out = graph.copy()
    for u, v in add:
        out.add_edge(u, v)
    for u, v in remove:
        out.remove_edge(u, v)
    return out


def _assert_csr_identical(actual, expected):
    assert type(actual) is sp.csr_array
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


class TestCopyWithEdits:
    def test_matches_sequential_edits(self):
        graph = random_digraph(40, 200, seed=1)
        rng = np.random.default_rng(2)
        add, remove = _random_batch(graph, rng, 10)
        assert graph.copy_with_edits(add, remove) == _edited(
            graph, add, remove
        )

    def test_source_graph_untouched(self):
        graph = DiGraph(4, edges=[(0, 1), (1, 2)])
        clone = graph.copy_with_edits([(2, 3)], [(0, 1)])
        assert graph.has_edge(0, 1) and not graph.has_edge(2, 3)
        assert clone.has_edge(2, 3) and not clone.has_edge(0, 1)

    def test_bad_removal_raises(self):
        graph = DiGraph(3, edges=[(0, 1)])
        with pytest.raises(KeyError):
            graph.copy_with_edits([], [(1, 2)])


def test_replace_rows_splices_whole_rows():
    rng = np.random.default_rng(3)
    base = sp.random_array(
        (30, 30), density=0.2, random_state=rng, format="csr"
    )
    base.sort_indices()
    before = base.toarray()
    # scattered rows, runs touching both ends, no rows, every row
    for rows in (
        (2, 7, 19), (0, 1, 2, 10, 11, 28, 29), (), range(30)
    ):
        rows = np.array(rows, dtype=np.intp)
        patch = base[rows, :].copy()
        patch.data = patch.data * 2.0
        merged = replace_rows(base, rows, patch)
        dense = before.copy()
        dense[rows] = patch.toarray()
        np.testing.assert_array_equal(merged.toarray(), dense)
        assert merged.indptr.dtype == base.indptr.dtype
        assert merged.indices.dtype == base.indices.dtype
        assert merged.has_sorted_indices
    np.testing.assert_array_equal(base.toarray(), before)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("measure", ["gSR*", "memo-gSR*"])
class TestApplyDeltaParity:
    """The tentpole invariant: delta result == from-scratch rebuild."""

    def _config(self, measure, dtype):
        return SimilarityConfig(
            measure=measure, num_iterations=6, dtype=dtype
        )

    def test_artifacts_bit_identical(self, dtype, measure):
        graph = random_digraph(50, 300, seed=5)
        config = self._config(measure, dtype)
        base = SimilarityIndex.build(graph, config)
        rng = np.random.default_rng(6)
        add, remove = _random_batch(graph, rng, 12)
        applied, delta = apply_delta(base, add, remove)
        rebuilt = SimilarityIndex.build(
            _edited(graph, add, remove), config
        )
        assert applied.meta == rebuilt.meta
        assert delta.result_digest == rebuilt.meta.graph_digest
        _assert_csr_identical(applied.transition, rebuilt.transition)
        _assert_csr_identical(
            applied.transition_t, rebuilt.transition_t
        )
        if rebuilt.factors is not None:
            assert all(
                type(f) is sp.csr_array for f in applied.factors
            )
            # touched rows are demoted out of their bicliques, so the
            # factor *structure* legitimately differs from a global
            # recompression — but both decompositions must reconstruct
            # the same matrix exactly (0/1 counts: no rounding), and
            # the shared h_in side is never rewritten
            def _reconstruct(factors):
                e_direct, h_out, h_in = factors
                return (e_direct + h_out @ h_in).toarray()

            np.testing.assert_array_equal(
                _reconstruct(applied.factors),
                _reconstruct(rebuilt.factors),
            )
            _assert_csr_identical(
                applied.factors[2], base.factors[2]
            )

    def test_engine_columns_bit_identical(self, dtype, measure):
        graph = random_digraph(50, 300, seed=7)
        config = self._config(measure, dtype)
        base = SimilarityIndex.build(graph, config)
        rng = np.random.default_rng(8)
        add, remove = _random_batch(graph, rng, 8)
        edited = _edited(graph, add, remove)
        applied, _ = apply_delta(base, add, remove)
        served = SimilarityEngine.from_index(applied, edited, config)
        oracle = SimilarityEngine(edited, config)
        sample = [0, 13, 27, 49]
        expected = oracle.columns(sample)
        actual = served.columns(sample)
        for q in expected:
            np.testing.assert_array_equal(actual[q], expected[q])

    def test_chained_deltas_stay_bit_identical(self, dtype, measure):
        graph = random_digraph(40, 240, seed=9)
        config = self._config(measure, dtype)
        index = SimilarityIndex.build(graph, config)
        rng = np.random.default_rng(10)
        for depth in range(1, 4):
            add, remove = _random_batch(graph, rng, 6)
            index, delta = apply_delta(
                index, add, remove, chain_depth=depth
            )
            graph = _edited(graph, add, remove)
            assert delta.chain_depth == depth
            rebuilt = SimilarityIndex.build(graph, config)
            _assert_csr_identical(index.transition, rebuilt.transition)
            _assert_csr_identical(
                index.transition_t, rebuilt.transition_t
            )


#: deepest chain the serving layer lets a walk index be patched through
MAX_CHAIN_DEPTH = inspect.signature(SnapshotManager).parameters[
    "max_chain_depth"
].default


def _walk_edit_batch(graph, rng):
    """One seeded ``(add, remove)`` batch aimed at the walk delta.

    Every batch edits the top in-degree hub (one in-edge out, one in),
    removes some node's last in-edge, gives a node without in-edges
    its first, toggles a self-loop, and adds a few random edges.
    """
    n = graph.num_nodes
    heads, tails = graph.edge_arrays()
    edges = set(zip(heads.tolist(), tails.tolist()))
    indeg = np.bincount(tails, minlength=n)
    add, remove = set(), set()

    def add_into(v):
        v = int(v)
        for u in rng.permutation(n).tolist():
            if (u, v) not in edges and (u, v) not in add:
                add.add((u, v))
                return

    def remove_into(v):
        remove.add((int(rng.choice(heads[tails == v])), int(v)))

    hub = int(np.argmax(indeg))
    if indeg[hub]:
        remove_into(hub)
    add_into(hub)
    lonely = np.flatnonzero(indeg == 1)
    if lonely.size:
        remove_into(rng.choice(lonely))
    bare = np.flatnonzero(indeg == 0)
    if bare.size:
        add_into(rng.choice(bare))
    loop = int(rng.integers(n))
    (remove if (loop, loop) in edges else add).add((loop, loop))
    for _ in range(3):
        add_into(int(rng.integers(n)))
    return sorted(add), sorted(remove)


def _assert_walks_identical(actual, expected):
    assert (actual.samples, actual.seed) == (
        expected.samples, expected.seed
    )
    for name in ("sources", "counts", "indptr", "level_offsets"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


class TestApplyDeltaApprox:
    CONFIG = SimilarityConfig(
        measure="gSR*", mode="approx", num_iterations=10, seed=13
    )

    @pytest.mark.parametrize(
        "graph, edgeless_end",
        [
            (random_digraph(12, 30, seed=1), True),
            (random_digraph(40, 160, seed=2), True),
            (random_digraph(60, 120, seed=3), False),
            (scale_free_graph(3000, avg_out_degree=8, seed=4), False),
        ],
        ids=["random-12", "random-40", "random-60", "scale-free-3000"],
    )
    def test_walk_delta_matches_rebuild_over_edit_chains(
        self, graph, edgeless_end, tmp_path
    ):
        """After every batch of a chain as deep as the serving layer
        allows, the patched walk buckets equal a fresh build's bit for
        bit; a restart replaying the persisted segments lands on the
        same buckets."""
        rng = np.random.default_rng(graph.num_nodes)
        index = SimilarityIndex.build(graph, self.CONFIG)
        base_path = index.save(tmp_path / "g.simidx")
        for depth in range(1, MAX_CHAIN_DEPTH + 1):
            if edgeless_end and depth == MAX_CHAIN_DEPTH:
                add, remove = [], list(graph.edges())
            else:
                add, remove = _walk_edit_batch(graph, rng)
            index, delta = apply_delta(
                index, add, remove, chain_depth=depth
            )
            save_delta(delta, delta_sibling_path(base_path, depth))
            graph = _edited(graph, add, remove)
            rebuilt = SimilarityIndex.build(graph, self.CONFIG)
            assert index.meta == rebuilt.meta
            _assert_csr_identical(index.transition, rebuilt.transition)
            _assert_csr_identical(
                index.transition_t, rebuilt.transition_t
            )
            _assert_walks_identical(index.walks, rebuilt.walks)
        assert (graph.num_edges == 0) == edgeless_end
        replayed = load_index(base_path)
        for _, path in find_delta_siblings(base_path):
            replayed, _ = apply_delta_file(replayed, path)
        assert replayed.meta == rebuilt.meta
        _assert_walks_identical(replayed.walks, rebuilt.walks)


class TestDeltaSegments:
    def _chain(self, tmp_path, seed=14):
        graph = random_digraph(40, 240, seed=seed)
        config = SimilarityConfig(measure="gSR*", num_iterations=6)
        base = SimilarityIndex.build(graph, config)
        rng = np.random.default_rng(seed + 1)
        add, remove = _random_batch(graph, rng, 7)
        applied, delta = apply_delta(base, add, remove)
        path = tmp_path / "seg.simidx"
        save_delta(delta, path)
        return base, applied, delta, path

    def test_roundtrip(self, tmp_path):
        _, _, delta, path = self._chain(tmp_path)
        loaded = load_delta(path)
        np.testing.assert_array_equal(loaded.added, delta.added)
        np.testing.assert_array_equal(loaded.removed, delta.removed)
        assert loaded.base_digest == delta.base_digest
        assert loaded.result_digest == delta.result_digest
        assert loaded.result_meta == delta.result_meta
        assert loaded.chain_depth == delta.chain_depth

    def test_apply_delta_file_reproduces_result(self, tmp_path):
        base, applied, _, path = self._chain(tmp_path)
        replayed, _ = apply_delta_file(base, path)
        assert replayed.meta == applied.meta
        _assert_csr_identical(
            replayed.transition_t, applied.transition_t
        )

    def test_corrupt_segment_rejected(self, tmp_path):
        _, _, _, path = self._chain(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[-3] ^= 0xFF  # flip a payload byte
        path.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError):
            load_delta(path)

    def test_truncated_segment_rejected(self, tmp_path):
        _, _, _, path = self._chain(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(IndexFormatError):
            load_delta(path)

    def test_wrong_base_rejected_with_structured_fields(
        self, tmp_path
    ):
        _, _, _, path = self._chain(tmp_path)
        other = SimilarityIndex.build(
            random_digraph(40, 240, seed=99),
            SimilarityConfig(measure="gSR*", num_iterations=6),
        )
        with pytest.raises(IndexMismatchError) as info:
            apply_delta_file(other, path)
        assert info.value.mismatches  # structured per-field report
        fields = {m["field"] for m in info.value.mismatches}
        assert "graph_digest" in fields

    def test_kind_gating_between_index_and_delta(self, tmp_path):
        base, _, _, seg_path = self._chain(tmp_path)
        idx_path = base.save(tmp_path / "base.simidx")
        with pytest.raises(IndexFormatError):
            load_index(seg_path)  # a segment is not an index
        with pytest.raises(IndexFormatError):
            load_delta(idx_path)  # an index is not a segment

    def test_sibling_naming_and_discovery(self, tmp_path):
        index_path = tmp_path / "serve.simidx"
        path = delta_sibling_path(index_path, 7)
        assert path.name == "serve.delta-000007.simidx"
        path.write_bytes(b"")
        (tmp_path / "serve.delta-000002.simidx").write_bytes(b"")
        found = find_delta_siblings(index_path)
        assert [seq for seq, _ in found] == [2, 7]


class TestSnapshotManagerDelta:
    def _manager(self, graph, **kwargs):
        return SnapshotManager(
            graph, measure="memo-gSR*", num_iterations=6, **kwargs
        )

    def test_eligible_batch_takes_delta_path(self):
        graph = random_digraph(60, 600, seed=15)
        manager = self._manager(graph)
        rng = np.random.default_rng(16)
        add, remove = _random_batch(graph, rng, 5)
        fresh = manager.mutate(add=add, remove=remove)
        assert manager.delta_swaps == 1
        assert manager.full_swaps == 0
        assert fresh.delta is not None
        assert fresh.base_seq == 0
        # parity against a cold manager over the edited graph
        oracle = self._manager(_edited(graph, add, remove))
        q = 11
        np.testing.assert_array_equal(
            fresh.engine.single_source(q),
            oracle.current.engine.single_source(q),
        )

    def test_delta_maintenance_matches_rebuild_byte_for_byte(self):
        # one warm-up batch and three more, each swapping 1% of the
        # edges, through a delta-maintained manager and one that
        # rebuilds on every swap
        graph = scale_free_graph(1_000, avg_out_degree=16, seed=42)
        rng = np.random.default_rng(43)
        plan, edited = [], graph
        for _ in range(4):
            add, remove = _random_batch(
                edited, rng, max(1, int(edited.num_edges * 0.01))
            )
            plan.append((add, remove))
            edited = edited.copy_with_edits(add, remove)
        sample = [
            int(q) for q in np.random.default_rng(44).choice(
                graph.num_nodes, size=8, replace=False
            )
        ]
        columns, delta = {}, {}
        for name, kwargs in (
            ("delta", {}), ("rebuild", {"max_delta_fraction": 0}),
        ):
            manager = SnapshotManager(
                graph, measure="memo-gSR*", num_iterations=8, **kwargs
            )
            manager.warmup()
            for add, remove in plan:
                manager.mutate(add=add, remove=remove)
            delta[name] = manager.describe()["delta"]
            columns[name] = manager.current.engine.columns(sample)
        assert delta["delta"]["swaps"] == 4
        assert delta["delta"]["fallbacks"] == 0
        assert delta["rebuild"]["swaps"] == 0
        for q in sample:
            assert np.array_equal(columns["delta"][q], columns["rebuild"][q])

    def test_oversized_batch_falls_back_to_full(self):
        graph = random_digraph(30, 120, seed=17)
        manager = self._manager(graph, max_delta_fraction=0.01)
        rng = np.random.default_rng(18)
        add, remove = _random_batch(graph, rng, 10)  # > 1% of edges
        fresh = manager.mutate(add=add, remove=remove)
        assert manager.delta_swaps == 0
        assert manager.full_swaps == 1
        assert fresh.delta is None

    def test_zero_delta_fraction_always_rebuilds(self):
        graph = random_digraph(30, 120, seed=19)
        manager = self._manager(graph, max_delta_fraction=0)
        manager.mutate(add=[(0, 1) if not graph.has_edge(0, 1)
                            else (1, 0)])
        assert manager.delta_swaps == 0 and manager.full_swaps == 1

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_no_op_batch_keeps_the_current_snapshot(self, mode, tmp_path):
        path = tmp_path / "serve.simidx"
        graph = random_digraph(40, 200, seed=31)
        manager = SnapshotManager(
            graph, measure="gSR*", num_iterations=6, mode=mode,
            index_path=path,
        )
        manager.warmup()
        manager.mutate(add=[(5, 5)])  # one real delta first
        before = manager.current
        counters = dict(vars(manager))
        engine_stats = before.engine.stats.snapshot()
        u, v = next(iter(graph.edges()))
        fresh = (5, 7) if not graph.has_edge(5, 7) else (7, 5)
        for add, remove in (
            ([(u, v)], []),               # re-add an existing edge
            ([fresh], [fresh]),           # add and remove one edge
            ([(u, v), (5, 5)], []),       # both already present
        ):
            assert manager.mutate(add=add, remove=remove) is before
        assert manager.current is before
        assert dict(vars(manager)) == counters
        assert before.engine.stats.snapshot() == engine_stats
        assert [s for s, _ in find_delta_siblings(path)] == [1]

    def test_canary_rollback_keeps_the_chain_promote_resets_it(
        self, tmp_path
    ):
        path = tmp_path / "serve.simidx"
        graph = random_digraph(50, 500, seed=32)
        manager = self._manager(graph, index_path=path)
        manager.warmup()
        rng = np.random.default_rng(33)

        def delta_mutation():
            add, remove = _random_batch(manager.current.graph, rng, 3)
            manager.mutate(add=add, remove=remove)

        delta_mutation()
        delta_mutation()
        blue, _ = manager.prepare_canary(add=[(3, 3)])
        manager.rollback_canary(blue)
        assert manager.describe()["delta"]["chain_depth"] == 2
        delta_mutation()
        assert manager.delta_swaps == 3
        assert [
            load_delta(p).chain_depth
            for _, p in find_delta_siblings(path)
        ] == [1, 2, 3]
        _, green = manager.prepare_canary(add=[(4, 4)])
        manager.promote_canary(green)
        assert manager.describe()["delta"]["chain_depth"] == 0
        assert find_delta_siblings(path) == []

    def test_chain_depth_cap_folds_into_full_build(self):
        graph = random_digraph(40, 400, seed=20)
        manager = self._manager(graph, max_chain_depth=2)
        rng = np.random.default_rng(21)
        for _ in range(3):
            snapshot = manager.current
            add, remove = _random_batch(snapshot.graph, rng, 3)
            manager.mutate(add=add, remove=remove)
        assert manager.delta_swaps == 2
        assert manager.full_swaps == 1  # third swap folded the chain

    def test_invalid_batch_still_raises_before_any_swap(self):
        graph = DiGraph(4, edges=[(0, 1)])
        manager = self._manager(graph)
        old = manager.current
        with pytest.raises(KeyError):
            manager.mutate(remove=[(2, 3)])
        assert manager.current is old
        assert manager.swaps == 0

    def test_segments_persisted_and_replayed_on_restart(
        self, tmp_path
    ):
        path = tmp_path / "serve.simidx"
        graph = random_digraph(50, 500, seed=22)
        manager = self._manager(graph, index_path=path)
        manager.warmup()
        rng = np.random.default_rng(23)
        for _ in range(2):
            snapshot = manager.current
            add, remove = _random_batch(snapshot.graph, rng, 4)
            manager.mutate(add=add, remove=remove)
        assert [s for s, _ in find_delta_siblings(path)] == [1, 2]
        served = manager.current.graph.copy()
        restarted = self._manager(served, index_path=path)
        assert restarted.delta_segments_loaded == 2
        assert restarted.index_loads == 1
        q = 33
        np.testing.assert_array_equal(
            restarted.current.engine.single_source(q),
            manager.current.engine.single_source(q),
        )

    def test_full_rebuild_clears_stale_segments(self, tmp_path):
        path = tmp_path / "serve.simidx"
        graph = random_digraph(50, 500, seed=24)
        manager = self._manager(
            graph, index_path=path, max_chain_depth=1
        )
        manager.warmup()
        rng = np.random.default_rng(25)
        for _ in range(2):  # second mutation exceeds the chain cap
            snapshot = manager.current
            add, remove = _random_batch(snapshot.graph, rng, 3)
            manager.mutate(add=add, remove=remove)
        assert manager.full_swaps == 1
        assert find_delta_siblings(path) == []

    def test_swap_latency_and_describe_shapes(self):
        graph = random_digraph(40, 400, seed=26)
        manager = self._manager(graph)
        rng = np.random.default_rng(27)
        add, remove = _random_batch(graph, rng, 3)
        manager.mutate(add=add, remove=remove)
        latency = manager.swap_latency_summary()
        assert latency["delta"]["count"] == 1
        assert latency["full"]["count"] == 0
        assert latency["delta"]["total_s"]["p50"] > 0
        document = manager.describe()
        assert document["delta"]["swaps"] == 1
        assert document["delta"]["chain_depth"] == 1
        assert document["current"]["swap_kind"] == "delta"
        assert document["swap_latency"]["delta"]["count"] == 1


class TestCompactCLI:
    def test_compact_folds_chain_and_removes_segments(
        self, tmp_path, capsys
    ):
        from repro.index.__main__ import main

        path = tmp_path / "serve.simidx"
        graph = random_digraph(50, 500, seed=28)
        manager = SnapshotManager(
            graph, measure="memo-gSR*", num_iterations=6,
            index_path=path,
        )
        manager.warmup()
        rng = np.random.default_rng(29)
        for _ in range(2):
            snapshot = manager.current
            add, remove = _random_batch(snapshot.graph, rng, 4)
            manager.mutate(add=add, remove=remove)
        served = manager.current.graph.copy()
        assert main(["compact", str(path)]) == 0
        assert find_delta_siblings(path) == []
        folded = SimilarityIndex.load(path)
        assert folded.meta.graph_digest == manager.current.engine \
            .export_index().meta.graph_digest
        # the folded base now warm-loads with zero replay
        restarted = SnapshotManager(
            graph=served, measure="memo-gSR*", num_iterations=6,
            index_path=path,
        )
        assert restarted.index_loads == 1
        assert restarted.delta_segments_loaded == 0

    def test_compact_without_segments_is_a_noop(self, tmp_path):
        from repro.index.__main__ import main

        config = SimilarityConfig(measure="gSR*", num_iterations=5)
        index = SimilarityIndex.build(
            random_digraph(20, 80, seed=30), config
        )
        path = index.save(tmp_path / "plain.simidx")
        assert main(["compact", str(path)]) == 0

    def test_compact_stops_at_broken_link(self, tmp_path, capsys):
        from repro.index.__main__ import main

        path = tmp_path / "serve.simidx"
        graph = random_digraph(40, 400, seed=31)
        manager = SnapshotManager(
            graph, measure="gSR*", num_iterations=6, index_path=path
        )
        manager.warmup()
        rng = np.random.default_rng(32)
        for _ in range(2):
            snapshot = manager.current
            add, remove = _random_batch(snapshot.graph, rng, 3)
            manager.mutate(add=add, remove=remove)
        first = delta_sibling_path(path, 1)
        raw = bytearray(first.read_bytes())
        raw[-3] ^= 0xFF
        first.write_bytes(bytes(raw))
        # nothing applies (the chain starts broken) -> exit 1
        assert main(["compact", str(path)]) == 1


class TestBenchHistory:
    def _write(self, directory, name, results, derived):
        (directory / name).write_text(json.dumps({
            "tag": name[len("BENCH_"):-len(".json")],
            "results": {
                case: {"seconds_min": s, "seconds_mean": s,
                       "peak_bytes": 0}
                for case, s in results.items()
            },
            "derived": derived,
        }))

    def test_collect_and_render(self, tmp_path):
        from repro.bench.history import (
            collect_history,
            render_history,
        )

        self._write(
            tmp_path, "BENCH_a.json",
            {"case_x": 0.010}, {"speedup_y": 2.0},
        )
        self._write(
            tmp_path, "BENCH_b.json",
            {"case_x": 0.008, "case_z": 0.001},
            {"speedup_y": 2.5},
        )
        (tmp_path / "BENCH_junk.json").write_text("{not json")
        entries = collect_history(tmp_path)
        assert [e["tag"] for e in entries] == ["a", "b"]
        table = render_history(entries)
        assert "case_x (ms)" in table
        assert "10.00" in table and "8.00" in table
        assert "speedup_y (x)" in table
        # case_z is missing from run a -> rendered as "-"
        row = next(
            line for line in table.splitlines()
            if line.startswith("case_z")
        )
        assert "-" in row and "1.00" in row

    def test_empty_directory(self, tmp_path):
        from repro.bench.history import (
            collect_history,
            render_history,
        )

        assert "no BENCH_" in render_history(
            collect_history(tmp_path)
        )
