"""The Monte-Carlo approx tier: walks, estimator, persistence, wiring.

Five concerns, mirroring the subsystem's layers:

* **walk index** — deterministic builds, deduplicated bucket
  invariants, and ``.simidx`` round-trips (including corrupt and
  truncated walk segments being rejected cleanly);
* **estimator quality** — precision@k against the exact kernels on
  the citation datasets and on scale-free graphs of 2,000 and 10,000
  nodes at the default epsilon, and bit-for-bit seed-reproducibility
  of the estimates;
* **estimator exactness** — the compiled gathers and scatters give
  the same bytes and counters as a numpy-gather reference, and a
  bucket or ``Q^T`` index out of range is rejected when the estimator
  is built, before any compiled loop reads it;
* **engine/config routing** — ``mode="approx"`` validation and the
  engine serving columns and rankings through the estimator;
* **surfaces** — serve ``/status`` approx stats and the scale-free
  generator.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import threading

import numpy as np
import pytest

from repro.approx import (
    DEFAULT_EPSILON,
    ApproxEstimator,
    ApproxStats,
    WalkIndex,
    approx_params,
    samples_for_epsilon,
)
from repro.approx.estimator import _TAIL_MASS
from repro.datasets import citation_network, scale_free_graph
from repro.engine.config import SimilarityConfig
from repro.engine.engine import SimilarityEngine
from repro.graph.digraph import DiGraph
from repro.graph.matrices import backward_transition_matrix
from repro.index import (
    IndexFormatError,
    SimilarityIndex,
    load_index,
    verify_index,
)


def small_graph() -> DiGraph:
    return DiGraph(
        8,
        edges=[
            (0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 4),
            (2, 5), (4, 6), (5, 6), (4, 7), (5, 7), (6, 7),
        ],
    )


APPROX = SimilarityConfig(
    measure="gSR*", num_iterations=8, mode="approx", seed=11
)


# ---------------------------------------------------------------------------
# walk index
# ---------------------------------------------------------------------------
def reference_endpoints(q, walk_length, samples, seed) -> np.ndarray:
    """A plain per-walk reference walker.

    ``out[l - 1, i, r]`` is where walk ``r`` of node ``i`` stands after
    ``l`` steps, ``-1`` once it died at an in-degree-0 node. Each step
    draws ``rng.random(n * samples)``; walk ``i * samples + r`` takes
    its entry whether it is alive or not.
    """
    n = q.shape[0]
    rng = np.random.default_rng(seed)
    out = np.full((walk_length, n, samples), -1, dtype=np.int64)
    pos = [node for node in range(n) for _ in range(samples)]
    for step in range(walk_length):
        draws = rng.random(n * samples)
        for walk, node in enumerate(pos):
            if node < 0:
                continue
            lo, hi = int(q.indptr[node]), int(q.indptr[node + 1])
            if lo == hi:
                pos[walk] = -1
                continue
            pick = min(int(draws[walk] * (hi - lo)), hi - lo - 1)
            pos[walk] = int(q.indices[lo + pick])
            out[step, walk // samples, walk % samples] = pos[walk]
    return out


def test_walk_index_is_deterministic_per_seed():
    q = backward_transition_matrix(small_graph())
    a = WalkIndex.build(q, walk_length=3, samples=16, seed=5)
    b = WalkIndex.build(q, walk_length=3, samples=16, seed=5)
    c = WalkIndex.build(q, walk_length=3, samples=16, seed=6)
    assert a == b
    assert a != c


@pytest.mark.parametrize(
    "graph",
    [
        small_graph(),
        DiGraph(4),  # edgeless: every walk dies at once
        DiGraph(3, edges=[(0, 0), (0, 1), (1, 1), (2, 1)]),
        DiGraph(0),
    ],
    ids=["small", "edgeless", "self-loops", "empty"],
)
def test_walk_build_matches_reference_walker(graph):
    """Pins the RNG layout the walk delta regenerates draws from."""
    q = backward_transition_matrix(graph)
    walks = WalkIndex.build(q, walk_length=3, samples=5, seed=4)
    endpoints = reference_endpoints(q, 3, 5, seed=4)
    n = graph.num_nodes
    assert walks.level_offsets[0] == 0
    for level in range(1, 4):
        pairs = {}
        for src in range(n):
            for node in endpoints[level - 1, src]:
                if node >= 0:
                    key = (int(node), src)
                    pairs[key] = pairs.get(key, 0) + 1
        keys = sorted(pairs)
        lo = int(walks.level_offsets[level - 1])
        hi = int(walks.level_offsets[level])
        assert walks.sources[lo:hi].tolist() == [s for _, s in keys]
        assert walks.counts[lo:hi].tolist() == [pairs[k] for k in keys]
        sizes = np.bincount(
            [v for v, _ in keys], minlength=n
        ).astype(np.int64)
        np.testing.assert_array_equal(
            walks.indptr[level - 1], np.concatenate(([0], np.cumsum(sizes)))
        )


def test_pcg64_advance_then_random_returns_draw_k():
    """One 64-bit PCG64 output per double: what the walk delta's
    ``advance`` arithmetic relies on."""
    stream = np.random.default_rng(21).random(5000)
    for k in (0, 1, 63, 4096, 4999):
        bitgen = np.random.PCG64(21)
        bitgen.advance(k)
        assert np.random.Generator(bitgen).random() == stream[k]


def test_rewalk_refuses_walks_of_another_matrix():
    """The patch re-walks the touched sources on the old matrix and
    must find exactly those walks in the index."""
    drawn_on = backward_transition_matrix(
        DiGraph(3, edges=[(0, 2), (1, 2)]))
    claimed_old = backward_transition_matrix(DiGraph(3, edges=[(0, 2)]))
    new = backward_transition_matrix(DiGraph(3, edges=[(0, 2), (2, 0)]))
    walks = WalkIndex.build(drawn_on, walk_length=2, samples=8, seed=3)
    with pytest.raises(ValueError, match="disagrees"):
        walks.rewalked(claimed_old, new, targets=[0])


def test_walk_bucket_counts_preserve_multiplicity():
    q = backward_transition_matrix(small_graph())
    walks = WalkIndex.build(q, walk_length=2, samples=32, seed=1)
    endpoints = reference_endpoints(q, 2, 32, seed=1)
    for level in range(1, walks.walk_length + 1):
        lo = int(walks.level_offsets[level - 1])
        hi = int(walks.level_offsets[level])
        counts = walks.counts[lo:hi]
        alive = int((endpoints[level - 1] >= 0).sum())
        # dedup drops repeats from sources but never sampled mass
        assert int(counts.sum()) == alive
        if counts.size:
            assert int(counts.min()) >= 1
            assert int(counts.max()) <= walks.samples


def test_walk_bucket_sources_match_endpoints():
    q = backward_transition_matrix(small_graph())
    walks = WalkIndex.build(q, walk_length=2, samples=16, seed=2)
    endpoints = reference_endpoints(q, 2, 16, seed=2)
    for node in range(walks.num_nodes):
        for src in walks.bucket(1, node):
            assert node in endpoints[0, int(src)].tolist()


def test_walk_build_rejects_bad_geometry():
    q = backward_transition_matrix(small_graph())
    with pytest.raises(ValueError):
        WalkIndex.build(q, walk_length=-1, samples=8)
    with pytest.raises(ValueError):
        WalkIndex.build(q, walk_length=2, samples=0)
    with pytest.raises(ValueError):
        WalkIndex.build(q, walk_length=2, samples=1 << 17)


def test_samples_for_epsilon_policy():
    assert samples_for_epsilon(DEFAULT_EPSILON) == 64
    assert samples_for_epsilon(0.9) == 16      # clamped floor
    assert samples_for_epsilon(0.0001) == 512  # clamped ceiling
    with pytest.raises(ValueError):
        samples_for_epsilon(0.0)
    assert approx_params(truncation=2, epsilon=None) == (2, 64)


# ---------------------------------------------------------------------------
# estimator quality
# ---------------------------------------------------------------------------
def _precision_at_10(exact, approx, queries) -> float:
    hits = sum(
        len(
            set(exact.top_k(q, k=10).nodes)
            & set(approx.top_k(q, k=10).nodes)
        )
        for q in queries
    )
    return hits / (10 * len(queries))


@pytest.mark.parametrize("papers, seed", [(1200, 3), (800, 7)])
def test_precision_at_10_on_citation_datasets(papers, seed):
    """Default-epsilon approx ranks >= 0.9 precision@10 vs exact."""
    graph = citation_network(papers, seed=seed).graph
    exact = SimilarityEngine(
        graph, SimilarityConfig(measure="gSR*", num_iterations=10)
    )
    approx = SimilarityEngine(
        graph, exact.config.replace(mode="approx", seed=11)
    )
    rng = np.random.default_rng(5)
    queries = [
        int(q)
        for q in rng.choice(graph.num_nodes, 15, replace=False)
    ]
    assert _precision_at_10(exact, approx, queries) >= 0.9


@pytest.mark.parametrize("nodes", [2_000, 10_000])
def test_precision_at_10_on_scale_free_graphs(nodes):
    """The same floor on hub-skewed queries over a scale-free graph."""
    graph = scale_free_graph(nodes, avg_out_degree=16, seed=42)
    exact = SimilarityEngine(
        graph, SimilarityConfig(measure="gSR*", num_iterations=8)
    )
    approx = SimilarityEngine(
        graph, exact.config.replace(mode="approx", seed=42)
    )
    # 4 of the 64 highest in-degrees (the traffic magnets), 4 uniform
    rng = np.random.default_rng(42)
    head = np.argsort(graph.in_degrees())[::-1][:64]
    queries = [
        int(q)
        for q in (
            *rng.choice(head, size=4, replace=False),
            *rng.choice(graph.num_nodes, size=4, replace=False),
        )
    ]
    assert _precision_at_10(exact, approx, queries) >= 0.9


def test_estimates_are_seed_reproducible():
    graph = small_graph()
    first = SimilarityEngine(graph, APPROX)
    second = SimilarityEngine(graph, APPROX)
    for query in range(graph.num_nodes):
        np.testing.assert_array_equal(
            first.columns([query])[query],
            second.columns([query])[query],
        )
    different = SimilarityEngine(
        graph, APPROX.replace(seed=99)
    )
    assert any(
        not np.array_equal(
            first.columns([q])[q], different.columns([q])[q]
        )
        for q in range(graph.num_nodes)
    )


def test_approx_column_tracks_exact_on_dense_meeting_graph():
    graph = small_graph()
    exact = SimilarityEngine(
        graph, SimilarityConfig(measure="gSR*", num_iterations=8)
    )
    approx = SimilarityEngine(graph, APPROX.replace(epsilon=0.01))
    for query in (2, 6, 7):
        exact_col = exact.columns([query])[query]
        approx_col = approx.columns([query])[query]
        assert np.max(np.abs(exact_col - approx_col)) < 0.2
        # the top neighbour agrees where the signal is strongest
        mask = np.arange(graph.num_nodes) != query
        assert (
            int(np.argmax(np.where(mask, approx_col, -1.0)))
            == int(np.argmax(np.where(mask, exact_col, -1.0)))
        )


# ---------------------------------------------------------------------------
# estimator exactness: the compiled loops against a numpy gather
# ---------------------------------------------------------------------------
def _multi_range(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Flat indices covering ``[starts[i], starts[i] + lengths[i])``."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    seg_starts = np.cumsum(lengths) - lengths
    return np.repeat(starts - seg_starts, lengths) + np.arange(
        total, dtype=np.int64
    )


class NumpyGatherEstimator(ApproxEstimator):
    """The estimator with its gathers written in numpy.

    Rows are read through ``_multi_range`` and fancy indexing, each
    entry is weighted through ``np.repeat``, and the source levels are
    summed by one ``bincount`` over their concatenated gathers before
    that sum is added to the level-0 part. ``_query_side``,
    ``_merged_weights`` and ``_trim`` are the estimator's own.
    """

    def __init__(self, walks, transition, transition_t, *args, **kwargs):
        super().__init__(walks, transition, transition_t, *args, **kwargs)
        self._csr = {
            name: (
                np.asarray(matrix.indptr, dtype=np.int64),
                np.asarray(matrix.indices, dtype=np.int64),
                np.asarray(matrix.data, dtype=np.float64),
            )
            for name, matrix in (("q", transition), ("qt", transition_t))
        }

    def _rows(self, name, nodes, values):
        indptr, indices, data = self._csr[name]
        starts = indptr[nodes]
        lengths = indptr[nodes + 1] - starts
        idx = _multi_range(starts, lengths)
        return indices[idx], data[idx] * np.repeat(values, lengths)

    def _push(self, nodes, values, tally):
        out_nodes, out_vals = self._rows("q", nodes, values)
        if out_nodes.size == 0:
            return out_nodes, np.empty(0, dtype=np.float64)
        if out_nodes.size <= 4096:
            uniq, inverse = np.unique(out_nodes, return_inverse=True)
            return self._trim(
                uniq, np.bincount(inverse, weights=out_vals), tally
            )
        dense = np.bincount(out_nodes, weights=out_vals, minlength=self._n)
        support = int(np.count_nonzero(dense))
        threshold = _TAIL_MASS * float(out_vals.sum()) / max(support, 1)
        uniq = np.nonzero(dense > threshold)[0]
        kept = dense[uniq]
        if uniq.size < support:
            tally.support_truncations += 1
        if uniq.size > self.support_cap:
            tally.support_truncations += 1
            keep = np.argpartition(kept, -self.support_cap)[
                -self.support_cap:
            ]
            keep.sort()
            return uniq[keep], kept[keep]
        return uniq, kept

    def column(self, query):
        tally = ApproxStats(columns=1)
        union, weights = self._merged_weights(
            self._query_side(int(query), tally)
        )
        acc = np.zeros(self._n, dtype=self.dtype)
        if union.size:
            acc[union] += weights[:, 0].astype(self.dtype)
            walks, targets, contributions = self.walks, [], []
            for level in range(1, weights.shape[1]):
                nodes, values = self._trim(union, weights[:, level], tally)
                if level == 1:
                    hit, weight = self._rows("qt", nodes, values)
                else:
                    row = walks.indptr[level - 1]
                    lengths = row[nodes + 1] - row[nodes]
                    idx = _multi_range(
                        int(walks.level_offsets[level - 1]) + row[nodes],
                        np.asarray(lengths, dtype=np.int64),
                    )
                    hit = walks.sources[idx]
                    weight = np.repeat(
                        values / walks.samples, lengths
                    ) * walks.counts[idx]
                    tally.samples_drawn += int(hit.size)
                targets.append(hit)
                contributions.append(weight)
            if sum(hit.size for hit in targets):
                acc += np.bincount(
                    np.concatenate(targets),
                    weights=np.concatenate(contributions),
                    minlength=acc.size,
                ).astype(acc.dtype)
        self._record(tally)
        return acc


def _estimator_args(index):
    return (
        index.walks, index.transition, index.transition_t,
        index.coefficients, index.meta.truncation,
    )


ORACLE_GRAPHS = {
    "one-node": lambda: DiGraph(1),
    "edgeless": lambda: DiGraph(5),
    "in-star": lambda: DiGraph(6, edges=[(i, 0) for i in range(1, 6)]),
    "out-star": lambda: DiGraph(6, edges=[(0, i) for i in range(1, 6)]),
    # node 0's only edge is its self-loop
    "self-loop": lambda: DiGraph(3, edges=[(0, 0), (1, 2)]),
    # a 2-cycle and an isolated node
    "two-cycle": lambda: DiGraph(3, edges=[(0, 1), (1, 0)]),
    "small": small_graph,
    "scale-free-1": lambda: scale_free_graph(
        2000, avg_out_degree=8, seed=1
    ),
    "scale-free-2": lambda: scale_free_graph(
        2000, avg_out_degree=8, seed=2
    ),
}


@pytest.mark.parametrize("mapped", [False, True], ids=["memory", "mmap"])
@pytest.mark.parametrize("num_iterations", [1, 2, 10])
@pytest.mark.parametrize("name", ORACLE_GRAPHS)
def test_compiled_loops_match_the_numpy_gather_byte_for_byte(
    tmp_path, name, num_iterations, mapped
):
    """Same products, added in the same order: the columns agree to
    the byte and the counters exactly, with every trim exercised
    (``support_cap`` 1 and 2 force the hard cap on every level)."""
    graph = ORACLE_GRAPHS[name]()
    n = graph.num_nodes
    if n > 100:  # the 12 heaviest hubs and 12 random nodes
        hubs = np.argsort(-graph.in_degrees(), kind="stable")[:12]
        rng = np.random.default_rng(n)
        queries = [*hubs.tolist(), *rng.choice(n, 12, replace=False)]
    else:
        queries = list(range(n))
    for dtype in ("float64", "float32"):
        index = SimilarityIndex.build(
            graph, measure="gSR*", num_iterations=num_iterations,
            mode="approx", dtype=dtype, seed=11,
        )
        if mapped:
            index = load_index(index.save(tmp_path / f"{dtype}.simidx"))
            assert not index.walks.indptr.flags.writeable
        for support_cap in (1, 2, 8192):
            estimator = ApproxEstimator(
                *_estimator_args(index), dtype=dtype,
                support_cap=support_cap,
            )
            reference = NumpyGatherEstimator(
                *_estimator_args(index), dtype=dtype,
                support_cap=support_cap,
            )
            for query in queries:
                got = estimator.column(query)
                want = reference.column(query)
                assert got.dtype == want.dtype == np.dtype(dtype)
                assert np.array_equal(got, want)
                assert got.tobytes() == want.tobytes(), (query, support_cap)
            assert estimator.stats == reference.stats
            assert estimator.stats.columns == len(queries)


def test_columns_keep_their_bytes_without_the_compiled_loops(monkeypatch):
    """Without scipy's private loops the estimator falls back to public
    expressions that multiply and add in the same order."""
    import repro.core.kernels as kernels

    graph = scale_free_graph(2000, avg_out_degree=8, seed=2)
    index = SimilarityIndex.build(
        graph, measure="gSR*", num_iterations=10, mode="approx", seed=11
    )
    queries = np.argsort(-graph.in_degrees(), kind="stable")[:8].tolist()
    queries += list(range(0, graph.num_nodes, 250))
    compiled = ApproxEstimator(*_estimator_args(index))
    want = [compiled.column(q) for q in queries]
    monkeypatch.setattr(kernels, "_HAVE_SPARSETOOLS", False)
    fallback = ApproxEstimator(*_estimator_args(index))
    for query, column in zip(queries, want):
        assert fallback.column(query).tobytes() == column.tobytes()
    assert fallback.stats == compiled.stats


def test_threads_sharing_an_estimator_get_the_sequential_columns():
    """Worker threads share one estimator and its compiled loops run
    without the GIL: with more threads than cores and a short switch
    interval, every column still equals its sequential twin and no
    count is lost."""
    graph = scale_free_graph(2000, avg_out_degree=8, seed=1)
    index = SimilarityIndex.build(
        graph, measure="gSR*", num_iterations=10, mode="approx", seed=11
    )
    hubs = np.argsort(-graph.in_degrees(), kind="stable")[:16]
    queries = [*hubs.tolist(), *range(0, graph.num_nodes, 125)]
    sequential = ApproxEstimator(*_estimator_args(index))
    want = {q: sequential.column(q) for q in queries}
    shared = ApproxEstimator(*_estimator_args(index))
    threads_n = 4
    got = [dict() for _ in range(threads_n)]

    def work(slot):
        order = queries[slot:] + queries[:slot]
        for query in order:
            got[slot][query] = shared.column(query)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=work, args=(slot,))
            for slot in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for columns in got:
        assert columns.keys() == want.keys()
        for query, column in columns.items():
            assert column.tobytes() == want[query].tobytes()
    assert shared.stats.columns == threads_n * len(queries)
    for name in ("samples_drawn", "support_truncations"):
        assert getattr(shared.stats, name) == threads_n * getattr(
            sequential.stats, name
        )


# ---------------------------------------------------------------------------
# engine / config routing
# ---------------------------------------------------------------------------
def test_config_validates_mode_epsilon_seed():
    with pytest.raises(ValueError):
        SimilarityConfig(measure="gSR*", mode="fuzzy")
    with pytest.raises(ValueError):
        SimilarityConfig(measure="gSR*", mode="approx", epsilon=1.5)
    with pytest.raises(ValueError):
        SimilarityConfig(measure="gSR*", mode="approx", epsilon=0.0)
    config = SimilarityConfig(
        measure="gSR*", mode="approx", epsilon=0.1, seed=3
    )
    assert config.mode == "approx"
    assert config.seed == 3


def test_engine_routes_topk_and_batch_through_estimator():
    graph = small_graph()
    engine = SimilarityEngine(graph, APPROX)
    ranking = engine.top_k(7, k=3)
    assert len(ranking.nodes) == 3
    assert 7 not in ranking.nodes
    batch = engine.batch_top_k([6, 7], k=3)
    assert [r.query for r in batch] == [6, 7]
    status = engine.approx_status()
    assert status["walk_length"] == engine.walk_index.walk_length
    stats = status["estimator"]
    # top_k and batch_top_k both answer from estimator columns
    assert stats["columns"] >= 2


def test_approx_engine_answers_on_edgeless_graph():
    exact = SimilarityEngine(
        DiGraph(3), SimilarityConfig(measure="gSR*", num_iterations=8)
    )
    approx = SimilarityEngine(DiGraph(3), APPROX)
    assert approx.top_k(0, k=2).nodes == exact.top_k(0, k=2).nodes


@pytest.mark.parametrize("max_delta_fraction", [1.0, 0.1])
def test_approx_mutate_can_remove_the_last_edge(max_delta_fraction):
    """The delta path (whole batch eligible) and the full rebuild
    (batch over the delta budget) both reach an edgeless graph."""
    from repro.serve.snapshot import SnapshotManager

    manager = SnapshotManager(
        DiGraph(3, edges=[(0, 1)]),
        APPROX,
        max_delta_fraction=max_delta_fraction,
    )
    manager.warmup()
    snapshot = manager.mutate(remove=[(0, 1)])
    assert snapshot.graph.num_edges == 0
    delta = manager.describe()["delta"]
    assert delta["fallbacks"] == 0
    assert delta["swaps"] == (1 if max_delta_fraction == 1.0 else 0)
    assert len(snapshot.engine.top_k(1, k=2).nodes) == 2


def test_exact_engine_reports_no_approx_status():
    engine = SimilarityEngine(
        small_graph(),
        SimilarityConfig(measure="gSR*", num_iterations=8),
    )
    assert engine.approx_status() is None


# ---------------------------------------------------------------------------
# .simidx round-trip of the walk segments
# ---------------------------------------------------------------------------
def build_approx_index() -> SimilarityIndex:
    return SimilarityIndex.build(
        small_graph(),
        measure="gSR*",
        num_iterations=8,
        mode="approx",
        epsilon=0.1,
        seed=11,
    )


def test_simidx_round_trips_walk_segments(tmp_path):
    index = build_approx_index()
    path = index.save(tmp_path / "approx.simidx")
    assert verify_index(path) == []
    loaded = load_index(path)
    assert loaded.walks == index.walks
    assert loaded.meta.mode == "approx"
    assert loaded.meta.walk_samples == index.walks.samples
    # an engine adopted from the mmap'd index answers identically
    original = SimilarityEngine(small_graph(), APPROX.replace(epsilon=0.1))
    adopted = SimilarityEngine.from_index(loaded, small_graph())
    np.testing.assert_array_equal(
        original.columns([4])[4], adopted.columns([4])[4]
    )


def test_legacy_endpoints_segment_is_ignored(tmp_path):
    """Files from before the walk index dropped its endpoint array
    carry a walks/endpoints segment; they keep loading and verifying."""
    from repro.index.store import _flat_arrays, write_container

    index = build_approx_index()
    arrays, csr_shapes = _flat_arrays(index)
    walks = index.walks
    arrays["walks/endpoints"] = np.zeros(
        (walks.walk_length, walks.num_nodes, walks.samples),
        dtype=np.uint32,
    )
    path = write_container(
        tmp_path / "legacy.simidx",
        {"meta": index.meta.to_dict(), "csr_shapes": csr_shapes},
        arrays,
    )
    assert verify_index(path) == []
    assert load_index(path).walks == walks


def _with_buckets(index, sources=None, counts=None):
    walks = index.walks
    return dataclasses.replace(index, walks=WalkIndex.from_arrays(
        walks.sources if sources is None else sources,
        walks.counts if counts is None else counts,
        walks.indptr, walks.level_offsets,
        samples=walks.samples, seed=walks.seed,
    ))


def test_verify_flags_impossible_walk_totals(tmp_path):
    """Checksummed but impossible buckets: more walks of a source at a
    level than it drew, or more than it had one level earlier."""
    index = build_approx_index()
    walks = index.walks
    level_one = slice(0, int(walks.level_offsets[1]))
    level_two = slice(int(walks.level_offsets[1]), int(walks.level_offsets[2]))

    counts = walks.counts.copy()
    counts[level_one] = walks.samples  # sources with 2+ endpoints overflow
    path = _with_buckets(index, counts=counts).save(tmp_path / "over.simidx")
    assert any("level 1" in p for p in verify_index(path))

    alive = np.bincount(
        walks.sources[level_two], weights=walks.counts[level_two],
        minlength=walks.num_nodes,
    )
    grower = int(np.argmax(alive))
    counts = walks.counts.copy()
    counts[level_one][walks.sources[level_one] == grower] = 1
    assert alive[grower] > np.sum(walks.sources[level_one] == grower)
    path = _with_buckets(index, counts=counts).save(tmp_path / "grow.simidx")
    assert any("level 2" in p for p in verify_index(path))


def test_corrupt_walk_segment_is_reported(tmp_path):
    index = build_approx_index()
    path = index.save(tmp_path / "approx.simidx")
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.seek(size - 16)
        byte = handle.read(1)
        handle.seek(size - 16)
        handle.write(bytes([byte[0] ^ 0xFF]))
    problems = verify_index(path)
    assert problems, "flipped payload byte must fail verification"


def test_truncated_walk_segment_is_rejected(tmp_path):
    index = build_approx_index()
    path = index.save(tmp_path / "approx.simidx")
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size - 64)
    problems = verify_index(path)
    assert problems, "truncated walk payload must fail verification"
    with pytest.raises(IndexFormatError):
        load_index(path)


# ---------------------------------------------------------------------------
# structure checks: the compiled loops trust every index they read
# ---------------------------------------------------------------------------
def _out_of_range_level_two(walks) -> np.ndarray:
    sources = walks.sources.copy()
    level_two = slice(
        int(walks.level_offsets[1]), int(walks.level_offsets[2])
    )
    assert level_two.stop > level_two.start
    sources[level_two][-1] = 50_000_000
    return sources


def test_estimator_rejects_out_of_range_bucket_sources():
    index = build_approx_index()
    bad = _with_buckets(
        index, sources=_out_of_range_level_two(index.walks)
    )
    with pytest.raises(ValueError, match="CSR"):
        ApproxEstimator(*_estimator_args(bad))


def test_estimator_rejects_out_of_range_transpose_index():
    index = build_approx_index()
    transition_t = index.transition_t.copy()
    transition_t.indices[-1] = index.meta.num_nodes
    bad = dataclasses.replace(index, transition_t=transition_t)
    with pytest.raises(ValueError, match="CSR"):
        ApproxEstimator(*_estimator_args(bad))


def test_estimator_rejects_decreasing_row_pointers():
    index = build_approx_index()
    transition = index.transition.copy()
    transition.indptr[1], transition.indptr[2] = (
        transition.indptr[2] + 1, transition.indptr[1]
    )
    bad = dataclasses.replace(index, transition=transition)
    with pytest.raises(ValueError, match="CSR"):
        ApproxEstimator(*_estimator_args(bad))


def test_mapped_index_with_bad_sources_fails_a_read_cleanly(tmp_path):
    """Checksums are valid, so loading succeeds and maps the bad
    buckets; the first read raises instead of reaching a C loop."""
    index = build_approx_index()
    path = _with_buckets(
        index, sources=_out_of_range_level_two(index.walks)
    ).save(tmp_path / "bad.simidx")
    loaded = load_index(path)
    assert not loaded.walks.sources.flags.writeable
    engine = SimilarityEngine.from_index(loaded, small_graph())
    with pytest.raises(ValueError, match="CSR"):
        engine.top_k(4, k=3)
    from repro.serve.service import ServingService

    service = ServingService(
        small_graph(), APPROX.replace(epsilon=0.1), index_path=path
    )
    try:
        service.start_background()
        with pytest.raises(ValueError, match="CSR"):
            service.top_k_sync(4, k=3)
    finally:
        service.close()


def test_rewalk_and_column_check_before_gathering():
    index = build_approx_index()
    q = index.transition
    bad = _with_buckets(
        index, sources=_out_of_range_level_two(index.walks)
    ).walks
    with pytest.raises(ValueError, match="CSR"):
        bad.rewalked(q, q, targets=[2])
    with pytest.raises(ValueError, match="targets"):
        index.walks.rewalked(q, q, targets=[-1])
    estimator = ApproxEstimator(*_estimator_args(index))
    for query in (-1, index.meta.num_nodes):
        with pytest.raises(IndexError):
            estimator.column(query)
    assert estimator.stats.columns == 0


# ---------------------------------------------------------------------------
# surfaces: serve status + scale-free generator
# ---------------------------------------------------------------------------
def test_serve_status_reports_approx_section():
    from repro.serve.service import ServingService

    service = ServingService(small_graph(), APPROX)
    try:
        service.start_background()
        service.top_k_sync(7, k=3)
        document = service.status()
        assert document["config"]["mode"] == "approx"
        approx = document["approx"]
        assert approx["walk_length"] >= 1
        assert approx["index_bytes"] > 0
        stats = approx["estimator"]
        assert stats["columns"] >= 1
    finally:
        service.close()


def test_scale_free_generator_is_deterministic():
    a = scale_free_graph(400, avg_out_degree=6.0, seed=9)
    b = scale_free_graph(400, avg_out_degree=6.0, seed=9)
    c = scale_free_graph(400, avg_out_degree=6.0, seed=10)
    assert sorted(a.edges()) == sorted(b.edges())
    assert sorted(a.edges()) != sorted(c.edges())
    assert a.num_nodes == 400
    # heavy-tailed in-degrees: the hub collects far more than the mean
    in_degrees = a.in_degrees()
    assert in_degrees.max() > 4 * in_degrees.mean()


def test_scale_free_generator_validates_arguments():
    with pytest.raises(ValueError):
        scale_free_graph(0)
    with pytest.raises(ValueError):
        scale_free_graph(10, avg_out_degree=0.0)
    with pytest.raises(ValueError):
        scale_free_graph(10, pa_bias=1.0)
