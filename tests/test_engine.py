"""Tests for the stateful SimilarityEngine, its config, the measure
registry, and the label-aware result types."""

import numpy as np
import pytest

from repro import (
    MEASURES,
    Ranking,
    ScoreMatrix,
    SimilarityConfig,
    SimilarityEngine,
    available_measures,
    compute_measure,
    get_measure,
    register_measure,
    simrank_star,
    single_source,
    top_k,
)
from repro.baselines import rwr
from repro.engine.registry import _REGISTRY
from repro.engine.results import RankedNode
from repro.graph import figure1_citation_graph, path_graph, random_digraph
from repro.measures import SEMANTIC_MEASURES, TIMED_ALGORITHMS


class TestRegistry:
    def test_every_old_measure_is_registered(self):
        for name, fn in MEASURES.items():
            spec = get_measure(name)
            assert spec.name == name
            assert spec.compute is fn

    def test_registry_results_match_measures_dict(self):
        g = figure1_citation_graph()
        for name in MEASURES:
            via_dict = MEASURES[name](g, 0.6, 4)
            via_registry = get_measure(name).compute(g, 0.6, 4)
            np.testing.assert_array_equal(via_dict, via_registry)

    def test_semantic_and_timed_flags_project_the_old_dicts(self):
        assert set(available_measures(semantic=True)) == set(
            SEMANTIC_MEASURES
        )
        assert set(available_measures(timed=True)) == set(
            TIMED_ALGORITHMS
        )
        assert set(available_measures()) == set(MEASURES)

    def test_metadata(self):
        spec = get_measure("gSR*")
        assert spec.family == "SimRank*"
        assert spec.supports_single_source
        assert spec.weight_scheme == "geometric"
        assert "transition" in spec.uses
        rwr_spec = get_measure("RWR")
        assert not rwr_spec.symmetric
        assert not rwr_spec.supports_single_source

    def test_unknown_measure(self):
        with pytest.raises(KeyError, match="unknown measure"):
            get_measure("PageRank")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_measure(
                "gSR*", label="dup", family="SimRank*"
            )(lambda g, c, k: None)

    def test_custom_measure_plugs_into_engine(self):
        name = "test-cocitation"
        try:
            @register_measure(
                name, label="co-citation (test)", family="co-citation"
            )
            def _cocite(graph, c, num_iterations):
                a = np.zeros((graph.num_nodes, graph.num_nodes))
                for u, v in graph.edges():
                    a[u, v] = 1.0
                return a.T @ a

            g = figure1_citation_graph()
            engine = SimilarityEngine(g, measure=name)
            assert engine.matrix().shape == (11, 11)
            assert engine.score(0, 0) >= 0
            # the live dict views see the runtime registration
            assert name in MEASURES
        finally:
            _REGISTRY.pop(name, None)
        assert name not in MEASURES

    def test_unknown_artifact_rejected(self):
        with pytest.raises(ValueError, match="unknown artifact"):
            register_measure(
                "bad", label="bad", family="x", uses=("sketch",)
            )

    def test_single_source_capability_requires_weight_scheme(self):
        # the fast path is the weighted series walk; without a scheme
        # columns would contradict the measure's own matrix
        with pytest.raises(ValueError, match="weight_scheme"):
            register_measure(
                "bad", label="bad", family="x",
                supports_single_source=True,
            )


class TestSimilarityConfig:
    def test_defaults(self):
        cfg = SimilarityConfig()
        assert cfg.measure == "gSR*"
        assert cfg.c == 0.6
        assert cfg.resolved_iterations("geometric", 5) == 5

    def test_rejects_bad_damping(self):
        for c in (0.0, 1.0, -2, 7):
            with pytest.raises(ValueError, match="damping"):
                SimilarityConfig(c=c)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError, match="num_iterations"):
            SimilarityConfig(num_iterations=-1)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            SimilarityConfig(epsilon=2.0)

    def test_rejects_both_truncation_specs(self):
        with pytest.raises(ValueError, match="either"):
            SimilarityConfig(num_iterations=5, epsilon=1e-3)

    def test_rejects_unknown_weights(self):
        with pytest.raises(ValueError, match="weights"):
            SimilarityConfig(weights="harmonic")

    def test_epsilon_resolution_uses_variant_bound(self):
        cfg = SimilarityConfig(c=0.8, epsilon=1e-3)
        k_geo = cfg.resolved_iterations("geometric", 5)
        k_exp = cfg.resolved_iterations("exponential", 10)
        assert k_exp < k_geo  # factorial decay needs fewer terms

    def test_replace_revalidates(self):
        cfg = SimilarityConfig(c=0.6)
        assert cfg.replace(c=0.8).c == 0.8
        with pytest.raises(ValueError):
            cfg.replace(c=1.5)

    def test_engine_rejects_mismatched_weights(self):
        g = path_graph(4)
        with pytest.raises(ValueError, match="length weights"):
            SimilarityEngine(g, measure="gSR*", weights="exponential")
        # matching scheme is fine
        SimilarityEngine(g, measure="gSR*", weights="geometric")

    def test_engine_accepts_config_plus_overrides(self):
        g = path_graph(4)
        cfg = SimilarityConfig(c=0.6)
        engine = SimilarityEngine(g, cfg, c=0.8)
        assert engine.config.c == 0.8

    def test_engine_rejects_unknown_measure(self):
        with pytest.raises(KeyError, match="unknown measure"):
            SimilarityEngine(path_graph(3), measure="PageRank")


class TestCacheReuse:
    def test_transition_built_once_across_queries(self):
        g = random_digraph(30, 140, seed=0)
        engine = SimilarityEngine(g, num_iterations=8)
        for query in (0, 5, 9, 5, 0):
            engine.single_source(query)
        assert engine.stats.transition_builds == 1
        assert engine.stats.column_computes == 3  # distinct queries
        assert engine.stats.hits == 2  # repeats served from memo

    def test_repeated_top_k_serves_from_cache(self):
        g = random_digraph(30, 140, seed=1)
        engine = SimilarityEngine(g, num_iterations=8)
        first = engine.top_k(3, k=5)
        again = engine.top_k(3, k=5)
        assert first == again
        assert engine.stats.column_computes == 1
        assert engine.stats.transition_builds == 1

    def test_batch_top_k_shares_precomputation(self):
        g = random_digraph(25, 100, seed=2)
        engine = SimilarityEngine(g, num_iterations=6)
        rankings = engine.batch_top_k([0, 1, 2, 1], k=3)
        assert len(rankings) == 4
        assert rankings[1] == rankings[3]
        assert engine.stats.transition_builds == 1
        assert engine.stats.column_computes == 3

    def test_matrix_memoized(self):
        g = random_digraph(20, 80, seed=3)
        engine = SimilarityEngine(g, num_iterations=6)
        a = engine.matrix()
        b = engine.matrix()
        assert a is b
        assert engine.stats.matrix_builds == 1

    def test_compression_built_once_for_memo_measure(self):
        g = random_digraph(25, 120, seed=4)
        engine = SimilarityEngine(g, measure="memo-gSR*",
                                  num_iterations=6)
        engine.matrix()
        engine.matrix()
        engine.top_k(0, k=3)
        assert engine.stats.compression_builds == 1
        assert engine.stats.matrix_builds == 1

    def test_columns_reuse_built_matrix(self):
        # once the full matrix exists, columns come from it for free
        g = random_digraph(20, 80, seed=5)
        engine = SimilarityEngine(g, num_iterations=6)
        engine.matrix()
        engine.single_source(2)
        assert engine.stats.column_computes == 0

    def test_score_reuses_any_cached_column(self):
        g = random_digraph(20, 80, seed=6)
        engine = SimilarityEngine(g, num_iterations=6)
        engine.single_source(4)
        engine.score(4, 7)  # symmetric: column 4 already cached
        assert engine.stats.column_computes == 1

    def test_single_source_result_is_read_only(self):
        g = random_digraph(10, 30, seed=7)
        engine = SimilarityEngine(g, num_iterations=5)
        scores = engine.single_source(0)
        with pytest.raises(ValueError):
            scores[0] = 99.0


class TestInvalidation:
    def test_engine_add_edge_invalidates_and_changes_scores(self):
        g = path_graph(5)
        engine = SimilarityEngine(g, num_iterations=8)
        before = engine.score(2, 4)
        engine.add_edge(0, 4)  # 2 and 4 now share in-link source 0...
        after = engine.score(2, 4)
        assert engine.stats.invalidations == 1
        assert after != before
        # parity with a fresh functional computation on the new graph
        assert after == pytest.approx(
            float(single_source(g, 4, 0.6, 8)[2])
        )

    def test_direct_graph_mutation_detected_by_staleness_check(self):
        g = path_graph(5)
        engine = SimilarityEngine(g, num_iterations=8)
        engine.single_source(4)
        g.add_edge(0, 4)  # behind the engine's back
        fresh = engine.single_source(4)
        assert engine.stats.invalidations == 1
        np.testing.assert_allclose(
            fresh, single_source(g, 4, 0.6, 8), atol=1e-12
        )

    def test_explicit_invalidate_drops_everything(self):
        g = random_digraph(15, 60, seed=8)
        engine = SimilarityEngine(g, num_iterations=6)
        engine.matrix()
        engine.single_source(0)
        engine.invalidate()
        engine.matrix()
        assert engine.stats.matrix_builds == 2

    def test_edge_swap_with_constant_counts_detected(self):
        # remove + add keeps (n, m) fixed; the DiGraph mutation
        # counter still moves, so the staleness check catches it
        g = path_graph(5)
        engine = SimilarityEngine(g, num_iterations=8)
        engine.single_source(4)
        g.remove_edge(3, 4)
        g.add_edge(0, 4)
        fresh = engine.single_source(4)
        assert engine.stats.invalidations == 1
        np.testing.assert_allclose(
            fresh, single_source(g, 4, 0.6, 8), atol=1e-12
        )

    def test_digraph_version_counter(self):
        g = path_graph(3)
        v0 = g.version
        g.add_edge(0, 2)
        assert g.version == v0 + 1
        g.add_edge(0, 2)  # duplicate: no structural change
        assert g.version == v0 + 1
        g.remove_edge(0, 2)
        assert g.version == v0 + 2

    def test_compressed_factorization_cached(self):
        from repro.bigraph import compress_graph

        compressed = compress_graph(random_digraph(30, 160, seed=9))
        first = compressed.factorized_in_adjacency()
        assert compressed.factorized_in_adjacency() is first

    def test_remove_edge_invalidates(self):
        g = figure1_citation_graph()
        engine = SimilarityEngine(g, c=0.8, num_iterations=10)
        before = engine.score("h", "d")
        engine.remove_edge("a", "d")
        assert engine.stats.invalidations == 1
        assert engine.score("h", "d") != before


class TestNumericalParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_source_matches_functional(self, seed):
        g = random_digraph(20, 90, seed=seed)
        engine = SimilarityEngine(g, c=0.6, num_iterations=8)
        for query in (0, 7, 13):
            np.testing.assert_allclose(
                engine.single_source(query),
                single_source(g, query, 0.6, 8),
                atol=1e-12,
            )

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matrix_matches_functional(self, seed):
        g = random_digraph(18, 70, seed=seed)
        engine = SimilarityEngine(g, c=0.6, num_iterations=8)
        np.testing.assert_allclose(
            np.asarray(engine.matrix()),
            simrank_star(g, 0.6, 8),
            atol=1e-12,
        )

    def test_matrix_and_columns_agree(self):
        g = random_digraph(16, 60, seed=3)
        engine = SimilarityEngine(g, c=0.6, num_iterations=8)
        col = engine.single_source(5)  # series path
        full = np.asarray(engine.matrix())
        np.testing.assert_allclose(col, full[:, 5], atol=1e-12)

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_every_measure_matches_compute_measure(self, name):
        g = figure1_citation_graph()
        engine = SimilarityEngine(g, measure=name, c=0.6,
                                  num_iterations=4)
        np.testing.assert_allclose(
            np.asarray(engine.matrix()),
            compute_measure(name, g, 0.6, 4),
            atol=1e-12,
        )

    def test_asymmetric_measure_column_orientation(self):
        # RWR has no single-source fast path; columns slice the matrix
        g = random_digraph(15, 60, seed=4)
        engine = SimilarityEngine(g, measure="RWR", num_iterations=6)
        expected = rwr(g, 0.6, 6)
        np.testing.assert_allclose(
            engine.single_source(3), expected[:, 3], atol=1e-12
        )
        assert engine.score(2, 3) == pytest.approx(expected[2, 3])

    def test_epsilon_config_matches_functional_epsilon(self):
        g = random_digraph(15, 60, seed=5)
        engine = SimilarityEngine(g, c=0.8, epsilon=1e-3)
        np.testing.assert_allclose(
            np.asarray(engine.matrix()),
            simrank_star(g, 0.8, epsilon=1e-3),
            atol=1e-12,
        )


class TestRankingType:
    def test_functional_top_k_surfaces_labels(self):
        g = figure1_citation_graph()
        ranked = top_k(g, g.node_of("i"), k=3, c=0.8, num_terms=30)
        assert isinstance(ranked, Ranking)
        assert all(isinstance(lab, str) for lab in ranked.labels)
        # labels translate the ids
        assert ranked.labels == [g.label_of(n) for n in ranked.nodes]

    def test_unlabelled_graph_uses_ids_as_labels(self):
        g = random_digraph(10, 40, seed=0)
        ranked = top_k(g, 0, k=3)
        assert ranked.labels == ranked.nodes

    def test_entries_unpack_as_pairs(self):
        g = figure1_citation_graph()
        for node, score in top_k(g, 0, k=3, c=0.8):
            assert isinstance(node, int)
            assert isinstance(score, float)

    def test_equality_with_plain_list(self):
        g = random_digraph(10, 40, seed=1)
        ranked = top_k(g, 0, k=3)
        assert ranked == ranked.to_pairs()
        assert ranked.to_pairs() == [(e.node, e.score) for e in ranked]

    def test_slicing_preserves_metadata(self):
        g = figure1_citation_graph()
        ranked = top_k(g, g.node_of("i"), k=5, c=0.8)
        head = ranked[:2]
        assert isinstance(head, Ranking)
        assert head.query == ranked.query
        assert len(head) == 2

    def test_engine_top_k_exclude(self):
        g = random_digraph(20, 80, seed=2)
        engine = SimilarityEngine(g, num_iterations=6)
        banned = {1, 2, 3}
        ranked = engine.top_k(0, k=10, exclude=banned)
        assert not banned & set(ranked.nodes)

    def test_ranked_node_repr_and_label(self):
        item = RankedNode(3, 0.25, label="c")
        assert item == (3, 0.25)
        assert item.label == "c"
        assert "c" in repr(item)


class TestScoreMatrix:
    def test_label_indexing(self):
        g = figure1_citation_graph()
        engine = SimilarityEngine(g, c=0.8, num_iterations=10)
        sm = engine.matrix()
        h, d = g.node_of("h"), g.node_of("d")
        assert sm["h", "d"] == sm[h, d]
        assert sm.score("h", "d") == pytest.approx(float(sm[h, d]))

    def test_mixed_and_raw_indexing(self):
        g = figure1_citation_graph()
        sm = SimilarityEngine(g, c=0.8, num_iterations=5).matrix()
        h = g.node_of("h")
        assert sm["h", 0] == sm[h, 0]
        assert sm[0].shape == (11,)  # row passthrough

    def test_asarray_passthrough(self):
        g = random_digraph(8, 25, seed=0)
        sm = SimilarityEngine(g, num_iterations=5).matrix()
        arr = np.asarray(sm)
        assert arr.shape == (8, 8)
        assert sm.labels is None

    def test_top_k_from_matrix_matches_engine(self):
        g = figure1_citation_graph()
        engine = SimilarityEngine(g, c=0.8, num_iterations=30)
        a = engine.matrix().top_k("i", k=3)
        b = engine.top_k("i", k=3)
        assert a.nodes == b.nodes
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-12)

    def test_unlabelled_matrix_rejects_string_keys(self):
        g = path_graph(4)
        sm = SimilarityEngine(g, num_iterations=4).matrix()
        with pytest.raises(KeyError):
            sm["a", "b"]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            ScoreMatrix(np.zeros((2, 3)))


class TestBatchTopK:
    """The blocked batch path must be indistinguishable from looping."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_equals_sequential_top_k(self, seed):
        g = random_digraph(40, 220, seed=seed)
        queries = [0, 7, 33, 7, 12]
        batch_engine = SimilarityEngine(g, num_iterations=8)
        loop_engine = SimilarityEngine(g.copy(), num_iterations=8)
        batched = batch_engine.batch_top_k(queries, k=6)
        looped = [loop_engine.top_k(q, k=6) for q in queries]
        assert batched == looped

    def test_batch_respects_include_query(self):
        g = random_digraph(25, 120, seed=3)
        engine = SimilarityEngine(g, num_iterations=6)
        with_query = engine.batch_top_k([4], k=5, include_query=True)
        assert 4 in with_query[0].nodes

    def test_batch_reuses_cached_columns(self):
        g = random_digraph(30, 150, seed=4)
        engine = SimilarityEngine(g, num_iterations=6)
        engine.top_k(3, k=5)
        assert engine.stats.column_computes == 1
        engine.batch_top_k([3, 9], k=5)
        # only the fresh query walked; the repeat was a memo hit
        assert engine.stats.column_computes == 2
        assert engine.stats.hits == 1

    def test_batch_then_single_source_hits_memo(self):
        g = random_digraph(30, 150, seed=5)
        engine = SimilarityEngine(g, num_iterations=6)
        engine.batch_top_k([2, 8], k=5)
        engine.single_source(2)
        assert engine.stats.column_computes == 2
        assert engine.stats.hits == 1

    def test_batch_for_matrix_only_measure(self):
        # RWR has no series path: the batch falls back to matrix
        # columns and still matches sequential serving
        g = random_digraph(20, 80, seed=6)
        engine = SimilarityEngine(g, measure="RWR", num_iterations=6)
        other = SimilarityEngine(g.copy(), measure="RWR",
                                 num_iterations=6)
        assert engine.batch_top_k([1, 5], k=4) == [
            other.top_k(1, k=4), other.top_k(5, k=4)
        ]

    def test_batch_accepts_labels(self):
        g = figure1_citation_graph()
        engine = SimilarityEngine(g, c=0.8, num_iterations=10)
        by_label = engine.batch_top_k(["i", "h"], k=3)
        by_id = engine.batch_top_k(
            [g.node_of("i"), g.node_of("h")], k=3
        )
        assert by_label == by_id

    def test_empty_batch(self):
        g = random_digraph(10, 40, seed=7)
        engine = SimilarityEngine(g, num_iterations=5)
        assert engine.batch_top_k([], k=3) == []


class TestDtypePropagation:
    def test_default_is_float64(self):
        cfg = SimilarityConfig()
        assert cfg.dtype == "float64"
        assert cfg.np_dtype == np.float64
        g = random_digraph(20, 80, seed=0)
        engine = SimilarityEngine(g, num_iterations=5)
        assert engine.single_source(0).dtype == np.float64
        assert engine.transition.dtype == np.float64

    def test_float32_columns_and_transition(self):
        g = random_digraph(20, 80, seed=1)
        engine = SimilarityEngine(g, num_iterations=5, dtype="float32")
        assert engine.transition.dtype == np.float32
        scores = engine.single_source(0)
        assert scores.dtype == np.float32
        reference = SimilarityEngine(
            g.copy(), num_iterations=5
        ).single_source(0)
        np.testing.assert_allclose(scores, reference, atol=1e-4)

    def test_numpy_dtype_objects_normalised(self):
        assert SimilarityConfig(dtype=np.float32).dtype == "float32"
        assert SimilarityConfig(dtype=np.dtype("f8")).dtype == "float64"

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            SimilarityConfig(dtype="float16")
        with pytest.raises(ValueError, match="dtype"):
            SimilarityConfig(dtype="int64")

    def test_float32_matrix_build(self):
        g = random_digraph(20, 80, seed=2)
        engine = SimilarityEngine(
            g, measure="gSR*", num_iterations=5, dtype="float32"
        )
        matrix = engine.matrix()
        assert np.asarray(matrix).dtype == np.float32
        reference = simrank_star(g, 0.6, 5)
        np.testing.assert_allclose(
            np.asarray(matrix), reference, atol=1e-4
        )

    def test_batch_top_k_float32_matches_float64_ranking(self):
        g = random_digraph(40, 200, seed=3)
        fast = SimilarityEngine(g, num_iterations=6, dtype="float32")
        exact = SimilarityEngine(g.copy(), num_iterations=6)
        for a, b in zip(fast.batch_top_k([0, 9], k=3),
                        exact.batch_top_k([0, 9], k=3)):
            assert a.nodes == b.nodes
            np.testing.assert_allclose(a.scores, b.scores, atol=1e-4)


class TestRankingSelection:
    """argpartition top-k must match a full sort exactly."""

    def _full_sort(self, scores, query, k, include_query=False,
                   exclude=()):
        order = np.lexsort((np.arange(len(scores)), -scores))
        skip = set(exclude)
        if not include_query:
            skip.add(query)
        pairs = []
        for node in order:
            if len(pairs) >= k:
                break
            if int(node) in skip:
                continue
            pairs.append((int(node), float(scores[node])))
        return pairs

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("k", [0, 1, 5, 40, 1000])
    def test_matches_full_sort_random(self, seed, k):
        rng = np.random.default_rng(seed)
        scores = rng.random(60)
        ranked = Ranking.from_scores(scores, query=3, k=k)
        assert ranked.to_pairs() == self._full_sort(scores, 3, k)

    @pytest.mark.parametrize("k", [1, 3, 10, 25])
    def test_matches_full_sort_with_heavy_ties(self, k):
        rng = np.random.default_rng(99)
        # few distinct values -> ties across the cut-off are common
        scores = rng.integers(0, 4, size=50).astype(float) / 4.0
        ranked = Ranking.from_scores(scores, query=0, k=k)
        assert ranked.to_pairs() == self._full_sort(scores, 0, k)

    def test_exclude_and_include_query(self):
        rng = np.random.default_rng(7)
        scores = rng.random(30)
        exclude = {1, 2, 29}
        ranked = Ranking.from_scores(
            scores, query=5, k=10, include_query=True, exclude=exclude
        )
        assert ranked.to_pairs() == self._full_sort(
            scores, 5, 10, include_query=True, exclude=exclude
        )

    def test_out_of_range_exclusions_ignored(self):
        scores = np.array([0.3, 0.1, 0.2])
        ranked = Ranking.from_scores(
            scores, query=0, k=3, exclude={77, -5}
        )
        assert ranked.nodes == [2, 1]

    def test_all_nodes_excluded(self):
        scores = np.array([0.3, 0.1])
        ranked = Ranking.from_scores(
            scores, query=0, k=5, exclude={1}
        )
        assert len(ranked) == 0

    @staticmethod
    def _random_case(rng):
        """One seeded score vector from a shape that stresses the
        cut-off: dense, tie-heavy (fewer than k non-zeros), NaN-laden
        or with infinities."""
        n = int(rng.integers(0, 40))
        shape = rng.choice(["dense", "sparse", "ties", "nan", "inf"])
        if shape == "dense":
            scores = rng.random(n)
        elif shape == "sparse":
            scores = np.zeros(n)
            hot = rng.choice(n, size=min(n, int(rng.integers(0, 4))),
                             replace=False)
            scores[hot] = rng.random(hot.size)
        elif shape == "ties":
            scores = rng.integers(0, 3, size=n) / 2.0
            scores[rng.random(n) < 0.2] *= -1.0  # -0.0 ties 0.0
        elif shape == "nan":
            scores = rng.random(n)
            scores[rng.random(n) < 0.4] = np.nan
        else:
            scores = rng.integers(0, 3, size=n).astype(float)
            scores[rng.random(n) < 0.2] = np.inf
            scores[rng.random(n) < 0.2] = -np.inf
        k = int(rng.choice([0, 1, 3, 10, n, n + 5]))
        exclude = set(
            rng.integers(-3, n + 3, size=int(rng.integers(0, 5))).tolist()
        )
        return scores, int(rng.integers(0, n + 2)), k, exclude

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tie_chunk", [3, 16384])
    def test_property_matches_lexsort_oracle(
        self, seed, tie_chunk, monkeypatch
    ):
        from repro.engine import results

        # a small chunk makes the tie scan cross chunk boundaries
        monkeypatch.setattr(results, "_TIE_CHUNK", tie_chunk)
        rng = np.random.default_rng([seed, 2024])
        for _ in range(400):
            scores, query, k, exclude = self._random_case(rng)
            include_query = bool(rng.integers(0, 2))
            ranked = Ranking.from_scores(
                scores, query=query, k=k, include_query=include_query,
                exclude=exclude,
            )
            skip = {x for x in exclude if 0 <= x < len(scores)}
            if not include_query:
                skip.add(query)
            ids = np.array(
                [i for i in range(len(scores)) if i not in skip],
                dtype=np.intp,
            )
            want = ids[np.lexsort((ids, -scores[ids]))][:k]
            assert ranked.nodes == want.tolist()
            got = np.array(ranked.scores, dtype=np.float64)
            assert got.tobytes() == scores[want].tobytes()

    def test_nan_scores_rank_last_not_dropped(self):
        # a NaN at the cut-off must not wipe the finite answers
        scores = np.array([0.5, np.nan, np.nan, 0.3, 0.1])
        ranked = Ranking.from_scores(scores, query=99, k=3)
        assert ranked.nodes == [0, 3, 4]  # finite scores first
        assert ranked[0].score == 0.5

    def test_matrix_only_measure_serves_float64_under_float32(self):
        # RWR has no dtype support: columns must match the float64
        # matrix, not get silently downcast
        g = random_digraph(15, 60, seed=8)
        engine = SimilarityEngine(
            g, measure="RWR", num_iterations=6, dtype="float32"
        )
        col = engine.single_source(3)
        assert col.dtype == np.float64
        np.testing.assert_array_equal(
            col, np.asarray(engine.matrix())[:, 3]
        )
        assert engine.score(2, 3) == np.asarray(engine.matrix())[2, 3]


class TestColumnMemoBound:
    """SimilarityConfig.max_cached_columns: LRU/FIFO eviction."""

    def test_unbounded_by_default(self):
        g = random_digraph(40, 200, seed=20)
        engine = SimilarityEngine(g, num_iterations=5)
        for q in range(30):
            engine.single_source(q)
        assert len(engine._caches.columns) == 30
        assert engine.stats.column_evictions == 0

    def test_lru_bound_evicts_and_counts(self):
        g = random_digraph(40, 200, seed=21)
        engine = SimilarityEngine(
            g, num_iterations=5, max_cached_columns=4
        )
        for q in range(10):
            engine.single_source(q)
        assert len(engine._caches.columns) == 4
        assert engine.stats.column_evictions == 6
        # most recent queries survived
        assert all(q in engine._caches.columns for q in (6, 7, 8, 9))

    def test_lru_recency_refreshed_by_serving(self):
        g = random_digraph(40, 200, seed=22)
        engine = SimilarityEngine(
            g, num_iterations=5, max_cached_columns=2
        )
        engine.single_source(0)
        engine.single_source(1)
        engine.single_source(0)   # refresh 0: 1 is now least recent
        engine.single_source(2)   # evicts 1
        assert 0 in engine._caches.columns
        assert 1 not in engine._caches.columns

    def test_evicted_column_recomputes_identically(self):
        g = random_digraph(40, 200, seed=24)
        bounded = SimilarityEngine(
            g, num_iterations=5, max_cached_columns=1
        )
        unbounded = SimilarityEngine(g, num_iterations=5)
        first = unbounded.single_source(3).copy()
        bounded.single_source(3)
        bounded.single_source(4)  # evicts 3
        np.testing.assert_allclose(bounded.single_source(3), first)
        assert bounded.stats.column_computes == 3

    def test_batch_wider_than_bound_still_answers_every_query(self):
        g = random_digraph(40, 200, seed=25)
        bounded = SimilarityEngine(
            g, num_iterations=5, max_cached_columns=2
        )
        reference = SimilarityEngine(g, num_iterations=5)
        queries = list(range(8))
        got = bounded.batch_top_k(queries, k=3)
        expected = reference.batch_top_k(queries, k=3)
        assert got == expected
        assert len(bounded._caches.columns) == 2
        assert bounded.stats.column_evictions == 6

    def test_invalidate_resets_memo_but_keeps_eviction_stat(self):
        g = random_digraph(40, 200, seed=26)
        engine = SimilarityEngine(
            g, num_iterations=5, max_cached_columns=1
        )
        engine.single_source(0)
        engine.single_source(1)
        assert engine.stats.column_evictions == 1
        engine.invalidate()
        assert len(engine._caches.columns) == 0
        assert engine.stats.column_evictions == 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_cached_columns"):
            SimilarityConfig(max_cached_columns=0)
        with pytest.raises(ValueError, match="max_cached_columns"):
            SimilarityConfig(max_cached_columns=True)
        with pytest.raises(ValueError, match="column_policy"):
            SimilarityConfig(column_policy="random")
        # the memo evicts least-recently-served only
        with pytest.raises(ValueError, match="column_policy"):
            SimilarityConfig(column_policy="fifo")
        cfg = SimilarityConfig(max_cached_columns=8,
                               column_policy="lru")
        assert cfg.max_cached_columns == 8


class TestThreadSafety:
    """Concurrent first queries must build shared artifacts once."""

    def test_concurrent_first_queries_single_build(self):
        import concurrent.futures

        g = random_digraph(60, 300, seed=27)
        engine = SimilarityEngine(g, num_iterations=6)
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = list(
                pool.map(engine.single_source, [q % 4 for q in range(32)])
            )
        assert engine.stats.transition_builds == 1
        assert engine.stats.column_computes <= 4
        reference = SimilarityEngine(g, num_iterations=6)
        for q, scores in zip([q % 4 for q in range(32)], results):
            np.testing.assert_allclose(
                scores, reference.single_source(q)
            )

    def test_concurrent_artifact_touch_single_build(self):
        import concurrent.futures

        g = random_digraph(60, 300, seed=28)
        engine = SimilarityEngine(
            g, measure="memo-gSR*", num_iterations=5
        )
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            list(pool.map(
                lambda _: (engine.transition_t, engine.compressed),
                range(16),
            ))
        assert engine.stats.transition_builds == 1
        assert engine.stats.compression_builds == 1

    def test_concurrent_matrix_single_build(self):
        import concurrent.futures

        g = random_digraph(40, 200, seed=29)
        engine = SimilarityEngine(g, num_iterations=5)
        with concurrent.futures.ThreadPoolExecutor(6) as pool:
            matrices = list(
                pool.map(lambda _: engine.matrix(), range(12))
            )
        assert engine.stats.matrix_builds == 1
        assert all(m is matrices[0] for m in matrices)

    def test_columns_api_dedups_and_returns_all(self):
        g = random_digraph(40, 200, seed=30)
        engine = SimilarityEngine(g, num_iterations=5)
        cols = engine.columns([3, 5, 3, 7])
        assert set(cols) == {3, 5, 7}
        assert engine.stats.column_computes == 3
        np.testing.assert_array_equal(
            cols[5], engine.single_source(5)
        )
        assert engine.stats.hits == 1
