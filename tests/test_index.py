"""The persistent precomputation index: build / save / load / adopt.

Covers the PR 4 checklist: save/load parity against freshly built
artifacts in both dtypes, corrupted / truncated-file and
version-mismatch rejection, mmap'd loads serving identical ``top_k``
results, the stale-artifact guard (`IndexMismatchError` instead of
wrong scores), and the `python -m repro.index` CLI.
"""

import json
import struct

import numpy as np
import pytest

from repro.engine import SimilarityConfig, SimilarityEngine
from repro.graph import DiGraph, random_digraph
from repro.index import (
    FORMAT_VERSION,
    IndexFormatError,
    IndexMismatchError,
    SimilarityIndex,
    graph_fingerprint,
    read_header,
    verify_index,
)
from repro.index.__main__ import main as index_main
from repro.index.store import MAGIC


@pytest.fixture(scope="module")
def graph():
    return random_digraph(120, 700, seed=11)


def _csr_equal(a, b):
    return (
        a.shape == b.shape
        and np.array_equal(np.asarray(a.indptr), np.asarray(b.indptr))
        and np.array_equal(
            np.asarray(a.indices), np.asarray(b.indices)
        )
        and np.array_equal(np.asarray(a.data), np.asarray(b.data))
    )


class TestBuild:
    def test_artifact_selection_follows_the_measure(self, graph):
        series = SimilarityIndex.build(graph, measure="gSR*")
        assert series.meta.artifacts == (
            "transition", "transition_t", "coefficients"
        )
        assert series.factors is None
        memo = SimilarityIndex.build(graph, measure="memo-gSR*")
        assert memo.meta.artifacts == (
            "transition", "transition_t", "factors", "coefficients"
        )
        baseline = SimilarityIndex.build(graph, measure="PR")
        assert baseline.meta.artifacts == ()
        assert baseline.transition is None

    def test_fingerprint_is_content_based(self, graph):
        fp1 = graph_fingerprint(graph)
        fp2 = graph_fingerprint(graph.copy())
        assert fp1 == fp2  # independent of object identity / version
        mutated = graph.copy()
        edge = next(iter(mutated.edges()))
        mutated.remove_edge(*edge)
        assert graph_fingerprint(mutated)["digest"] != fp1["digest"]

    def test_fingerprint_digest_is_pinned(self):
        # existing .simidx files record this digest: it must not move
        from repro.graph import figure1_citation_graph

        assert graph_fingerprint(figure1_citation_graph())["digest"] == (
            "d500e2545fca43c5dcb94d0c0d29a9301e6b03f5061f0c065b9797b216939412"
        )

    def test_scale_free_fingerprint_is_pinned(self):
        # the generator and the graph's edge order feed every persisted
        # sf-approx index: neither may move
        from repro.datasets import scale_free_graph

        fingerprint = graph_fingerprint(scale_free_graph(3000, seed=1))
        assert fingerprint["num_edges"] == 23484
        assert fingerprint["digest"] == (
            "75403a589b7bf056cf59f61dd52426956abec931692098298726ac417b782242"
        )

    def test_fingerprint_from_transition_matches(self):
        from repro.graph.matrices import backward_transition_matrix
        from repro.index.delta import _fingerprint_from_qt

        graph = random_digraph(200, 1300, seed=41)
        qt = backward_transition_matrix(graph).T.tocsr()
        assert _fingerprint_from_qt(qt) == graph_fingerprint(graph)["digest"]

    def test_epsilon_config_resolves_to_concrete_truncation(self, graph):
        config = SimilarityConfig(measure="gSR*", epsilon=1e-3)
        index = SimilarityIndex.build(graph, config)
        engine = SimilarityEngine(graph, config)
        assert index.meta.truncation == engine.truncation
        # the epsilon config and the equivalent explicit config both match
        index.verify_compatible(graph, config)
        index.verify_compatible(
            graph,
            SimilarityConfig(
                measure="gSR*", num_iterations=engine.truncation
            ),
        )

    def test_build_reuses_prebuilt_artifacts(self, graph):
        engine = SimilarityEngine(graph, measure="memo-gSR*")
        engine.transition_t
        engine.compressed
        index = engine.export_index()
        assert index.transition is engine.transition
        assert index.factors is engine.compressed.factorized_in_adjacency()


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("mmap", [True, False])
    def test_save_load_parity_against_fresh_build(
        self, graph, tmp_path, dtype, mmap
    ):
        config = SimilarityConfig(
            measure="memo-gSR*", c=0.6, num_iterations=8, dtype=dtype
        )
        built = SimilarityIndex.build(graph, config)
        path = built.save(tmp_path / "g.simidx")
        loaded = SimilarityIndex.load(path, mmap=mmap)
        assert loaded.meta == built.meta
        assert _csr_equal(loaded.transition, built.transition)
        assert _csr_equal(loaded.transition_t, built.transition_t)
        for got, expected in zip(loaded.factors, built.factors):
            assert _csr_equal(got, expected)
        assert np.array_equal(loaded.coefficients, built.coefficients)
        assert loaded.transition.dtype == np.dtype(dtype)

    def test_mmap_load_serves_identical_top_k(self, graph, tmp_path):
        config = SimilarityConfig(measure="gSR*", num_iterations=10)
        path = SimilarityIndex.build(graph, config).save(
            tmp_path / "g.simidx"
        )
        fresh = SimilarityEngine(graph, config)
        served = SimilarityEngine.from_index(
            SimilarityIndex.load(path, mmap=True), graph
        )
        for query in (0, 3, 57, 119):
            expected = fresh.top_k(query, k=10)
            actual = served.top_k(query, k=10)
            assert [r.node for r in actual] == [
                r.node for r in expected
            ]
            np.testing.assert_allclose(
                [r.score for r in actual],
                [r.score for r in expected],
                rtol=0, atol=1e-14,
            )

    def test_from_index_adopts_instead_of_building(
        self, graph, tmp_path
    ):
        config = SimilarityConfig(measure="memo-gSR*", num_iterations=6)
        path = SimilarityIndex.build(graph, config).save(
            tmp_path / "g.simidx"
        )
        engine = SimilarityEngine.from_index(
            SimilarityIndex.load(path), graph
        )
        engine.single_source(4)
        engine.compressed.validate()  # reconstructed factors are exact
        matrix = np.asarray(engine.matrix())
        reference = np.asarray(SimilarityEngine(graph, config).matrix())
        np.testing.assert_allclose(matrix, reference, atol=1e-12)
        stats = engine.stats
        assert stats.transition_builds == 0
        assert stats.compression_builds == 0
        assert stats.index_adoptions >= 3  # Q, Q^T, factors

    def test_reconstructed_compressed_graph_matches_mined(
        self, graph, tmp_path
    ):
        config = SimilarityConfig(measure="memo-gSR*")
        path = SimilarityIndex.build(graph, config).save(
            tmp_path / "g.simidx"
        )
        rebuilt = SimilarityIndex.load(path).compressed_graph(graph)
        mined = SimilarityEngine(graph, config).compressed
        assert rebuilt.direct_tops == mined.direct_tops
        assert rebuilt.hub_memberships == mined.hub_memberships
        assert {
            (b.tops, b.bottoms) for b in rebuilt.bicliques
        } == {(b.tops, b.bottoms) for b in mined.bicliques}
        assert rebuilt.num_edges == mined.num_edges

    def test_loaded_buffers_are_read_only(self, graph, tmp_path):
        path = SimilarityIndex.build(graph, measure="gSR*").save(
            tmp_path / "g.simidx"
        )
        for mmap in (True, False):
            loaded = SimilarityIndex.load(path, mmap=mmap)
            with pytest.raises((ValueError, RuntimeError)):
                loaded.transition.data[0] = 99.0


class TestStaleArtifactGuard:
    def test_other_graph_rejected(self, graph, tmp_path):
        path = SimilarityIndex.build(graph, measure="gSR*").save(
            tmp_path / "g.simidx"
        )
        other = random_digraph(120, 700, seed=12)
        with pytest.raises(IndexMismatchError, match="graph mismatch"):
            SimilarityEngine.from_index(
                SimilarityIndex.load(path), other
            )

    def test_same_counts_different_edges_rejected(self, tmp_path):
        g = DiGraph(4, edges=[(0, 1), (1, 2)])
        path = SimilarityIndex.build(g, measure="gSR*").save(
            tmp_path / "g.simidx"
        )
        swapped = DiGraph(4, edges=[(0, 1), (2, 1)])
        with pytest.raises(IndexMismatchError):
            SimilarityEngine.from_index(
                SimilarityIndex.load(path), swapped
            )

    @pytest.mark.parametrize(
        "override",
        [
            {"measure": "eSR*"},
            {"c": 0.8},
            {"num_iterations": 4},
            {"dtype": "float32"},
        ],
    )
    def test_config_mismatch_rejected(self, graph, tmp_path, override):
        config = SimilarityConfig(
            measure="gSR*", c=0.6, num_iterations=10
        )
        path = SimilarityIndex.build(graph, config).save(
            tmp_path / "g.simidx"
        )
        with pytest.raises(IndexMismatchError, match="config mismatch"):
            SimilarityEngine(
                graph,
                config.replace(**override),
                index=SimilarityIndex.load(path),
            )

    def test_serving_knob_overrides_stay_compatible(
        self, graph, tmp_path
    ):
        path = SimilarityIndex.build(graph, measure="gSR*").save(
            tmp_path / "g.simidx"
        )
        engine = SimilarityEngine.from_index(
            SimilarityIndex.load(path), graph, max_cached_columns=2
        )
        assert engine.config.max_cached_columns == 2
        engine.single_source(0)

    def test_mutation_after_attach_drops_the_index(
        self, graph, tmp_path
    ):
        g = graph.copy()
        path = SimilarityIndex.build(g, measure="gSR*").save(
            tmp_path / "g.simidx"
        )
        engine = SimilarityEngine.from_index(
            SimilarityIndex.load(path), g
        )
        engine.single_source(0)
        assert engine.index is not None
        if g.has_edge(0, 99):
            engine.remove_edge(0, 99)
        else:
            engine.add_edge(0, 99)
        assert engine.index is None  # invalidation dropped it
        engine.single_source(0)  # rebuilds from the live graph
        assert engine.stats.transition_builds == 1


class TestCorruptionRejection:
    def _saved(self, graph, tmp_path):
        return SimilarityIndex.build(graph, measure="memo-gSR*").save(
            tmp_path / "g.simidx"
        )

    def test_bad_magic_rejected(self, graph, tmp_path):
        path = self._saved(graph, tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(IndexFormatError, match="bad magic"):
            SimilarityIndex.load(path)
        assert verify_index(path)  # reports, does not raise

    def test_truncated_payload_rejected(self, graph, tmp_path):
        path = self._saved(graph, tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(IndexFormatError, match="truncated"):
            SimilarityIndex.load(path)

    def test_truncated_header_rejected(self, graph, tmp_path):
        path = self._saved(graph, tmp_path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(IndexFormatError):
            SimilarityIndex.load(path)

    def test_version_mismatch_rejected(self, graph, tmp_path):
        path = self._saved(graph, tmp_path)
        raw = path.read_bytes()
        (header_len,) = struct.unpack("<Q", raw[8:16])
        header = json.loads(raw[16 : 16 + header_len])
        header["format_version"] = FORMAT_VERSION + 1
        patched = json.dumps(header, sort_keys=True).encode()
        # same sort_keys serialisation, +1 on an int: length may move;
        # rebuild the prefix with the new length
        assert len(patched) == header_len
        path.write_bytes(
            MAGIC + struct.pack("<Q", len(patched)) + patched
            + raw[16 + header_len:]
        )
        with pytest.raises(IndexFormatError, match="format version"):
            SimilarityIndex.load(path)

    def test_garbage_dtype_in_parseable_header_rejected(
        self, graph, tmp_path
    ):
        # the header still parses as JSON, but describes an impossible
        # buffer — must surface as IndexFormatError (the snapshot
        # manager treats that as "no index", not a fatal boot error)
        path = self._saved(graph, tmp_path)
        raw = path.read_bytes()
        patched = raw.replace(b'"<f8"', b'"xf8"', 1)
        assert patched != raw
        path.write_bytes(patched)
        with pytest.raises(IndexFormatError):
            SimilarityIndex.load(path)

    def test_flipped_payload_byte_caught_by_verify(
        self, graph, tmp_path
    ):
        path = self._saved(graph, tmp_path)
        assert verify_index(path) == []
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # last byte of the last array
        path.write_bytes(bytes(raw))
        problems = verify_index(path)
        assert problems and "checksum mismatch" in problems[0]

    def test_not_a_file_rejected(self, tmp_path):
        with pytest.raises(IndexFormatError):
            SimilarityIndex.load(tmp_path / "missing.simidx")

    def test_read_header_is_cheap_and_complete(self, graph, tmp_path):
        path = self._saved(graph, tmp_path)
        header, payload_start = read_header(path)
        assert header["meta"]["measure"] == "memo-gSR*"
        assert payload_start % 64 == 0
        for entry in header["arrays"].values():
            assert entry["offset"] % 64 == 0


class TestCli:
    def test_build_verify_inspect_smoke(self, tmp_path, capsys):
        path = tmp_path / "cli.simidx"
        graph_args = [
            "--nodes", "200", "--edges", "1200", "--seed", "5",
            "--measure", "memo-gSR*", "--num-iterations", "6",
        ]
        assert index_main(
            ["build", *graph_args, "--output", str(path)]
        ) == 0
        assert index_main(["verify", str(path)]) == 0
        assert index_main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "memo-gSR*" in out and "graph_digest" in out
        report = tmp_path / "smoke.json"
        assert index_main(
            [
                "smoke", *graph_args, "--index", str(path),
                "--queries", "4", "--min-speedup", "0.0",
                "--output", str(report),
            ]
        ) == 0
        document = json.loads(report.read_text())
        assert document["checks"]["score_parity"]
        assert document["checks"]["no_artifact_rebuild"]

    def test_verify_fails_on_corruption(self, tmp_path, capsys):
        path = tmp_path / "cli.simidx"
        assert index_main(
            ["build", "--nodes", "50", "--edges", "200",
             "--output", str(path)]
        ) == 0
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert index_main(["verify", str(path)]) == 1

    def test_smoke_fails_on_wrong_graph(self, tmp_path):
        path = tmp_path / "cli.simidx"
        assert index_main(
            ["build", "--nodes", "50", "--edges", "200", "--seed",
             "1", "--output", str(path)]
        ) == 0
        with pytest.raises(IndexMismatchError):
            index_main(
                ["smoke", "--nodes", "50", "--edges", "200",
                 "--seed", "2", "--index", str(path),
                 "--output", str(tmp_path / "r.json")]
            )
