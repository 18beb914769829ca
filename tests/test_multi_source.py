"""Tests for the blocked multi-source kernel, the shared coefficient
table, the in-place spmm building block, and dtype threading through
the iteration cores."""

import importlib
import math

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    ExponentialWeights,
    GeometricWeights,
    HarmonicWeights,
    memo_simrank_star_factorized,
    multi_source,
    series_coefficients,
    simrank_star,
    simrank_star_exponential,
    simrank_star_series,
    simrank_star_series_bruteforce,
    single_source,
    single_source_reference,
)
from repro.core import kernels
from repro.core.multi_source import _coefficients_cached
from repro.datasets import web_graph
from repro.graph import (
    DiGraph,
    figure1_citation_graph,
    path_graph,
    random_digraph,
)
from repro.graph.matrices import backward_transition_matrix


class TestSeriesCoefficients:
    def test_values_match_formula(self):
        w = GeometricWeights(0.6)
        table = series_coefficients(4, w)
        for beta in range(5):
            for alpha in range(5):
                length = alpha + beta
                expected = 0.0
                if length <= 4:
                    expected = (
                        w.length_weight(length)
                        * math.comb(length, alpha)
                        / 2.0 ** length
                    )
                assert table[beta, alpha] == expected

    def test_cached_per_configuration(self):
        _coefficients_cached.cache_clear()
        a = series_coefficients(6, GeometricWeights(0.6))
        b = series_coefficients(6, GeometricWeights(0.6))
        assert a is b  # equal frozen dataclasses share one table
        c = series_coefficients(6, GeometricWeights(0.7))
        assert c is not a

    def test_table_is_read_only(self):
        table = series_coefficients(3, GeometricWeights(0.6))
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    def test_rejects_negative_terms(self):
        with pytest.raises(ValueError):
            series_coefficients(-1, GeometricWeights(0.6))


class TestBlockedParity:
    """The acceptance bar: blocked == per-query walk, column by column."""

    def test_matches_reference_float64(self):
        g = random_digraph(150, 900, seed=8)
        queries = [0, 3, 77, 3, 149]  # duplicates allowed
        block = multi_source(g, queries, 0.6, 10)
        assert block.shape == (150, len(queries))
        for j, q in enumerate(queries):
            ref = single_source_reference(g, q, 0.6, 10)
            np.testing.assert_allclose(
                block[:, j], ref, atol=1e-10, rtol=0
            )

    def test_matches_reference_float32_loose(self):
        g = random_digraph(120, 700, seed=9)
        queries = [1, 5, 9]
        block = multi_source(g, queries, 0.6, 8, dtype=np.float32)
        assert block.dtype == np.float32
        for j, q in enumerate(queries):
            ref = single_source_reference(g, q, 0.6, 8)
            np.testing.assert_allclose(
                block[:, j], ref, atol=1e-4, rtol=1e-4
            )

    @pytest.mark.parametrize(
        "scheme", [GeometricWeights, ExponentialWeights, HarmonicWeights]
    )
    def test_matches_reference_all_weight_schemes(self, scheme):
        g = random_digraph(80, 500, seed=10)
        w = scheme(0.7)
        block = multi_source(g, [2, 11], 0.7, 7, weights=w)
        for j, q in enumerate([2, 11]):
            ref = single_source_reference(g, q, 0.7, 7, weights=w)
            np.testing.assert_allclose(
                block[:, j], ref, atol=1e-10, rtol=0
            )

    def test_block_size_chunking_is_exact(self):
        g = random_digraph(60, 360, seed=11)
        queries = list(range(10))
        whole = multi_source(g, queries, 0.6, 6)
        chunked = multi_source(g, queries, 0.6, 6, block_size=3)
        np.testing.assert_array_equal(whole, chunked)

    def test_single_source_is_the_b1_case(self):
        g = random_digraph(70, 420, seed=12)
        via_single = single_source(g, 7, 0.6, 9)
        via_block = multi_source(g, [7], 0.6, 9)[:, 0]
        np.testing.assert_array_equal(via_single, via_block)

    def test_column_agrees_with_series_matrix(self):
        g = figure1_citation_graph()
        full = simrank_star_series(g, 0.8, 8)
        block = multi_source(g, [0, 4, 10], 0.8, 8)
        for j, q in enumerate([0, 4, 10]):
            np.testing.assert_allclose(
                block[:, j], full[:, q], atol=1e-12
            )

    def test_prebuilt_transition_reused(self):
        g = random_digraph(50, 300, seed=13)
        q = backward_transition_matrix(g)
        qt = q.T.tocsr()
        with_prebuilt = multi_source(
            g, [4, 8], 0.6, 6, transition=q, transition_t=qt
        )
        without = multi_source(g, [4, 8], 0.6, 6)
        np.testing.assert_array_equal(with_prebuilt, without)

    def test_float64_transition_converted_for_float32(self):
        g = random_digraph(40, 200, seed=14)
        q64 = backward_transition_matrix(g)
        out = multi_source(
            g, [3], 0.6, 5, transition=q64, dtype=np.float32
        )
        assert out.dtype == np.float32


#: graphs rich in the kernel's short paths: queries without in-links
#: (one walk level) and isolated queries (zero terms)
DEGENERATE_GRAPHS = {
    "single-node": lambda: DiGraph(1),
    "edgeless": lambda: DiGraph(5),
    "out-star": lambda: DiGraph(5, edges=[(0, v) for v in range(1, 5)]),
    "in-star": lambda: DiGraph(5, edges=[(v, 0) for v in range(1, 5)]),
    "self-loop": lambda: DiGraph(3, edges=[(0, 1), (2, 2)]),
    "2-cycle+isolated": lambda: DiGraph(3, edges=[(0, 1), (1, 0)]),
    **{
        f"web6-seed{s}": (lambda s=s: web_graph(6, density=5.6, seed=s))
        for s in (1, 2, 3)
    },
}
SCHEMES = [GeometricWeights, ExponentialWeights, HarmonicWeights]
# the package re-exports the function under the module's own name
multi_source_module = importlib.import_module("repro.core.multi_source")


def degree_classes(graph):
    """(in-linked, in-link-free with out-links, isolated) node ids."""
    has_in = graph.in_degrees() > 0
    has_out = graph.out_degrees() > 0
    return (
        np.flatnonzero(has_in),
        np.flatnonzero(~has_in & has_out),
        np.flatnonzero(~has_in & ~has_out),
    )


def count_spmm(monkeypatch):
    """Record the sparse operand of every product the kernel makes."""
    calls = []
    real = multi_source_module.spmm

    def counting(matrix, dense, out, accumulate=False):
        calls.append(matrix)
        return real(matrix, dense, out, accumulate)

    monkeypatch.setattr(multi_source_module, "spmm", counting)
    return calls


class TestDegreeClasses:
    """The in-degree split is exact: every class against one oracle."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("name", sorted(DEGENERATE_GRAPHS))
    def test_matches_bruteforce_oracle(self, name, scheme):
        g = DEGENERATE_GRAPHS[name]()
        w = scheme(0.6)
        oracle = simrank_star_series_bruteforce(g, 0.6, 10, weights=w)
        queries = np.random.default_rng(24).permutation(g.num_nodes)
        for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-4)):
            alone = {
                int(q): multi_source(g, [q], 0.6, 10, weights=w,
                                     dtype=dtype)[:, 0]
                for q in queries
            }
            for block_size in (1, 3, 64):
                for order in (queries, queries[::-1]):
                    block = multi_source(
                        g, order, 0.6, 10, weights=w, dtype=dtype,
                        block_size=block_size,
                    )
                    np.testing.assert_allclose(
                        block, oracle[:, order], atol=tol, rtol=0
                    )
                    for j, q in enumerate(order):
                        assert np.array_equal(block[:, j], alone[int(q)])
        for q in queries:
            np.testing.assert_allclose(
                single_source(g, int(q), 0.6, 10, weights=w),
                oracle[:, q], atol=1e-12, rtol=0,
            )

    def test_web_graph_matches_reference(self):
        g = web_graph(9, density=5.6, seed=1)
        assert [ids.size for ids in degree_classes(g)] == [350, 64, 98]
        queries = np.random.default_rng(24).permutation(g.num_nodes)
        block = multi_source(g, queries, 0.6, 10)
        for j, q in enumerate(queries):
            np.testing.assert_allclose(
                block[:, j], single_source_reference(g, int(q), 0.6, 10),
                atol=1e-12, rtol=0,
            )
        alone = multi_source(g, queries[:40], 0.6, 10, block_size=1)
        assert np.array_equal(block[:, :40], alone)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_isolated_column_is_w0_unit_vector(self, dtype):
        # gSR*'s w_0 = 1 - c: an isolated query is similar only to itself
        g = DiGraph(3, edges=[(0, 1), (1, 0)])
        expected = np.zeros(3, dtype=dtype)
        expected[2] = 1 - 0.6
        assert np.array_equal(multi_source(g, [2], 0.6, dtype=dtype)[:, 0],
                              expected)

    def test_shortcut_skips_sparse_products(self, monkeypatch):
        g = web_graph(6, density=5.6, seed=2)
        q = backward_transition_matrix(g)
        qt = q.T.tocsr()
        inlinked, inlink_free, isolated = degree_classes(g)
        calls = count_spmm(monkeypatch)
        for ids, expected in (
            (isolated, []),
            (inlink_free, [q] * 10),
            (inlinked, [qt] * 10 + [q] * 10),
        ):
            calls.clear()
            multi_source(g, ids, 0.6, 10, transition=q, transition_t=qt)
            assert len(calls) == len(expected)
            assert all(a is b for a, b in zip(calls, expected))


class TestMultiSourceValidation:
    def test_empty_batch(self):
        g = path_graph(5)
        out = multi_source(g, [], 0.6, 5)
        assert out.shape == (5, 0)

    def test_out_of_range_query(self):
        with pytest.raises(IndexError, match="out of range"):
            multi_source(path_graph(3), [0, 3], 0.6, 5)
        with pytest.raises(IndexError, match="out of range"):
            multi_source(path_graph(3), [-1], 0.6, 5)

    def test_weight_damping_mismatch(self):
        with pytest.raises(ValueError, match="disagrees"):
            multi_source(
                path_graph(3), [0], 0.6, 5,
                weights=GeometricWeights(0.7),
            )

    def test_bad_block_size(self):
        with pytest.raises(ValueError, match="block_size"):
            multi_source(path_graph(3), [0], 0.6, 5, block_size=0)

    def test_bad_damping_and_terms(self):
        with pytest.raises(ValueError):
            multi_source(path_graph(3), [0], 1.5, 5)
        with pytest.raises(ValueError):
            multi_source(path_graph(3), [0], 0.6, -2)


class TestSpmm:
    def _operands(self, dtype=np.float64):
        rng = np.random.default_rng(0)
        a = sp.csr_array(
            sp.random(9, 7, density=0.4, random_state=1, dtype=np.float64)
        ).astype(dtype)
        x = rng.random((7, 3)).astype(dtype)
        return a, x

    def test_matches_operator(self):
        a, x = self._operands()
        out = np.empty((9, 3))
        kernels.spmm(a, x, out=out)
        np.testing.assert_allclose(out, a @ x, atol=1e-15)

    def test_accumulate(self):
        a, x = self._operands()
        out = np.ones((9, 3))
        kernels.spmm(a, x, out=out, accumulate=True)
        np.testing.assert_allclose(out, 1.0 + a @ x, atol=1e-15)

    def test_float32(self):
        a, x = self._operands(np.float32)
        out = np.empty((9, 3), dtype=np.float32)
        kernels.spmm(a, x, out=out)
        np.testing.assert_allclose(out, a @ x, atol=1e-6)

    def test_fallback_path_matches(self, monkeypatch):
        a, x = self._operands()
        fast = np.empty((9, 3))
        kernels.spmm(a, x, out=fast)
        monkeypatch.setattr(kernels, "_HAVE_SPARSETOOLS", False)
        slow = np.empty((9, 3))
        kernels.spmm(a, x, out=slow)
        np.testing.assert_allclose(slow, fast, atol=1e-15)

    def test_rejects_aliasing_and_bad_shapes(self):
        a, x = self._operands()
        with pytest.raises(ValueError, match="alias"):
            square = sp.csr_array(np.eye(7))
            kernels.spmm(square, x, out=x)
        with pytest.raises(ValueError, match="shape mismatch"):
            kernels.spmm(a, x, out=np.empty((3, 3)))
        with pytest.raises(TypeError, match="CSR"):
            kernels.spmm(a.tocsc(), x, out=np.empty((9, 3)))

    def test_symmetrize_and_diagonal(self):
        m = np.arange(9.0).reshape(3, 3)
        out = np.empty_like(m)
        kernels.symmetrize(m, out=out, scale=0.5)
        np.testing.assert_allclose(out, 0.5 * (m + m.T))
        kernels.add_scaled_identity(out, 2.0)
        np.testing.assert_allclose(np.diag(out), np.diag(m) + 2.0)
        with pytest.raises(ValueError, match="distinct"):
            kernels.symmetrize(m, out=m, scale=1.0)


class TestCoreDtype:
    """float32 opt-in threads through every iteration core."""

    def test_iterative(self):
        g = random_digraph(60, 360, seed=15)
        full = simrank_star(g, 0.6, 8)
        half = simrank_star(g, 0.6, 8, dtype="float32")
        assert full.dtype == np.float64 and half.dtype == np.float32
        np.testing.assert_allclose(half, full, atol=1e-4)

    def test_exponential(self):
        g = random_digraph(60, 360, seed=16)
        full = simrank_star_exponential(g, 0.6, 8)
        half = simrank_star_exponential(g, 0.6, 8, dtype=np.float32)
        assert half.dtype == np.float32
        np.testing.assert_allclose(half, full, atol=1e-4)

    def test_memo_factorized(self):
        g = random_digraph(60, 360, seed=17)
        full = memo_simrank_star_factorized(g, 0.6, 6)
        half = memo_simrank_star_factorized(g, 0.6, 6, dtype="float32")
        assert half.dtype == np.float32
        np.testing.assert_allclose(half, full, atol=1e-4)

    def test_reference_loop_unchanged_by_default(self):
        # the allocation-free cores must not drift from the simple
        # recurrences they replaced
        g = random_digraph(60, 360, seed=18)
        np.testing.assert_allclose(
            simrank_star(g, 0.8, 10),
            simrank_star_series(g, 0.8, 10),
            atol=1e-12,
        )


class TestQueryIdTypes:
    def test_float_ids_rejected_not_truncated(self):
        g = path_graph(5)
        with pytest.raises(TypeError, match="integers"):
            multi_source(g, [1.7], 0.6, 5)
        with pytest.raises(TypeError, match="integers"):
            single_source(g, 2.9, 0.6, 5)

    def test_numpy_integer_ids_accepted(self):
        g = path_graph(5)
        ids = np.array([0, 2], dtype=np.int32)
        out = multi_source(g, ids, 0.6, 5)
        np.testing.assert_array_equal(
            out, multi_source(g, [0, 2], 0.6, 5)
        )
