"""The module globals and entry points that ``perfbench``'s tracer wraps.

The tracer times the exact kernel by replacing two names:

* ``repro.engine.engine._series_block`` — the engine's only way into
  :func:`repro.core.multi_source.multi_source`; the tracer reads the
  queries from ``args[1]`` and ``Q^T`` from the ``transition_t=``
  keyword;
* ``repro.core.multi_source.spmm`` — every sparse product; one whose
  operand is that ``Q^T`` object counts as the backward pass, any other
  as the Horner sweep.

It times the approx tier by wrapping ``ApproxEstimator.column`` (one
``approx.column`` span per fresh column) and the classmethod
``WalkIndex.build``. The estimator's per-entry loops are the row
gather and scatter of :mod:`repro.core.kernels`; they are pinned
against a dense reference here, in both their compiled and their
fallback form.

A refactor that reached the kernel or ``spmm`` under another name, or
computed approx columns outside ``column``, would silently zero
traced rows, so these tests pin the hooks on served batches.
"""

from __future__ import annotations

import importlib
import inspect

import numpy as np
import pytest

from repro.approx import WalkIndex
from repro.cluster import ShardRouter, ThreadWorkerPool
from repro.datasets import scale_free_graph, web_graph
from repro.engine import SimilarityConfig
from repro.serve import SnapshotManager

# the packages re-export functions under their modules' own names
engine_module = importlib.import_module("repro.engine.engine")
kernel_module = importlib.import_module("repro.core.multi_source")
kernels = importlib.import_module("repro.core.kernels")
estimator_module = importlib.import_module("repro.approx.estimator")


def test_engine_reaches_the_kernel_through_its_alias():
    assert engine_module._series_block is kernel_module.multi_source


def test_served_batch_runs_every_product_through_the_hooks(monkeypatch):
    graph = web_graph(9, density=5.6, seed=1)
    snapshots = SnapshotManager(
        graph, SimilarityConfig(measure="gSR*", c=0.6, num_iterations=10)
    )
    engine = snapshots.current.engine
    kernel_calls, products = [], []
    series_block, spmm = engine_module._series_block, kernel_module.spmm

    def traced_block(*args, **kwargs):
        kernel_calls.append((list(args[1]), kwargs["transition_t"]))
        return series_block(*args, **kwargs)

    def traced_spmm(matrix, dense, out, accumulate=False):
        products.append(matrix)
        return spmm(matrix, dense, out, accumulate)

    monkeypatch.setattr(engine_module, "_series_block", traced_block)
    monkeypatch.setattr(kernel_module, "spmm", traced_spmm)
    queries = list(range(0, graph.num_nodes, 8))
    router = ShardRouter(ThreadWorkerPool(workers=2))
    router.start()
    try:
        results = router.compute_tasks(snapshots.current, [
            {"op": "top_k", "query": q, "k": 10} for q in queries
        ])
    finally:
        router.stop()
    assert all(len(ranking) == 10 for ranking in results)

    assert sorted(q for ids, _ in kernel_calls for q in ids) == queries
    assert all(qt is engine.transition_t for _, qt in kernel_calls)
    # per kernel call (each class fits one block): 2L products for
    # its in-linked queries, L for its in-link-free ones with out-links
    has_in = graph.in_degrees() > 0
    has_out = graph.out_degrees() > 0
    terms = engine.truncation
    backward = horner = 0
    for ids, _ in kernel_calls:
        ids = np.asarray(ids)
        backward += terms * bool(has_in[ids].any())
        horner += terms * bool(has_in[ids].any())
        horner += terms * bool((~has_in[ids] & has_out[ids]).any())
    assert backward > 0 and horner > backward
    assert sum(m is engine.transition_t for m in products) == backward
    assert sum(m is engine.transition for m in products) == horner
    assert len(products) == backward + horner


# ---------------------------------------------------------------------------
# the approx tier: column hook and the compiled row loops
# ---------------------------------------------------------------------------
def test_served_approx_batch_calls_column_once_per_fresh_column(
    monkeypatch,
):
    graph = scale_free_graph(400, avg_out_degree=6, seed=1)
    snapshots = SnapshotManager(graph, SimilarityConfig(
        measure="gSR*", c=0.6, num_iterations=10, mode="approx", seed=3,
    ))
    calls = []
    column = estimator_module.ApproxEstimator.column

    def traced_column(self, query):
        calls.append(int(query))
        return column(self, query)

    monkeypatch.setattr(
        estimator_module.ApproxEstimator, "column", traced_column
    )
    queries = list(range(0, graph.num_nodes, 9))
    router = ShardRouter(ThreadWorkerPool(workers=2))
    router.start()
    try:
        results = router.compute_tasks(snapshots.current, [
            {"op": "top_k", "query": q, "k": 5} for q in queries
        ])
    finally:
        router.stop()
    assert all(len(ranking) == 5 for ranking in results)
    assert sorted(calls) == queries
    stats = snapshots.current.engine.approx_status()["estimator"]
    assert stats["columns"] == len(queries)
    assert stats["samples_drawn"] > 0
    assert isinstance(inspect.getattr_static(WalkIndex, "build"), classmethod)


def _csr_4x5(index_dtype):
    """Rows of 2, 0, 3 and 1 entries; row 2 repeats a column."""
    return (
        np.array([0, 2, 2, 5, 6], dtype=index_dtype),
        np.array([4, 1, 0, 3, 0, 2], dtype=index_dtype),
        np.array([3, 1, 7, 2, 5, 65535], dtype=np.uint16),
    )


def _dense(row_ptr, cols, vals, num_cols=5):
    out = np.zeros((row_ptr.size - 1, num_cols))
    for i in range(row_ptr.size - 1):
        for k in range(row_ptr[i], row_ptr[i + 1]):
            out[i, cols[k]] += float(vals[k])
    return out


def _gather_then_scatter(indptr, indices, data, rows, weights, out):
    row_ptr, cols, vals = kernels.gather_rows(indptr, indices, data, rows)
    kernels.scatter_rows(row_ptr, cols, vals, weights, out)
    return row_ptr, cols, vals, out


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_gather_and_scatter_match_a_dense_reference(index_dtype):
    indptr, indices, data = _csr_4x5(index_dtype)
    matrix = _dense(indptr, indices, data)
    rows = np.array([2, 1, 0, 2, 3], dtype=np.int64)
    weights = np.array([0.5, 3.0, -2.0, 0.25, 4.0])
    row_ptr, cols, vals, out = _gather_then_scatter(
        indptr, indices, data, rows, weights, np.ones(5)
    )
    assert row_ptr.dtype == cols.dtype == index_dtype
    assert vals.dtype == np.uint16
    np.testing.assert_array_equal(np.diff(row_ptr), [3, 0, 2, 3, 1])
    np.testing.assert_array_equal(_dense(row_ptr, cols, vals), matrix[rows])
    # small integers times dyadic weights: every sum is exact
    np.testing.assert_array_equal(out, 1.0 + weights @ matrix[rows])
    scaled = kernels.gather_rows(
        indptr, indices, data.astype(np.float64), rows, scale=weights
    )
    np.testing.assert_array_equal(
        _dense(*scaled), weights[:, None] * matrix[rows]
    )
    empty = kernels.gather_rows(
        indptr, indices, data, np.array([1, 1], dtype=np.int64)
    )
    assert [part.size for part in empty] == [3, 0, 0]


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_fallback_gives_the_same_bytes(monkeypatch, index_dtype):
    """Without the private hook the gather goes through scipy's row
    indexing and the scatter through ``np.add.at``, which adds in the
    compiled loop's order: rounding-sensitive sums agree to the byte."""
    indptr, indices, _ = _csr_4x5(index_dtype)
    rng = np.random.default_rng(5)
    data = rng.random(indices.size)
    rows = np.array([3, 2, 0, 1, 2, 0], dtype=np.int64)
    scale, weights = rng.random((2, rows.size)) * [[1e3], [1.0]]

    def run():
        gathered = kernels.gather_rows(
            indptr, indices, data, rows, scale=scale
        )
        out = kernels.scatter_rows(*gathered, weights, np.full(5, 0.1))
        return (*gathered, out)

    assert kernels._HAVE_SPARSETOOLS
    fast = run()
    monkeypatch.setattr(kernels, "_HAVE_SPARSETOOLS", False)
    slow = run()
    for a, b in zip(fast, slow):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_check_csr_rejects_what_the_loops_would_misread():
    indptr, indices, _ = _csr_4x5(np.int64)
    square = indices.copy()
    square[0] = 3
    kernels.check_csr(indptr, square, 4)
    bad = [
        (indptr, indices, 4),  # column 4 of a 4 x 4 structure
        (indptr[:-1], square[:5], 4),  # too few row pointers
        (indptr + 1, square, 4),  # does not start at 0
        (np.array([0, 2, 1, 5, 6]), square, 4),  # decreasing
        (indptr, square[:5], 4),  # ends past the entries
        (indptr, np.where(square == 3, -1, square), 4),  # negative
    ]
    for args in bad:
        with pytest.raises(ValueError, match="CSR"):
            kernels.check_csr(*args)
