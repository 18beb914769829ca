"""The two module globals that ``perfbench``'s tracer wraps.

The tracer times the exact kernel by replacing two names:

* ``repro.engine.engine._series_block`` — the engine's only way into
  :func:`repro.core.multi_source.multi_source`; the tracer reads the
  queries from ``args[1]`` and ``Q^T`` from the ``transition_t=``
  keyword;
* ``repro.core.multi_source.spmm`` — every sparse product; one whose
  operand is that ``Q^T`` object counts as the backward pass, any other
  as the Horner sweep.

A refactor that reached the kernel or ``spmm`` under another name
would silently zero every traced ``core.*`` row, so these tests pin
both on a served batch.
"""

from __future__ import annotations

import importlib

import numpy as np

from repro.cluster import ShardRouter, ThreadWorkerPool
from repro.datasets import web_graph
from repro.engine import SimilarityConfig
from repro.serve import SnapshotManager

# the packages re-export functions under their modules' own names
engine_module = importlib.import_module("repro.engine.engine")
kernel_module = importlib.import_module("repro.core.multi_source")


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
