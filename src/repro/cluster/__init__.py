"""`repro.cluster` — sharded serving over one in-process index.

Single-process serving (:mod:`repro.serve`) coalesces traffic into
blocked batches. The similarity family served here is embarrassingly
parallel across query *columns* — each single-source evaluation is an
independent solve over one precomputed, read-only operator — so
parallel serving needs only K engines that share one index. Threads in
one address space do exactly that: the kernels release the GIL inside
scipy/BLAS, and the answers never leave the process.

Two parts:

* :class:`ThreadWorkerPool` — K worker threads, each holding one
  engine per live snapshot *generation*, all adopting the same
  exported :class:`~repro.index.SimilarityIndex` (shared artifact
  arrays, private column memos); runs the two-phase hot-swap
  (``prepare`` everywhere first, then ``commit``) and the chaos hooks.
* :class:`ShardRouter` — splits each coalesced micro-batch of top-k /
  score tasks into per-worker shards, runs them concurrently, and owns
  the atomic snapshot *pinning* that lets mutations hot-swap
  mid-traffic with zero failed requests, plus the per-worker circuit
  breakers and respawn-and-retry.

Each shard is answered by :func:`run_tasks` (defined in
:mod:`repro.engine.results`), the same function the in-process
``workers=0`` path runs, so both return identical answers.

Wired into the serving layer as ``ServingService(graph, workers=K)``
and ``python -m repro.serve serve --workers K``; scaling is measured
by ``python -m repro.bench --cluster`` (the ``speedup_workers_4_vs_1``
gate).

End to end, one worker, eleven nodes (the paper's Figure 1 graph):

>>> from repro.cluster import ShardRouter, ThreadWorkerPool
>>> from repro.graph import figure1_citation_graph
>>> from repro.serve import SnapshotManager
>>> snapshots = SnapshotManager(
...     figure1_citation_graph(), measure="gSR*", c=0.8,
...     num_iterations=10)
>>> router = ShardRouter(ThreadWorkerPool(workers=1), snapshots)
>>> router.start()
>>> snapshot = router.pin()
>>> ranking, score = router.compute_tasks(snapshot.seq, [
...     {"op": "top_k", "query": 0, "k": 3},
...     {"op": "score", "query": 0, "u": 1},
... ])
>>> router.unpin(snapshot.seq)
>>> len(ranking), ranking.query_label, score > 0
(3, 'a', True)
>>> router.stop()
"""

from repro.cluster.router import ShardRouter
from repro.cluster.thread_pool import (
    ClusterError,
    ThreadWorkerPool,
    WorkerCrash,
)
from repro.engine.results import run_tasks

__all__ = [
    "ClusterError",
    "ShardRouter",
    "ThreadWorkerPool",
    "WorkerCrash",
    "run_tasks",
]
