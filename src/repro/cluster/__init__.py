"""`repro.cluster` — sharded serving on worker threads.

Single-process serving (:mod:`repro.serve`) coalesces traffic into
blocked batches. The similarity family served here is embarrassingly
parallel across query *columns* — each single-source evaluation is an
independent solve over one precomputed, read-only operator — so K
serving threads need one engine, not K. Every worker thread answers
its shard from the engine of the snapshot its batch read: the kernels
release the GIL inside scipy/BLAS, the engine computes fresh columns
outside its lock (and never the same column twice), and the answers
never leave the process.

Two parts:

* :class:`ThreadWorkerPool` — K worker lanes that hold no engines,
  only per-lane counters and the BLAS cap.
* :class:`ShardRouter` — splits each coalesced micro-batch of top-k /
  score tasks into per-worker shards and runs them concurrently on
  the snapshot's engine; a shard that raises fails only its own
  tasks.

Each shard is answered by :func:`run_tasks` (defined in
:mod:`repro.engine.results`). ``ServingService(workers=0)`` starts one
worker per core the process may run on; every worker count takes the
same path, and a batch that fits in one shard runs on the broker's
executor thread. While a pool runs, OpenBLAS is capped at
``max(1, cores // workers)`` threads (:mod:`repro.cluster.blas`), so
the workers' BLAS calls never ask for more threads than there are
cores.

Wired into the serving layer as ``ServingService(graph, workers=K)``
and ``python -m repro.serve serve --workers K``; scaling is measured
by ``python -m repro.bench --cluster`` (:mod:`repro.bench.cluster`,
the ``speedup_workers_4_vs_1`` gate, armed when the process may run
on at least 4 cores).

End to end, one worker, eleven nodes (the paper's Figure 1 graph):

>>> from repro.cluster import ShardRouter, ThreadWorkerPool
>>> from repro.graph import figure1_citation_graph
>>> from repro.serve import SnapshotManager
>>> snapshots = SnapshotManager(
...     figure1_citation_graph(), measure="gSR*", c=0.8,
...     num_iterations=10)
>>> router = ShardRouter(ThreadWorkerPool(workers=1))
>>> router.start()
>>> ranking, score = router.compute_tasks(snapshots.current, [
...     {"op": "top_k", "query": 0, "k": 3},
...     {"op": "score", "query": 0, "u": 1},
... ])
>>> len(ranking), ranking.query_label, score > 0
(3, 'a', True)
>>> router.stop()
"""

from repro.cluster.router import ShardRouter
from repro.cluster.thread_pool import ClusterError, ThreadWorkerPool
from repro.engine.results import run_tasks

__all__ = ["ClusterError", "ShardRouter", "ThreadWorkerPool", "run_tasks"]
