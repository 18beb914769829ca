"""Worker scaling of the sharded thread pool (``--cluster``).

Where :mod:`repro.bench.runner` times *kernels* on one thread, this
module measures what K worker lanes buy: the same seeded top-k
workload pushed through a :class:`~repro.cluster.ShardRouter` at each
worker count, with per-batch latency statistics and the derived
``speedup_workers_<b>_vs_<a>`` ratio. ``python -m repro.bench
--cluster`` embeds this document under the ``"cluster"`` key of
``BENCH_<tag>.json``, and the ratio joins the gated derived speedups.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.obs.metrics import LatencyStats

__all__ = ["run_cluster_scaling"]


def run_cluster_scaling(
    nodes: int = 2000,
    edges: int = 12000,
    *,
    worker_counts: Sequence[int] = (1, 4),
    batches: int = 8,
    batch_size: int = 64,
    k: int = 10,
    num_terms: int = 10,
    measure: str = "gSR*",
    c: float = 0.6,
    dtype: str = "float64",
    seed: int = 42,
) -> dict:
    """Measure scale-out of the sharded thread pool.

    For each entry of ``worker_counts``, stands up a
    :class:`~repro.cluster.ThreadWorkerPool` behind a ``ShardRouter``
    over the same seeded random digraph and pushes the identical
    workload through it: ``batches`` micro-batches of ``batch_size``
    top-``k`` tasks over *distinct* query columns each (distinct so no
    memo hit hides compute), dispatched back to back
    through ``router.compute_tasks``. Pool startup and the warmup
    batch are excluded from the timed window — this isolates
    steady-state shard-parallel serving, which is what ``--workers K``
    buys over ``--workers 1``.

    The derived ``speedup_workers_<b>_vs_<a>`` ratio (last count vs
    first) is machine-independent *given enough cores*: K workers on
    >= K idle cores can approach ``Kx`` only as far as the kernels
    release the GIL. The compare gate therefore only enforces its
    floor when the recording process may run on at least ``b`` CPUs
    (``machine.cpu_count`` in the bench document); with fewer the
    ratio is reported but cannot be meaningful. Returns
    a JSON-ready document with per-count throughput, per-batch
    latency statistics, and the speedup.
    """
    from repro.cluster import ShardRouter, ThreadWorkerPool
    from repro.engine import SimilarityConfig
    from repro.graph.generators import random_digraph
    from repro.serve import SnapshotManager

    worker_counts = tuple(int(w) for w in worker_counts)
    if len(worker_counts) < 2:
        raise ValueError("worker_counts needs at least two entries")
    graph = random_digraph(nodes, edges, seed=seed)
    config = SimilarityConfig(
        measure=measure, c=c, num_iterations=num_terms, dtype=dtype
    )
    rng = np.random.default_rng(seed)
    pool_size = (batches + 1) * batch_size
    picks = [
        int(q) for q in (
            rng.permutation(nodes)[:pool_size]
            if pool_size <= nodes
            else rng.integers(0, nodes, size=pool_size)
        )
    ]

    def tasks(ids):
        return [{"op": "top_k", "query": q, "k": k} for q in ids]

    warmup_batch = tasks(picks[:batch_size])
    workload = [
        tasks(picks[(i + 1) * batch_size:(i + 2) * batch_size])
        for i in range(batches)
    ]

    per_count: dict[str, dict] = {}
    for count in worker_counts:
        # a fresh snapshot per count: no memo hit from the last count
        snapshot = SnapshotManager(graph, config).current
        router = ShardRouter(ThreadWorkerPool(workers=count))
        start = time.perf_counter()
        router.start()
        startup = time.perf_counter() - start
        try:
            router.compute_tasks(snapshot, warmup_batch)  # untimed
            batch_seconds: list[float] = []
            wall_start = time.perf_counter()
            for batch in workload:
                t0 = time.perf_counter()
                results = router.compute_tasks(snapshot, batch)
                batch_seconds.append(time.perf_counter() - t0)
                if any(isinstance(r, Exception) for r in results):
                    raise RuntimeError(
                        f"failed tasks at workers={count}"
                    )
            wall = time.perf_counter() - wall_start
        finally:
            router.stop()
        total = batches * batch_size
        per_count[str(count)] = {
            "startup_seconds": startup,
            "wall_seconds": wall,
            "columns_per_second": total / wall if wall > 0 else 0.0,
            "batch_latency": LatencyStats.from_seconds(
                batch_seconds
            ).to_dict(),
            "shards_dispatched": router.shards_dispatched,
        }

    low, high = worker_counts[0], worker_counts[-1]
    low_rps = per_count[str(low)]["columns_per_second"]
    high_rps = per_count[str(high)]["columns_per_second"]
    return {
        "params": {
            "nodes": nodes,
            "edges": edges,
            "worker_counts": list(worker_counts),
            "batches": batches,
            "batch_size": batch_size,
            "total_columns": batches * batch_size,
            "k": k,
            "num_terms": num_terms,
            "measure": measure,
            "c": c,
            "dtype": dtype,
            "seed": seed,
        },
        "workers": per_count,
        "speedup_key": f"speedup_workers_{high}_vs_{low}",
        f"speedup_workers_{high}_vs_{low}": (
            high_rps / low_rps if low_rps > 0 else float("inf")
        ),
    }
