"""SimRank* — a reproduction of "More is Simpler: Effectively and
Efficiently Assessing Node-Pair Similarities Based on Hyperlinks"
(Yu, Lin, Zhang, Chang, Pei; VLDB 2013).

Quickstart
----------
Build a :class:`SimilarityEngine` once, then serve queries — the
expensive structure (transition matrices, biclique compression,
truncation length) is built lazily on first use and reused by every
subsequent query:

>>> from repro import DiGraph, SimilarityEngine
>>> g = DiGraph(3, edges=[(0, 1), (0, 2)], labels=["a", "b", "c"])
>>> engine = SimilarityEngine(g, measure="gSR*", c=0.8,
...                           num_iterations=10)
>>> engine.score("b", "c") > 0       # siblings are similar
True
>>> engine.top_k("b", k=2).labels    # rankings carry labels
['a', 'c']
>>> engine.matrix().score("b", "c") > 0   # same cached artifacts
True

The precomputation itself is a first-class, persistable artifact
(:mod:`repro.index`): build it once, save it, and later engines —
including ones in other processes, after a restart — adopt it via
``from_index`` instead of rebuilding::

    from repro import SimilarityEngine, SimilarityIndex

    SimilarityIndex.build(g, engine.config).save("graph.simidx")
    # ... later / elsewhere: memory-mapped, shared page cache,
    # no artifact rebuild — raises IndexMismatchError if the graph
    # or config on this side differs from what the index was built for
    index = SimilarityIndex.load("graph.simidx", mmap=True)
    engine = SimilarityEngine.from_index(index, g)

Measures are pluggable: every algorithm under comparison is registered
in :mod:`repro.engine.registry` with metadata, so
``SimilarityEngine(g, measure="SR")`` (or ``"RWR"``, ``"memo-gSR*"``,
...) serves any of them behind the same five methods — ``score``,
``single_source``, ``top_k``, ``batch_top_k``, ``matrix``.

Migration from the functional API
---------------------------------
The one-shot functions below still work (they are thin wrappers and
remain the easiest way to compute a single matrix), but repeated
queries should move to the engine, which amortises precomputation:

====================================  =================================
old functional call                   engine equivalent
====================================  =================================
``simrank_star(g, c, k)``             ``SimilarityEngine(g, measure="gSR*", c=c, num_iterations=k).matrix()``
``compute_measure(name, g, c, k)``    ``SimilarityEngine(g, measure=name, c=c, num_iterations=k).matrix()``
``single_source(g, q, c, L)``         ``engine.single_source(q)``
``single_pair(g, u, v, c, L)``        ``engine.score(u, v)``
``top_k(g, q, k=K)``                  ``engine.top_k(q, k=K)``
``[top_k(g, q) for q in qs]``         ``engine.batch_top_k(qs)``
====================================  =================================

Mind the defaults when migrating: with neither ``num_iterations`` nor
``epsilon`` configured, the engine uses the *measure's* default
truncation (5 for ``gSR*``, matching ``simrank_star``), while the
functional query helpers (``single_source`` / ``single_pair`` /
``top_k``) default to ``num_terms=10`` — pass ``num_iterations=10``
explicitly to reproduce query results that relied on their default.

After mutating the graph, call ``engine.invalidate()`` (or mutate
through ``engine.add_edge`` / ``engine.remove_edge``, which invalidate
automatically).

Performance guide
-----------------
The serving hot paths are tuned for query volume; four knobs matter:

* **Batching.** Serve many fresh queries through
  ``engine.batch_top_k(queries)`` (or, functionally,
  :func:`repro.core.multi_source.multi_source`) rather than looping
  ``top_k``. Fresh columns are evaluated together by the blocked
  multi-source kernel — ``2 L`` sparse x dense-``(n, B)`` products for
  the whole batch instead of ``O(L^2)`` sparse mat-vecs *per query* —
  which is several times faster even at moderate batch sizes (the
  ``BENCH_*.json`` files record the measured ratio as
  ``speedup_engine_batch_vs_loop``). Memoized and duplicate queries
  are deduplicated before the walk, so batching never recomputes.
* **dtype.** ``SimilarityEngine(g, dtype="float32")`` (or the
  ``dtype=`` keyword on the kernels and matrix builders) halves
  memory traffic for transition matrices, iterates and query blocks
  at ~1e-4 relative accuracy — well inside the paper's ``eps = 1e-3``
  regime. The default stays ``float64``; results and the column memo
  follow the configured dtype.
* **Preallocated iteration cores.** The all-pairs kernels
  (``simrank_star``, ``simrank_star_exponential``, the factorised
  memo variants) run allocation-free: each iteration writes into
  buffers allocated once, through the in-place sparse product in
  :mod:`repro.core.kernels`. Nothing to configure — but pass
  ``transition=`` / ``compressed=`` to amortise precomputation when
  calling them directly in a loop.
* **Ranking.** ``top_k`` selection is ``O(n + k log k)``
  (``np.argpartition``), so large graphs pay for the walk, not the
  sort.

Benchmarks: ``python -m repro.bench`` runs the kernel suite and writes
``BENCH_<tag>.json`` (per-case wall times, tracemalloc peaks, machine
and workload metadata, derived speedups); ``--quick`` is the CI
setting, ``--compare BENCH_baseline.json`` gates on regressions and
``--list`` enumerates the registered cases — see
:mod:`repro.bench.runner` for the schema and gate semantics. The
serving system is measured end to end by ``perfbench/run.py``.

Serving
-------
Batching only pays if traffic actually arrives in batches, which real
traffic never does — so :mod:`repro.serve` runs the engine as a
long-lived service. An asyncio broker coalesces independently
arriving ``top_k`` / ``score`` requests into micro-batches (knobs:
``max_batch``, ``max_wait_ms``) and answers each batch with one
blocked multi-source walk; a versioned LRU caches rendered answers;
graph mutations build a fresh engine in the background and atomically
hot-swap it, so in-flight queries finish on the snapshot they
started on. In-process::

    from repro.serve import ServingService

    async with ServingService(g, measure="gSR*", max_batch=32) as svc:
        rankings = await asyncio.gather(
            *(svc.top_k(q, k=10) for q in queries)
        )

Over HTTP (stdlib only)::

    python -m repro.serve serve --nodes 2000 --edges 12000 --port 8321
    curl -s -X POST localhost:8321/top_k -d '{"query": 7, "k": 5}'

``python -m repro.serve smoke`` is the self-contained serving health
check (concurrent clients, coalescing assertions, latency histogram);
``examples/serving_demo.py`` walks all three mechanisms. The result
cache is the one serving cache: served columns skip the engine's
column memo, so serving memory does not grow with distinct queries.

Scale-out
---------
One engine coalesces well but still computes alone. The measure
family here is embarrassingly parallel across query *columns*, so
:mod:`repro.cluster` shards each coalesced micro-batch across K
worker threads, all answering from the snapshot's one engine (the
kernels release the GIL inside scipy/BLAS)::

    ServingService(graph, workers=4)                  # in code
    python -m repro.serve serve --workers 4 --index graph.simidx

A mutation is just the snapshot swap: each batch holds the snapshot
it read until it is answered, so the zero-failed-requests guarantee
survives it. A shard that raises fails only its own requests, and a
request's deadline bounds its wait even on a kernel call that hangs.
``python -m repro.bench --cluster`` measures the scaling
(``speedup_workers_4_vs_1``).

Fast restarts
-------------
Engine construction is cheap; what costs is the precomputation it
rebuilds lazily. :mod:`repro.index` persists exactly that: ``Q`` /
``Q^T``, the biclique-compressed factor triple, the series
coefficient table, and the fingerprints (graph content digest +
resolved config) that make reuse safe. ``SimilarityIndex.load``
memory-maps every buffer read-only, so load time is independent of
index size and N server processes share one page cache. The serving
layer uses it automatically: ``python -m repro.serve serve --index
graph.simidx`` persists freshly built precomputation after warmup and
every hot-swap, and a restarted server (or a new replica) adopts the
file instead of rebuilding — the ``index_cold_*`` benchmark cases
and ``python -m repro.index smoke`` quantify the win. ``python -m
repro.index build | inspect | verify`` manage index files directly.

Packages
--------
* :mod:`repro.engine` — the stateful query-serving engine, measure
  registry, and label-aware result types.
* :mod:`repro.index` — the persistent precomputation artifact layer:
  build / save / mmap-load indexes, fingerprint checks, the
  ``python -m repro.index`` CLI.
* :mod:`repro.serve` — the async serving layer: micro-batch
  coalescing broker, versioned result cache, snapshot hot-swap,
  stdlib HTTP front end (``python -m repro.serve``).
* :mod:`repro.cluster` — sharded serving on worker threads: worker
  lanes over the snapshot's one engine and a shard router.
* :mod:`repro.graph` — the graph substrate (structure, matrices,
  generators, IO, stats).
* :mod:`repro.core` — SimRank* itself: geometric / exponential forms,
  fine-grained memoization, path semantics, queries.
* :mod:`repro.bigraph` — induced bigraph, biclique mining, edge
  concentration.
* :mod:`repro.baselines` — SimRank (3 forms + psum + SVD), P-Rank,
  RWR/PPR, co-citation, SimRank++.
* :mod:`repro.datasets` — synthetic stand-ins for the evaluation
  corpora, with planted ground truth.
* :mod:`repro.analysis` — ranking metrics, zero-similarity census,
  role analyses.
* :mod:`repro.experiments` — regenerate every table and figure.
"""

from repro.core import (
    memo_simrank_star,
    memo_simrank_star_exponential,
    memo_simrank_star_factorized,
    multi_source,
    simrank_star,
    simrank_star_exponential,
    single_source,
    top_k,
)
from repro.graph import DiGraph
from repro.measures import MEASURES, compute_measure
from repro.engine import (
    MeasureSpec,
    RankedNode,
    Ranking,
    ScoreMatrix,
    SimilarityConfig,
    SimilarityEngine,
    available_measures,
    get_measure,
    register_measure,
)
from repro.index import IndexMismatchError, SimilarityIndex

__version__ = "1.6.0"

__all__ = [
    "DiGraph",
    "IndexMismatchError",
    "MEASURES",
    "MeasureSpec",
    "RankedNode",
    "Ranking",
    "ScoreMatrix",
    "SimilarityConfig",
    "SimilarityEngine",
    "SimilarityIndex",
    "available_measures",
    "compute_measure",
    "get_measure",
    "memo_simrank_star",
    "memo_simrank_star_exponential",
    "memo_simrank_star_factorized",
    "multi_source",
    "register_measure",
    "simrank_star",
    "simrank_star_exponential",
    "single_source",
    "top_k",
    "__version__",
]
