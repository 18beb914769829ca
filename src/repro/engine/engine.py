"""The stateful query-serving engine.

A :class:`SimilarityEngine` is constructed once per (graph, config)
pair and then serves many queries. The expensive shared structure —
the backward transition matrix ``Q``, its transpose, the
biclique-compressed graph ``G^`` (``m -> m~``), the truncation length
implied by an accuracy target — is built lazily on first use and
reused by every subsequent query, which is exactly the regime the
paper's preprocessing (Algorithm 1 lines 1-2) is designed for. Results
are memoized per query; :meth:`SimilarityEngine.invalidate` (called
automatically by the engine's own mutation helpers, and triggered by a
cheap staleness check against the graph's mutation counter) drops
everything.

Measure dispatch goes through :mod:`repro.engine.registry`; each
:class:`MeasureSpec` declares which cached artifacts its callable can
consume and whether its columns can be served by the ``O(L m)``
blocked series walk instead of a full ``O(K n m)`` matrix build.

Artifact *construction* lives in :mod:`repro.index.artifacts` — the
lazy builders here are thin wrappers over it — and a prebuilt
:class:`~repro.index.SimilarityIndex` can be attached (``index=`` /
:meth:`SimilarityEngine.from_index`) so the engine adopts persisted,
possibly memory-mapped artifacts instead of rebuilding them. An index
whose graph or config fingerprint disagrees is rejected with
:exc:`~repro.index.IndexMismatchError` rather than served.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from repro.approx import ApproxEstimator, ApproxStats, approx_params
from repro.approx.walks import WalkIndex
from repro.bigraph.compressed import CompressedGraph
from repro.core.multi_source import multi_source as _series_block
from repro.core.multi_source import series_coefficients
from repro.core.weights import (
    ExponentialWeights,
    GeometricWeights,
    WeightScheme,
)
from repro.engine.config import SimilarityConfig
from repro.engine.registry import MeasureSpec, get_measure
from repro.engine.results import Ranking, ScoreMatrix
from repro.graph.digraph import DiGraph
from repro.index.artifacts import (
    SimilarityIndex,
    build_compressed,
    build_transition,
)

__all__ = ["ColumnMemo", "EngineStats", "SimilarityEngine"]

_WEIGHTS = {
    "geometric": GeometricWeights,
    "exponential": ExponentialWeights,
}


@dataclass
class EngineStats:
    """Counters exposing what the engine actually built vs. reused.

    The cache-reuse tests and the CI smoke benchmark assert on these:
    serving repeated queries must not increment the ``*_builds``
    counters.
    """

    transition_builds: int = 0
    compression_builds: int = 0
    walk_builds: int = 0
    index_adoptions: int = 0
    matrix_builds: int = 0
    column_computes: int = 0
    column_evictions: int = 0
    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    def snapshot(self) -> dict:
        """A plain-dict copy (handy for logging and assertions)."""
        return dict(self.__dict__)

    def count_column_eviction(self) -> None:
        """:class:`ColumnMemo` eviction hook.

        Bound to the stats object, *not* the engine: an
        engine-bound callback would close the
        ``engine -> caches -> memo -> engine`` reference cycle,
        leaving every replaced engine generation (graph, artifacts —
        hundreds of MB at serving scale) to the cyclic collector
        instead of dying by refcount the moment a snapshot swap
        drops it.
        """
        self.column_evictions += 1


class ColumnMemo:
    """The per-query column memo, optionally bounded.

    A mapping of resolved query id to its read-only score column. With
    ``max_entries`` set, insertion beyond the bound evicts the least
    recently *served* column (each :meth:`get` refreshes recency). The
    eviction count is surfaced through
    :attr:`EngineStats.column_evictions`.
    """

    __slots__ = ("_data", "max_entries", "evictions", "on_evict")

    def __init__(
        self, max_entries: int | None = None, on_evict=None
    ) -> None:
        self._data: OrderedDict[int, np.ndarray] = OrderedDict()
        self.max_entries = max_entries
        self.evictions = 0
        self.on_evict = on_evict

    def get(self, query: int) -> np.ndarray | None:
        column = self._data.get(query)
        if column is not None:
            self._data.move_to_end(query)
        return column

    def put(self, query: int, column: np.ndarray) -> None:
        self._data[query] = column
        self._data.move_to_end(query)
        if self.max_entries is not None:
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)
                self.evictions += 1
                if self.on_evict is not None:
                    self.on_evict()

    def __contains__(self, query: int) -> bool:
        return query in self._data

    def __len__(self) -> int:
        return len(self._data)


@dataclass
class _Caches:
    """Everything :meth:`SimilarityEngine.invalidate` must drop."""

    transition: sp.csr_array | None = None
    transition_t: sp.csr_array | None = None
    compressed: CompressedGraph | None = None
    walks: WalkIndex | None = None
    estimator: ApproxEstimator | None = None
    matrix: ScoreMatrix | None = None
    columns: ColumnMemo = field(default_factory=ColumnMemo)
    #: query id -> the Future of the compute that claimed it
    inflight: dict[int, Future] = field(default_factory=dict)


class SimilarityEngine:
    """Serve similarity queries over one graph with reusable precomputation.

    Examples
    --------
    >>> from repro.graph import figure1_citation_graph
    >>> engine = SimilarityEngine(
    ...     figure1_citation_graph(), measure="gSR*", c=0.8,
    ...     num_iterations=30,
    ... )
    >>> engine.score("h", "d") > 0        # labels work directly
    True
    >>> [r.label for r in engine.top_k("i", k=2)]
    ['d', 'e']

    Parameters
    ----------
    graph:
        The graph to serve queries over. The engine holds a reference
        (not a copy); mutate it through :meth:`add_edge` /
        :meth:`remove_edge` or call :meth:`invalidate` after external
        mutation.
    config:
        A :class:`SimilarityConfig`. Keyword overrides may be passed
        instead of (or on top of) it: ``SimilarityEngine(g, c=0.8)``.
    index:
        An optional prebuilt :class:`~repro.index.SimilarityIndex`.
        Its artifacts (``Q``, ``Q^T``, compressed factors, series
        coefficients) are adopted lazily instead of rebuilt; the index
        must fingerprint-match ``graph`` and the configuration or
        :exc:`~repro.index.IndexMismatchError` is raised immediately —
        a mismatched index would silently serve wrong scores.
    """

    def __init__(
        self,
        graph: DiGraph,
        config: SimilarityConfig | None = None,
        *,
        index: SimilarityIndex | None = None,
        **overrides,
    ) -> None:
        if config is None:
            config = SimilarityConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self._graph = graph
        self._config = config
        self._spec = get_measure(config.measure)
        if (
            config.weights != "auto"
            and config.weights != self._spec.weight_scheme
        ):
            raise ValueError(
                f"measure {config.measure!r} uses "
                f"{self._spec.weight_scheme!r} length weights; "
                f"config requested {config.weights!r}"
            )
        if (
            config.mode == "approx"
            and not self._spec.supports_single_source
        ):
            raise ValueError(
                f"measure {config.measure!r} has no single-source "
                "series support; mode='approx' estimates the series "
                "and cannot serve it"
            )
        self.stats = EngineStats()
        # Reentrant: artifact builds nest (transition_t -> transition,
        # _compute_columns -> both) and the serving layer may issue
        # concurrent first queries from a thread pool.
        self._lock = threading.RLock()
        if index is not None:
            index.verify_compatible(graph, config)
        self._index = index
        self._caches = self._fresh_caches()
        self._fingerprint = self._graph_fingerprint()

    @classmethod
    def from_index(
        cls,
        index: SimilarityIndex,
        graph: DiGraph,
        config: SimilarityConfig | None = None,
        **overrides,
    ) -> "SimilarityEngine":
        """An engine serving ``graph`` from a prebuilt index.

        With no explicit ``config`` the index's own recorded
        configuration is used (memo overrides such as
        ``max_cached_columns`` may still be passed), so the common
        restart path is just::

            index = SimilarityIndex.load("graph.simidx")   # mmap'd
            engine = SimilarityEngine.from_index(index, graph)

        The first query then pays only its own walk — ``Q`` / ``Q^T``
        / the compressed factors come from the (memory-mapped) index
        instead of being rebuilt. Fingerprint mismatches raise
        :exc:`~repro.index.IndexMismatchError`.
        """
        if config is None:
            config = index.similarity_config(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        return cls(graph, config, index=index)

    # ------------------------------------------------------------------
    # configuration / introspection
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The graph being served."""
        return self._graph

    @property
    def config(self) -> SimilarityConfig:
        """The (immutable) configuration."""
        return self._config

    @property
    def measure(self) -> MeasureSpec:
        """The registered spec of the configured measure."""
        return self._spec

    @property
    def truncation(self) -> int:
        """The concrete iteration / term count all answers use."""
        return self._config.resolved_iterations(
            self._spec.variant, self._spec.default_iterations
        )

    def with_config(self, **changes) -> "SimilarityEngine":
        """A sibling engine on the same graph with a tweaked config.

        Caches are per-engine, so the two engines are independent
        (useful for comparing measures or damping factors side by
        side without cross-talk).
        """
        return SimilarityEngine(
            self._graph, self._config.replace(**changes)
        )

    def __repr__(self) -> str:
        return (
            f"SimilarityEngine(measure={self._spec.name!r}, "
            f"c={self._config.c}, truncation={self.truncation}, "
            f"graph={self._graph!r})"
        )

    # ------------------------------------------------------------------
    # cached artifacts
    # ------------------------------------------------------------------
    @property
    def index(self) -> SimilarityIndex | None:
        """The attached prebuilt index, if any (dropped on
        invalidation — a mutated graph no longer matches it)."""
        return self._index

    @property
    def transition(self) -> sp.csr_array:
        """The backward transition matrix ``Q``, built once.

        Adopted from the attached index when one is present (no
        rebuild, counted in ``EngineStats.index_adoptions``), else
        built in the configured :attr:`SimilarityConfig.dtype` by
        :func:`repro.index.build_transition`. Thread-safe: concurrent
        first touches race to the lock and exactly one thread builds
        (double-checked locking — the fast path after the build never
        takes the lock).
        """
        cached = self._caches.transition
        if cached is None:
            with self._lock:
                if self._caches.transition is None:
                    if (
                        self._index is not None
                        and self._index.transition is not None
                    ):
                        self._caches.transition = (
                            self._index.transition
                        )
                        self.stats.index_adoptions += 1
                    else:
                        self._caches.transition = build_transition(
                            self._graph, dtype=self._config.np_dtype
                        )
                        self.stats.transition_builds += 1
                cached = self._caches.transition
        return cached

    @property
    def transition_t(self) -> sp.csr_array:
        """``Q^T`` in CSR form, adopted from the index or built once
        (thread-safe first touch)."""
        cached = self._caches.transition_t
        if cached is None:
            with self._lock:
                if self._caches.transition_t is None:
                    if (
                        self._index is not None
                        and self._index.transition_t is not None
                    ):
                        self._caches.transition_t = (
                            self._index.transition_t
                        )
                        self.stats.index_adoptions += 1
                    else:
                        self._caches.transition_t = (
                            self.transition.T.tocsr()
                        )
                cached = self._caches.transition_t
        return cached

    @property
    def compressed(self) -> CompressedGraph:
        """The biclique-compressed graph ``G^``, built once
        (thread-safe first touch).

        With an index attached, the stored factor triple is
        reassembled instead of re-running biclique mining — the
        dominant cost of a cold start on graphs with real overlap.
        """
        cached = self._caches.compressed
        if cached is None:
            with self._lock:
                if self._caches.compressed is None:
                    if (
                        self._index is not None
                        and self._index.factors is not None
                    ):
                        self._caches.compressed = (
                            self._index.compressed_graph(self._graph)
                        )
                        self.stats.index_adoptions += 1
                    else:
                        self._caches.compressed = build_compressed(
                            self._graph
                        )
                        self.stats.compression_builds += 1
                cached = self._caches.compressed
        return cached

    @property
    def walk_index(self) -> WalkIndex:
        """The reverse-walk sample store of the approx tier.

        Adopted from the attached index when it carries walk segments
        (a restart from a ``.simidx`` or a delta swap — counted in
        ``EngineStats.index_adoptions``), else drawn once from the
        engine's ``Q`` with the geometry
        :func:`repro.approx.approx_params` resolves from the
        configuration (counted in ``EngineStats.walk_builds``).
        Thread-safe first touch, like every other artifact.
        """
        cached = self._caches.walks
        if cached is None:
            with self._lock:
                if self._caches.walks is None:
                    if (
                        self._index is not None
                        and self._index.walks is not None
                    ):
                        self._caches.walks = self._index.walks
                        self.stats.index_adoptions += 1
                    else:
                        walk_length, samples = approx_params(
                            self.truncation, self._config.epsilon
                        )
                        self._caches.walks = WalkIndex.build(
                            self.transition,
                            walk_length=walk_length,
                            samples=samples,
                            seed=self._config.seed,
                        )
                        self.stats.walk_builds += 1
                cached = self._caches.walks
        return cached

    @property
    def _approx_estimator(self) -> ApproxEstimator:
        cached = self._caches.estimator
        if cached is None:
            with self._lock:
                if self._caches.estimator is None:
                    coefficients = (
                        self._index.coefficients
                        if self._index is not None
                        and self._index.coefficients is not None
                        else series_coefficients(
                            self.truncation, self._weight_scheme()
                        )
                    )
                    self._caches.estimator = ApproxEstimator(
                        self.walk_index,
                        self.transition,
                        self.transition_t,
                        coefficients,
                        self.truncation,
                        dtype=self._config.np_dtype,
                    )
                cached = self._caches.estimator
        return cached

    def approx_status(self) -> dict | None:
        """Approx-tier counters for ``/status`` (``None`` when exact).

        Reports the resolved walk geometry, the walk index's byte
        size (0 until built/adopted), and the estimator's counters —
        columns, samples drawn, support truncations.
        """
        if self._config.mode != "approx":
            return None
        walk_length, samples = approx_params(
            self.truncation, self._config.epsilon
        )
        walks = self._caches.walks
        estimator = self._caches.estimator
        return {
            "epsilon": self._config.epsilon,
            "seed": self._config.seed,
            "walk_length": walk_length,
            "samples_per_node": samples,
            "index_bytes": walks.nbytes if walks is not None else 0,
            "estimator": (
                estimator.stats.snapshot()
                if estimator is not None
                else ApproxStats().snapshot()
            ),
        }

    def export_index(self) -> SimilarityIndex:
        """The engine's precomputation as a persistable index.

        Reuses every artifact the engine has already built (building
        the missing ones now, warming the engine as a side effect), so
        ``engine.export_index().save(path)`` after warmup costs only
        serialisation. When the engine was itself constructed from an
        index, that index is returned as-is.
        """
        if self._index is not None:
            return self._index
        spec = self._spec
        needs_transition = (
            spec.supports_single_source or "transition" in spec.uses
        )
        return SimilarityIndex.build(
            self._graph,
            self._config,
            transition=self.transition if needs_transition else None,
            transition_t=(
                self.transition_t if needs_transition else None
            ),
            compressed=(
                self.compressed if "compressed" in spec.uses else None
            ),
            walks=(
                self.walk_index
                if self._config.mode == "approx"
                else None
            ),
        )

    # ------------------------------------------------------------------
    # invalidation / mutation
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every cached artifact and memoized result.

        An attached index is dropped too: invalidation means the graph
        (may have) changed, so the index's fingerprint no longer
        vouches for it — subsequent artifact touches rebuild from the
        live graph.
        """
        with self._lock:
            self.stats.invalidations += 1
            self._index = None
            self._caches = self._fresh_caches()
            self._fingerprint = self._graph_fingerprint()

    def _fresh_caches(self) -> _Caches:
        # the eviction hook binds to the stats object, never to the
        # engine — see EngineStats.count_column_eviction for why
        return _Caches(
            columns=ColumnMemo(
                self._config.max_cached_columns,
                on_evict=self.stats.count_column_eviction,
            )
        )

    def add_edge(self, u, v) -> None:
        """Insert an edge (ids or labels) and invalidate the caches."""
        self._graph.add_edge(self._resolve(u), self._resolve(v))
        self.invalidate()

    def remove_edge(self, u, v) -> None:
        """Delete an edge (ids or labels) and invalidate the caches."""
        self._graph.remove_edge(self._resolve(u), self._resolve(v))
        self.invalidate()

    def _graph_fingerprint(self) -> tuple[int, int]:
        return (self._graph.num_nodes, self._graph.version)

    def _check_stale(self) -> None:
        # Cheap guard against callers mutating the graph directly: the
        # DiGraph mutation counter moves on every add_edge/remove_edge,
        # so a changed fingerprint means the caches describe an older
        # graph (this catches edge swaps that preserve the edge count).
        if self._graph_fingerprint() != self._fingerprint:
            self.invalidate()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def single_source(self, query) -> np.ndarray:
        """Scores of every node against ``query`` (column ``query``).

        Matches :func:`repro.core.queries.single_source`: entry ``i``
        is ``S[i, query]``. For asymmetric measures (``RWR``) this is
        the *column*, not the row — take
        ``np.asarray(engine.matrix())[query]`` for the other
        direction.

        The answer is memoized (subject to
        :attr:`SimilarityConfig.max_cached_columns`); the backing
        array is marked read-only because later calls may return the
        same object. Its dtype follows :attr:`SimilarityConfig.dtype`.
        """
        q = self._resolve(query)
        return self.columns((q,))[q]

    def columns(
        self, queries: Sequence, *, memoize: bool = True
    ) -> Mapping[int, np.ndarray]:
        """Score columns for many queries, resolved-id keyed.

        The serving primitive: all fresh (un-memoized) query columns
        are evaluated together through one blocked multi-source walk,
        memoized ones come from the column memo, and the returned
        dict holds every requested column even when the memo's bound
        forces same-batch evictions. Duplicate queries collapse.

        ``memoize=False`` leaves fresh columns out of the memo (the
        serving path, :func:`~repro.engine.results.run_tasks`, whose
        repeats the result cache answers) and returns kernel columns
        as read-only views of their shared ``(n, B)`` block; memoized
        ones are copies, so a memo entry holds one column. Lookups,
        the single flight below and the hit / miss / compute counts
        are unchanged.

        Thread-safe, and built for worker threads sharing one engine:
        the memo lookups and bookkeeping run under the engine lock,
        the kernel call outside it. A column another thread is
        computing right now is awaited, never computed twice (it
        counts as a hit, and its error is re-raised here), and fresh
        columns land in the caches that were current when they were
        claimed, so an :meth:`invalidate` mid-compute never admits a
        stale column into the new memo.
        """
        self._check_stale()
        ids = [self._resolve(q) for q in queries]
        out: dict[int, np.ndarray] = {}
        awaited: list[tuple[int, Future]] = []
        fresh: list[int] = []
        with self._lock:
            caches = self._caches
            for q in dict.fromkeys(ids):  # ordered de-dup
                cached = caches.columns.get(q)
                if cached is not None:
                    self.stats.hits += 1
                    out[q] = cached
                elif q in caches.inflight:
                    self.stats.hits += 1
                    awaited.append((q, caches.inflight[q]))
                else:
                    fresh.append(q)
            if fresh:
                self.stats.misses += len(fresh)
                from_matrix = self._config.mode != "approx" and (
                    not self._spec.supports_single_source
                    or caches.matrix is not None
                )
                claim = Future()
                for q in fresh:
                    caches.inflight[q] = claim
        if fresh:
            try:
                if from_matrix:
                    computed = self._matrix_columns(caches, fresh)
                elif self._config.mode == "approx":
                    computed = {
                        q: self._approx_estimator.column(q) for q in fresh
                    }
                else:
                    computed = self._compute_columns(tuple(fresh))
                    if memoize:  # a memo entry must not pin the block
                        computed = {
                            q: col.copy() for q, col in computed.items()
                        }
                with self._lock:
                    for q, scores in computed.items():
                        scores.flags.writeable = False
                        if memoize:
                            caches.columns.put(q, scores)
                        caches.inflight.pop(q, None)
                    if not from_matrix:
                        self.stats.column_computes += len(computed)
            except BaseException as exc:
                # waiters must never block on an unresolved claim
                with self._lock:
                    for q in fresh:
                        caches.inflight.pop(q, None)
                claim.set_exception(exc)
                raise
            claim.set_result(computed)
            out.update(computed)
        for q, claim in awaited:
            out[q] = claim.result()[q]
        return out

    def _compute_columns(
        self, queries: Sequence[int]
    ) -> dict[int, np.ndarray]:
        """Series-walk the given fresh query columns in one blocked call.

        Pure compute, run outside the engine lock: ``queries`` are
        distinct resolved ids, and :meth:`columns` counts (and, when
        asked to, copies and memoizes) what comes back. The columns
        are contiguous views of the kernel's column-major ``(n, B)``
        block, which a served read ranks in place.
        """
        block = _series_block(
            self._graph,
            queries,
            c=self._config.c,
            num_terms=self.truncation,
            weights=self._weight_scheme(),
            transition=self.transition,
            transition_t=self.transition_t,
            dtype=self._config.np_dtype,
            coefficients=(
                self._index.coefficients
                if self._index is not None
                else None
            ),
        )
        return {q: block[:, j] for j, q in enumerate(queries)}

    def _matrix_columns(
        self, caches: _Caches, queries: list[int]
    ) -> dict[int, np.ndarray]:
        # bypass matrix()'s hit/miss accounting: each query is already
        # counted as a column miss. Views, not copies — the matrix
        # cache owns the data and is frozen read-only. Kept in the
        # matrix's own dtype: measures that do not declare dtype
        # support serve float64 even under a float32 config, and
        # columns must agree with matrix().
        with self._lock:  # one build, however many callers race
            if caches.matrix is None:
                caches.matrix = self._build_matrix()
        values = np.asarray(caches.matrix)
        return {q: values[:, q] for q in queries}

    def score(self, u, v) -> float:
        """The similarity of one node pair (ids or labels).

        Reuses whichever query column is already cached before
        computing a new one.
        """
        self._check_stale()
        ui, vi = self._resolve(u), self._resolve(v)
        with self._lock:
            columns = self._caches.columns
            cached = columns.get(vi)
            if cached is not None:
                self.stats.hits += 1
                return float(cached[ui])
            if self._spec.symmetric:
                cached = columns.get(ui)
                if cached is not None:
                    self.stats.hits += 1
                    return float(cached[vi])
        return float(self.single_source(vi)[ui])

    def top_k(
        self,
        query,
        k: int = 10,
        include_query: bool = False,
        exclude: Iterable = (),
    ) -> Ranking:
        """The ``k`` nodes most similar to ``query``, label-aware.

        ``exclude`` drops specific nodes (ids or labels) from the
        ranking — e.g. a recommender excluding already-linked nodes.
        The query's column comes from :meth:`columns`, memoized, in
        every mode.
        """
        q = self._resolve(query)
        scores = self.single_source(q)
        return Ranking.from_scores(
            scores,
            query=q,
            k=k,
            labels=self._graph.labels,
            include_query=include_query,
            exclude={self._resolve(x) for x in exclude},
            measure=self._spec.name,
        )

    def batch_top_k(
        self,
        queries: Sequence,
        k: int = 10,
        include_query: bool = False,
    ) -> list[Ranking]:
        """One :class:`Ranking` per query, sharing all precomputation.

        Fresh query columns are evaluated together by the blocked
        multi-source kernel (:func:`repro.core.multi_source.multi_source`)
        — one grid walk of sparse x ``(n, B)`` products instead of
        ``B`` independent ``O(L^2)`` mat-vec walks — so serving a
        batch costs barely more than serving its slowest member.
        Already-memoized queries are served from the column cache as
        usual; duplicates collapse before the walk (one hit or miss
        per distinct query).
        """
        self._check_stale()
        ids = [self._resolve(q) for q in queries]
        cols = self.columns(ids)
        labels = self._graph.labels
        return [
            Ranking.from_scores(
                cols[q],
                query=q,
                k=k,
                labels=labels,
                include_query=include_query,
                measure=self._spec.name,
            )
            for q in ids
        ]

    def matrix(self) -> ScoreMatrix:
        """The full ``n x n`` score matrix, computed once and memoized.

        Cached artifacts the measure can consume (``Q``, the
        compressed graph) are passed through, so a later ``matrix()``
        after some queries does not redo their work — and vice versa.
        """
        self._check_stale()
        with self._lock:
            if self._caches.matrix is None:
                self.stats.misses += 1
                self._caches.matrix = self._build_matrix()
            else:
                self.stats.hits += 1
            return self._caches.matrix

    def _build_matrix(self) -> ScoreMatrix:
        kwargs = {}
        if "transition" in self._spec.uses:
            kwargs["transition"] = self.transition
        if "compressed" in self._spec.uses:
            kwargs["compressed"] = self.compressed
        if "dtype" in self._spec.uses:
            kwargs["dtype"] = self._config.np_dtype
        values = self._spec.compute(
            self._graph, self._config.c, self.truncation, **kwargs
        )
        matrix = ScoreMatrix(
            values,
            labels=self._graph.labels,
            measure=self._spec.name,
        )
        # freeze the memoized buffer: np.asarray(engine.matrix())
        # shares it, and a caller writing through a view would
        # corrupt every subsequent answer
        matrix.values.flags.writeable = False
        self.stats.matrix_builds += 1
        return matrix

    # ------------------------------------------------------------------
    # internal
    # ------------------------------------------------------------------
    def _weight_scheme(self) -> WeightScheme:
        # only reached on the series path, and the registry rejects
        # supports_single_source without a weight_scheme — so the
        # resolved name is never None here
        name = self._config.resolved_weights(self._spec.weight_scheme)
        return _WEIGHTS[name](self._config.c)

    def resolve_node(self, node) -> int:
        """Map an id or label to this graph's dense node id.

        The public face of the engine's internal resolution rule,
        used by the serving layer to pin label resolution to one
        snapshot before batching.
        """
        return self._resolve(node)

    def _resolve(self, node) -> int:
        """Map an id or label to a dense node id.

        Integers are always interpreted as node ids (matching
        :class:`ScoreMatrix`); anything else is looked up as a label.
        """
        if isinstance(node, (int, np.integer)):
            v = int(node)
            if not 0 <= v < self._graph.num_nodes:
                raise IndexError(
                    f"node {v} out of range for graph with "
                    f"{self._graph.num_nodes} nodes"
                )
            return v
        return self._graph.node_of(node)
