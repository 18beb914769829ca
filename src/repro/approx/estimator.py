"""Monte-Carlo single-source estimation over a :class:`WalkIndex`.

The exact blocked kernel evaluates the truncated series

    ``S[u, q] = sum_{alpha, beta} coef[beta, alpha]
                * sum_w Q^alpha[u, w] * (Q^T)^beta[w, q]``

with ``O(L)`` sparse matrix products per query batch — every answer
touches all ``n`` nodes. :class:`ApproxEstimator` evaluates the same
sum as a *meeting probability* of reverse walks, splitting it
asymmetrically (the SLING-style near/far split):

* **query side, exact** — the vectors ``p_beta = (Q^T)^beta e_q`` are
  tiny for real graphs, so they are propagated *sparsely* (scatter
  through ``Q``'s rows, consolidate, keep the heaviest
  ``support_cap`` entries). No sampling noise on the query's side of
  the meeting.
* **source side, near levels exact** — level ``alpha = 0`` is the
  identity and level ``alpha = 1`` is one row of ``Q`` per source,
  reachable backwards through ``Q^T``'s rows at
  ``O(support * degree)`` cost — both are applied analytically.
  These two levels carry most of the series mass (the coefficients
  decay geometrically in ``alpha + beta``), so the dominant terms are
  noise-free.
* **source side, far levels sampled** — for ``alpha >= 2``,
  ``Q^alpha[u, w]`` is replaced by the empirical endpoint frequency
  of the precomputed walks, read through the walk index's inverted
  buckets: every stored walk that lands on a query-support node ``w``
  at level ``alpha`` pays ``m_alpha(w) / samples`` to its source,
  where ``m_alpha(w) = sum_beta coef[beta, alpha] * p_beta(w)`` is
  the coefficient-merged query-side weight.

Per query the cost is ``O(support * samples)`` gathered walk entries,
independent of ``n``. Every per-entry loop is a compiled CSR loop of
:mod:`repro.core.kernels` that runs without the GIL: one row gather
per sparse read, and one scatter per source level into a ``float64``
scratch. Those loops trust their indices, so the constructor checks
``Q``, ``Q^T`` and every bucket level once (``ValueError``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.approx.walks import WalkIndex
from repro.core.kernels import check_csr, gather_rows, scatter_rows

__all__ = ["ApproxEstimator", "ApproxStats"]

#: First walk level scored from samples; levels below it are analytic.
_FIRST_SAMPLED_LEVEL = 2

#: Per-support fraction of l1 mass the sort-free trims may drop — far
#: below the Monte-Carlo noise floor at any supported sample budget.
_TAIL_MASS = 1e-3

#: Query-side pushes stop this many levels past the walk depth: the
#: series coefficients decay geometrically in ``alpha + beta``, so
#: once the source side is truncated at ``walk_length`` the terms with
#: ``beta > walk_length + margin`` are below the truncation error the
#: walk depth already accepts.
_QUERY_DEPTH_MARGIN = 2


@dataclass
class ApproxStats:
    """Counters for the approx tier (surfaced via ``/status``).

    ``samples_drawn`` counts walk-index entries actually gathered —
    the estimator's unit of work; ``support_truncations`` counts
    query-side vectors clipped to ``support_cap`` (a non-zero value
    means ``epsilon`` is doing real work on this graph).

    Examples
    --------
    >>> stats = ApproxStats()
    >>> stats.columns += 1
    >>> stats.snapshot()["columns"]
    1
    """

    columns: int = 0
    samples_drawn: int = 0
    support_truncations: int = 0

    def snapshot(self) -> dict:
        """A plain-dict copy (handy for logging and assertions)."""
        return dict(self.__dict__)


class ApproxEstimator:
    """Estimate single-source score columns from precomputed walks.

    Parameters
    ----------
    walks:
        The :class:`~repro.approx.WalkIndex` to read meeting counts
        from.
    transition / transition_t:
        The backward transition matrix ``Q`` and its transpose (CSR) —
        used only for the exact sparse parts (query-side propagation
        and the analytic level-1 scatter), never densified.
    coefficients:
        The ``(L+1, L+1)`` series table from
        :func:`repro.core.multi_source.series_coefficients` (or the
        one persisted in a :class:`~repro.index.SimilarityIndex`).
    truncation:
        Series truncation ``L`` — how deep the query side propagates.
        The source side is bounded by ``walks.walk_length``, which may
        be smaller (the dropped tail mass is the scheme's documented
        truncation error).
    dtype:
        Accumulator precision (defaults to ``float64``).
    support_cap:
        Query-side support bound per level; heavier-tailed graphs trade
        a little accuracy for bounded per-query cost.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.graph.digraph import DiGraph
    >>> from repro.graph.matrices import backward_transition_matrix
    >>> from repro.core.multi_source import series_coefficients
    >>> from repro.core.weights import GeometricWeights
    >>> from repro.approx.walks import WalkIndex
    >>> g = DiGraph(4, edges=[(0, 2), (1, 2), (0, 3), (1, 3)])
    >>> q = backward_transition_matrix(g)
    >>> qt = q.T.tocsr()
    >>> walks = WalkIndex.build(q, walk_length=2, samples=32, seed=1)
    >>> coef = series_coefficients(4, GeometricWeights(0.6))
    >>> est = ApproxEstimator(walks, q, qt, coef, truncation=4)
    >>> column = est.column(2)
    >>> column.shape
    (4,)
    >>> bool(column[3] > 0)      # 2 and 3 share both in-neighbours
    True
    >>> est.stats.snapshot()["columns"]
    1

    Same walks, same query — same estimate, bit for bit:

    >>> est2 = ApproxEstimator(walks, q, qt, coef, truncation=4)
    >>> bool(np.array_equal(est2.column(2), column))
    True
    """

    def __init__(
        self,
        walks: WalkIndex,
        transition: sp.csr_array,
        transition_t: sp.csr_array,
        coefficients: np.ndarray,
        truncation: int,
        dtype: np.dtype | str = np.float64,
        support_cap: int = 8192,
    ) -> None:
        n = walks.num_nodes
        if transition.shape[0] != n:
            raise ValueError(
                f"transition is over {transition.shape[0]} nodes but "
                f"the walk index covers {n}"
            )
        coefficients = np.asarray(coefficients, dtype=np.float64)
        if coefficients.shape != (truncation + 1, truncation + 1):
            raise ValueError(
                f"coefficients table has shape {coefficients.shape}; "
                f"truncation={truncation} needs "
                f"{(truncation + 1, truncation + 1)}"
            )
        if support_cap < 1:
            raise ValueError("support_cap must be >= 1")
        self.walks = walks
        self._n = n
        self.truncation = int(truncation)
        self._query_depth = min(
            int(truncation), walks.walk_length + _QUERY_DEPTH_MARGIN
        )
        self.support_cap = int(support_cap)
        self.dtype = np.dtype(dtype)
        self.stats = ApproxStats()
        # each call counts into its own tally and adds it here once:
        # worker threads estimate concurrently on one estimator
        self._stats_lock = threading.Lock()
        self._coef = coefficients
        self._q, qt = (
            (
                np.asarray(matrix.indptr, dtype=np.int64),
                np.asarray(matrix.indices, dtype=np.int64),
                np.asarray(matrix.data, dtype=np.float64),
            )
            for matrix in (transition, transition_t)
        )
        for indptr, indices, _ in (self._q, qt):
            check_csr(indptr, indices, n)
        # source level 1 reads Q^T's rows, level l >= 2 the buckets of
        # walk level l (level 0 is analytic)
        self._levels = (qt, *walks.levels[1:])

    # ------------------------------------------------------------------
    # exact sparse query side
    # ------------------------------------------------------------------
    def _record(self, tally: ApproxStats) -> None:
        with self._stats_lock:
            for name, value in tally.__dict__.items():
                setattr(self.stats, name, getattr(self.stats, name) + value)

    def _trim(
        self, nodes: np.ndarray, values: np.ndarray, tally: ApproxStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bound a support's size with provably small dropped mass.

        Two-stage cut, both sort-free: entries below
        ``tail_mass * total / support_size`` are dropped first — if
        every dropped entry is under the per-entry budget, the dropped
        *total* is under ``tail_mass * total`` — then a hard
        ``support_cap`` argpartition catches adversarial residues.
        """
        if nodes.size <= self.support_cap:
            threshold = _TAIL_MASS * float(values.sum()) / max(
                nodes.size, 1
            )
            keep = values > threshold
            if not keep.all():
                tally.support_truncations += 1
                return nodes[keep], values[keep]
            return nodes, values
        tally.support_truncations += 1
        keep = np.argpartition(values, -self.support_cap)[
            -self.support_cap:
        ]
        keep.sort()
        return nodes[keep], values[keep]

    def _push(
        self, nodes: np.ndarray, values: np.ndarray, tally: ApproxStats
    ) -> tuple[np.ndarray, np.ndarray]:
        """One exact step ``p -> Q^T p`` on a sparse support.

        Consolidation goes through a dense ``bincount`` accumulator —
        ``O(n + pushed)`` with no sort — and the mass-bounded tail cut
        is applied *on the dense vector*, so the (large, diffuse) raw
        support is never materialised as an index array.
        """
        _, out_nodes, out_vals = gather_rows(*self._q, nodes, values)
        if out_nodes.size <= 4096:
            # small supports (deep levels on DAGs) consolidate by a
            # local sort — no O(n) dense passes for an O(100) result
            uniq, inverse = np.unique(out_nodes, return_inverse=True)
            return self._trim(
                uniq, np.bincount(inverse, weights=out_vals), tally
            )
        dense = np.bincount(
            out_nodes, weights=out_vals, minlength=self._n
        )
        support = int(np.count_nonzero(dense))
        threshold = _TAIL_MASS * float(out_vals.sum()) / max(support, 1)
        uniq = np.nonzero(dense > threshold)[0]
        kept = dense[uniq]
        if uniq.size < support:
            tally.support_truncations += 1
        if uniq.size > self.support_cap:  # _trim's hard cap
            return self._trim(uniq, kept, tally)
        return uniq, kept

    def _query_side(
        self, query: int, tally: ApproxStats
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """``p_beta = (Q^T)^beta e_q`` up to the useful query depth."""
        nodes = np.array([query], dtype=np.int64)
        values = np.array([1.0], dtype=np.float64)
        supports = [(nodes, values)]
        for _ in range(self._query_depth):
            nodes, values = self._push(nodes, values, tally)
            supports.append((nodes, values))
            if nodes.size == 0:
                break
        return supports

    def _merged_weights(
        self, supports: list[tuple[np.ndarray, np.ndarray]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``m_alpha = sum_beta coef[beta, alpha] p_beta``, all levels.

        Returns ``(union, weights)`` where ``union`` is the sorted
        union of the query-side supports and ``weights[:, alpha]`` is
        ``m_alpha`` evaluated on it. All the per-level merges collapse
        into one ``(support x beta) @ coef`` product over the union —
        a single dense scan instead of one consolidation per level.
        """
        max_alpha = min(self.walks.walk_length, self.truncation)
        active = [
            (beta, nodes, values)
            for beta, (nodes, values) in enumerate(supports)
            if nodes.size
        ]
        if not active:
            return (
                np.empty(0, dtype=np.int64),
                np.empty((0, max_alpha + 1), dtype=np.float64),
            )
        occupancy = np.bincount(
            np.concatenate([nodes for _, nodes, _ in active]),
            minlength=self._n,
        )
        union = np.nonzero(occupancy)[0]
        stacked = np.zeros(
            (union.size, len(active)), dtype=np.float64
        )
        for col, (_, nodes, values) in enumerate(active):
            stacked[np.searchsorted(union, nodes), col] = values
        coef = self._coef[
            [beta for beta, _, _ in active], : max_alpha + 1
        ]
        return union, stacked @ coef

    # ------------------------------------------------------------------
    # source side
    # ------------------------------------------------------------------
    def _scatter(
        self, level: int, nodes: np.ndarray, values: np.ndarray,
        scratch: np.ndarray, tally: ApproxStats,
    ) -> None:
        """Add ``sum_w Q^level[u, w] m_level(w)`` into ``scratch[u]``:
        exactly through ``Q^T``'s row ``w`` at level 1, and as the
        bucket's ``count / samples`` at level ``l >= 2``. The support
        is mass-trimmed first, far below the sampling noise.
        """
        nodes, values = self._trim(nodes, values, tally)
        row_ptr, cols, vals = gather_rows(*self._levels[level - 1], nodes)
        if level >= _FIRST_SAMPLED_LEVEL:
            values = values / self.walks.samples
            tally.samples_drawn += cols.size
        scatter_rows(row_ptr, cols, vals, values, scratch)

    # ------------------------------------------------------------------
    # public estimates
    # ------------------------------------------------------------------
    def column(self, query: int) -> np.ndarray:
        """The estimated score column of ``query`` (dense ``(n,)``).

        Entry ``u`` estimates ``S[u, query]`` under the engine's
        truncated series, from every walk level.
        """
        query = int(query)
        if not 0 <= query < self._n:  # the gathers trust their rows
            raise IndexError(f"query {query} out of range [0, {self._n})")
        tally = ApproxStats(columns=1)
        union, weights = self._merged_weights(
            self._query_side(query, tally)
        )
        acc = np.zeros(self._n, dtype=self.dtype)
        if union.size:
            acc[union] += weights[:, 0].astype(self.dtype)
            scratch = np.zeros(self._n)
            for level in range(1, weights.shape[1]):
                self._scatter(level, union, weights[:, level], scratch, tally)
            acc += scratch.astype(self.dtype, copy=False)
        self._record(tally)
        return acc

    def __repr__(self) -> str:
        return (
            f"ApproxEstimator(truncation={self.truncation}, "
            f"walks={self.walks!r}, support_cap={self.support_cap})"
        )
