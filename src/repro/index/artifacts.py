"""The :class:`SimilarityIndex` artifact bundle and its builders.

A similarity index owns everything the engine's per-instance caches
used to rebuild lazily: the backward transition CSR ``Q`` and its
transpose, the biclique-compressed factor triple
``(E_direct, H_out, H_in)`` with ``A^T = E_direct + H_out H_in``, and
the series coefficient table of the blocked multi-source kernel —
plus the *fingerprints* that make reuse safe: a content digest of the
graph's edge set and the resolved artifact-relevant configuration
(measure, damping, truncation, weight scheme, dtype).

The module-level ``build_*`` functions are the single home of artifact
construction; :class:`~repro.engine.SimilarityEngine`'s private lazy
builders are thin wrappers over them, so the engine and the index can
never drift apart on *how* an artifact is built.

This module deliberately imports nothing from :mod:`repro.engine` at
module scope (the engine imports it), so all configuration/registry
lookups happen lazily inside the functions that need them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro.bigraph.compressed import CompressedGraph
from repro.bigraph.concentration import compress_graph
from repro.core.weights import ExponentialWeights, GeometricWeights
from repro.graph.digraph import DiGraph
from repro.graph.matrices import (
    backward_transition_matrix,
    transition_pair,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.approx.walks import WalkIndex
    from repro.engine.config import SimilarityConfig

__all__ = [
    "ARTIFACT_NAMES",
    "IndexMeta",
    "IndexMismatchError",
    "SimilarityIndex",
    "build_compressed",
    "build_transition",
    "build_transition_pair",
    "graph_fingerprint",
    "planned_artifacts",
]

#: Every artifact an index may carry, in canonical order.
ARTIFACT_NAMES = (
    "transition", "transition_t", "factors", "coefficients", "walks"
)

_SCHEMES = {
    "geometric": GeometricWeights,
    "exponential": ExponentialWeights,
}


class IndexMismatchError(ValueError):
    """An index does not describe the graph/config it was handed.

    Raised by :meth:`SimilarityIndex.verify_compatible` (and therefore
    by ``SimilarityEngine(graph, config, index=...)``) instead of
    silently serving scores computed for a different graph or a
    different similarity configuration.

    Every divergence is reported *field by field*: the exception
    carries a ``mismatches`` list of ``{"kind", "field", "expected",
    "found"}`` dicts (``kind`` is ``"graph"`` for content divergence,
    ``"config"`` for resolved-configuration divergence, ``"chain"``
    for a delta segment applied onto the wrong base generation), and
    the message spells each one out — so a stale-delta-chain
    rejection is diagnosable straight from a log line.

    Examples
    --------
    >>> from repro import DiGraph, SimilarityIndex, IndexMismatchError
    >>> index = SimilarityIndex.build(
    ...     DiGraph(3, edges=[(0, 1)]), measure="gSR*")
    >>> index.matches(DiGraph(3, edges=[(0, 2)]),
    ...               index.similarity_config())
    False
    >>> try:
    ...     index.verify_compatible(
    ...         DiGraph(3, edges=[(0, 2)]), index.similarity_config())
    ... except IndexMismatchError as exc:
    ...     exc.mismatches[0]["kind"], exc.mismatches[0]["field"]
    ('graph', 'graph_digest')
    """

    def __init__(
        self, message: str, mismatches: list[dict] | None = None
    ) -> None:
        super().__init__(message)
        #: Structured ``{"kind", "field", "expected", "found"}`` records,
        #: one per diverging field.
        self.mismatches: list[dict] = list(mismatches or [])


def _mismatch(kind: str, field: str, expected, found) -> dict:
    return {
        "kind": kind,
        "field": field,
        "expected": expected,
        "found": found,
    }


def _mismatch_error(
    mismatches: list[dict], preamble: str
) -> IndexMismatchError:
    details = "; ".join(
        f"{m['kind']} mismatch: {m['field']} expected "
        f"{m['expected']!r}, found {m['found']!r}"
        for m in mismatches
    )
    return IndexMismatchError(f"{preamble}: {details}", mismatches)


# ---------------------------------------------------------------------------
# artifact builders (the engine's lazy builders delegate here)
# ---------------------------------------------------------------------------
def build_transition(
    graph: DiGraph, dtype: np.dtype | str = np.float64
) -> sp.csr_array:
    """The backward transition matrix ``Q`` in ``dtype``.

    >>> from repro import DiGraph
    >>> from repro.index import build_transition
    >>> q = build_transition(DiGraph(3, edges=[(0, 1), (0, 2)]))
    >>> q.shape, str(q.dtype)
    ((3, 3), 'float64')
    """
    return backward_transition_matrix(graph, dtype=dtype)


def build_transition_pair(
    graph: DiGraph,
    dtype: np.dtype | str = np.float64,
    transition: sp.csr_array | None = None,
    transition_t: sp.csr_array | None = None,
) -> tuple[sp.csr_array, sp.csr_array]:
    """``(Q, Q^T)`` both in CSR form, reusing any prebuilt side.

    >>> import numpy as np
    >>> from repro import DiGraph
    >>> from repro.index import build_transition_pair
    >>> q, qt = build_transition_pair(DiGraph(3, edges=[(0, 1)]))
    >>> bool(np.array_equal(qt.toarray(), q.toarray().T))
    True
    """
    if transition is None:
        return transition_pair(graph, dtype=dtype)
    if transition_t is None:
        transition_t = transition.T.tocsr()
    return transition, transition_t


def build_compressed(graph: DiGraph) -> CompressedGraph:
    """The biclique-compressed graph ``G^`` (Algorithm 1 lines 1-2).

    >>> from repro import DiGraph
    >>> from repro.index import build_compressed
    >>> g = DiGraph(4, edges=[(0, 2), (1, 2), (0, 3), (1, 3)])
    >>> e_direct, h_out, h_in = (
    ...     build_compressed(g).factorized_in_adjacency())
    >>> e_direct.shape
    (4, 4)
    """
    return compress_graph(graph)


def graph_fingerprint(graph: DiGraph) -> dict:
    """A content fingerprint of ``graph``'s edge structure.

    ``{"num_nodes", "num_edges", "digest"}`` where ``digest`` is a
    sha256 over the node count and the sorted edge arrays (normalised
    to little-endian int64, so the digest is stable across platforms
    and across processes — unlike :attr:`DiGraph.version`, which is an
    in-process mutation counter). Labels are excluded: they affect
    query *resolution*, not the numeric artifacts.

    >>> from repro import DiGraph
    >>> from repro.index import graph_fingerprint
    >>> fp = graph_fingerprint(DiGraph(3, edges=[(0, 1), (0, 2)]))
    >>> fp["num_nodes"], fp["num_edges"], len(fp["digest"])
    (3, 2, 64)
    >>> fp == graph_fingerprint(DiGraph(3, edges=[(0, 2), (0, 1)]))
    True
    """
    heads, tails = graph.edge_arrays()
    digest = hashlib.sha256()
    digest.update(np.int64(graph.num_nodes).tobytes())
    # sha256 reads the contiguous arrays' buffers directly: no copy
    digest.update(np.ascontiguousarray(heads, dtype="<i8"))
    digest.update(np.ascontiguousarray(tails, dtype="<i8"))
    return {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "digest": digest.hexdigest(),
    }


def _resolve_config(config: "SimilarityConfig"):
    """``(spec, truncation, weight_scheme_name)`` for ``config``."""
    from repro.engine.registry import get_measure

    spec = get_measure(config.measure)
    truncation = config.resolved_iterations(
        spec.variant, spec.default_iterations
    )
    return spec, truncation, config.resolved_weights(
        spec.weight_scheme
    )


def planned_artifacts(spec, mode: str = "exact") -> tuple[str, ...]:
    """Which artifacts an index for ``spec`` carries.

    ``Q``/``Q^T`` whenever the measure consumes a transition matrix or
    serves columns through the series walk (which always needs them);
    the compressed factors when the measure's callable accepts
    ``compressed=``; the coefficient table whenever the series walk
    applies; the reverse-walk sample store when ``mode="approx"``
    (which requires a series-capable measure — the walk estimator is
    built on the series decomposition).
    """
    out: list[str] = []
    if spec.supports_single_source or "transition" in spec.uses:
        out += ["transition", "transition_t"]
    if "compressed" in spec.uses:
        out.append("factors")
    if spec.supports_single_source:
        out.append("coefficients")
    if mode == "approx":
        if not spec.supports_single_source:
            raise ValueError(
                f"measure {spec.name!r} has no single-source series "
                "support; mode='approx' estimates the series and "
                "cannot serve it"
            )
        out.append("walks")
    return tuple(out)


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class IndexMeta:
    """Fingerprints pinning what a :class:`SimilarityIndex` answers for.

    ``truncation`` and ``weight_scheme`` are stored *resolved* (an
    ``epsilon`` accuracy target converts to its concrete iteration
    count, ``weights="auto"`` to the measure's own scheme), so two
    configurations that imply the same artifacts match the same index.
    Approx-mode indexes additionally pin the walk geometry —
    ``walk_length`` / ``walk_samples`` (resolved from ``epsilon``) and
    the sampling ``seed`` — because walks drawn with different
    parameters estimate from different evidence. The approx fields
    default to their exact-mode values, so headers written before the
    approx tier existed still load.

    Examples
    --------
    >>> from repro import DiGraph, SimilarityIndex
    >>> from repro.index import IndexMeta
    >>> meta = SimilarityIndex.build(
    ...     DiGraph(3, edges=[(0, 1)]), measure="gSR*", c=0.6).meta
    >>> meta.measure, meta.num_nodes, meta.weight_scheme
    ('gSR*', 3, 'geometric')
    >>> meta.mode, meta.walk_samples
    ('exact', 0)
    >>> IndexMeta.from_dict(meta.to_dict()) == meta
    True
    """

    measure: str
    c: float
    truncation: int
    weight_scheme: str | None
    dtype: str
    num_nodes: int
    num_edges: int
    graph_digest: str
    artifacts: tuple[str, ...]
    mode: str = "exact"
    epsilon: float | None = None
    seed: int = 0
    walk_length: int = 0
    walk_samples: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__, artifacts=list(self.artifacts))

    @classmethod
    def from_dict(cls, data: dict) -> "IndexMeta":
        fields = dict(data)
        fields["artifacts"] = tuple(fields.get("artifacts", ()))
        return cls(**fields)


# ---------------------------------------------------------------------------
# the index itself
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SimilarityIndex:
    """One immutable, serialisable precomputation bundle.

    Attributes
    ----------
    meta:
        The :class:`IndexMeta` fingerprint block.
    transition / transition_t:
        ``Q`` and ``Q^T`` as CSR (or ``None`` when the measure never
        touches them).
    factors:
        ``(E_direct, H_out, H_in)`` of the biclique compression, or
        ``None``. :meth:`compressed_graph` reassembles the full
        :class:`~repro.bigraph.compressed.CompressedGraph` view.
    coefficients:
        The ``(L+1) x (L+1)`` series coefficient table of the blocked
        multi-source kernel, or ``None``.
    walks:
        The :class:`~repro.approx.WalkIndex` sample store for
        ``mode="approx"`` serving, or ``None`` for exact indexes.

    Examples
    --------
    Build once, persist, reload memory-mapped, serve without rebuild:

    >>> import tempfile, os
    >>> from repro import DiGraph, SimilarityEngine, SimilarityIndex
    >>> g = DiGraph(3, edges=[(0, 1), (0, 2)], labels=["a", "b", "c"])
    >>> index = SimilarityIndex.build(
    ...     g, measure="gSR*", c=0.8, num_iterations=10)
    >>> path = os.path.join(tempfile.mkdtemp(), "g.simidx")
    >>> _ = index.save(path)
    >>> loaded = SimilarityIndex.load(path, mmap=True)
    >>> engine = SimilarityEngine.from_index(loaded, g)
    >>> engine.score("b", "c") > 0
    True
    >>> engine.stats.transition_builds       # adopted, not rebuilt
    0
    """

    meta: IndexMeta
    transition: sp.csr_array | None = field(repr=False, default=None)
    transition_t: sp.csr_array | None = field(repr=False, default=None)
    factors: tuple[sp.csr_array, sp.csr_array, sp.csr_array] | None = (
        field(repr=False, default=None)
    )
    coefficients: np.ndarray | None = field(repr=False, default=None)
    walks: "WalkIndex | None" = field(repr=False, default=None)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: DiGraph,
        config: "SimilarityConfig | None" = None,
        *,
        transition: sp.csr_array | None = None,
        transition_t: sp.csr_array | None = None,
        compressed: CompressedGraph | None = None,
        walks: "WalkIndex | None" = None,
        **overrides,
    ) -> "SimilarityIndex":
        """Build every artifact ``config``'s measure can consume.

        ``transition`` / ``transition_t`` / ``compressed`` / ``walks``
        reuse already-built artifacts (this is how
        :meth:`SimilarityEngine.export_index` avoids rebuilding what
        the engine has already warmed); anything not supplied is built
        here.
        """
        from repro.engine.config import SimilarityConfig

        if config is None:
            config = SimilarityConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        spec, truncation, scheme = _resolve_config(config)
        wanted = planned_artifacts(spec, config.mode)
        q = qt = factors = coefficients = None
        if "transition" in wanted:
            q, qt = build_transition_pair(
                graph,
                dtype=config.np_dtype,
                transition=transition,
                transition_t=transition_t,
            )
        if "factors" in wanted:
            if compressed is None:
                compressed = build_compressed(graph)
            factors = compressed.factorized_in_adjacency()
        if "coefficients" in wanted:
            from repro.core.multi_source import series_coefficients

            coefficients = series_coefficients(
                truncation, _SCHEMES[scheme](config.c)
            )
        walk_length = walk_samples = 0
        if "walks" in wanted:
            from repro.approx import approx_params
            from repro.approx.walks import WalkIndex

            walk_length, walk_samples = approx_params(
                truncation, config.epsilon
            )
            if walks is None:
                walks = WalkIndex.build(
                    q,
                    walk_length=walk_length,
                    samples=walk_samples,
                    seed=config.seed,
                )
            elif (
                walks.walk_length != walk_length
                or walks.samples != walk_samples
                or walks.seed != config.seed
            ):
                raise ValueError(
                    "supplied walk index geometry "
                    f"(length={walks.walk_length}, "
                    f"samples={walks.samples}, seed={walks.seed}) "
                    "disagrees with the configuration's "
                    f"(length={walk_length}, samples={walk_samples}, "
                    f"seed={config.seed})"
                )
        else:
            walks = None
        fingerprint = graph_fingerprint(graph)
        meta = IndexMeta(
            measure=config.measure,
            c=config.c,
            truncation=truncation,
            weight_scheme=scheme,
            dtype=config.dtype,
            num_nodes=fingerprint["num_nodes"],
            num_edges=fingerprint["num_edges"],
            graph_digest=fingerprint["digest"],
            artifacts=wanted,
            mode=config.mode,
            epsilon=config.epsilon,
            seed=config.seed if config.mode == "approx" else 0,
            walk_length=walk_length,
            walk_samples=walk_samples,
        )
        return cls(
            meta=meta,
            transition=q,
            transition_t=qt,
            factors=factors,
            coefficients=coefficients,
            walks=walks,
        )

    def save(self, path: str | Path) -> Path:
        """Persist to ``path`` (atomic write + rename). Returns it."""
        from repro.index.store import save_index

        return save_index(self, path)

    @classmethod
    def load(
        cls, path: str | Path, mmap: bool = True
    ) -> "SimilarityIndex":
        """Load a saved index.

        With ``mmap=True`` (the default) every array buffer is a
        read-only :class:`numpy.memmap` over the file — nothing is
        copied onto the heap until touched, pages are shared across
        every process mapping the same file, and load time is
        independent of index size. ``mmap=False`` reads private
        in-memory copies instead.
        """
        from repro.index.store import load_index

        return load_index(path, mmap=mmap)

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def compressed_graph(self, graph: DiGraph) -> CompressedGraph:
        """Reassemble the full ``G^`` view over ``graph``.

        The factor triple is authoritative — the biclique/set views
        are reconstructed from it exactly, and the returned object's
        factorised cache is pre-seeded with the (possibly mmap'd)
        loaded matrices, so matrix-path measures never rebuild them.
        """
        if self.factors is None:
            raise ValueError(
                "index carries no compressed factors "
                f"(artifacts: {self.meta.artifacts})"
            )
        return CompressedGraph.from_factors(graph, *self.factors)

    def similarity_config(self, **overrides) -> "SimilarityConfig":
        """A :class:`SimilarityConfig` this index is compatible with.

        Memo knobs (``max_cached_columns``, ``column_policy``; library
        reads only) may be supplied as ``overrides`` without breaking
        compatibility; overriding an artifact-relevant field simply
        produces a config :meth:`verify_compatible` will reject.
        """
        from repro.engine.config import SimilarityConfig

        config = SimilarityConfig(
            measure=self.meta.measure,
            c=self.meta.c,
            num_iterations=self.meta.truncation,
            dtype=self.meta.dtype,
            mode=self.meta.mode,
            # approx mode carries both: truncation came from
            # num_iterations above, epsilon re-sizes the sample budget
            epsilon=(
                self.meta.epsilon
                if self.meta.mode == "approx"
                else None
            ),
            seed=self.meta.seed,
        )
        return config.replace(**overrides) if overrides else config

    def verify_compatible(
        self, graph: DiGraph, config: "SimilarityConfig"
    ) -> None:
        """Raise :exc:`IndexMismatchError` unless this index serves
        exactly ``(graph, config)``.

        The graph check is content-based (edge-set digest), so it
        catches mutations that preserve node and edge counts; the
        config check compares the *resolved* artifact-relevant fields.
        The raised error carries structured
        :attr:`IndexMismatchError.mismatches` — one
        ``{"kind", "field", "expected", "found"}`` record per
        diverging field, ``expected`` being what this index was built
        for and ``found`` what it was handed.
        """
        mismatches: list[dict] = []
        if graph.num_nodes != self.meta.num_nodes:
            mismatches.append(_mismatch(
                "graph", "num_nodes",
                self.meta.num_nodes, graph.num_nodes,
            ))
        if graph.num_edges != self.meta.num_edges:
            mismatches.append(_mismatch(
                "graph", "num_edges",
                self.meta.num_edges, graph.num_edges,
            ))
        if not mismatches:
            # counts agree: only now pay the O(m) content digest
            fingerprint = graph_fingerprint(graph)
            if fingerprint["digest"] != self.meta.graph_digest:
                mismatches.append(_mismatch(
                    "graph", "graph_digest",
                    self.meta.graph_digest, fingerprint["digest"],
                ))
        spec, truncation, scheme = _resolve_config(config)
        pairs = [
            ("measure", self.meta.measure, config.measure),
            ("c", self.meta.c, config.c),
            ("truncation", self.meta.truncation, truncation),
            ("weight_scheme", self.meta.weight_scheme, scheme),
            ("dtype", self.meta.dtype, config.dtype),
            ("mode", self.meta.mode, config.mode),
        ]
        if self.meta.mode == "approx" and config.mode == "approx":
            from repro.approx import approx_params

            walk_length, walk_samples = approx_params(
                truncation, config.epsilon
            )
            pairs += [
                ("walk_length", self.meta.walk_length, walk_length),
                ("walk_samples", self.meta.walk_samples, walk_samples),
                ("seed", self.meta.seed, config.seed),
            ]
        for name, ours, theirs in pairs:
            if ours != theirs:
                mismatches.append(
                    _mismatch("config", name, ours, theirs)
                )
        if mismatches:
            raise _mismatch_error(
                mismatches,
                "refusing to serve from a stale/mismatched index "
                "(scores would be wrong)",
            )

    def matches(
        self, graph: DiGraph, config: "SimilarityConfig"
    ) -> bool:
        """True iff :meth:`verify_compatible` would pass."""
        try:
            self.verify_compatible(graph, config)
        except IndexMismatchError:
            return False
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Total bytes across every array buffer."""
        total = 0
        for matrix in self._csr_items().values():
            total += (
                matrix.data.nbytes
                + matrix.indices.nbytes
                + matrix.indptr.nbytes
            )
        if self.coefficients is not None:
            total += self.coefficients.nbytes
        if self.walks is not None:
            total += self.walks.nbytes
        return total

    def _csr_items(self) -> dict[str, sp.csr_array]:
        out: dict[str, sp.csr_array] = {}
        if self.transition is not None:
            out["transition"] = self.transition
        if self.transition_t is not None:
            out["transition_t"] = self.transition_t
        if self.factors is not None:
            e_direct, h_out, h_in = self.factors
            out["e_direct"] = e_direct
            out["h_out"] = h_out
            out["h_in"] = h_in
        return out

    def describe(self) -> dict:
        """A JSON-ready summary (the ``inspect`` CLI's output)."""
        arrays = {
            name: {
                "shape": list(matrix.shape),
                "nnz": int(matrix.nnz),
                "dtype": str(matrix.dtype),
            }
            for name, matrix in self._csr_items().items()
        }
        if self.coefficients is not None:
            arrays["coefficients"] = {
                "shape": list(self.coefficients.shape),
                "dtype": str(self.coefficients.dtype),
            }
        if self.walks is not None:
            arrays["walks"] = self.walks.describe()
        return {
            "meta": self.meta.to_dict(),
            "arrays": arrays,
            "nbytes": self.nbytes,
        }

    def __repr__(self) -> str:
        return (
            f"SimilarityIndex(measure={self.meta.measure!r}, "
            f"nodes={self.meta.num_nodes}, "
            f"edges={self.meta.num_edges}, "
            f"artifacts={list(self.meta.artifacts)}, "
            f"digest={self.meta.graph_digest[:12]})"
        )
