"""Label-aware result objects returned by queries.

* :class:`RankedNode` — a ``(node, score)`` pair (a real 2-tuple, so
  existing ``for node, score in ...`` call sites keep working) that
  additionally carries the node's display label.
* :class:`Ranking` — an ordered top-k answer for one query node.
  Compares equal to a plain list of ``(node, score)`` pairs, which is
  what :func:`repro.core.queries.top_k` used to return.
* :class:`ScoreMatrix` — an ``(n, n)`` score array that can be indexed
  by node labels and sliced into rankings. ``np.asarray`` passes
  through, so numerical code treats it as the underlying array.
* :func:`run_tasks` — answer a batch of top-k / pair-score requests
  against one engine: the single answer path of the serving layer.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["RankedNode", "Ranking", "ScoreMatrix", "run_tasks"]


class RankedNode(tuple):
    """A ``(node, score)`` pair that also knows its display label.

    >>> item = RankedNode(3, 0.25, label="c")
    >>> node, score = item          # tuple protocol intact
    >>> item.label
    'c'
    """

    def __new__(cls, node: int, score: float, label=None):
        self = super().__new__(cls, (int(node), float(score)))
        self._label = int(node) if label is None else label
        return self

    @property
    def node(self) -> int:
        """Dense integer node id."""
        return self[0]

    @property
    def score(self) -> float:
        """Similarity score against the query."""
        return self[1]

    @property
    def label(self):
        """The node's label (the id itself on unlabelled graphs)."""
        return self._label

    def __reduce__(self):
        # tuple subclass with a custom __new__: spell out how to
        # rebuild (label included) so pickling / copying work
        return (RankedNode, (self[0], self[1], self._label))

    def __repr__(self) -> str:
        if self._label == self.node:
            return f"RankedNode({self.node}, {self.score:.6g})"
        return (
            f"RankedNode({self.node}, {self.score:.6g}, "
            f"label={self._label!r})"
        )


class Ranking(Sequence):
    """The top-k answer to one similarity query, in rank order.

    Behaves as a sequence of :class:`RankedNode` (and therefore of
    ``(node, score)`` pairs) and compares equal to the equivalent plain
    list, preserving the old ``top_k`` contract.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import Ranking
    >>> ranking = Ranking.from_scores(
    ...     np.array([0.1, 0.9, 0.5]), query=0, k=2,
    ...     labels=["a", "b", "c"])
    >>> [(entry.label, entry.score) for entry in ranking]
    [('b', 0.9), ('c', 0.5)]
    >>> ranking == [(1, 0.9), (2, 0.5)]   # old top_k contract
    True
    """

    __slots__ = ("_entries", "query", "query_label", "measure")

    def __init__(
        self,
        entries: Iterable[RankedNode],
        query: int | None = None,
        query_label=None,
        measure: str | None = None,
    ) -> None:
        self._entries = list(entries)
        self.query = query
        self.query_label = query if query_label is None else query_label
        self.measure = measure

    @classmethod
    def from_scores(
        cls,
        scores: np.ndarray,
        query: int,
        k: int,
        labels: Sequence | None = None,
        include_query: bool = False,
        exclude: Iterable[int] = (),
        measure: str | None = None,
    ) -> "Ranking":
        """Rank a score vector: select top k, drop excluded ids.

        Selects on the score vector itself: one ``O(n)`` partition of
        its negation finds the cut-off score, every node scoring above
        it ranks first, and the remaining places go to the nodes tied
        at the cut-off in ascending node id. The order is exactly the
        full sort's (descending score, then ascending node id, NaN
        scores last), at ``O(n + k log k)`` cost.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        scores = np.asarray(scores, dtype=np.float64)
        n = scores.shape[0]
        skip = {int(x) for x in exclude}
        if not include_query:
            skip.add(int(query))
        skip = np.array(
            sorted(s for s in skip if 0 <= s < n), dtype=np.intp
        )
        count = min(k, n - skip.size)
        chosen = (
            _top_ids(scores, count, skip) if count > 0 else skip[:0]
        )
        entries = [
            RankedNode(
                int(node),
                scores[node],
                label=labels[node] if labels is not None else None,
            )
            for node in chosen
        ]
        return cls(
            entries,
            query=query,
            query_label=labels[query] if labels is not None else None,
            measure=measure,
        )

    # -- sequence protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[RankedNode]:
        return iter(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Ranking(
                self._entries[index],
                query=self.query,
                query_label=self.query_label,
                measure=self.measure,
            )
        return self._entries[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ranking):
            return (
                self._entries == other._entries
                and self.query == other.query
            )
        if isinstance(other, (list, tuple)):
            return list(self._entries) == list(other)
        return NotImplemented

    __hash__ = None  # mutable-ish container

    # -- views -------------------------------------------------------------
    @property
    def nodes(self) -> list[int]:
        """Ranked node ids."""
        return [e.node for e in self._entries]

    @property
    def labels(self) -> list:
        """Ranked node labels (ids on unlabelled graphs)."""
        return [e.label for e in self._entries]

    @property
    def scores(self) -> np.ndarray:
        """Ranked scores as a float vector."""
        return np.array([e.score for e in self._entries])

    def to_pairs(self) -> list[tuple[int, float]]:
        """Plain ``[(node, score), ...]`` — the historical return type."""
        return [(e.node, e.score) for e in self._entries]

    def __repr__(self) -> str:
        head = ", ".join(
            f"{e.label!r}: {e.score:.4g}" for e in self._entries[:5]
        )
        tail = ", ..." if len(self._entries) > 5 else ""
        return (
            f"Ranking(query={self.query_label!r}, "
            f"k={len(self._entries)}, [{head}{tail}])"
        )


class ScoreMatrix:
    """An ``(n, n)`` similarity matrix that understands node labels.

    ``matrix[u, v]`` accepts integer ids, labels, or a mix; any other
    key (slices, masks, single rows) passes straight through to the
    underlying array. ``np.asarray(matrix)`` yields the raw values, so
    the wrapper is transparent to numerical code and tests.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import ScoreMatrix
    >>> matrix = ScoreMatrix(
    ...     np.array([[1.0, 0.25], [0.25, 1.0]]), labels=["a", "b"])
    >>> float(matrix["a", "b"]), float(matrix[0, 1])
    (0.25, 0.25)
    >>> np.asarray(matrix).shape
    (2, 2)
    """

    __slots__ = ("values", "_labels", "_label_to_node", "measure")

    def __init__(
        self,
        values: np.ndarray,
        labels: Sequence | None = None,
        measure: str | None = None,
    ) -> None:
        values = np.asarray(values)
        if not np.issubdtype(values.dtype, np.floating):
            values = values.astype(np.float64)
        self.values = values
        if self.values.ndim != 2 or (
            self.values.shape[0] != self.values.shape[1]
        ):
            raise ValueError(
                f"expected a square score matrix, got {self.values.shape}"
            )
        if labels is not None and len(labels) != self.values.shape[0]:
            raise ValueError(
                f"expected {self.values.shape[0]} labels, got {len(labels)}"
            )
        self._labels = list(labels) if labels is not None else None
        self._label_to_node = (
            {lab: i for i, lab in enumerate(self._labels)}
            if self._labels is not None
            else {}
        )
        self.measure = measure

    # -- array protocol ----------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def labels(self) -> list | None:
        return list(self._labels) if self._labels is not None else None

    def __array__(self, dtype=None, copy=None):
        needs_cast = (
            dtype is not None and np.dtype(dtype) != self.values.dtype
        )
        if copy is False and needs_cast:
            raise ValueError(
                "a copy is required to convert dtype; "
                "pass copy=None or copy=True"
            )
        if needs_cast:
            return self.values.astype(dtype)  # astype always copies
        if copy:
            return self.values.copy()
        return self.values

    def __len__(self) -> int:
        return self.values.shape[0]

    def _resolve(self, key):
        """Translate one label to a node id; leave everything else alone."""
        if isinstance(key, (int, np.integer)):
            return key
        try:
            if key in self._label_to_node:
                return self._label_to_node[key]
        except TypeError:
            # unhashable key (slice, ndarray mask, list) — raw indexing
            return key
        if isinstance(key, str):
            # a string is always meant as a label; don't let a typo
            # fall through to (certain-to-fail) raw numpy indexing
            if self._labels is None:
                raise KeyError(
                    f"matrix has no labels; cannot index by {key!r}"
                )
            raise KeyError(f"no node labelled {key!r}")
        return key

    def __getitem__(self, key):
        if isinstance(key, tuple):
            key = tuple(self._resolve(part) for part in key)
        else:
            key = self._resolve(key)
        return self.values[key]

    def score(self, u, v) -> float:
        """The similarity of one node pair, by id or label."""
        return float(self[u, v])

    def top_k(
        self, query, k: int = 10, include_query: bool = False
    ) -> Ranking:
        """Rank column ``query`` — the scores of every node against it."""
        q = self._resolve(query)
        if not isinstance(q, (int, np.integer)):
            raise KeyError(f"unknown node {query!r}")
        return Ranking.from_scores(
            self.values[:, q],
            query=int(q),
            k=k,
            labels=self._labels,
            include_query=include_query,
            measure=self.measure,
        )

    def __repr__(self) -> str:
        tag = f", measure={self.measure!r}" if self.measure else ""
        lab = ", labelled" if self._labels is not None else ""
        return f"ScoreMatrix(shape={self.values.shape}{tag}{lab})"


def run_tasks(engine, tasks) -> list:
    """Answer selection *tasks* against *engine*, one result per task.

    Each task is ``{"op": "top_k", "query": q, "k": k,
    "include_query": bool}`` or ``{"op": "score", "query": q, "u": u}``
    with node ids already resolved. The distinct queries share one
    blocked :meth:`~repro.engine.SimilarityEngine.columns` call with
    ``memoize=False`` (a served column is dropped once answered); each
    task then becomes a finished :class:`Ranking` (labels and measure
    attached) or a float score. A task that fails on its own terms
    (e.g. a negative ``k``) yields its exception in its slot instead
    of failing the whole batch.

    >>> from repro.engine import SimilarityConfig, SimilarityEngine
    >>> from repro.graph import figure1_citation_graph
    >>> engine = SimilarityEngine(
    ...     figure1_citation_graph(), SimilarityConfig(measure="gSR*"))
    >>> ranking, score, bad = run_tasks(engine, [
    ...     {"op": "top_k", "query": 0, "k": 2},
    ...     {"op": "score", "query": 0, "u": 1},
    ...     {"op": "top_k", "query": 0, "k": -1},
    ... ])
    >>> ranking.to_pairs() == engine.top_k(0, k=2).to_pairs()
    True
    >>> ranking.measure, ranking.query_label
    ('gSR*', 'a')
    >>> score == engine.score(1, 0), type(bad).__name__
    (True, 'ValueError')
    """
    columns = engine.columns(
        list(dict.fromkeys(int(t["query"]) for t in tasks)),
        memoize=False,
    )
    labels = engine.graph.labels
    measure = engine.measure.name
    results: list = []
    for task in tasks:
        query = int(task["query"])
        try:
            if task["op"] == "score":
                results.append(float(columns[query][int(task["u"])]))
            else:
                results.append(Ranking.from_scores(
                    columns[query],
                    query=query,
                    k=int(task["k"]),
                    labels=labels,
                    include_query=bool(task.get("include_query", False)),
                    measure=measure,
                ))
        except Exception as exc:  # noqa: BLE001 - per-task isolation
            results.append(exc)
    return results


#: ties at the cut-off are searched for in id order, this many at a time
_TIE_CHUNK = 16384


def _top_ids(scores: np.ndarray, count: int, skip: np.ndarray) -> np.ndarray:
    """Ids of the ``count`` best-ranked nodes not in ``skip`` (sorted,
    in range), ordered by descending score, then ascending id."""
    # at most skip.size of the t best are skipped, so the t-th best
    # score is at or below the count-th best kept one (the negation
    # ranks NaN last, as the full sort does)
    t = count + skip.size
    neg = np.negative(scores)
    neg.partition(t - 1)
    cutoff = -neg[t - 1]
    nan_cut = bool(np.isnan(cutoff))
    above = np.flatnonzero(~np.isnan(scores) if nan_cut else scores > cutoff)
    above = _without(above[np.lexsort((above, -scores[above]))], skip)
    above = above[:count]
    if above.size == count:
        return above
    # the rest are tied at the cut-off and rank in ascending id: scan
    # only as far as the first (rest + skip.size) of them
    need = count - above.size + skip.size
    tied = []
    for start in range(0, scores.size, _TIE_CHUNK):
        part = scores[start:start + _TIE_CHUNK]
        hits = np.flatnonzero(np.isnan(part) if nan_cut else part == cutoff)
        tied.append(hits + start)
        need -= hits.size
        if need <= 0:
            break
    tied = _without(np.concatenate(tied), skip)
    return np.concatenate((above, tied[: count - above.size]))


def _without(ids: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """``ids`` minus the members of the small sorted array ``skip``."""
    if not (skip.size and ids.size):
        return ids
    at = np.minimum(np.searchsorted(skip, ids), skip.size - 1)
    return ids[skip[at] != ids]
