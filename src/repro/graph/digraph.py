"""A plain directed graph with dense integer node ids.

This is the single graph substrate used throughout the package. It is
deliberately minimal: nodes are the integers ``0 .. n-1``, parallel edges
collapse, and optional string labels map user-facing names to ids (the
paper's Figure 1 uses letters ``a .. k``).

The edge set is stored twice, as two read-only CSR (compressed sparse
row) views: the *out* view lists ``O(u)`` in row ``u`` and the *in*
view lists ``I(v)`` in row ``v``. Each view is an ``int64`` row-pointer
array of ``n + 1`` entries and an ``int32`` column array of ``m``
entries, sorted within every row — 8 bytes per edge and 16 per node
for both views together. Nothing ever writes into these arrays, so

* :meth:`DiGraph.copy` shares them: ``O(1)``;
* an edit builds new arrays — :meth:`DiGraph.copy_with_edits` and
  :meth:`DiGraph.add_edge` / :meth:`DiGraph.remove_edge` splice the
  batch in with one ``O(n + m)`` memory copy and a binary search per
  edited edge, never a per-edge Python loop over the graph;
* a bulk build (the constructor, :meth:`DiGraph.from_edges`) sorts
  one ``int64`` key ``u * n + v`` per edge and per direction.

The similarity algorithms consume graphs through two views:

* neighbour lists (``in_neighbors`` / ``out_neighbors``) for the
  node-at-a-time algorithms (naive SimRank, Algorithm 1 memoization);
* sparse matrices built by :mod:`repro.graph.matrices` straight from
  the CSR arrays, for the vectorised iterations.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["DiGraph"]

#: column ids are stored as int32, which bounds the node count
_INDEX = np.int32
_MAX_NODES = int(np.iinfo(_INDEX).max)


class DiGraph:
    """Directed graph on nodes ``0 .. num_nodes - 1``.

    Parameters
    ----------
    num_nodes:
        Number of nodes. Must be non-negative (and below ``2**31``).
    edges:
        Optional ``(u, v)`` pairs meaning an edge ``u -> v`` — any
        iterable of integer pairs or an ``(m, 2)`` integer array.
        Duplicates collapse silently; self-loops are allowed (cycles
        are permitted by the paper's path definition).
    labels:
        Optional sequence of ``num_nodes`` distinct hashable labels.

    Examples
    --------
    >>> g = DiGraph(3, edges=[(0, 1), (1, 2)])
    >>> g.out_neighbors(0)
    (1,)
    >>> g.in_neighbors(2)
    (1,)
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[tuple[int, int]] | np.ndarray = (),
        labels: Sequence | None = None,
    ) -> None:
        if num_nodes < 0:
            raise ValueError(f"num_nodes must be >= 0, got {num_nodes}")
        if num_nodes > _MAX_NODES:
            raise ValueError(
                f"num_nodes must be <= {_MAX_NODES}, got {num_nodes}"
            )
        self._n = int(num_nodes)
        self._version = 0
        self._labels: list | None = None
        self._label_to_node: dict = {}
        if labels is not None:
            self._assign_labels(labels)
        pairs = _as_pairs(edges)
        self._check_nodes(pairs)
        n = self._n
        self._set_out_keys(_unique_sorted(pairs[:, 0] * n + pairs[:, 1]))

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        num_nodes: int | None = None,
        labels: Sequence | None = None,
    ) -> "DiGraph":
        """Build a graph from integer edge pairs.

        When ``num_nodes`` is omitted it is inferred as ``max id + 1``.
        Float ids are truncated to integers, as ``int()`` would.
        """
        pairs = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges)
        )
        if pairs.dtype.kind == "f":
            pairs = pairs.astype(np.int64)
        pairs = _as_pairs(pairs)
        if num_nodes is None:
            num_nodes = int(pairs.max()) + 1 if pairs.size else 0
        return cls(num_nodes, edges=pairs, labels=labels)

    @classmethod
    def from_label_edges(cls, edges: Iterable[tuple]) -> "DiGraph":
        """Build a graph from labelled edge pairs, assigning dense ids.

        Node ids are assigned in first-appearance order, which keeps
        small hand-written examples (like the paper's Figure 1 graph)
        stable and readable.

        >>> g = DiGraph.from_label_edges([("a", "b"), ("b", "c")])
        >>> g.node_of("c")
        2
        """
        label_order: list = []
        seen: dict = {}
        int_edges: list[tuple[int, int]] = []
        for u, v in edges:
            for x in (u, v):
                if x not in seen:
                    seen[x] = len(label_order)
                    label_order.append(x)
            int_edges.append((seen[u], seen[v]))
        return cls(len(label_order), edges=int_edges, labels=label_order)

    def add_edge(self, u: int, v: int) -> None:
        """Insert edge ``u -> v`` (no-op if it already exists).

        Splices new arrays: ``O(n + m)``. Build a batch with the
        constructor or :meth:`copy_with_edits` instead of a loop.
        """
        u, v = self._check_node(u), self._check_node(v)
        if not self.has_edge(u, v):
            self._splice(np.array([[u, v]]), _NO_PAIRS)
            self._version += 1

    def remove_edge(self, u: int, v: int) -> None:
        """Delete edge ``u -> v``; raises ``KeyError`` if absent."""
        u, v = self._check_node(u), self._check_node(v)
        if not self.has_edge(u, v):
            raise KeyError(f"edge {u} -> {v} not in graph")
        self._splice(_NO_PAIRS, np.array([[u, v]]))
        self._version += 1

    def set_labels(self, labels: Sequence) -> None:
        """Attach one distinct hashable label per node."""
        self._assign_labels(labels)
        self._version += 1

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``m``."""
        return int(self._out_idx.size)

    @property
    def version(self) -> int:
        """Monotonic mutation counter.

        Starts at 0 when a graph is built (or copied) and increments on
        every mutation (``add_edge`` / ``remove_edge`` /
        ``set_labels``), letting caching layers such as
        :class:`repro.engine.SimilarityEngine` detect that their
        precomputed artifacts describe an older graph — including
        mutations that preserve the edge count.
        """
        return self._version

    @property
    def density(self) -> float:
        """Average degree ``m / n`` (the paper's Figure 5 density)."""
        return self.num_edges / self._n if self._n else 0.0

    @property
    def labels(self) -> list | None:
        """Node labels in id order, or ``None`` if unlabelled."""
        return list(self._labels) if self._labels is not None else None

    def nodes(self) -> range:
        """Iterate node ids ``0 .. n-1``."""
        return range(self._n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate edges as ``(u, v)`` pairs in sorted order."""
        heads, tails = self.edge_arrays()
        return zip(heads.tolist(), tails.tolist())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The edge list as ``(heads, tails)`` numpy index arrays.

        ``heads[i] -> tails[i]`` enumerates :meth:`edges` in the same
        sorted order, ready to drop into a COO constructor without a
        per-edge Python loop. Both are fresh read-only ``intp`` arrays
        expanded from the out-view (``O(m)``, no Python loop).
        """
        heads = np.repeat(
            np.arange(self._n, dtype=np.intp), np.diff(self._out_ptr)
        )
        return _frozen(heads), _frozen(self._out_idx.astype(np.intp))

    def has_edge(self, u: int, v: int) -> bool:
        """True iff edge ``u -> v`` exists."""
        u, v = self._check_node(u), self._check_node(v)
        row = self._out_idx[self._out_ptr[u]:self._out_ptr[u + 1]]
        i = int(np.searchsorted(row, v))
        return i < row.size and int(row[i]) == v

    def has_edges(self, heads, tails) -> np.ndarray:
        """Vectorised :meth:`has_edge`: a bool array, one per pair.

        A binary search within each pair's row of the out-view;
        ``heads`` and ``tails`` must be in-range node ids.

        >>> DiGraph(3, edges=[(0, 1), (2, 0)]).has_edges([0, 0, 2], [1, 2, 0])
        array([ True, False,  True])
        """
        heads = np.asarray(heads, dtype=np.int64).ravel()
        tails = np.asarray(tails, dtype=np.int64).ravel()
        return _find(self._out_ptr, self._out_idx, heads, tails)[1]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        """The in-neighbour set ``I(v)`` as a sorted tuple."""
        v = self._check_node(v)
        return tuple(
            self._in_idx[self._in_ptr[v]:self._in_ptr[v + 1]].tolist()
        )

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        """The out-neighbour set ``O(v)`` as a sorted tuple."""
        v = self._check_node(v)
        return tuple(
            self._out_idx[self._out_ptr[v]:self._out_ptr[v + 1]].tolist()
        )

    def in_degree(self, v: int) -> int:
        """``|I(v)|``."""
        v = self._check_node(v)
        return int(self._in_ptr[v + 1] - self._in_ptr[v])

    def out_degree(self, v: int) -> int:
        """``|O(v)|``."""
        v = self._check_node(v)
        return int(self._out_ptr[v + 1] - self._out_ptr[v])

    def in_degrees(self) -> np.ndarray:
        """All in-degrees as an ``int64`` vector."""
        return np.diff(self._in_ptr)

    def out_degrees(self) -> np.ndarray:
        """All out-degrees as an ``int64`` vector."""
        return np.diff(self._out_ptr)

    def csr_arrays(
        self, direction: str = "out"
    ) -> tuple[np.ndarray, np.ndarray]:
        """The read-only ``(indptr, indices)`` of one CSR view.

        ``direction="out"``: row ``u`` lists ``O(u)``; ``"in"``: row
        ``v`` lists ``I(v)``. Rows are sorted; ``indptr`` is ``int64``
        and ``indices`` ``int32``. These are the graph's own arrays,
        shared, not copied.
        """
        if direction == "out":
            return self._out_ptr, self._out_idx
        if direction == "in":
            return self._in_ptr, self._in_idx
        raise ValueError(
            f"direction must be 'out' or 'in', got {direction!r}"
        )

    # ------------------------------------------------------------------
    # labels
    # ------------------------------------------------------------------
    def label_of(self, v: int):
        """Label of node ``v`` (the id itself when unlabelled)."""
        v = self._check_node(v)
        return self._labels[v] if self._labels is not None else v

    def node_of(self, label) -> int:
        """Node id carrying ``label``."""
        if self._labels is None:
            raise KeyError("graph has no labels")
        try:
            return self._label_to_node[label]
        except KeyError:
            raise KeyError(f"no node labelled {label!r}") from None

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "DiGraph":
        """The graph with every edge direction flipped (``O(1)``: the
        in- and out-views trade places)."""
        rev = self._shallow_copy()
        rev._out_ptr, rev._out_idx = self._in_ptr, self._in_idx
        rev._in_ptr, rev._in_idx = self._out_ptr, self._out_idx
        return rev

    def to_undirected(self) -> "DiGraph":
        """Symmetric closure: each edge doubled into both directions.

        This is how the paper treats the undirected DBLP graph — an
        undirected edge is a pair of opposing directed edges, so all
        directed-graph algorithms apply unchanged.
        """
        heads, tails = self.edge_arrays()
        n = self._n
        sym = self._shallow_copy()
        sym._set_out_keys(
            _unique_sorted(
                np.concatenate((heads * n + tails, tails * n + heads))
            )
        )
        return sym

    def copy(self) -> "DiGraph":
        """An independent copy, ``O(1)``: the read-only arrays and the
        label table are shared, and every later edit of either graph
        builds new arrays for that graph alone."""
        return self._shallow_copy()

    def copy_with_edits(
        self,
        added: Iterable[tuple[int, int]] = (),
        removed: Iterable[tuple[int, int]] = (),
    ) -> "DiGraph":
        """An independent copy with an edge batch already applied.

        Splices the batch into new arrays for the copy — a binary
        search per edited edge within its row, then one ``O(n + m)``
        memory copy per array — and leaves this graph untouched.

        ``added`` edges must be absent from this graph and ``removed``
        edges present (``ValueError`` / ``KeyError`` otherwise); the two
        batches must be disjoint. Duplicates within a batch collapse.
        """
        add = _unique_pairs(added)
        rem = _unique_pairs(removed)
        both = _first_common_row(add, rem)
        if both is not None:
            raise ValueError(
                f"edge {both[0]} -> {both[1]} appears in both added "
                "and removed"
            )
        self._check_nodes(add)
        present = self.has_edges(add[:, 0], add[:, 1])
        if present.any():
            u, v = add[present][0]
            raise ValueError(f"edge {u} -> {v} already in graph")
        self._check_nodes(rem)
        present = self.has_edges(rem[:, 0], rem[:, 1])
        if not present.all():
            u, v = rem[~present][0]
            raise KeyError(f"edge {u} -> {v} not in graph")
        clone = self._shallow_copy()
        clone._splice(add, rem)
        return clone

    def is_symmetric(self) -> bool:
        """True iff every edge has its reverse (i.e. undirected)."""
        return np.array_equal(self._out_ptr, self._in_ptr) and (
            np.array_equal(self._out_idx, self._in_idx)
        )

    def has_self_loops(self) -> bool:
        """True iff some node links to itself."""
        heads, tails = self.edge_arrays()
        return bool((heads == tails).any())

    def sources(self) -> list[int]:
        """Nodes with no in-edges (``I(v) = {}``) — zero SimRank rows."""
        return np.flatnonzero(self.in_degrees() == 0).tolist()

    def sinks(self) -> list[int]:
        """Nodes with no out-edges (``O(v) = {}``)."""
        return np.flatnonzero(self.out_degrees() == 0).tolist()

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._labels == other._labels
            and np.array_equal(self._out_ptr, other._out_ptr)
            and np.array_equal(self._out_idx, other._out_idx)
        )

    def __hash__(self):  # mutable container
        raise TypeError("DiGraph is unhashable (mutable)")

    def __repr__(self) -> str:
        return f"DiGraph(n={self._n}, m={self.num_edges})"

    # ------------------------------------------------------------------
    # internal
    # ------------------------------------------------------------------
    def _check_node(self, v) -> int:
        v = operator.index(v)
        if not 0 <= v < self._n:
            raise IndexError(
                f"node {v} out of range for graph with {self._n} nodes"
            )
        return v

    def _check_nodes(self, pairs: np.ndarray) -> None:
        """``_check_node`` over an ``(m, 2)`` batch, in edge order."""
        flat = pairs.ravel()
        bad = flat[(flat < 0) | (flat >= self._n)]
        if bad.size:
            raise IndexError(
                f"node {int(bad[0])} out of range for graph "
                f"with {self._n} nodes"
            )

    def _assign_labels(self, labels: Sequence) -> None:
        labels = list(labels)
        if len(labels) != self._n:
            raise ValueError(
                f"expected {self._n} labels, got {len(labels)}"
            )
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        self._labels = labels
        self._label_to_node = {lab: i for i, lab in enumerate(labels)}

    def _shallow_copy(self) -> "DiGraph":
        """A version-0 graph sharing every array and the label table
        (both are replaced, never written, by later edits)."""
        clone = DiGraph.__new__(DiGraph)
        clone.__dict__.update(self.__dict__)
        clone._version = 0
        return clone

    def _set_out_keys(self, keys: np.ndarray) -> None:
        """Build both views from the sorted unique keys ``u * n + v``."""
        n = max(self._n, 1)
        heads, tails = np.divmod(keys, n)
        self._out_ptr, self._out_idx = _csr(heads, tails, self._n)
        in_keys = tails * n + heads
        in_keys.sort()
        self._in_ptr, self._in_idx = _csr(*np.divmod(in_keys, n), self._n)

    def _splice(self, add: np.ndarray, rem: np.ndarray) -> None:
        """Replace both views by ones with ``rem`` deleted and ``add``
        inserted (``add`` absent, ``rem`` present, both unique)."""
        self._out_ptr, self._out_idx = _spliced(
            self._out_ptr, self._out_idx, add, rem
        )
        self._in_ptr, self._in_idx = _spliced(
            self._in_ptr, self._in_idx, add[:, ::-1], rem[:, ::-1]
        )


_NO_PAIRS = np.empty((0, 2), dtype=np.int64)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _as_pairs(edges) -> np.ndarray:
    """``edges`` as an ``(m, 2)`` int64 array of ``(u, v)`` rows."""
    pairs = np.asarray(
        edges if isinstance(edges, np.ndarray) else list(edges)
    )
    if pairs.size == 0:
        return _NO_PAIRS
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    if pairs.dtype.kind not in "biu":
        raise TypeError(f"node ids must be integers, got {pairs.dtype}")
    return pairs.astype(np.int64, copy=False)


def _unique_sorted(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` as a sort plus a neighbour mask — many times
    faster than ``np.unique`` on millions of int64 keys."""
    keys = np.sort(keys)
    if keys.size > 1:
        keep = np.empty(keys.size, dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
    return keys


def _unique_pairs(edges) -> np.ndarray:
    """An edit batch as unique ``(u, v)`` rows in ascending order."""
    pairs = _as_pairs(edges)
    return np.unique(pairs, axis=0) if pairs.shape[0] > 1 else pairs


def _first_common_row(a: np.ndarray, b: np.ndarray):
    """The smallest row of both unique row sets ``a`` and ``b``."""
    if not (a.shape[0] and b.shape[0]):
        return None
    both = np.concatenate((a, b))
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    same = np.flatnonzero((both[1:] == both[:-1]).all(axis=1))
    return tuple(both[same[0]].tolist()) if same.size else None


def _csr(
    rows: np.ndarray, cols: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(indptr, indices)`` of ``(row, col)`` pairs already
    sorted by row, then column."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return _frozen(ptr), _frozen(cols.astype(_INDEX))


def _find(
    ptr: np.ndarray, idx: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(position, found)`` of each ``(row, col)`` pair in a CSR view.

    One binary search per pair over the keys ``row * n + col`` of just
    the rows the pairs touch (sorted, because the rows are);
    ``position`` is the insertion point when the pair is absent.
    """
    n = ptr.size - 1
    touched = np.unique(rows)
    first = ptr[touched]
    count = ptr[touched + 1] - first
    # the position of every entry of the touched rows, row after row
    at = np.arange(count.sum()) + np.repeat(
        first - np.cumsum(count) + count, count
    )
    keys = np.repeat(touched, count) * n + idx[at]
    want = rows * n + cols
    i = np.searchsorted(keys, want)
    # the first entry at or after the pair, or a sentinel past every
    # row: within the pair's row it is the position, otherwise the
    # pair goes at the end of its row
    later = np.append(keys, np.iinfo(np.int64).max)[i]
    position = np.where(
        later // max(n, 1) == rows, np.append(at, 0)[i], ptr[rows + 1]
    )
    return position, later == want


def _spliced(
    ptr: np.ndarray, idx: np.ndarray, add: np.ndarray, rem: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """New ``(indptr, indices)`` with the ``rem`` pairs deleted and the
    ``add`` pairs inserted, every row still sorted."""
    if not (add.shape[0] or rem.shape[0]):
        return ptr, idx
    n = ptr.size - 1
    # equal insertion points keep the batch order: sort it like a row
    add = add[np.lexsort((add[:, 1], add[:, 0]))]
    both = np.concatenate((rem, add))
    at = _find(ptr, idx, both[:, 0], both[:, 1])[0]
    rem_at, add_at = np.sort(at[:rem.shape[0]]), at[rem.shape[0]:]
    # every deleted entry in front of an insertion point shifts it left
    add_at -= np.searchsorted(rem_at, add_at)
    new_idx = np.insert(
        np.delete(idx, rem_at), add_at, add[:, 1].astype(_INDEX)
    )
    shift = np.bincount(add[:, 0], minlength=n) - np.bincount(
        rem[:, 0], minlength=n
    )
    new_ptr = ptr.copy()
    new_ptr[1:] += np.cumsum(shift)
    return _frozen(new_ptr), _frozen(new_idx)
