"""Seeded property tests of the CSR-backed ``DiGraph``.

Random operation sequences run against ``DiGraph`` and against a small
set-based reference model kept in this file; after every step every
graph alive in the sequence must agree with its model on every view
(edges, edge arrays, neighbours, degrees, sources/sinks, membership,
equality) and every failing operation must raise the model's error
type and leave the graph untouched. Also here: the edge-list reader's
round trip and its ``path:line`` errors, and pinned digests of the
transition matrices and of a workload graph's fingerprint.
"""

import hashlib

import numpy as np
import pytest

from repro.graph import (
    DiGraph,
    random_digraph,
    read_edge_list,
    rmat,
    write_edge_list,
)
from repro.graph.matrices import backward_transition_matrix, transition_pair


class SetGraph:
    """Reference model: the edge set as a Python set of pairs."""

    def __init__(self, n, edges=(), labels=None):
        self.n = n
        self.edges = set(edges)
        self.labels = None if labels is None else list(labels)

    def copy(self):
        return SetGraph(self.n, self.edges, self.labels)

    def check(self, *nodes):
        for v in nodes:
            if not 0 <= v < self.n:
                raise IndexError(v)

    def add(self, u, v):
        self.check(u, v)
        self.edges.add((u, v))

    def remove(self, u, v):
        self.check(u, v)
        if (u, v) not in self.edges:
            raise KeyError((u, v))
        self.edges.remove((u, v))

    def copy_with_edits(self, added, removed):
        add, rem = set(added), set(removed)
        if add & rem:
            raise ValueError("overlap")
        for u, v in sorted(add):
            self.check(u, v)
        if add & self.edges:
            raise ValueError("present")
        for u, v in sorted(rem):
            self.check(u, v)
        if rem - self.edges:
            raise KeyError("absent")
        return SetGraph(self.n, (self.edges | add) - rem, self.labels)

    def reverse(self):
        return SetGraph(
            self.n, {(v, u) for u, v in self.edges}, self.labels
        )

    def to_undirected(self):
        return SetGraph(
            self.n, self.edges | {(v, u) for u, v in self.edges},
            self.labels,
        )

    def set_labels(self, labels):
        if len(labels) != self.n or len(set(labels)) != len(labels):
            raise ValueError("labels")
        self.labels = list(labels)


def assert_agrees(graph, model):
    n = model.n
    edges = sorted(model.edges)
    assert graph.num_nodes == n
    assert graph.num_edges == len(edges)
    assert list(graph.edges()) == edges
    heads, tails = graph.edge_arrays()
    assert heads.dtype == np.intp and tails.dtype == np.intp
    assert list(zip(heads.tolist(), tails.tolist())) == edges
    outs = [[] for _ in range(n)]
    ins = [[] for _ in range(n)]
    for u, v in edges:
        outs[u].append(v)
        ins[v].append(u)
    for v in range(n):
        assert graph.out_neighbors(v) == tuple(outs[v])
        assert graph.in_neighbors(v) == tuple(sorted(ins[v]))
        assert graph.out_degree(v) == len(outs[v])
        assert graph.in_degree(v) == len(ins[v])
    assert graph.out_degrees().tolist() == [len(o) for o in outs]
    assert graph.in_degrees().tolist() == [len(i) for i in ins]
    assert graph.in_degrees().dtype == np.int64
    assert graph.sources() == [v for v in range(n) if not ins[v]]
    assert graph.sinks() == [v for v in range(n) if not outs[v]]
    for u in range(n):
        for v in range(n):
            assert graph.has_edge(u, v) == ((u, v) in model.edges)
    if n:
        grid = np.indices((n, n)).reshape(2, -1)
        expected = [(u, v) in model.edges for u, v in zip(*grid.tolist())]
        assert graph.has_edges(*grid).tolist() == expected
    assert graph.has_self_loops() == any(u == v for u, v in edges)
    assert graph.is_symmetric() == all(
        (v, u) in model.edges for u, v in edges
    )
    assert graph.labels == model.labels
    assert graph == DiGraph(n, edges=edges, labels=model.labels)
    assert repr(graph) == f"DiGraph(n={n}, m={len(edges)})"


def start_graphs():
    hub = [(0, v) for v in range(1, 12)] + [(v, 0) for v in range(5, 9)]
    return [
        (0, []),
        (1, []),
        (1, [(0, 0)]),
        (7, [(0, 1), (1, 2), (5, 5)]),  # isolated 3, 4, 6
        (12, hub),
    ]


def random_pair(rng, model, valid=True):
    lo, hi = (0, model.n) if valid else (-1, model.n + 1)
    if model.edges and rng.random() < 0.3:
        return sorted(model.edges)[rng.integers(len(model.edges))]
    if model.n and rng.random() < 0.15:
        v = int(rng.integers(model.n))
        return (v, v)  # self-loop
    return tuple(int(x) for x in rng.integers(lo, max(hi, lo + 1), 2))


def run_op(rng, pool):
    """One random operation on a random pool member."""
    i = int(rng.integers(len(pool)))
    graph, model = pool[i]
    op = rng.choice(
        ["add", "remove", "copy", "edits", "reverse", "undirected",
         "labels"],
        p=[0.3, 0.2, 0.1, 0.25, 0.05, 0.05, 0.05],
    )
    if op in ("add", "remove"):
        u, v = random_pair(rng, model, valid=rng.random() < 0.9)
        graph_op = graph.add_edge if op == "add" else graph.remove_edge
        model_op = model.add if op == "add" else model.remove
        before = graph.version
        expect_error(
            lambda: model_op(u, v), lambda: graph_op(u, v), graph, model
        )
        assert graph.version >= before
    elif op == "copy":
        pool.append((graph.copy(), model.copy()))
    elif op == "edits":
        added = [random_pair(rng, model, rng.random() < 0.95)
                 for _ in range(int(rng.integers(0, 5)))]
        removed = [random_pair(rng, model, rng.random() < 0.95)
                   for _ in range(int(rng.integers(0, 4)))]
        if rng.random() < 0.6:  # mostly valid batches
            added = [e for e in added if e not in model.edges]
            removed = [e for e in removed if e in model.edges
                       and e not in added]
        result = {}

        def model_edit():
            result["model"] = model.copy_with_edits(added, removed)

        def graph_edit():
            result["graph"] = graph.copy_with_edits(added, removed)

        if expect_error(model_edit, graph_edit, graph, model):
            pool.append((result["graph"], result["model"]))
    elif op == "reverse":
        pool.append((graph.reverse(), model.reverse()))
    elif op == "undirected":
        pool.append((graph.to_undirected(), model.to_undirected()))
    else:
        size = model.n + (0 if rng.random() < 0.8 else 1)
        labels = [f"n{j}" for j in range(size)]
        if size and rng.random() < 0.1:
            labels[-1] = labels[0]  # duplicate
        expect_error(
            lambda: model.set_labels(labels),
            lambda: graph.set_labels(labels),
            graph,
            model,
        )
    if len(pool) > 6:
        pool.pop(0)


def expect_error(model_op, graph_op, graph, model):
    """Run both; they must fail alike (graph untouched) or both pass."""
    try:
        model_op()
    except (IndexError, KeyError, ValueError) as exc:
        snapshot = (graph.num_edges, list(graph.edges()), graph.labels)
        with pytest.raises(type(exc)):
            graph_op()
        assert (graph.num_edges, list(graph.edges()),
                graph.labels) == snapshot
        return False
    graph_op()
    return True


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("start", range(len(start_graphs())))
def test_random_operation_sequences_match_set_model(seed, start):
    rng = np.random.default_rng([seed, start])
    n, edges = start_graphs()[start]
    pool = [(DiGraph(n, edges=edges), SetGraph(n, edges))]
    for _ in range(40):
        run_op(rng, pool)
        for graph, model in pool:
            assert_agrees(graph, model)


def test_copies_share_arrays_until_edited():
    graph = DiGraph(4, edges=[(0, 1), (1, 2)])
    clone = graph.copy()
    assert clone.csr_arrays("out")[1] is graph.csr_arrays("out")[1]
    clone.add_edge(2, 3)
    assert not graph.has_edge(2, 3)
    assert clone.csr_arrays("out")[1] is not graph.csr_arrays("out")[1]
    assert not graph.csr_arrays("in")[1].flags.writeable


def test_error_messages_name_the_edge():
    graph = DiGraph(3, edges=[(0, 1)])
    with pytest.raises(IndexError, match="node 3 out of range for graph "
                       "with 3 nodes"):
        DiGraph(3, edges=[(0, 1), (1, 3)])
    with pytest.raises(KeyError, match="edge 1 -> 2 not in graph"):
        graph.remove_edge(1, 2)
    with pytest.raises(ValueError, match="edge 0 -> 1 already in graph"):
        graph.copy_with_edits([(0, 1)])
    with pytest.raises(KeyError, match="edge 2 -> 0 not in graph"):
        graph.copy_with_edits([], [(2, 0)])
    with pytest.raises(ValueError, match="appears in both"):
        graph.copy_with_edits([(1, 2)], [(1, 2)])
    with pytest.raises(TypeError):
        graph.add_edge(0.0, 1)


class TestEdgeListFiles:
    def test_roundtrip_with_header_comments_and_isolated_nodes(
        self, tmp_path
    ):
        path = tmp_path / "g.txt"
        path.write_text(
            "# nodes: 9\n"
            "# a comment # with a second mark\n"
            "\n"
            "0 1\n"
            "  3\t2  \n"
            "\n"
            "   # an indented comment\n"
            "1 0\n"
        )
        graph = read_edge_list(path)
        assert graph.num_nodes == 9  # 4 .. 8 are isolated
        assert list(graph.edges()) == [(0, 1), (1, 0), (3, 2)]
        again = tmp_path / "again.txt"
        write_edge_list(graph, again)
        assert read_edge_list(again) == graph

    @pytest.mark.parametrize(
        "text, line, got",
        [
            ("0 1\n1 2 3\n", 2, "'1 2 3'"),
            ("# nodes: 4\n\n7\n", 3, "'7'"),
            ("0 1 # trailing comment\n", 1, "'0 1 # trailing comment'"),
        ],
    )
    def test_malformed_lines_name_path_and_line(
        self, tmp_path, text, line, got
    ):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            read_edge_list(path)
        assert str(excinfo.value) == (
            f"{path}:{line}: expected 'u v', got {got}"
        )

    def test_non_integer_id_raises_like_int(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1.5\n")
        with pytest.raises(ValueError, match="invalid literal for int"):
            read_edge_list(path)


def _digest(matrix) -> str:
    digest = hashlib.sha256()
    digest.update(repr((
        matrix.shape, str(matrix.dtype), str(matrix.indptr.dtype),
        str(matrix.indices.dtype),
    )).encode())
    for array in (matrix.indptr, matrix.indices, matrix.data):
        digest.update(np.ascontiguousarray(array))
    return digest.hexdigest()


#: (Q, Q^T) digests of the set-based builds (row-normalised A^T and its
#: CSR transpose); the array builders must reproduce them byte for byte
PINNED_TRANSITIONS = {
    ("random", "float64"): (
        "710f4a696f241f0ce1c16e769ca750dcfcb6d55ba3b511bb93360599f921923a",
        "ad7e70bbca51ebbb7fd20ba0e03cee8d0f8d1fa5708dd2a16a9fa504babba991",
    ),
    ("random", "float32"): (
        "032c694e73decc81e5fef2faaf075bc4c79c9b33c0fac9019a405166fbe5eacd",
        "971c52e6fe2111eeb34d9ee90f7857e40b27158e79478bf08d9e052d0dbfe4f4",
    ),
    ("rmat", "float64"): (
        "cce7f1be34d682e39114adf1b8cba8b285366853621d60a9d276ceb54ea4d5b3",
        "6af12d1bda2fd89f023fcf895152f5ec73607cf9656befeb3dc88ae7f506fc52",
    ),
    ("rmat", "float32"): (
        "a863f6241f38b74181eefef020f001e3c09812c2eb71c7af0aa4c12860c6794a",
        "330310d72f77add9a7cd637187fea4b6e0351cc08cc338d19ce459bfafc27dd7",
    ),
    ("scale-free", "float64"): (
        "b5b0fd7bf071a29e44462017729df795b096d2ed8d3d57f332729aa48a20b27b",
        "1903794812fa0bc7427dedb92dcaf52291152a910a4274c97f3fb00b70802937",
    ),
    ("scale-free", "float32"): (
        "7ce93f773a27c21a576716c95f18b4bcf79f32dc7671c98f116ea3acf5b203bf",
        "44f3f402fce3a090d7285a0ccc851d628747ffe82f141b62f03e2619775c58d6",
    ),
}


def _pinned_graph(name):
    if name == "random":
        return random_digraph(300, 2400, seed=7)
    if name == "rmat":
        return rmat(10, 6000, seed=3)
    from repro.datasets import scale_free_graph

    return scale_free_graph(2000, avg_out_degree=6.0, seed=5)


@pytest.mark.parametrize("name, dtype", sorted(PINNED_TRANSITIONS))
def test_transition_matrices_are_pinned(name, dtype):
    graph = _pinned_graph(name)
    q, qt = transition_pair(graph, dtype=dtype)
    assert (_digest(q), _digest(qt)) == PINNED_TRANSITIONS[name, dtype]
    assert _digest(backward_transition_matrix(graph, dtype=dtype)) == (
        PINNED_TRANSITIONS[name, dtype][0]
    )
    assert q.has_canonical_format and qt.has_canonical_format
