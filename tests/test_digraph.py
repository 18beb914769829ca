"""Unit tests for the DiGraph substrate."""

import numpy as np
import pytest

from repro.graph import DiGraph


class TestConstruction:
    def test_empty_graph(self):
        g = DiGraph(0)
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.density == 0.0

    def test_nodes_without_edges(self):
        g = DiGraph(5)
        assert g.num_nodes == 5
        assert g.num_edges == 0
        assert list(g.nodes()) == [0, 1, 2, 3, 4]

    def test_negative_node_count_rejected(self):
        with pytest.raises(ValueError):
            DiGraph(-1)

    def test_edges_in_constructor(self):
        g = DiGraph(3, edges=[(0, 1), (1, 2)])
        assert g.num_edges == 2
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_duplicate_edges_collapse(self):
        g = DiGraph(2, edges=[(0, 1), (0, 1), (0, 1)])
        assert g.num_edges == 1

    def test_from_edges_infers_node_count(self):
        g = DiGraph.from_edges([(0, 4), (2, 3)])
        assert g.num_nodes == 5

    def test_from_edges_explicit_node_count(self):
        g = DiGraph.from_edges([(0, 1)], num_nodes=10)
        assert g.num_nodes == 10

    def test_from_label_edges_first_appearance_order(self):
        g = DiGraph.from_label_edges([("x", "y"), ("y", "z"), ("x", "z")])
        assert g.node_of("x") == 0
        assert g.node_of("y") == 1
        assert g.node_of("z") == 2
        assert g.has_edge(0, 2)

    def test_self_loop_allowed(self):
        g = DiGraph(1, edges=[(0, 0)])
        assert g.has_edge(0, 0)
        assert g.has_self_loops()

    def test_out_of_range_edge_rejected(self):
        g = DiGraph(2)
        with pytest.raises(IndexError):
            g.add_edge(0, 2)
        with pytest.raises(IndexError):
            g.add_edge(-1, 0)


class TestNeighbors:
    @pytest.fixture
    def diamond(self):
        # 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        return DiGraph(4, edges=[(0, 1), (0, 2), (1, 3), (2, 3)])

    def test_out_neighbors_sorted(self, diamond):
        assert diamond.out_neighbors(0) == (1, 2)

    def test_in_neighbors_sorted(self, diamond):
        assert diamond.in_neighbors(3) == (1, 2)

    def test_empty_neighborhoods(self, diamond):
        assert diamond.in_neighbors(0) == ()
        assert diamond.out_neighbors(3) == ()

    def test_degrees(self, diamond):
        assert diamond.in_degree(3) == 2
        assert diamond.out_degree(0) == 2
        assert diamond.in_degree(0) == 0

    def test_degree_vectors(self, diamond):
        np.testing.assert_array_equal(
            diamond.in_degrees(), np.array([0, 1, 1, 2])
        )
        np.testing.assert_array_equal(
            diamond.out_degrees(), np.array([2, 1, 1, 0])
        )

    def test_sources_and_sinks(self, diamond):
        assert diamond.sources() == [0]
        assert diamond.sinks() == [3]

    def test_edges_iterator_sorted(self, diamond):
        assert list(diamond.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


class TestMutation:
    def test_remove_edge(self):
        g = DiGraph(2, edges=[(0, 1)])
        g.remove_edge(0, 1)
        assert g.num_edges == 0
        assert not g.has_edge(0, 1)

    def test_remove_missing_edge_raises(self):
        g = DiGraph(2)
        with pytest.raises(KeyError):
            g.remove_edge(0, 1)

    def test_remove_updates_in_neighbors(self):
        g = DiGraph(3, edges=[(0, 2), (1, 2)])
        g.remove_edge(0, 2)
        assert g.in_neighbors(2) == (1,)


class TestLabels:
    def test_label_roundtrip(self):
        g = DiGraph(2, labels=["p", "q"])
        assert g.label_of(0) == "p"
        assert g.node_of("q") == 1

    def test_unlabelled_graph_uses_ids(self):
        g = DiGraph(2)
        assert g.label_of(1) == 1
        with pytest.raises(KeyError):
            g.node_of("p")

    def test_wrong_label_count_rejected(self):
        with pytest.raises(ValueError):
            DiGraph(2, labels=["only-one"])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            DiGraph(2, labels=["same", "same"])

    def test_unknown_label_raises(self):
        g = DiGraph(1, labels=["a"])
        with pytest.raises(KeyError):
            g.node_of("zzz")


class TestDerivedGraphs:
    def test_reverse_flips_edges(self):
        g = DiGraph(3, edges=[(0, 1), (1, 2)])
        r = g.reverse()
        assert r.has_edge(1, 0)
        assert r.has_edge(2, 1)
        assert r.num_edges == 2

    def test_reverse_twice_is_identity(self):
        g = DiGraph(4, edges=[(0, 1), (2, 3), (1, 3)])
        assert g.reverse().reverse() == g

    def test_to_undirected_symmetrizes(self):
        g = DiGraph(2, edges=[(0, 1)])
        u = g.to_undirected()
        assert u.has_edge(0, 1) and u.has_edge(1, 0)
        assert u.is_symmetric()

    def test_is_symmetric_detects_asymmetry(self):
        g = DiGraph(2, edges=[(0, 1)])
        assert not g.is_symmetric()

    def test_copy_is_independent(self):
        g = DiGraph(2, edges=[(0, 1)])
        c = g.copy()
        c.add_edge(1, 0)
        assert not g.has_edge(1, 0)
        assert g != c

    def test_equality(self):
        g1 = DiGraph(2, edges=[(0, 1)])
        g2 = DiGraph(2, edges=[(0, 1)])
        assert g1 == g2
        assert g1 != DiGraph(2)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(DiGraph(1))

    def test_repr(self):
        assert repr(DiGraph(3, edges=[(0, 1)])) == "DiGraph(n=3, m=1)"


class TestEdgeArrays:
    def test_matches_edges_iteration(self):
        g = DiGraph(5, edges=[(0, 1), (0, 3), (2, 1), (4, 0), (2, 2)])
        heads, tails = g.edge_arrays()
        assert list(zip(heads.tolist(), tails.tolist())) == list(
            g.edges()
        )

    def test_empty_graph(self):
        heads, tails = DiGraph(3).edge_arrays()
        assert heads.size == 0 and tails.size == 0

    def test_refreshed_after_mutation(self):
        g = DiGraph(4, edges=[(0, 1), (1, 2)])
        first = g.edge_arrays()
        assert all(
            np.array_equal(a, b) for a, b in zip(g.edge_arrays(), first)
        )
        g.add_edge(2, 3)
        heads, tails = g.edge_arrays()
        assert heads.size == 3
        assert list(zip(heads.tolist(), tails.tolist())) == list(
            g.edges()
        )

    def test_arrays_are_read_only(self):
        g = DiGraph(3, edges=[(0, 1)])
        heads, _ = g.edge_arrays()
        try:
            heads[0] = 2
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("edge array was writable")
