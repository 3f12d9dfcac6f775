import numpy as np
import pytest

from dirlap import (DirectedGraph, EdgeListError, GraphStructureError,
                    apply_ordering, largest_scc, largest_wcc, parse_edge_list,
                    serialize_edge_list, serialize_ordering, symmetrize)
from helpers import random_graph


class TestParseEdgeList:
    def test_reciprocal_pair(self):
        result = parse_edge_list("a b\nb a\n")
        assert result.graph.n == 2
        assert result.graph.edges == ((0, 1), (1, 0))
        assert result.self_loops_dropped == 0

    def test_self_loop_dropped_and_counted(self):
        result = parse_edge_list("a a\na b\n")
        assert result.graph.n == 2
        assert result.graph.edges == ((0, 1),)
        assert result.self_loops_dropped == 1

    def test_weight_out_of_range(self):
        with pytest.raises(EdgeListError, match="outside"):
            parse_edge_list("a b 1.5\n", weighted=True)

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListError, match="line 3"):
            parse_edge_list("a b\n# comment\nonly_one_token\n")

    def test_comments_and_blanks_ignored(self):
        text = "# header\n% also a comment\n\na b\n"
        assert parse_edge_list(text).graph.edges == ((0, 1),)

    def test_duplicate_unweighted_collapses(self):
        result = parse_edge_list("a b\na b\n")
        assert result.graph.edges == ((0, 1),)

    def test_duplicate_weighted_rejected(self):
        with pytest.raises(EdgeListError, match="duplicate"):
            parse_edge_list("a b 0.5\na b 0.4\n", weighted=True)

    def test_extra_column_ignored_in_unweighted_mode(self):
        result = parse_edge_list("a b 0.7\n")
        assert result.graph.edges == ((0, 1),)
        assert not result.graph.is_weighted

    def test_weighted_needs_weight_column(self):
        with pytest.raises(EdgeListError, match="line 1"):
            parse_edge_list("a b\n", weighted=True)

    def test_bad_weight_token(self):
        with pytest.raises(EdgeListError, match="bad weight"):
            parse_edge_list("a b x\n", weighted=True)

    def test_labels_in_first_appearance_order(self):
        graph = parse_edge_list("z y\nx z\n").graph
        assert graph.labels == ("z", "y", "x")
        assert graph.edges == ((0, 1), (2, 0))


class TestDirectedGraphInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            DirectedGraph(2, ((0, 0),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            DirectedGraph(2, ((0, 1), (0, 1)))

    def test_rejects_out_of_range_weight(self):
        with pytest.raises(ValueError, match="outside"):
            DirectedGraph(2, ((0, 1),), weights=(1.0,))

    def test_edges_canonically_sorted(self):
        graph = DirectedGraph(3, ((2, 0), (0, 1)))
        assert graph.edges == ((0, 1), (2, 0))

    def test_weights_follow_edge_sort(self):
        graph = DirectedGraph(3, ((2, 0), (0, 1)), weights=(0.9, 0.1))
        assert graph.edges == ((0, 1), (2, 0))
        assert graph.weights == (0.1, 0.9)


class TestEdgeIndex:
    def test_matches_edges_and_is_read_only(self):
        graph = random_graph(np.random.default_rng(5), 9, 0.3)
        idx = graph.edge_index
        assert idx.dtype == np.int64 and idx.shape == (graph.edge_count, 2)
        assert np.array_equal(idx, np.array(graph.edges))
        assert graph.edge_index is idx
        with pytest.raises(ValueError):
            idx[0, 0] = 1

    def test_edgeless_graph(self):
        idx = DirectedGraph(3, ()).edge_index
        assert idx.shape == (0, 2) and idx.dtype == np.int64


class TestComponents:
    def test_scc_drops_pendant(self):
        graph = DirectedGraph(4, ((0, 1), (1, 2), (2, 0), (2, 3)))
        sub, index_map = largest_scc(graph)
        assert index_map == (0, 1, 2)
        assert sub.n == 3
        assert sub.edges == ((0, 1), (1, 2), (2, 0))

    def test_scc_tie_breaks_to_smallest_index(self):
        graph = DirectedGraph(4, ((0, 1), (1, 0), (2, 3), (3, 2)))
        _, index_map = largest_scc(graph)
        assert index_map == (0, 1)

    def test_scc_of_path_is_single_node(self):
        graph = DirectedGraph(3, ((0, 1), (1, 2)))
        sub, index_map = largest_scc(graph)
        assert sub.n == 1
        assert index_map == (0,)

    def test_wcc_keeps_path(self):
        graph = DirectedGraph(3, ((0, 1), (1, 2)))
        sub, index_map = largest_wcc(graph)
        assert index_map == (0, 1, 2)
        assert sub.edges == graph.edges

    def test_wcc_tie_rule(self):
        graph = DirectedGraph(4, ((0, 1), (2, 3)))
        _, index_map = largest_wcc(graph)
        assert index_map == (0, 1)

    def test_wcc_single_isolated_node(self):
        graph = DirectedGraph(1, ())
        sub, index_map = largest_wcc(graph)
        assert sub.n == 1 and index_map == (0,)

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphStructureError):
            largest_scc(DirectedGraph(0, ()))

    def test_scc_output_is_strongly_connected(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            graph = random_graph(rng, int(rng.integers(2, 30)), 0.1)
            sub, _ = largest_scc(graph)
            again, _ = largest_scc(sub)
            assert again.n == sub.n

    def test_labels_carried_through(self):
        graph = parse_edge_list("a b\nb a\nb c\n").graph
        sub, index_map = largest_scc(graph)
        assert sub.labels == ("a", "b")
        assert index_map == (0, 1)

    def test_weights_carried_through(self):
        graph = parse_edge_list("a b 0.3\nb a 0.4\nb c 0.5\n", weighted=True).graph
        sub, _ = largest_scc(graph)
        assert sub.weights == (0.3, 0.4)


class TestSymmetrize:
    def test_single_edge(self):
        view = symmetrize(DirectedGraph(2, ((0, 1),)))
        assert view.wsym.toarray()[0, 1] == 0.5
        assert view.alpha.toarray()[0, 1] == 1 and view.alpha.toarray()[1, 0] == -1
        assert np.allclose(view.degrees, [0.5, 0.5])

    def test_reciprocal_pair(self):
        view = symmetrize(DirectedGraph(2, ((0, 1), (1, 0))))
        assert view.wsym.toarray()[0, 1] == 1.0
        assert view.alpha.toarray()[0, 1] == 0
        assert np.allclose(view.degrees, [1.0, 1.0])

    def test_empty_edges(self):
        view = symmetrize(DirectedGraph(3, ()))
        assert not view.wsym.toarray().any() and not view.alpha.toarray().any()
        assert not view.degrees.any()

    def test_weighted_rejected(self):
        with pytest.raises(ValueError):
            symmetrize(DirectedGraph(2, ((0, 1),), weights=(0.5,)))

    def test_reconstructs_adjacency(self):
        # A_ij = wsym_ij + alpha_ij / 2 off the diagonal
        rng = np.random.default_rng(11)
        for _ in range(25):
            graph = random_graph(rng, int(rng.integers(2, 25)), 0.3)
            view = symmetrize(graph)
            np.testing.assert_allclose(view.wsym.toarray() + view.alpha.toarray() / 2.0,
                                       graph.adjacency(), atol=1e-15)

    def test_antisymmetric_alpha_and_degrees(self):
        rng = np.random.default_rng(13)
        graph = random_graph(rng, 20, 0.25)
        view = symmetrize(graph)
        assert (view.alpha.toarray() == -view.alpha.toarray().T).all()
        a = graph.adjacency()
        np.testing.assert_allclose(view.degrees, (a.sum(0) + a.sum(1)) / 2.0)


class TestOrdering:
    def test_sorts_ascending(self):
        graph = DirectedGraph(3, ())
        assert apply_ordering(graph, (0.3, 0.1, 0.2)).tolist() == [1, 2, 0]

    def test_ties_stable(self):
        graph = DirectedGraph(4, ())
        assert apply_ordering(graph, (1.0, 1.0, 1.0, 1.0)).tolist() == [0, 1, 2, 3]

    def test_angles_treated_as_plain_reals(self):
        graph = DirectedGraph(3, ())
        score = (2 * np.pi - 0.1, 0.0, 0.1)
        assert apply_ordering(graph, score).tolist() == [1, 2, 0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_ordering(DirectedGraph(3, ()), (0.1, 0.2))

    def test_ordering_csv(self):
        graph = parse_edge_list("a b\nb c\n").graph
        csv = serialize_ordering(graph, np.array([2, 0, 1]))
        assert csv == "original_label,rank\na,1\nb,2\nc,0\n"


class TestRoundTrip:
    def test_parse_serialize_parse_fixed_point(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            graph = random_graph(rng, int(rng.integers(2, 15)), 0.3)
            canonical = serialize_edge_list(graph)
            reparsed = parse_edge_list(canonical).graph
            assert serialize_edge_list(reparsed) == canonical
            pairs = {(graph.label(i), graph.label(j)) for i, j in graph.edges}
            repairs = {(reparsed.label(i), reparsed.label(j))
                       for i, j in reparsed.edges}
            assert pairs == repairs

    def test_weighted_round_trip(self):
        graph = DirectedGraph(3, ((0, 1), (1, 2)), weights=(0.25, 0.125),
                              labels=("a", "b", "c"))
        reparsed = parse_edge_list(serialize_edge_list(graph), weighted=True).graph
        assert reparsed.edges == graph.edges
        assert reparsed.weights == graph.weights
        assert reparsed.labels == graph.labels
