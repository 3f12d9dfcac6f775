import csv
import io
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix, diags

from dirlap import (DirectedGraph, EdgeListError, GraphStructureError,
                    PRDRGParams, apply_ordering, gen_clustered_angles,
                    largest_scc, largest_wcc, parse_edge_list, prdrg_sample,
                    serialize_edge_list, serialize_ordering, symmetrize)
from dirlap import graphs
from helpers import (adjacency, random_graph, reference_graph_error,
                     reference_parse_edge_list, reference_symmetrize)


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


# labels hold a comma, a double quote, a '#' or '%' that starts a line only
# when the label comes first, and non-ASCII text
LABELS = ["a", "b", "c", "d", "a,1", '"q', "x#y", "#h", "%p", "0", "\u00e9"]
WEIGHTS = ["0.5", "0.25", "1e-1", ".75", "0.999", "nan", "0_5", "1", "0",
           "-0.5", "x", "inf"]
SEPARATORS = [" ", "\t", "  ", "\xa0", "\u2009", "\u3000"]
LINE_ENDS = ["\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2028"]


@st.composite
def edge_list_lines(draw):
    kind = draw(st.sampled_from(["data", "data", "data", "comment", "blank"]))
    pad = st.sampled_from(["", " ", "\t", "\xa0"])
    if kind == "blank":
        return draw(pad)
    if kind == "comment":
        return draw(pad) + draw(st.sampled_from("#%")) + draw(
            st.sampled_from(["", " note", "a b", "a b 0.5"]))
    tokens = [draw(st.sampled_from(LABELS)) for _ in range(draw(st.integers(1, 4)))]
    if len(tokens) >= 3:
        tokens[2] = draw(st.sampled_from(WEIGHTS))
    line = tokens[0]
    for token in tokens[1:]:
        line += draw(st.sampled_from(SEPARATORS)) + token
    return draw(pad) + line + draw(pad)


@st.composite
def edge_list_texts(draw):
    lines = draw(st.lists(edge_list_lines(), max_size=40))
    text = "".join(line + draw(st.sampled_from(LINE_ENDS)) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("".join(LINE_ENDS))
    return text


def parse_outcome(parse, text, weighted):
    """What a parser makes of ``text``: the parsed data or the error."""
    try:
        result = parse(text, weighted=weighted)
    except EdgeListError as exc:
        return "error", str(exc), exc.line_number
    if isinstance(result, tuple):       # the reference parser
        labels, edges, weights, loops = result
        return labels, [list(e) for e in edges], weights, loops
    graph = result.graph
    weights = graph.edge_weights.tolist() if graph.is_weighted else None
    return graph.labels, graph.edge_index.tolist(), weights, result.self_loops_dropped


def assert_parsers_agree(text, weighted):
    assert (parse_outcome(parse_edge_list, text, weighted)
            == parse_outcome(reference_parse_edge_list, text, weighted))


class TestParseOracle:
    @settings(max_examples=300, deadline=None)
    @given(edge_list_texts(), st.booleans(), st.integers(1, 6), st.booleans())
    def test_matches_line_by_line_parser(self, text, weighted, chunk, as_lines):
        source = text.splitlines(keepends=True) if as_lines else text
        with mock.patch.object(graphs, "_CHUNK_LINES", chunk):
            assert_parsers_agree(source, weighted)

    @settings(max_examples=300, deadline=None)
    @given(edge_list_texts(), st.booleans(), st.integers(1, 6))
    def test_matches_line_by_line_parser_without_plain_scan(self, text, weighted, chunk):
        with mock.patch.object(graphs, "_CHUNK_LINES", chunk), \
                mock.patch.object(graphs, "_scan_plain", return_value=None):
            assert_parsers_agree(text, weighted)

    @pytest.mark.parametrize("text, weighted, message", [
        # errors of different kinds: the first line in line order wins
        ("a b 0.5\nc d 2\ne f\n", True, "line 2: weight 2.0 outside (0, 1)"),
        ("a b 0.5\ne f\nc d 2\n", True, "line 2: expected 'src dst weight'"),
        ("a b 0.5\nc d x\na b 0.4\n", True, "line 2: bad weight 'x'"),
        ("a b 0.5\na b 0.4\nc d x\n", True, "line 2: duplicate edge a -> b"),
        ("a b 0.5\na b 0.4\nz\n", True, "line 2: duplicate edge a -> b"),
        ("a b\nb c d e\nf\n", False, "line 2: expected 'src dst'"),
        # a weighted duplicate is reported at its second line, with its tokens
        ("a,1 \"q 0.5\nc d 0.5\na,1\t\"q 0.25\n", True,
         "line 3: duplicate edge a,1 -> \"q"),
        # weights go through float()
        ("a b nan\n", True, "line 1: weight nan outside (0, 1)"),
        ("a b 0_5\n", True, "line 1: weight 5.0 outside (0, 1)"),
        ("a b 1e-1\nb a 1\n", True, "line 2: weight 1.0 outside (0, 1)"),
    ])
    @pytest.mark.parametrize("chunk", [1, 2, graphs._CHUNK_LINES])
    def test_error_precedence(self, text, weighted, message, chunk):
        with mock.patch.object(graphs, "_CHUNK_LINES", chunk):
            with pytest.raises(EdgeListError) as caught:
                parse_edge_list(text, weighted=weighted)
        assert str(caught.value) == message
        assert_parsers_agree(text, weighted)

    def test_self_loop_weight_never_parsed(self):
        result = parse_edge_list("a a x\nb b 5\nb c 0.5\n", weighted=True)
        assert result.self_loops_dropped == 2
        assert result.graph.edge_weights.tolist() == [0.5]
        assert_parsers_agree("a a x\nb b 5\nb c 0.5\n", True)

    @pytest.mark.parametrize("chunk", [1, graphs._CHUNK_LINES])
    def test_ignored_weight_columns_counted(self, chunk):
        text = "a b 0.5\nb c\n# c a 0.1\nc c 0.2\n\nc a x\n"
        with mock.patch.object(graphs, "_CHUNK_LINES", chunk):
            assert parse_edge_list(text).weight_columns_ignored == 3
        assert parse_edge_list("a b\nb c\n").weight_columns_ignored == 0
        assert parse_edge_list("a b 0.5\n", weighted=True).weight_columns_ignored == 0

    @pytest.mark.parametrize("weighted", [False, True])
    def test_texts_longer_than_one_chunk(self, weighted):
        rng = np.random.default_rng(8)
        names = [f"v{k}" for k in range(400)] + LABELS
        pairs = rng.integers(0, len(names), (3 * graphs._CHUNK_LINES + 123, 2))
        if weighted:    # a repeated edge would be an error
            pairs = rng.permutation(np.unique(pairs, axis=0))
        lines = [f"{names[i]} {names[j]} {rng.uniform(0.01, 0.99)!r}"
                 for i, j in pairs]
        lines[::97] = ["# comment"] * len(lines[::97])
        assert len(lines) > 2 * graphs._CHUNK_LINES
        text = "\n".join(lines)
        assert parse_outcome(parse_edge_list, text, weighted)[0] != "error"
        assert_parsers_agree(text, weighted)
        # past the first chunk: a repeat of the first edge and a bad line
        tail = [lines[1], "x y 0.5 z"]
        assert_parsers_agree("\n".join(lines + tail), weighted)
        assert_parsers_agree("\n".join(lines + tail[::-1]), weighted)


# plain text: printable ASCII labels with no '#' or '%', two to a line
# between spaces and tabs, and blank lines
PLAIN_LABELS = ["a", "b", "c", "a,1", '"q', "0", "x-y", "~"]
PLAIN_SEPARATORS = [" ", "\t", "  ", " \t "]


@st.composite
def plain_texts(draw):
    pad = st.sampled_from(["", " ", "\t"])
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        line = draw(pad)
        if draw(st.integers(0, 4)):
            line += (draw(st.sampled_from(PLAIN_LABELS))
                     + draw(st.sampled_from(PLAIN_SEPARATORS))
                     + draw(st.sampled_from(PLAIN_LABELS)) + draw(pad))
        lines.append(line)
    text = "\n".join(lines)
    return text + "\n" if lines and draw(st.booleans()) else text


def line_scan_spy():
    """Patch that records whether parse_edge_list fell back to the line scan."""
    return mock.patch.object(graphs, "_scan", wraps=graphs._scan)


class TestPlainTextParse:
    @settings(max_examples=300, deadline=None)
    @given(plain_texts(), st.integers(1, 64))
    def test_chunk_cuts_anywhere(self, text, chunk):
        with mock.patch.object(graphs, "_CHUNK_CHARS", chunk), line_scan_spy() as spy:
            assert_parsers_agree(text, False)
        assert not spy.called

    @pytest.mark.parametrize("text", [
        "a b\r\nc d\n", "a b\nc d\x0ce f\n", "a b\nc\x1cd\n", "a b\nc\xa0d\n",
        "a b\n# c d\n", "a b\nc %d\n", "a b\nc d 0.5\n",
    ])
    @pytest.mark.parametrize("chunk", [1, graphs._CHUNK_CHARS])
    def test_other_text_takes_the_line_scan(self, text, chunk):
        # with chunk = 1 the first line passes and the second one does not
        with mock.patch.object(graphs, "_CHUNK_CHARS", chunk), line_scan_spy() as spy:
            assert_parsers_agree(text, False)
        assert spy.called

    # the first chunk is the first line: a bad line on either side of the
    # chunk boundary, a last line of one token with no line end, a carriage
    # return and a comment mark
    @pytest.mark.parametrize("first, second", [
        ("c\n", "a b\n"), ("c d e\n", "a b\n"), ("a b\n", "c\n"),
        ("a b\n", "c d e\n"), ("a b\n", "c"), ("a b\n", "c d\r\n"),
        ("a b\n", "c #d\n"),
    ])
    @pytest.mark.parametrize("boundary", [True, False], ids=["boundary", "one-chunk"])
    def test_refused_next_to_a_chunk_boundary(self, first, second, boundary):
        chunk = len(first) if boundary else graphs._CHUNK_CHARS
        with mock.patch.object(graphs, "_CHUNK_CHARS", chunk):
            assert graphs._scan_plain(first + second) is None
            with line_scan_spy() as spy:
                assert_parsers_agree(first + second, False)
        assert spy.called

    @pytest.mark.parametrize("source, weighted", [
        ("a b 0.5\n", True), (["a b\n", "c d\n"], False)])
    def test_weighted_text_and_line_lists_take_the_line_scan(self, source, weighted):
        with line_scan_spy() as spy:
            assert_parsers_agree(source, weighted)
        assert spy.called


@pytest.fixture(scope="class")
def periodic_text():
    # 198k edges: the scale of the benchmark's periodic-1k input
    theta = gen_clustered_angles(5, 200, 0.2, 1)
    text = serialize_edge_list(prdrg_sample(PRDRGParams(theta, 5.0, 0.2), 2))
    assert text.count("\n") > 190_000
    return text


def parse_peak_bytes(text) -> int:
    tracemalloc.start()
    try:
        parse_edge_list(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestParseMemory:
    def test_peak_memory_bounded(self, periodic_text):
        # the line scan, which every input that is not plain text takes
        with mock.patch.object(graphs, "_scan_plain", return_value=None):
            assert parse_peak_bytes(periodic_text) <= 40e6

    def test_plain_text_peak_memory_bounded(self, periodic_text):
        with line_scan_spy() as spy:
            assert parse_peak_bytes(periodic_text) <= 20e6
        assert not spy.called


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


def construction_outcome(n, edges, weights):
    try:
        return DirectedGraph(n, edges, weights)
    except ValueError as exc:
        return str(exc)


class TestArrayConstruction:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6), st.booleans(), st.booleans(), st.data())
    def test_pairs_and_array_agree(self, n, in_range, weighted, data):
        node = st.integers(0, max(n - 1, 0)) if in_range else st.integers(-1, n)
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=12))
        weights = None
        if weighted:
            weights = data.draw(st.lists(
                st.sampled_from([0.25, 0.5, 0.75, 0.0, 1.0, float("nan")]),
                min_size=len(pairs), max_size=len(pairs)))
        from_pairs = construction_outcome(n, tuple(pairs), weights)
        from_array = construction_outcome(
            n, np.array(pairs, dtype=np.int64).reshape(-1, 2),
            None if weights is None else np.array(weights))
        assert from_pairs == from_array
        expected = reference_graph_error(n, pairs, weights)
        if expected is None:
            assert from_pairs.edges == tuple(sorted(set(pairs)))
            if weighted:
                assert from_pairs.weights == tuple(
                    w for _, w in sorted(zip(pairs, weights)))
        else:
            assert from_pairs == expected

    def test_sorts_targets_within_a_source(self):
        graph = DirectedGraph(3, np.array([[0, 2], [0, 1], [1, 0]]))
        assert graph.edges == ((0, 1), (0, 2), (1, 0))

    def test_input_array_is_copied(self):
        idx = np.array([[1, 0], [0, 1]])
        graph = DirectedGraph(2, idx)
        idx[0, 0] = 0
        assert graph.edges == ((0, 1), (1, 0))
        assert idx.flags.writeable and not graph.edge_index.flags.writeable

    def test_tuple_views_built_on_first_use(self):
        graph = DirectedGraph(3, np.array([[2, 0], [0, 1]]), np.array([0.9, 0.1]))
        assert "edges" not in graph.__dict__ and "weights" not in graph.__dict__
        assert graph.edges == ((0, 1), (2, 0)) and graph.weights == (0.1, 0.9)
        assert graph.edges is graph.edges
        assert all(type(i) is int for pair in graph.edges for i in pair)
        assert not graph.edge_weights.flags.writeable

    def test_immutable(self):
        graph = DirectedGraph(2, ((0, 1),))
        with pytest.raises(AttributeError):
            graph.n = 3

    def test_reciprocated_mask(self):
        graph = DirectedGraph(4, ((0, 1), (1, 0), (1, 2), (3, 2), (2, 3)))
        assert graph.reciprocated.tolist() == [True, True, False, True, True]
        assert not graph.reciprocated.flags.writeable
        assert DirectedGraph(2, ()).reciprocated.shape == (0,)

    def test_reciprocated_mask_matches_adjacency(self):
        for graph in symmetrize_cases(np.random.default_rng(21)):
            src, dst = graph.edge_index.T
            assert np.array_equal(graph.reciprocated, adjacency(graph)[dst, src] != 0)


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

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("n,p", [(0, 0.0), (4, 0.0), (30, 0.2)])
    def test_csr_matches_coo_build(self, n, p, weighted):
        rng = np.random.default_rng(6)
        graph = random_graph(rng, n, p)
        data = rng.uniform(0.1, 0.9, graph.edge_count) if weighted else None
        fast = graphs._edge_pattern(graph, data)
        idx = graph.edge_index
        coo = csr_matrix((np.ones(len(idx)) if data is None else data,
                          (idx[:, 0], idx[:, 1])), shape=(n, n))
        assert fast.has_sorted_indices
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(fast, name), getattr(coo, name)), name


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

    @pytest.mark.parametrize("largest", [largest_scc, largest_wcc])
    def test_whole_graph_returned_as_it_is(self, largest):
        graph = parse_edge_list("a b\nb c\nc a\n").graph
        sub, index_map = largest(graph)
        assert sub is graph
        assert index_map == (0, 1, 2)
        assert graphs.is_weakly_connected(sub)


def symmetrize_cases(rng: np.random.Generator):
    """Graphs with reciprocated pairs, one-way edges and isolated nodes, and
    the degenerate ones: no nodes, one node, no edges; each also weighted."""
    cases = [DirectedGraph(0, ()), DirectedGraph(1, ()), DirectedGraph(4, ()),
             DirectedGraph(5, ((0, 1), (1, 0), (3, 1)))]
    for _ in range(30):
        graph = random_graph(rng, int(rng.integers(2, 40)), rng.uniform(0.02, 0.5))
        cases.append(DirectedGraph(graph.n + 3, graph.edge_index))
    for graph in cases:
        yield graph
        yield DirectedGraph(graph.n, graph.edge_index,
                            weights=rng.uniform(0.01, 0.99, graph.edge_count))


class TestSymmetrize:
    def test_matches_sorted_key_oracle(self):
        for graph in symmetrize_cases(np.random.default_rng(19)):
            view, oracle = graphs._symmetrize(graph), reference_symmetrize(graph)
            for ours, ref in ((view.wsym, oracle.wsym), (view.alpha, oracle.alpha)):
                for part in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(ours, part), getattr(ref, part))
            assert np.array_equal(view.degrees, oracle.degrees)

    def test_fills_reciprocated_cache(self):
        # the view's C = W + iW^T gives the mask a standalone build gives
        for graph in symmetrize_cases(np.random.default_rng(20)):
            twin = DirectedGraph(graph.n, graph.edge_index, graph.edge_weights)
            graphs._symmetrize(graph)
            cached = graph.__dict__["reciprocated"]
            assert np.array_equal(cached, twin.reciprocated)
            assert not cached.flags.writeable
            # a mask already cached is kept
            graphs._symmetrize(graph)
            assert graph.reciprocated is cached

    def test_paired_with_reverse_is_the_sparse_sum(self):
        # C = W + 1j W^T from W's CSC arrays, against the sum it replaced
        for graph in symmetrize_cases(np.random.default_rng(23)):
            w = graphs._edge_pattern(graph, graph.edge_weights)
            reference = (w + 1j * w.T).tocsr()
            reference.sort_indices()
            paired = graphs._paired_with_reverse(graph)
            assert paired.has_sorted_indices
            for part in ("data", "indices", "indptr"):
                ours, ref = getattr(paired, part), getattr(reference, part)
                assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()

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
        # float64 as on any other graph, so SciPy takes them without a cast
        assert view.degrees.dtype == np.float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diags(view.degrees)

    def test_weighted_rejected(self):
        with pytest.raises(ValueError):
            symmetrize(DirectedGraph(2, ((0, 1),), weights=(0.5,)))

    def test_view_cached_on_graph(self):
        graph = DirectedGraph(3, ((0, 1), (1, 2)))
        assert symmetrize(graph) is symmetrize(graph)

    def test_reconstructs_adjacency(self):
        # A_ij = wsym_ij + alpha_ij / 2 off the diagonal
        rng = np.random.default_rng(11)
        for _ in range(25):
            graph = random_graph(rng, int(rng.integers(2, 25)), 0.3)
            view = symmetrize(graph)
            np.testing.assert_allclose(view.wsym.toarray() + view.alpha.toarray() / 2.0,
                                       adjacency(graph), atol=1e-15)

    def test_weighted_view_holds_the_weights(self):
        # the level solve's view: wsym = (W + W^T)/2, alpha = W - W^T
        from dirlap.graphs import _symmetrize
        rng = np.random.default_rng(17)
        graph = random_graph(rng, 20, 0.3)
        graph = DirectedGraph(graph.n, graph.edge_index,
                              weights=rng.uniform(0.01, 0.99, graph.edge_count))
        view = _symmetrize(graph)
        w = adjacency(graph)
        np.testing.assert_allclose(view.wsym.toarray(), (w + w.T) / 2.0, atol=1e-15)
        np.testing.assert_allclose(view.alpha.toarray(), w - w.T, atol=1e-15)
        np.testing.assert_allclose(view.degrees, (w.sum(0) + w.sum(1)) / 2.0,
                                   atol=1e-14)

    def test_antisymmetric_alpha_and_degrees(self):
        rng = np.random.default_rng(13)
        graph = random_graph(rng, 20, 0.25)
        view = symmetrize(graph)
        assert (view.alpha.toarray() == -view.alpha.toarray().T).all()
        a = adjacency(graph)
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


def csv_writer_text(header, rows) -> str:
    """Python's csv.writer with ``\n`` line ends: the reference writer."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


# CSV fields with commas, double quotes, line feeds, blanks and non-ASCII
# text; no bare carriage return, which csv.writer leaves unquoted with
# "\n" line ends and csv_fields quotes
csv_field_texts = st.text(st.sampled_from(list('ab1,"\n \t-é€☃🙂')) | st.characters(
    blacklist_characters="\r", blacklist_categories=("Cs",)), max_size=8)


class TestCsvWriter:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(csv_field_texts, min_size=1, max_size=12), st.randoms())
    def test_label_files_match_csv_writer(self, labels, random):
        from dirlap.cli import assignment_to_csv
        n = len(labels)
        graph = DirectedGraph(n, (), labels=labels)
        perm = np.array(random.sample(range(n), n))
        rank = np.empty(n, dtype=int)
        rank[perm] = np.arange(n)
        assert serialize_ordering(graph, perm) == csv_writer_text(
            ["original_label", "rank"], zip(labels, rank.tolist()))
        values = np.array([random.uniform(-10.0, 10.0) for _ in range(n)])
        assert assignment_to_csv(graph, values) == csv_writer_text(
            ["label", "value"], ((label, "%.12g" % v) for label, v in zip(labels, values)))

    @settings(max_examples=200, deadline=None)
    @given(csv_field_texts, st.lists(csv_field_texts, min_size=1, max_size=5))
    def test_summary_row_matches_csv_writer(self, dataset, fields):
        # a dataset name with odd characters, as in summary.csv
        row = [dataset, "12", "28"] + fields
        header = [f"h{k}" for k in range(len(row))]
        columns = [(graphs.csv_fields([field]), None) for field in row]
        assert graphs.csv_text(header, columns) == csv_writer_text(header, [row])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(csv_field_texts, min_size=1, max_size=6), st.randoms())
    def test_gathered_columns_match_csv_writer(self, fields, random):
        rows = random.randint(0, 20)
        picks = [[random.randrange(len(fields)) for _ in range(rows)] for _ in range(2)]
        columns = [(graphs.csv_fields(fields), np.array(pick, dtype=np.int64))
                   for pick in picks]
        expected = [[fields[i], fields[j]] for i, j in zip(*picks)]
        assert graphs.csv_text(["a", "b"], columns) == csv_writer_text(["a", "b"], expected)

    def test_carriage_return_is_quoted_and_reads_back(self):
        graph = DirectedGraph(2, ((0, 1),), labels=("a\rb", "c"))
        text = serialize_ordering(graph, np.array([1, 0]))
        assert text == 'original_label,rank\n"a\rb",1\nc,0\n'
        assert list(csv.reader(io.StringIO(text, newline=""))) == [
            ["original_label", "rank"], ["a\rb", "1"], ["c", "0"]]


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
