"""Graph construction, edge-list parsing, and the standard matrices."""

from itertools import combinations

import numpy as np
import pytest

from gframes import (
    EdgeListError,
    Graph,
    degree_sequence,
    is_regular,
    laplacian_matrix,
    numerical_rank,
    parse_edge_list,
)
from gframes import graphs
from gframes.graphs import _parse_lines, _parse_plain

from _oracles import (FIXTURES, components_by_bfs, cubic8, edge_list_text, fixture_path, k3,
                      k3_plus_c4, neighbour_lists, path3, random_connected_graph)

TRIANGLE_PLUS_SQUARE_LAPLACIAN = np.array([
    [2, -1, -1, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0],
    [-1, -1, 2, 0, 0, 0, 0],
    [0, 0, 0, 2, -1, 0, -1],
    [0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, -1, 0, -1, 2],
], dtype=float)

CUBIC8_LAPLACIAN = np.array([
    [3, -1, 0, 0, -1, -1, 0, 0],
    [-1, 3, -1, 0, 0, 0, 0, -1],
    [0, -1, 3, -1, 0, 0, 0, -1],
    [0, 0, -1, 3, -1, 0, -1, 0],
    [-1, 0, 0, -1, 3, 0, -1, 0],
    [-1, 0, 0, 0, 0, 3, -1, -1],
    [0, 0, 0, -1, -1, -1, 3, 0],
    [0, -1, -1, 0, 0, -1, 0, 3],
], dtype=float)


class TestParsing:
    def test_k3(self):
        g = parse_edge_list("3 3\n1 2\n2 3\n1 3")
        assert g.n == 3 and g.m == 3
        assert len(g.components) == 1
        assert g.edges == k3().edges

    def test_two_component_graph(self):
        g = parse_edge_list("7 7\n1 2\n1 3\n2 3\n4 5\n4 7\n5 6\n6 7")
        assert g.n == 7
        assert g.components == ((0, 1, 2), (3, 4, 5, 6))
        assert np.array_equal(laplacian_matrix(g), TRIANGLE_PLUS_SQUARE_LAPLACIAN)

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# a triangle\n\n3 3\n1 2\n# middle\n2 3\n1 3\n")
        assert g.m == 3

    def test_self_loop_reports_line(self):
        with pytest.raises(EdgeListError, match="line 2: self-loop"):
            parse_edge_list("2 1\n1 1")

    def test_duplicate_edge(self):
        with pytest.raises(EdgeListError, match="line 3: duplicate"):
            parse_edge_list("3 3\n1 2\n2 1\n1 3")

    def test_vertex_out_of_range(self):
        with pytest.raises(EdgeListError, match="out of range"):
            parse_edge_list("3 1\n1 4")

    def test_malformed_header(self):
        with pytest.raises(EdgeListError, match="header"):
            parse_edge_list("three vertices\n1 2")

    def test_missing_header(self):
        with pytest.raises(EdgeListError, match="missing"):
            parse_edge_list("# nothing here\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(EdgeListError, match="declared 2 edges but found 1"):
            parse_edge_list("3 2\n1 2")
        with pytest.raises(EdgeListError, match="more than the declared"):
            parse_edge_list("3 1\n1 2\n2 3")

    def test_malformed_edge_line(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("3 1\n1 2 3")

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_bundled_files_match_registry(self, name):
        g = parse_edge_list(fixture_path(name).read_text())
        expected = FIXTURES[name]()
        assert g.n == expected.n
        assert g.edges == expected.edges


#: Every error the parser reports: (id, text, message with its line prefix, line).
PARSE_ERRORS = [
    ("bad-header", "3 vertices 2\n1 2", "line 1: expected header 'n m', got '3 vertices 2'", 1),
    ("non-integer-header", "# c\n3 x\n1 2", "line 2: non-integer header '3 x'", 2),
    ("zero-vertices", "0 0\n", "line 1: vertex count must be positive, got 0", 1),
    ("vertices-beyond-2-31", "2147483649 0\n",
     "line 1: vertex count must be at most 2^31, got 2147483649", 1),
    ("vertices-beyond-int64", "99999999999999999999 0\n",
     "line 1: vertex count must be at most 2^31, got 99999999999999999999", 1),
    ("negative-edge-count", "3 -1\n", "line 1: edge count must be nonnegative, got -1", 1),
    ("missing-header", "# nothing here\n\n", "missing 'n m' header", None),
    ("malformed-edge", "3 1\n1 2 3", "line 2: expected edge 'u v', got '1 2 3'", 2),
    ("non-integer-label", "3 1\n\n1 x", "line 3: non-integer edge '1 x'", 3),
    ("out-of-range", "3 1\n1 4", "line 2: vertex out of range [1, 3] in edge 1 4", 2),
    ("zero-label", "3 1\n0 1", "line 2: vertex out of range [1, 3] in edge 0 1", 2),
    ("self-loop", "2 1\n1 1", "line 2: self-loop at vertex 1", 2),
    ("reversed-duplicate", "3 2\n1 2\n2 1", "line 3: duplicate edge 2 1 (first seen at line 2)", 3),
    ("too-many-edges", "3 1\n1 2\n2 3", "line 3: more than the declared 1 edges", 3),
    ("too-few-edges", "3 2\n1 2", "declared 2 edges but found 1", None),
    ("crlf", "3 2\r\n1 2\r\n2 1\r\n", "line 3: duplicate edge 2 1 (first seen at line 2)", 3),
    ("tabs", "3\t2\n1\t2\n\t1 \t4\n", "line 3: vertex out of range [1, 3] in edge 1 4", 3),
    ("comment-between-edges", "3 3\n1 2\n  # c\n2 3\n3 3\n", "line 5: self-loop at vertex 3", 5),
    ("label-beyond-int64", "2 1\n1 99999999999999999999",
     "line 2: vertex out of range [1, 2] in edge 1 99999999999999999999", 2),
]

#: Valid files in unusual shapes; ``plain`` marks those the array path reads.
ODD_VALID = [
    ("crlf", "3 3\r\n1 2\r\n2 3\r\n3 1\r\n", True),
    ("tabs-and-blanks", "\t3 \t3\n\n1\t2\n 2 3 \n3\t1", True),
    ("comments-between-edges", "# head\n3 3\n1 2\n\t# mid\n2 3\n#\n3 1\n# tail", True),
    ("leading-zeros", "003 2\n01 002\n3 000000000000000002\n", True),
    ("no-edges", "4 0\n", True),
    # the largest vertex count either path accepts; parsing builds no per-vertex data
    ("2-31-vertices", "2147483648 0\n", True),
    ("long-zero-padded-label", "3 1\n0000000000000000000001 2\n", False),
    ("plus-sign", "3 1\n+1 2\n", False),
    ("form-feed-line-break", "3 1\x0c1 2\n", False),
    ("vertical-tab-in-comment", "# c\x0b3 1\n1 2\n", False),
    ("lone-carriage-return", "3 1\r1 2\r", False),
    ("arabic-indic-digit", "3 1\n\u0661 2\n", False),
    ("no-break-space", "3 1\n1\u00a02\n", False),
]


class TestParseErrors:
    """Both parsing paths: every error goes to the line scan, which names it
    and its line; every valid file gives the line scan's graph."""

    @pytest.mark.parametrize("tail", ["", "\n" * 64], ids=["short", "long"])
    @pytest.mark.parametrize("text,message,line", [case[1:] for case in PARSE_ERRORS],
                             ids=[case[0] for case in PARSE_ERRORS])
    def test_message_and_line(self, text, message, line, tail):
        # trailing blank lines move no error, and make the file long enough
        # for the array path to try it first
        text += tail
        assert _parse_plain(text) is None
        with pytest.raises(EdgeListError) as info:
            parse_edge_list(text)
        assert str(info.value) == message
        assert info.value.line == line

    @pytest.mark.parametrize("text,plain", [case[1:] for case in ODD_VALID],
                             ids=[case[0] for case in ODD_VALID])
    def test_odd_valid_files(self, text, plain):
        expected = _parse_lines(text)
        assert (_parse_plain(text) is not None) == plain
        g = parse_edge_list(text)
        assert (g.n, g.edges) == (expected.n, expected.edges)
        assert all(type(x) is int for edge in g.edges for x in edge)

    def test_array_path_matches_line_scan(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            g = random_connected_graph(rng, 2, 40)
            lines = edge_list_text(g).splitlines()
            body = [f"{v} {u}" if rng.random() < 0.5 else edge
                    for edge in lines[1:] for u, v in [edge.split()]]
            text = "\n".join([lines[0]] + [body[i] for i in rng.permutation(len(body))])
            plain = _parse_plain(text)
            assert (plain.n, plain.edges) == (g.n, g.edges)
            assert (_parse_lines(text).n, _parse_lines(text).edges) == (g.n, g.edges)

    def test_long_files_take_the_array_path(self, monkeypatch):
        g = random_connected_graph(np.random.default_rng(64), 30, 30)
        text = edge_list_text(g)
        assert text.count("\n") >= 64

        def refuse(_):
            raise AssertionError("line scan")

        monkeypatch.setattr(graphs, "_parse_lines", refuse)
        parsed = parse_edge_list(text)
        assert (parsed.n, parsed.edges) == (g.n, g.edges)
        with pytest.raises(AssertionError, match="line scan"):
            parse_edge_list(text + "1 1\n")  # a self-loop sends it back to the line scan
        with pytest.raises(AssertionError, match="line scan"):
            parse_edge_list(fixture_path("petersen").read_text())  # 15 edges: too short


class TestMatrices:
    def test_k3_adjacency(self):
        expected = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(k3().adjacency, expected)

    def test_single_vertex(self):
        g = Graph(1, frozenset())
        assert np.array_equal(g.adjacency, np.zeros((1, 1)))

    def test_cubic8_adjacency_is_3i_minus_laplacian(self):
        a = cubic8().adjacency
        assert np.array_equal(a, 3 * np.eye(8) - CUBIC8_LAPLACIAN)

    def test_k3_laplacian(self):
        expected = np.array([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], dtype=float)
        assert np.array_equal(laplacian_matrix(k3()), expected)

    def test_edgeless_laplacian(self):
        g = Graph(2, frozenset())
        assert np.array_equal(laplacian_matrix(g), np.zeros((2, 2)))

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_laplacian_identities(self, name):
        g = FIXTURES[name]()
        lap = laplacian_matrix(g)
        assert np.array_equal(lap, lap.T)
        assert np.array_equal(lap.sum(axis=1), np.zeros(g.n))
        rebuilt = np.diag(degree_sequence(g)).astype(float) - g.adjacency
        assert np.array_equal(lap, rebuilt)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_laplacian_rank_counts_components(self, name):
        g = FIXTURES[name]()
        rank = numerical_rank(laplacian_matrix(g))
        assert rank == g.n - len(g.components)


class TestCachedAdjacency:
    def test_read_only(self):
        g = k3()
        assert g.adjacency is g.adjacency
        assert not g.adjacency.flags.writeable
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 5.0

    def test_writes_to_copies_do_not_leak(self):
        g = cubic8()
        expected_adjacency, expected_laplacian = g.adjacency.copy(), laplacian_matrix(g)
        a = g.adjacency.copy()
        a[:] = 7.0
        lap = laplacian_matrix(g)
        lap[:] = 7.0
        assert np.array_equal(g.adjacency, expected_adjacency)
        assert np.array_equal(laplacian_matrix(g), expected_laplacian)
        assert np.array_equal(laplacian_matrix(g), CUBIC8_LAPLACIAN)

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_matches_edge_by_edge_construction(self, name):
        g = FIXTURES[name]()
        expected = np.zeros((g.n, g.n))
        for u, v in g.edges:
            expected[u, v] = expected[v, u] = 1.0
        assert np.array_equal(g.adjacency, expected)


class TestDegrees:
    def test_degree_examples(self):
        assert degree_sequence(k3()) == [2, 2, 2]
        assert degree_sequence(k3_plus_c4()) == [2] * 7
        assert degree_sequence(cubic8()) == [3] * 8

    def test_is_regular(self):
        assert is_regular(k3()) == 2
        assert is_regular(cubic8()) == 3
        assert is_regular(path3()) is None


class TestComponents:
    def test_union_find_matches_bfs_oracle(self):
        # blocks of random size on randomly permuted labels, so components
        # interleave; single-vertex blocks and empty densities leave
        # isolated vertices
        isolated = interleaved = 0
        for n in (1, 2, 3, 7, 20, 60, 150, 300):
            for seed in range(4):
                rng = np.random.default_rng([n, seed])
                labels = rng.permutation(n).tolist()
                edges = set()
                start = 0
                while start < n:
                    block = labels[start:start + int(rng.integers(1, n // 3 + 2))]
                    pairs = list(combinations(block, 2))
                    keep = rng.random(len(pairs)) < rng.uniform(0.0, 0.5)
                    edges.update(pair for pair, kept in zip(pairs, keep) if kept)
                    start += len(block)
                g = Graph(n, frozenset(edges))
                assert g.components == components_by_bfs(g)
                assert degree_sequence(g) == [len(ns) for ns in neighbour_lists(g)]
                isolated += any(len(comp) == 1 for comp in g.components)
                interleaved += any(comp[-1] - comp[0] >= len(comp) for comp in g.components)
        assert isolated and interleaved


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, frozenset({(0, 2)}))

    def test_rejects_bad_vertex_count(self):
        for n in (0, True, 2.0):
            with pytest.raises(ValueError, match=f"positive integer, got {n!r}"):
                Graph(n, frozenset())

    def test_accepts_numpy_integer_vertex_count(self):
        g = Graph(np.int64(3), frozenset({(0, 2)}))
        assert g.n == 3 and type(g.n) is int
        assert g.adjacency.shape == (3, 3)

    def test_edges_normalized(self):
        g = Graph(3, frozenset({(2, 0)}))
        assert g.edges == frozenset({(0, 2)})

    @pytest.mark.parametrize("edges", [
        {(0, 1.7), (1.2, 2.9)},
        {(0, 1.0)},
        {(0, "1")},
        {(np.float64(0.0), 2)},
        {(True, 2)},
    ], ids=["fractional", "integral-float", "string", "numpy-float", "bool"])
    def test_rejects_non_integer_labels(self, edges):
        with pytest.raises(ValueError, match="non-integer vertex label"):
            Graph(3, frozenset(edges))

    def test_accepts_numpy_integer_labels(self):
        g = Graph(3, frozenset({(np.int64(2), np.int32(0)), (np.uint8(1), np.intp(2))}))
        assert g.edges == frozenset({(0, 2), (1, 2)})
        assert all(type(x) is int for edge in g.edges for x in edge)
