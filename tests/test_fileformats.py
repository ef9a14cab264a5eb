import pytest
from hypothesis import given, strategies as st

from twpw.decomposition import PathDecomposition, TreeDecomposition, validate
from twpw.errors import CapabilityError, FormatError, ParameterError
from twpw.fileformats import (
    format_gr,
    format_td,
    parse_gr,
    parse_td,
    read_gr,
    read_td,
    write_gr,
    write_td,
)
from twpw.graphs import (
    GRAPH_MAX_EDGES,
    GRAPH_MAX_VERTICES,
    Graph,
    cycle_graph,
    incidence_star_example,
    path_graph,
)


class TestGrParsing:
    def test_minimal(self):
        g = parse_gr("p tw 3 2\n1 2\n2 3\n")
        assert g == path_graph(3)

    def test_comments_and_blanks_skipped(self):
        text = "c a comment\n\np tw 2 1\nc another\n1 2\n"
        assert parse_gr(text) == path_graph(2)

    def test_empty_graph(self):
        assert parse_gr("p tw 0 0\n") == Graph()

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_gr("1 2\n")

    def test_wrong_edge_count(self):
        with pytest.raises(FormatError):
            parse_gr("p tw 3 2\n1 2\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(FormatError):
            parse_gr("p tw 2 1\n1 3\n")

    def test_loop_rejected(self):
        with pytest.raises(FormatError):
            parse_gr("p tw 2 1\n1 1\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(FormatError):
            parse_gr("p tw 2 2\n1 2\n2 1\n")

    def test_non_numeric(self):
        with pytest.raises(FormatError):
            parse_gr("p tw 2 1\n1 x\n")

    def test_oversized_header_refused(self):
        # the header alone would size the graph; nothing is built from it
        with pytest.raises(CapabilityError, match="vertices"):
            parse_gr(f"p tw {GRAPH_MAX_VERTICES + 1} 0\n")
        with pytest.raises(CapabilityError, match="edges"):
            parse_gr(f"p tw 2 {GRAPH_MAX_EDGES + 1}\n1 2\n")
        assert parse_gr(f"p tw {GRAPH_MAX_VERTICES} 0\n").n == GRAPH_MAX_VERTICES


class TestGrFormatting:
    def test_round_trip_is_identity_on_text(self):
        text = format_gr(incidence_star_example())
        assert format_gr(parse_gr(text)) == text

    def test_sparse_ids_compact_to_ranks(self):
        g = Graph([3, 7, 20], [(3, 20)])
        assert format_gr(g) == "p tw 3 1\n1 3\n"

    def test_file_round_trip(self, tmp_path):
        g = cycle_graph(5)
        p = tmp_path / "c5.gr"
        write_gr(g, p)
        assert read_gr(p) == g


def spider_tree_decomposition():
    g = incidence_star_example()
    bags = {
        0: frozenset({0, 1}),
        1: frozenset({1, 2}),
        2: frozenset({2, 5}),
        3: frozenset({5, 6}),
        4: frozenset({2, 3}),
        5: frozenset({3, 4}),
    }
    tree = Graph(range(6), [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)])
    return g, TreeDecomposition(g, tree, bags)


class TestTdParsing:
    def test_tree_round_trip(self):
        g, d = spider_tree_decomposition()
        text = format_td(d)
        back = parse_td(text, g)
        assert validate(g, back).valid
        assert format_td(back) == text

    def test_path_round_trip(self):
        g = incidence_star_example()
        d = PathDecomposition(
            g,
            [frozenset({0, 1, 2}), frozenset({2, 5, 6}), frozenset({2, 3, 4})],
        )
        text = format_td(d)
        back = parse_td(text, g, kind="path")
        assert isinstance(back, PathDecomposition)
        assert back.bags == d.bags
        assert format_td(back) == text

    def test_path_kind_rejects_branching_tree(self):
        g, d = spider_tree_decomposition()
        with pytest.raises(FormatError):
            parse_td(format_td(d), g, kind="path")

    def test_header_vertex_count_must_match_host(self):
        g = path_graph(3)
        text = "s td 1 3 4\nb 1 1 2 3\n"
        with pytest.raises(FormatError):
            parse_td(text, g)

    def test_max_bag_header_checked(self):
        g = path_graph(3)
        text = "s td 1 2 3\nb 1 1 2 3\n"
        with pytest.raises(FormatError):
            parse_td(text, g)

    def test_unknown_bag_node(self):
        g = path_graph(2)
        text = "s td 1 2 2\nb 2 1 2\n"
        with pytest.raises(FormatError):
            parse_td(text, g)

    def test_disconnected_bag_graph_rejected(self):
        g = path_graph(2)
        text = "s td 2 2 2\nb 1 1 2\nb 2 1\n"
        with pytest.raises((FormatError, ParameterError)):
            parse_td(text, g)

    def test_extra_tree_edge_lines_rejected(self):
        # Graph would collapse the repeated edges into one valid tree
        g = path_graph(3)
        text = "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n1 2\n2 1\n"
        with pytest.raises(FormatError, match="2 bags need 1 tree edges, file has 3"):
            parse_td(text, g)

    def test_file_round_trip(self, tmp_path):
        g, d = spider_tree_decomposition()
        p = tmp_path / "spider.td"
        write_td(d, p)
        back = read_td(p, g)
        assert validate(g, back).valid


@given(st.integers(0, 2**32 - 1), st.integers(1, 9))
def test_format_parse_round_trip_random(seed, n):
    from twpw.harness import SplitMix64, random_graph

    g = random_graph(SplitMix64(seed), n, 5)
    assert parse_gr(format_gr(g)) == g
