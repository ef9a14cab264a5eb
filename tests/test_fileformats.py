import re

import pytest
from hypothesis import given, settings, strategies as st

from twpw.decomposition import PathDecomposition, TreeDecomposition, validate
from twpw.errors import CapabilityError, FormatError, ParameterError, ToolError
from twpw.exact import (
    elimination_decomposition,
    exact_pathwidth,
    exact_treewidth,
    layout_decomposition,
)
from twpw.fileformats import (
    _path_order,
    _tree_shape,
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
from twpw.harness import SplitMix64, random_graph

from frozen_readers import (
    content_lines,
    frozen_check_tree_edges,
    frozen_parse_gr,
    frozen_two_pass_parse_td,
    reachability_path_order,
)
from frozen_validate import frozen_validate
from rooting import assert_rooting
from test_parser_fuzz import td_inputs


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

    @pytest.mark.parametrize("kind", ["tree", "path"])
    @pytest.mark.parametrize("foreign", [9, "x"])  # "x" does not even sort with ints
    def test_writer_names_a_bag_vertex_outside_the_host(self, kind, foreign):
        g = path_graph(2)
        bag = frozenset({0, 1, foreign})
        d = (PathDecomposition(g, [bag]) if kind == "path"
             else TreeDecomposition(g, Graph([0]), {0: bag}))
        with pytest.raises(ParameterError, match=f"vertex {foreign},"):
            format_td(d)

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

    @pytest.mark.parametrize("kind", ["tree", "path"])
    def test_tree_edge_loop_names_the_bag(self, kind):
        # a loop is a format fault of the line, not a vertex of the graph
        g = path_graph(3)
        text = "s td 2 2 3\nb 1 1 2\nb 2 2 3\n2 2\n"
        with pytest.raises(FormatError, match=r"^tree edge loop at bag 2$"):
            parse_td(text, g, kind)

    @pytest.mark.parametrize("kind", ["tree", "path"])
    def test_repeated_tree_edge_named(self, kind):
        g = path_graph(3)
        text = "s td 3 2 3\nb 1 1 2\nb 2 2 3\nb 3 3\n1 2\n2 1\n"
        with pytest.raises(FormatError, match=r"^duplicate tree edge \(2, 1\)$"):
            parse_td(text, g, kind)

    def test_out_of_range_vertex_named_in_line_order(self):
        g = path_graph(3)
        with pytest.raises(FormatError, match=r"out-of-range vertex 7$"):
            parse_td("s td 1 3 3\nb 1 2 7 0 -4 9\n", g)

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


def tree_parts(d):
    """Bags in node order and tree edges over node ranks; a path's tree is
    its bag sequence."""
    items = d.bag_items()
    if isinstance(d, PathDecomposition):
        return [bag for _, bag in items], [(i, i + 1) for i in range(len(items) - 1)]
    rank = {u: i for i, (u, _) in enumerate(items)}
    edges = sorted(tuple(sorted((rank[a], rank[b]))) for a, b in d.tree.edges)
    return [bag for _, bag in items], edges


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 9))
def test_td_round_trip_random(seed, n, p):
    from twpw.harness import SplitMix64, random_graph

    rng = SplitMix64(seed)
    drawn = random_graph(rng, n, p)
    # sparse ids, so the file's 1..n numbering differs from the host's ids
    g = Graph([3 * v + 1 for v in drawn.vertices],
              [(3 * u + 1, 3 * v + 1) for u, v in drawn.edges])
    order = g.vertices_sorted()
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        order[i], order[j] = order[j], order[i]
    for d, kind in ((elimination_decomposition(g, order), "tree"),
                    (layout_decomposition(g, order), "path")):
        back = parse_td(format_td(d), g, kind)
        assert type(back) is type(d)
        assert tree_parts(back) == tree_parts(d)


def python_only_forms(numeral):
    """Forms int() reads as int(numeral) that are not numerals of the
    formats (an optional "-" and ASCII digits): a plus sign, an
    underscore, and Arabic-Indic digits."""
    return ["+" + numeral, "0_" + numeral,
            "".join(chr(0x0660 + int(c)) for c in numeral)]


GR_TEXT = "p tw 3 2\n1 2\n2 3\n"
TD_TEXT = "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"


def with_token(text, line, index, token):
    lines = text.splitlines()
    tokens = lines[line].split()
    tokens[index] = token
    lines[line] = " ".join(tokens)
    return "\n".join(lines) + "\n"


class TestNumerals:
    @pytest.mark.parametrize("line, index, message", [
        (0, 2, "non-numeric header fields"),  # n
        (0, 3, "non-numeric header fields"),  # m
        (2, 1, "non-numeric edge line"),  # endpoint
    ])
    def test_gr_refuses_python_only_forms(self, line, index, message):
        assert parse_gr(GR_TEXT) == path_graph(3)
        numeral = GR_TEXT.splitlines()[line].split()[index]
        for token in python_only_forms(numeral):
            assert int(token) == int(numeral)
            with pytest.raises(FormatError, match=f"^{message}"):
                parse_gr(with_token(GR_TEXT, line, index, token))

    @pytest.mark.parametrize("line, index, message", [
        (0, 2, "non-numeric header fields"),  # bags
        (0, 3, "non-numeric header fields"),  # max bag size
        (0, 4, "non-numeric header fields"),  # vertices
        (2, 1, "non-numeric bag line"),  # bag id
        (2, 3, "non-numeric bag line"),  # bag member
        (3, 1, "non-numeric tree edge"),  # tree edge end
    ])
    @pytest.mark.parametrize("kind", ["tree", "path"])
    def test_td_refuses_python_only_forms(self, line, index, message, kind):
        g = path_graph(3)
        assert validate(g, parse_td(TD_TEXT, g, kind)).valid
        numeral = TD_TEXT.splitlines()[line].split()[index]
        for token in python_only_forms(numeral):
            assert int(token) == int(numeral)
            with pytest.raises(FormatError, match=f"^{message}"):
                parse_td(with_token(TD_TEXT, line, index, token), g, kind)

    def test_ten_is_not_one_underscore_zero(self):
        with pytest.raises(FormatError, match="^non-numeric header fields$"):
            parse_gr("p tw 1_0 1\n1 1_0\n")

    def test_leading_zeros_and_minus_keep_their_meaning(self):
        assert parse_gr("p tw 03 -0\n") == Graph(range(3))
        assert parse_gr("p tw 3 1\n01 003\n") == Graph(range(3), [(0, 2)])
        with pytest.raises(FormatError, match="^negative counts in header$"):
            parse_gr("p tw -3 0\n")
        with pytest.raises(FormatError, match=r"^edge \(-1, 2\) out of range 1..3$"):
            parse_gr("p tw 3 1\n-1 2\n")
        g = path_graph(3)
        with pytest.raises(FormatError, match="^bag 1 holds out-of-range vertex -2$"):
            parse_td("s td 1 3 3\nb 1 1 -2 3\n", g)
        with pytest.raises(FormatError, match=r"^bag id 0 out of range 1\.\.1$"):
            parse_td("s td 1 3 3\nb -0 1 2 3\n", g)
        with pytest.raises(FormatError, match=r"^tree edge \(1, -2\) out of range 1..2$"):
            parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 -2\n", g)
        d = parse_td("s td 02 2 03\nb 01 1 02\nb 2 002 3\n01 2\n", g, "path")
        assert d.bags == (frozenset({0, 1}), frozenset({1, 2}))


def frozen_parse_td(text, host, kind="tree"):
    """parse_td as it was before its one-pass reading of canonical numerals,
    frozen here as the oracle for the current parser.  Its helpers are the
    frozen copies in frozen_readers, so a rewrite of the parser's own helpers
    cannot change both sides."""
    if kind not in ("tree", "path"):
        raise FormatError(f"unknown decomposition kind {kind!r}")
    lines = content_lines(text)
    if not lines or lines[0][:2] != ["s", "td"] or len(lines[0]) != 5:
        raise FormatError("missing 's td <bags> <maxbagsize> <n>' header")
    try:
        r, maxbag, n = (int(t) for t in lines[0][2:])
    except ValueError:
        raise FormatError("non-numeric header fields") from None
    if n != host.n:
        raise FormatError(f"header announces {n} vertices, graph has {host.n}")
    if r < 1:
        raise FormatError("decomposition needs at least one bag")
    ranked = [-1, *host.vertices_sorted()]
    bags = {}
    tree_edges = []
    for tokens in lines[1:]:
        if tokens[0] == "b":
            if len(tokens) < 2:
                raise FormatError("bag line without an id")
            try:
                ident = int(tokens[1])
                members = list(map(int, tokens[2:]))
            except ValueError:
                raise FormatError(f"non-numeric bag line: {' '.join(tokens)!r}") from None
            if not 1 <= ident <= r:
                raise FormatError(f"bag id {ident} out of range 1..{r}")
            if ident in bags:
                raise FormatError(f"duplicate bag id {ident}")
            if members and (min(members) < 1 or max(members) > n):
                v = next(v for v in members if not 1 <= v <= n)
                raise FormatError(f"bag {ident} holds out-of-range vertex {v}")
            bags[ident] = frozenset(map(ranked.__getitem__, members))
        else:
            if len(tokens) != 2:
                raise FormatError(f"bad tree edge line: {' '.join(tokens)!r}")
            try:
                a, b = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise FormatError(f"non-numeric tree edge: {' '.join(tokens)!r}") from None
            if not (1 <= a <= r and 1 <= b <= r):
                raise FormatError(f"tree edge ({a}, {b}) out of range 1..{r}")
            tree_edges.append((a, b))
    if len(bags) != r:
        raise FormatError(f"header announces {r} bags, file has {len(bags)}")
    if len(tree_edges) != r - 1:
        raise FormatError(f"{r} bags need {r - 1} tree edges, file has {len(tree_edges)}")
    if maxbag != max(map(len, bags.values())):
        raise FormatError("header max bag size disagrees with the bags")
    frozen_check_tree_edges(tree_edges)
    if kind == "tree":
        tree = Graph(range(r), [(a - 1, b - 1) for a, b in tree_edges])
        return TreeDecomposition(host, tree, {u - 1: bag for u, bag in bags.items()})
    return PathDecomposition(host, [bags[u] for u in reachability_path_order(r, tree_edges)])


def python_only(token):
    """True for a token int() reads that is not a numeral."""
    try:
        int(token)
    except ValueError:
        return False
    return re.fullmatch(r"-?[0-9]+", token) is None


def parse_outcome(parse, text, host, kind):
    """(kind of the result, its bags, its tree edges) or the error's (type,
    message)."""
    try:
        d = parse(text, host, kind)
    except ToolError as exc:
        return type(exc), str(exc)
    return type(d), *tree_parts(d)


def assert_parses_as_frozen(text, host, kind):
    got = parse_outcome(parse_td, text, host, kind)
    want = parse_outcome(frozen_parse_td, text, host, kind)
    if got != want:
        # the one change: Python-only forms are refused as non-numeric
        assert got[0] is FormatError and re.match(r"non-numeric ", got[1]), (text, got, want)
        assert any(map(python_only, text.split())), (text, got)
    return got


def mutated(rng, text, n):
    """text with one body line changed: a token replaced by an unusual
    numeral, a member repeated, a bag emptied, the line repeated or
    dropped, or a bag id replaced by another line's second token."""
    lines = text.splitlines()
    i = 1 + rng.next_below(len(lines) - 1)
    tokens = lines[i].split()
    kind = rng.next_below(6)
    if kind == 0:
        odd = ["03", "0", str(n + 1), "-2", "-0", "x", "+3", "1_0", "٣", str(len(lines))]
        tokens[rng.next_below(len(tokens))] = odd[rng.next_below(len(odd))]
    elif kind == 1 and tokens[0] == "b" and len(tokens) > 2:
        tokens.append(tokens[2 + rng.next_below(len(tokens) - 2)])
    elif kind == 2 and tokens[0] == "b":
        del tokens[2:]
    elif kind == 3:
        lines.insert(i, lines[i])
    elif kind == 4:
        del lines[i]
        return "\n".join(lines) + "\n"
    elif tokens[0] == "b":
        tokens[1] = lines[1 + rng.next_below(len(lines) - 1)].split()[:2][-1]
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def with_a_cycle(text):
    """The .td text of r >= 4 bags with its tree edges replaced by a
    triangle on bags 1-3 and a path over bags 4..r: r - 1 distinct edges
    without loops that do not form a tree."""
    lines = text.splitlines()
    r = int(lines[0].split()[2])
    edges = [(1, 2), (2, 3), (1, 3), *((i, i + 1) for i in range(4, r))]
    return "\n".join(lines[:1 + r] + [f"{a} {b}" for a, b in edges]) + "\n"


class TestParseTdAgainstFrozenOracle:
    def test_seeded_round_trips_and_mutations(self):
        rng = SplitMix64(53)
        kinds_seen = set()
        for _ in range(120):
            n = 1 + rng.next_below(25)
            drawn = random_graph(rng, n, 1 + rng.next_below(9))
            g = Graph([2 * v + 5 for v in drawn.vertices],
                      [(2 * u + 5, 2 * v + 5) for u, v in drawn.edges])
            order = g.vertices_sorted()
            for i in range(n - 1, 0, -1):
                j = rng.next_below(i + 1)
                order[i], order[j] = order[j], order[i]
            for d in (elimination_decomposition(g, order), layout_decomposition(g, order)):
                text = format_td(d)
                for kind in ("tree", "path"):
                    kinds_seen.add(assert_parses_as_frozen(text, g, kind)[0])
                    for _ in range(3):
                        bad = mutated(rng, text, n)
                        kinds_seen.add(assert_parses_as_frozen(bad, g, kind)[0])
        assert {TreeDecomposition, PathDecomposition, FormatError} <= kinds_seen

    @pytest.mark.parametrize("kind", ["tree", "path"])
    @pytest.mark.parametrize("text", [
        "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n",
        "s td 2 2 3\nb 1 01 2\nb 02 2 003\n1 02\n",
        "s td 02 2 03\nb 1 1 2\nb 2 2 3\n01 2\n",
        "s td 2 2 3\nb 1 0 2\nb 2 2 3\n1 2\n",
        "s td 2 2 3\nb 1 1 2\nb 2 2 4\n1 2\n",
        "s td 2 2 3\nb 1 1 -2\nb 2 2 3\n1 2\n",
        "s td 2 2 3\nb 1 1 2 2 1\nb 2 2 3 3\n1 2\n",
        "s td 3 2 3\nb 1 1 2\nb 2\nb 3 2 3\n1 2\n2 3\n",
        "s td 2 2 3\nb 1 1 2\nb\nb 2 2 3\n1 2\n",
        "s td 2 2 3\nb 0 1 2\nb 2 2 3\n1 2\n",
        "s td 2 2 3\nb 3 1 2\nb 2 2 3\n1 2\n",
        "s td 2 2 3\nb -1 1 2\nb 2 2 3\n1 2\n",
        "s td 2 2 3\nb x 1 2\nb 2 2 3\n1 2\n",
        "s td 2 2 3\nb 1 1 2\nb 1 2 3\n1 2\n",
        "s td 2 2 3\nb 1 1 2\nb 1 2 4\n1 2\n",
        "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 3\n",
        "s td 2 2 3\nb 1 1 2\nb 2 2 3\n0 2\n",
        "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2 3\n",
        "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 +2\n",
        "s td 2 2 3\nb 1 1 2\nb 2 2 1_0\n1 2\n",
        "s td 9 2 3\nb 1 1 2\nb 7 2 3\n1 7\n",
    ])
    def test_hand_written(self, text, kind):
        assert_parses_as_frozen(text, path_graph(3), kind)


class TestReadersAgainstTwoPassOracles:
    """Written files with up to two lines mutated, or with their tree
    edges rewired around a cycle, read by the current readers and by the
    two-pass readers they replaced: the same value or the same error,
    Python-only forms included."""

    @staticmethod
    def mutations(rng, text, n):
        yield text
        for _ in range(4):
            bad = text
            for _ in range(1 + rng.next_below(2)):
                if bad.count("\n") > 1:
                    bad = mutated(rng, bad, n)
            yield bad

    def test_seeded_round_trips_and_mutations(self):
        rng = SplitMix64(61)
        seen = set()
        for _ in range(150):
            n = 1 + rng.next_below(14)
            g = random_graph(rng, n, 1 + rng.next_below(9))
            order = g.vertices_sorted()
            for text in self.mutations(rng, format_gr(g), n):
                got = parse_outcome_of(parse_gr, text)
                assert got == parse_outcome_of(frozen_parse_gr, text), text
                seen.add(("gr", Graph if got[0] is list else got[0]))
            for d in (elimination_decomposition(g, order), layout_decomposition(g, order)):
                texts = list(self.mutations(rng, format_td(d), n))
                if len(d.bags) >= 4:
                    texts.append(with_a_cycle(texts[0]))
                for text in texts:
                    for kind in ("tree", "path"):
                        got = parse_outcome(parse_td, text, g, kind)
                        assert got == parse_outcome(frozen_two_pass_parse_td, text, g, kind), text
                        seen.add(("td", got[0]))
        assert seen >= {("gr", Graph), ("gr", FormatError), ("td", TreeDecomposition),
                        ("td", PathDecomposition), ("td", FormatError), ("td", ParameterError)}


def path_order(r, tree_edges):
    """_path_order of the tree edges over the nodes 1..r, read as
    1-based nodes, as the reachability oracle reads and returns them."""
    adj = _tree_shape(r, [(a - 1, b - 1) for a, b in tree_edges])
    return [u + 1 for u in _path_order(adj)]


class TestPathOrderAgainstReachabilityOracle:
    def test_every_edge_list_up_to_six_nodes(self):
        """Every set of r - 1 distinct loop-free edges over 1..r, listed
        forwards and backwards, each edge either way round up to r = 5."""
        from itertools import combinations

        kinds = set()
        for r in range(1, 7):
            pairs = list(combinations(range(1, r + 1), 2))
            for edges in combinations(pairs, r - 1):
                for flip in range(1 << len(edges) if r <= 5 else 1):
                    lines = [(b, a) if flip >> i & 1 else (a, b) for i, (a, b) in enumerate(edges)]
                    for order in (lines, lines[::-1]):
                        got = parse_outcome_of(path_order, r, order)
                        assert got == parse_outcome_of(reachability_path_order, r, order)
                        kinds.add(got[0])
        assert kinds == {list, ParameterError, FormatError}


def parse_outcome_of(f, *args):
    try:
        return list, f(*args)
    except ToolError as exc:
        return type(exc), str(exc)


def rooted_outcome(parse, text, host):
    try:
        return parse(text, host, "tree")
    except ToolError as exc:
        return type(exc), str(exc)


def assert_rooted_as_frozen(text, host):
    """parse_td against the two-pass reader, on a tree: the same error, or
    the same tree and bags, rooted at node 0 with each node after its
    parent and one tree edge per parent pair, and the same validate
    report."""
    got = rooted_outcome(parse_td, text, host)
    want = rooted_outcome(frozen_two_pass_parse_td, text, host)
    if not isinstance(want, TreeDecomposition):
        assert got == want, text
        return got[0]
    assert got.tree == want.tree and dict(got.bags) == dict(want.bags), text
    assert got._root == 0
    assert_rooting(got)
    assert validate(host, got) == validate(host, want) == frozen_validate(host, want)
    return TreeDecomposition


class TestRootedTreesAgainstFrozenReaders:
    """parse_td builds the tree from the edges it checked and roots it with
    its own walk; the frozen readers build it through TreeDecomposition."""

    @settings(max_examples=150, deadline=None)
    @given(td_inputs())
    def test_fuzz_corpus(self, text_and_host):
        assert_rooted_as_frozen(*text_and_host)

    def test_solver_certificates_and_their_mutations(self):
        rng = SplitMix64(71)
        kinds = set()
        for _ in range(60):
            n = 1 + rng.next_below(14)
            g = random_graph(rng, n, 1 + rng.next_below(9))
            order = g.vertices_sorted()
            for i in range(n - 1, 0, -1):
                j = rng.next_below(i + 1)
                order[i], order[j] = order[j], order[i]
            for d in (exact_treewidth(g).certificate, elimination_decomposition(g, order),
                      layout_decomposition(g, order)):
                text = format_td(d)
                kinds.add(assert_rooted_as_frozen(text, g))
                for _ in range(3):
                    if text.count("\n") > 1:
                        kinds.add(assert_rooted_as_frozen(mutated(rng, text, n), g))
        assert kinds == {TreeDecomposition, FormatError}

    def test_every_tree_on_up_to_six_nodes(self):
        """Every set of r - 1 distinct loop-free tree edges over 1..r, so
        every tree and every disconnected edge list, under one bag per node."""
        from itertools import combinations

        g = path_graph(2)
        kinds = set()
        for r in range(1, 7):
            bags = [f"b {i} {1 + i % 2}" for i in range(1, r + 1)]
            for edges in combinations(combinations(range(1, r + 1), 2), r - 1):
                lines = [f"s td {r} 1 2", *bags, *(f"{b} {a}" for a, b in edges)]
                kinds.add(assert_rooted_as_frozen("\n".join(lines) + "\n", g))
        assert kinds == {TreeDecomposition, ParameterError}


def test_readers_build_no_graph_through_its_checks(monkeypatch):
    """A successful read builds the graph and the tree from what the reader
    checked, so Graph.__init__ never runs."""
    g = random_graph(SplitMix64(5), 12, 4)
    d = exact_treewidth(g).certificate
    texts = format_gr(g), format_td(d), format_td(exact_pathwidth(g).certificate)
    calls = []
    init = Graph.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", spy)
    assert parse_gr(texts[0]) == g
    assert tree_parts(parse_td(texts[1], g)) == tree_parts(d)
    assert parse_td(texts[2], g, "path").bags == exact_pathwidth(g).certificate.bags
    assert parse_td("s td 1 0 12\nb 1\n", g).tree.n == 1
    assert calls == []
