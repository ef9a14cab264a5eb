"""The solver layer in exact.py against the bare subset-DP kernels.

The oracle is the kernel called directly on the whole graph's masks;
`exact_treewidth` and `exact_pathwidth` reduce and split first, so
their values must still equal the kernel's and their certificates must
validate at exactly that width.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from twpw import exact, kernels
from twpw.decomposition import is_valid, width
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.fileformats import format_td
from twpw.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    from_networkx,
    grid_graph,
    is_connected,
    path_graph,
)
from twpw.harness import SplitMix64, random_graph, random_tree


# the bare kernels, bound before the kernel_calls fixture can replace the
# module attributes, so oracle calls are not counted as solver calls
BARE_TW, BARE_PW = kernels.treewidth_dp, kernels.pathwidth_dp

# a 4-cycle 0-1-2-3 with a roof vertex 4 over the edge 2-3
HOUSE = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4)])


def atlas():
    return [from_networkx(h) for h in nx.graph_atlas_g()]


def assert_matches_kernel(g):
    masks = g.masks()
    for solve, oracle in ((exact_treewidth, BARE_TW), (exact_pathwidth, BARE_PW)):
        report = solve(g)
        expected = oracle(masks)[0]
        got = -1 if report.value is None else report.value
        assert got == expected, (solve.__name__, g.n, g.edges_sorted())
        assert is_valid(g, report.certificate)
        w = width(report.certificate)
        assert (-1 if w is None else w) == expected


def seeded_graphs():
    rng = SplitMix64(6)
    return [random_graph(rng, n, p) for n in range(8, 17) for p in (2, 5, 8)]


class TestAgainstKernel:
    def test_every_atlas_graph(self):
        for g in atlas():
            assert_matches_kernel(g)

    def test_seeded_graphs_up_to_sixteen_vertices(self):
        graphs = seeded_graphs()
        assert any(not is_connected(g) for g in graphs)
        assert any(is_connected(g) for g in graphs)
        for g in graphs:
            assert_matches_kernel(g)

    def test_random_trees(self):
        rng = SplitMix64(11)
        for n in range(1, 17):
            assert_matches_kernel(random_tree(rng, n))

    @pytest.mark.parametrize("g", [Graph(range(16)), complete_graph(16),
                                   path_graph(16), grid_graph(4, 4)],
                             ids=["edgeless", "K16", "P16", "grid4x4"])
    def test_sixteen_vertex_families(self, g):
        assert_matches_kernel(g)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 11), st.sampled_from((2, 5, 8)))
def test_hypothesis_seeds_match_kernel(seed, n, p):
    assert_matches_kernel(random_graph(SplitMix64(seed), n, p))


def test_simplicial_vertices():
    masks = HOUSE.masks()
    assert [v for v in range(5) if exact._is_simplicial(masks, v)] == [4]
    assert not exact._is_simplicial(cycle_graph(4).masks(), 0)
    assert exact._is_simplicial(Graph([0]).masks(), 0)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Sizes of the masks each kernel is called on, per kernel."""
    calls = {"tw": [], "pw": []}
    tw, pw = kernels.treewidth_dp, kernels.pathwidth_dp

    def spy_tw(masks):
        calls["tw"].append(len(masks))
        return tw(masks)

    def spy_pw(masks):
        calls["pw"].append(len(masks))
        return pw(masks)

    monkeypatch.setattr(kernels, "treewidth_dp", spy_tw)
    monkeypatch.setattr(kernels, "pathwidth_dp", spy_pw)
    return calls


def dense_graph():
    g = random_graph(SplitMix64(3), 14, 5)
    assert is_connected(g)
    return g


class TestBranches:
    def test_tree_is_fully_reduced(self, kernel_calls):
        g = random_tree(SplitMix64(5), 12)
        removed, low, alive = exact._peel_simplicial(g.masks())
        assert (len(removed), low, alive) == (12, 1, 0)
        assert exact_treewidth(g).value == 1
        assert kernel_calls["tw"] == []

    def test_chordal_graph_is_fully_reduced(self, kernel_calls):
        # a fan: vertex 0 joined to every vertex of the path 1-2-...-9
        fan = Graph(range(10), [(0, v) for v in range(1, 10)]
                    + [(v, v + 1) for v in range(1, 9)])
        for g in (fan, complete_graph(16)):
            assert exact._peel_simplicial(g.masks())[2] == 0
            assert_matches_kernel(g)
        assert kernel_calls["tw"] == []

    def test_reduced_graph_goes_to_the_kernel(self, kernel_calls):
        # the roof of the house is simplicial; the 4-cycle under it is not
        assert exact._peel_simplicial(HOUSE.masks()) == ([4], 2, 0b1111)
        assert exact_treewidth(HOUSE).value == 2
        assert kernel_calls["tw"] == [4]

    def test_dense_graph_goes_to_the_kernel_whole(self, kernel_calls):
        g = dense_graph()
        masks = g.masks()
        assert exact._peel_simplicial(list(masks))[0] == []
        value, order = BARE_TW(masks)
        report = exact_treewidth(g)
        assert report.value == value
        assert kernel_calls["tw"] == [14]
        # nothing to remove or split: the kernel's own certificate
        kernel_cert = exact.elimination_decomposition(g, order)
        assert format_td(report.certificate) == format_td(kernel_cert)

    def test_components_go_to_the_kernel_one_by_one(self, kernel_calls):
        # an 8-vertex block without simplicial vertices, a 4-cycle, an
        # isolated vertex and a 3-vertex path
        block = random_graph(SplitMix64(119), 8, 5)
        assert is_connected(block)
        edges = list(block.edges) + [(10, 11), (11, 12), (12, 13), (13, 10)]
        edges += [(30, 31), (31, 32)]
        g = Graph([*range(8), 10, 11, 12, 13, 20, 30, 31, 32], edges)
        assert_matches_kernel(g)
        assert kernel_calls["tw"] == [4, 8]
        assert kernel_calls["pw"] == [3, 4, 8]


class TestTieBreaks:
    def test_highest_simplicial_vertex_goes_first(self):
        assert exact._peel_simplicial(path_graph(5).masks()) == ([4, 3, 2, 1, 0], 1, 0)

    def test_components_by_lowest_vertex_highest_first(self):
        g = Graph(range(6), [(0, 5), (1, 3), (2, 4)])
        assert exact._components(g.masks(), 0b111111) == [0b10100, 0b1010, 0b100001]
        value, layout = exact._by_components(kernels.pathwidth_dp, g.masks(), 0b111111)
        assert (value, layout) == (1, [4, 2, 3, 1, 5, 0])

    def test_connected_graph_keeps_the_kernel_layout(self):
        g = dense_graph()
        masks = g.masks()
        everything = (1 << g.n) - 1
        assert (exact._by_components(kernels.pathwidth_dp, masks, everything)
                == kernels.pathwidth_dp(masks))
