"""The solver layer in exact.py against the bare subset-DP kernels.

The oracle is the kernel called directly on the whole graph's masks;
`exact_treewidth` and `exact_pathwidth` reduce, split and bound first,
so their values must still equal the kernel's, their certificates must
validate at exactly that width, and every tree-width lower witness must
replay to a minor whose minimum degree is the value.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from twpw import exact, kernels
from twpw.decomposition import is_valid, width
from twpw.errors import InconsistencyError
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
from twpw.minors import (
    MinorScript,
    apply_minor_script,
    format_minor_script,
    parse_minor_script,
)


# the bare kernels, bound before the kernel_calls fixture can replace the
# module attributes, so oracle calls are not counted as solver calls
BARE_TW, BARE_PW = kernels.treewidth_dp, kernels.pathwidth_dp

# a 4-cycle 0-1-2-3 with a roof vertex 4 over the edge 2-3
HOUSE = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4)])


def atlas():
    return [from_networkx(h) for h in nx.graph_atlas_g()]


def min_degree(g):
    return min(map(g.degree, g.vertices))


def assert_lower_witness(report, g):
    """A "bounds" report carries a witness that replays from g to a minor
    of minimum degree equal to the value; any other report carries none."""
    assert (report.method == exact.METHOD_BOUNDS) == (report.lower_witness is not None)
    if report.lower_witness is not None:
        assert min_degree(apply_minor_script(g, report.lower_witness)) == report.value


def assert_matches_kernel(g):
    masks = g.masks()
    for solve, oracle in ((exact_treewidth, BARE_TW), (exact_pathwidth, BARE_PW)):
        report = solve(g)
        expected = oracle(masks)[0]
        assert report.value == expected, (solve.__name__, g.n, g.edges_sorted())
        assert is_valid(g, report.certificate)
        assert width(report.certificate) == expected
        assert_lower_witness(report, g)


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


def assert_bounds_enclose(g):
    """lo <= tw <= hi from the bound helpers on g's masks; the min-fill
    order certifies hi and the minor-min-width steps replay to a minor of
    minimum degree lo."""
    masks, ids = g.masks(), g.vertices_sorted()
    tw = BARE_TW(masks)[0]
    hi, order = exact._min_fill(masks)
    lo, steps = exact._minor_min_width(masks)
    assert lo <= tw <= hi, (g.n, g.edges_sorted(), lo, tw, hi)
    if not g.n:
        return
    w = width(exact.elimination_decomposition(g, [ids[i] for i in order]))
    assert w == hi
    minor = apply_minor_script(g, exact._lower_witness(ids, list(range(g.n)), steps))
    assert min_degree(minor) == lo


def bound_families():
    """Connected graphs of 9 to 16 vertices: cycles, grids, seeded graphs."""
    rng = SplitMix64(17)
    graphs = [cycle_graph(n) for n in range(9, 17)]
    graphs += [grid_graph(3, 3), grid_graph(3, 4), grid_graph(4, 4), grid_graph(3, 5)]
    graphs += [random_graph(rng, n, p) for n in range(9, 17) for p in (3, 5)]
    return [g for g in graphs if is_connected(g)]


class TestBounds:
    def test_bounds_enclose_treewidth_on_every_atlas_graph(self):
        for g in atlas():
            assert_bounds_enclose(g)

    def test_bounds_enclose_treewidth_on_seeded_graphs(self):
        for g in seeded_graphs():
            assert_bounds_enclose(g)

    @pytest.mark.parametrize("g", [cycle_graph(9), grid_graph(3, 3)], ids=["C9", "grid3x3"])
    def test_settled_without_the_kernel(self, g, kernel_calls):
        report = exact_treewidth(g)
        assert report.value == BARE_TW(g.masks())[0]
        assert report.method == "bounds"
        assert kernel_calls["tw"] == []
        assert_lower_witness(report, g)

    def test_every_witness_replays(self):
        reports = [(exact_treewidth(g), g) for g in bound_families() + seeded_graphs()]
        assert sum(r.method == "bounds" for r, _ in reports) >= 10
        assert any(r.method == "subset-DP" for r, _ in reports)
        for report, g in reports:
            assert report.value == BARE_TW(g.masks())[0]
            assert_lower_witness(report, g)
            if report.lower_witness is not None:
                text = format_minor_script(report.lower_witness)
                assert parse_minor_script(text) == report.lower_witness

    def test_witness_follows_the_ids_of_contracted_vertices(self):
        # the ids of the graph are not 0..n-1, and the contractions name
        # each merged vertex one more than the largest id left
        g = Graph([v * 3 + 5 for v in range(9)],
                  [(v * 3 + 5, (v + 1) % 9 * 3 + 5) for v in range(9)]
                  + [(5, 17), (8, 20)])
        report = exact_treewidth(g)
        assert report.method == "bounds"
        assert any(step[0] == "c" for step in report.lower_witness.steps)
        assert_lower_witness(report, g)

    def test_peeled_clique_is_the_witness_when_it_sets_the_value(self, kernel_calls):
        # a 9-cycle beside a K5: the K5 is peeled with degree 4 > tw(C9)
        k5 = [(a, b) for a in range(20, 25) for b in range(a + 1, 25)]
        g = Graph([*range(9), *range(20, 25)],
                  [(v, (v + 1) % 9) for v in range(9)] + k5)
        report = exact_treewidth(g)
        assert (report.value, report.method) == (4, "bounds")
        assert kernel_calls["tw"] == []
        assert all(step[0] == "dv" for step in report.lower_witness.steps)
        assert apply_minor_script(g, report.lower_witness) == Graph(range(20, 25), k5)
        assert_lower_witness(report, g)

    def test_kernel_decides_when_the_bounds_leave_a_gap(self, kernel_calls):
        g = dense_graph()
        lo, hi = exact._minor_min_width(g.masks())[0], exact._min_fill(g.masks())[0]
        assert lo < hi
        report = exact_treewidth(g)
        assert (report.method, report.lower_witness) == ("subset-DP", None)
        assert kernel_calls["tw"] == [14]

    def test_small_components_skip_the_bounds(self, kernel_calls):
        # C8 would be settled by the bounds, but 8 vertices go to the kernel
        report = exact_treewidth(cycle_graph(8))
        assert (report.value, report.method, report.lower_witness) == (2, "subset-DP", None)
        assert kernel_calls["tw"] == [8]

    def test_path_width_stays_on_the_kernel(self, kernel_calls):
        report = exact_pathwidth(cycle_graph(9))
        assert (report.method, report.lower_witness) == ("subset-DP", None)
        assert kernel_calls["pw"] == [9]

    def test_a_witness_that_does_not_replay_is_an_inconsistency(self, monkeypatch):
        monkeypatch.setattr(exact, "_lower_witness",
                            lambda ids, keep, steps: MinorScript((("c", 0, 4),)))
        with pytest.raises(InconsistencyError, match="does not replay"):
            exact_treewidth(grid_graph(3, 3))

    def test_a_witness_below_the_value_is_an_inconsistency(self, monkeypatch):
        # the 3x3 grid itself has minimum degree 2 < tw = 3
        monkeypatch.setattr(exact, "_lower_witness", lambda ids, keep, steps: MinorScript(()))
        with pytest.raises(InconsistencyError, match="does not reach"):
            exact_treewidth(grid_graph(3, 3))
