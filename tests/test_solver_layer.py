"""The solver layer in exact.py against the bare subset-DP kernels.

The oracle is the kernel called directly on the whole graph's masks;
`exact_treewidth` and `exact_pathwidth` reduce, split and bound first,
so their values must still equal the kernel's, their certificates must
validate at exactly that width, and every tree-width lower witness must
replay, as a lower witness for the value, to a graph whose minimum degree
is at least the value.
"""

import pytest
from hypothesis import given, settings, strategies as st

from twpw import exact, kernels
from twpw.decomposition import is_valid, width
from twpw.errors import FormatError, InconsistencyError, ScriptError
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.fileformats import format_td
from twpw.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
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
    replay_lower_witness,
)

from smallgraphs import all_graphs_up_to


# the bare kernels, bound before the kernel_calls fixture can replace the
# module attributes, so oracle calls are not counted as solver calls
BARE_TW, BARE_PW = kernels.treewidth_dp, kernels.pathwidth_dp

# a 4-cycle 0-1-2-3 with a roof vertex 4 over the edge 2-3
HOUSE = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4)])


def min_degree(g):
    return min(map(g.degree, g.vertices))


def improves(script):
    return any(step[0] == "a" for step in script.steps)


def assert_lower_witness(report, g):
    """A "bounds" report carries a witness that replays from g to a graph
    of minimum degree at least the value, and exactly the value when the
    witness adds no edge, so the graph left is a minor of g; any other
    report carries none."""
    assert (report.method == exact.METHOD_BOUNDS) == (report.lower_witness is not None)
    script = report.lower_witness
    if script is not None:
        degree = min_degree(replay_lower_witness(g, script, report.value))
        assert degree >= report.value if improves(script) else degree == report.value


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


def almost_simplicial_graphs():
    """Seeded graphs of 9 to 16 vertices, two per size and density 0.5
    or 0.8, whose last vertex is almost simplicial: it is joined to both
    ends of an edge and to a third vertex not adjacent to both."""
    rng = SplitMix64(41)
    graphs = []
    for n in range(9, 17):
        for p in (5, 8):
            for _ in range(2):
                base = random_graph(rng, n - 1, p)
                edges = base.edges_sorted()
                a, b = edges[rng.next_below(len(edges))]
                w = next(u for u in base.vertices_sorted() if u not in (a, b)
                         and not (base.has_edge(a, u) and base.has_edge(b, u)))
                graphs.append(Graph(range(n), edges + [(a, n - 1), (b, n - 1), (w, n - 1)]))
    return graphs


class TestAgainstKernel:
    def test_every_atlas_graph(self):
        for g in all_graphs_up_to(7):
            assert_matches_kernel(g)

    def test_seeded_graphs_up_to_sixteen_vertices(self):
        graphs = seeded_graphs()
        assert any(not is_connected(g) for g in graphs)
        assert any(is_connected(g) for g in graphs)
        for g in graphs:
            assert_matches_kernel(g)

    def test_seeded_graphs_with_almost_simplicial_vertices(self, monkeypatch):
        # how many vertices the peel removed from each component that the
        # bounds left unsettled
        removed = []
        peel = exact._peel

        def spy(adj, bound=-1):
            out = peel(adj, bound)
            if bound >= 0:
                removed.append(len(out[0]))
            return out

        monkeypatch.setattr(exact, "_peel", spy)
        for g in almost_simplicial_graphs():
            assert_matches_kernel(g)
        assert sum(k > 0 for k in removed) >= 5

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


def test_peeling_the_masks_leaves_the_graph_alone():
    # _peel removes vertices from its list in place; the graph
    # hands out a fresh list of its cached masks each time
    g = HOUSE
    expected = exact_treewidth(Graph(g.vertices, g.edges))
    before = g.masks()
    peeled = g.masks()
    exact._peel(peeled)
    assert peeled != before
    assert g.masks() == before
    report = exact_treewidth(g)
    assert report.value == expected.value == 2
    assert report.certificate.bag_items() == expected.certificate.bag_items()


def test_simplicial_vertices():
    masks = HOUSE.masks()
    assert [v for v in range(5) if exact._eliminable(masks, v, -1)] == [4]
    assert not exact._eliminable(cycle_graph(4).masks(), 0, -1)
    assert exact._eliminable(Graph([0]).masks(), 0, -1)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Sizes of the masks each kernel is called on, per kernel."""
    calls = {"tw": [], "pw": []}
    tw, pw = kernels.treewidth_dp, kernels.pathwidth_dp

    def spy_tw(masks):
        calls["tw"].append(len(masks))
        return tw(masks)

    def spy_pw(masks, start=0):
        calls["pw"].append(len(masks))
        return pw(masks, start)

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
        removed, low, alive, _ = exact._peel(g.masks())
        assert (len(removed), low, alive) == (12, 1, 0)
        assert exact_treewidth(g).value == 1
        assert kernel_calls["tw"] == []

    def test_chordal_graph_is_fully_reduced(self, kernel_calls):
        # a fan: vertex 0 joined to every vertex of the path 1-2-...-9
        fan = Graph(range(10), [(0, v) for v in range(1, 10)]
                    + [(v, v + 1) for v in range(1, 9)])
        for g in (fan, complete_graph(16)):
            assert exact._peel(g.masks())[2] == 0
            assert_matches_kernel(g)
        assert kernel_calls["tw"] == []

    def test_reduced_graph_goes_to_the_kernel(self, kernel_calls):
        # the roof of the house is simplicial; the 4-cycle under it is not,
        # and the roof's triangle witnesses the degree it went with
        removed, low, alive, raised = exact._peel(HOUSE.masks())
        assert (removed, low, alive) == ([4], 2, 0b1111)
        assert exact._peel_witness(removed, *raised) == ([2, 3, 4], [])
        assert exact_treewidth(HOUSE).value == 2
        assert kernel_calls["tw"] == [4]

    def test_dense_graph_goes_to_the_kernel_whole(self, kernel_calls):
        g = dense_graph()
        masks = g.masks()
        assert exact._peel(list(masks))[0] == []
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


# K_{4,4} on 0-3 and 4-7: no vertex of it is almost simplicial
K44 = [(a, b) for a in range(4) for b in range(4, 8)]


class TestBoundedPeel:
    def test_almost_simplicial_vertex_goes_only_within_the_bound(self):
        # 8 sees 0, 1 and 4; 4 is adjacent to 0 and 1, which are not
        masks = Graph(range(9), K44 + [(0, 8), (1, 8), (4, 8)]).masks()
        assert [v for v in range(9) if exact._eliminable(masks, v, 3)] == [8]
        assert not any(exact._eliminable(masks, v, 2) for v in range(9))
        assert exact._peel(list(masks), 2) == ([], 2, 0b111111111, None)
        assert exact._peel(list(masks), 3) == ([8], 3, 0b11111111, None)

    def test_eliminable_names_the_vertex_it_goes_into(self):
        # 0 and 1 are both a w for 8, and the lowest is named
        masks = Graph(range(9), K44 + [(0, 8), (1, 8), (4, 8)]).masks()
        assert exact._eliminable(masks, 8, 3) == 1 << 0
        assert exact._eliminable(HOUSE.masks(), 4, -1) == 1 << 4
        assert exact._eliminable(cycle_graph(4).masks(), 0, -1) == 0

    def test_fill_joins_w_to_the_other_neighbors(self):
        masks = Graph(range(9), K44 + [(0, 8), (1, 8), (4, 8)]).masks()
        exact._peel(masks, 3)
        # 8 is contracted into 0 (or 1): the one missing pair is joined
        assert masks[:8] == Graph(range(8), K44 + [(0, 1)]).masks()

    def test_a_vertex_made_simplicial_by_fill_goes_next(self):
        # 9 sees 0, 1 and 4 and has degree 3 > 2; the fill of 8, which
        # sees 0 and 1 only, joins 0 and 1 and makes 9 simplicial
        masks = Graph(range(10), K44 + [(0, 8), (1, 8), (0, 9), (1, 9), (4, 9)]).masks()
        assert [v for v in range(10) if exact._eliminable(masks, v, 2)] == [8]
        # 9 raises the bound to 3 after 8 was contracted into 0: its
        # clique is one of the graph left by that contraction
        witness = (list(range(10)), [("c", 8, 0), ("dv", 2), ("dv", 3), ("dv", 5),
                                     ("dv", 6), ("dv", 7)])
        removed, low, alive, raised = exact._peel(masks, 2)
        assert (removed, low, alive) == ([8, 9], 3, 0b11111111)
        assert exact._peel_witness(removed, *raised) == witness
        assert masks[:8] == Graph(range(8), K44 + [(0, 1)]).masks()

    def test_a_component_the_peel_removes_is_settled_by_the_bound(self, kernel_calls):
        # lo = 6 < hi = 7, and every vertex goes with degree at most 6
        g = random_graph(SplitMix64(125), 9, 8)
        masks = g.masks()
        assert exact._peel(list(masks))[0] == []
        hi = exact._min_fill(masks)[0]
        lo, steps = exact._lower_bound(masks, hi)
        assert (lo, hi) == (6, 7)
        assert exact._peel(list(masks), lo)[1:] == (6, 0, None)
        report = exact_treewidth(g)
        assert (report.value, report.method) == (6, "bounds")
        assert kernel_calls["tw"] == []
        assert report.lower_witness == exact._lower_witness(g.vertices_sorted(), range(9), steps)
        assert_lower_witness(report, g)

    def test_a_clique_of_a_minor_is_the_witness_when_it_sets_the_value(self, kernel_calls):
        # lo = 4 < hi = 5; after three contractions the peel meets a
        # simplicial vertex of degree 5, so the graph left is K6
        g = random_graph(SplitMix64(158), 9, 5)
        masks = g.masks()
        hi = exact._min_fill(masks)[0]
        assert (exact._lower_bound(masks, hi)[0], hi) == (4, 5)
        witness = (list(range(9)), [("c", 4, 0), ("c", 5, 8), ("c", 3, 0)])
        removed, low, alive, raised = exact._peel(list(masks), 4)
        assert (low, alive, exact._peel_witness(removed, *raised)) == (5, 0, witness)
        report = exact_treewidth(g)
        assert (report.value, report.method) == (5, "bounds")
        assert kernel_calls["tw"] == []
        assert [step[0] for step in report.lower_witness.steps] == ["c", "c", "c"]
        left = apply_minor_script(g, report.lower_witness)
        assert (left.n, left.m) == (6, 15)
        assert_lower_witness(report, g)

    def test_the_kernel_sees_what_the_peel_leaves(self, kernel_calls):
        # lo = 5 < hi = 6; the peel with bound 5 eliminates 2, then 6
        g = random_graph(SplitMix64(77), 10, 5)
        masks = g.masks()
        assert exact._peel(list(masks))[0] == []
        hi = exact._min_fill(masks)[0]
        assert (exact._lower_bound(masks, hi)[0], hi) == (5, 6)
        assert exact._peel(list(masks), 5) == ([2, 6], 5, 0b1110111011, None)
        assert_matches_kernel(g)
        assert kernel_calls["tw"] == [8]
        assert exact_treewidth(g).method == "subset-DP"


class TestTieBreaks:
    def test_highest_simplicial_vertex_goes_first(self):
        removed, low, alive, raised = exact._peel(path_graph(5).masks())
        assert (removed, low, alive) == ([4, 3, 2, 1, 0], 1, 0)
        assert exact._peel_witness(removed, *raised) == ([3, 4], [])

    def test_components_by_lowest_vertex_highest_first(self):
        g = Graph(range(6), [(0, 5), (1, 3), (2, 4)])
        assert exact._components(g.masks(), 0b111111) == [0b10100, 0b1010, 0b100001]
        assert (exact._by_components(exact._pathwidth_above_bound, g.masks(), 0b111111)
                == (1, [4, 2, 3, 1, 5, 0], None))

    def test_connected_graph_keeps_the_kernel_layout(self):
        g = dense_graph()
        masks = g.masks()
        everything = (1 << g.n) - 1
        assert (exact._by_components(exact._pathwidth_above_bound, masks, everything)
                == (*kernels.pathwidth_dp(masks, exact._minor_min_width(masks)[0]), None))


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
        for g in all_graphs_up_to(7):
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
        assert any(r.lower_witness is not None and improves(r.lower_witness)
                   for r, _ in reports)
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


# 9 vertices without a simplicial vertex: minor-min-width gives 4 and
# min-fill 5, and minor-min-width on the 5-improved graph reaches 5
IMPROVABLE = random_graph(SplitMix64(75), 9, 5)


def improvable_seeded_graphs():
    """A seeded graph per size from 9 to 16 vertices and per density of
    the solve strata."""
    rng = SplitMix64(23)
    return [random_graph(rng, n, p) for n in range(9, 17) for p in (2, 5, 8)]


def lower_bound_witness(g, value):
    """g's improved-graph lower bound for value, replayed until just
    before its first edge addition: (steps, index of that step, graph then)."""
    steps = list(exact_treewidth(g).lower_witness.steps)
    i = next(i for i, step in enumerate(steps) if step[0] == "a")
    return steps, i, replay_lower_witness(g, MinorScript(tuple(steps[:i])), value)


class TestImprovedGraph:
    def test_joins_every_pair_with_enough_common_neighbors(self):
        # 2 and 3 share 4 and 5, 4 and 5 share 2 and 3; once they are
        # joined, 0 and 3 share 1 and 2, which a second pass joins
        g = Graph(range(6), [(0, 1), (0, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)])
        adj, steps = exact._improved(g.masks(), 2)
        assert steps[:3] == [("a", 2, 3), ("a", 4, 5), ("a", 0, 3)]
        assert replay_lower_witness(g, MinorScript(tuple(steps)), 2).masks() == adj
        assert exact._improved(g.masks(), 3) == (g.masks(), [])

    def test_improved_graphs_are_closed(self):
        for g in improvable_seeded_graphs()[::4]:
            for k in (2, 3, 4):
                adj, steps = exact._improved(g.masks(), k)
                assert replay_lower_witness(g, MinorScript(tuple(steps)), k).masks() == adj
                assert all((adj[u] & adj[v]).bit_count() < k
                           for u in range(g.n) for v in range(u + 1, g.n)
                           if not adj[u] >> v & 1)

    def test_lower_bound_never_exceeds_the_kernel(self):
        raised = 0
        for g in improvable_seeded_graphs():
            masks, ids = g.masks(), g.vertices_sorted()
            tw = BARE_TW(masks)[0]
            mmw = exact._minor_min_width(masks)[0]
            lo, steps = exact._lower_bound(masks, g.n)
            assert mmw <= lo <= tw, (g.n, g.edges_sorted(), mmw, lo, tw)
            raised += lo > mmw
            witness = exact._lower_witness(ids, list(range(g.n)), steps)
            assert min_degree(replay_lower_witness(g, witness, lo)) >= lo
            value, order, settled = exact._settle_component(masks)
            assert value == tw
            if settled is not None:
                assert width(exact.elimination_decomposition(g, order)) == tw
            report = exact_treewidth(g)
            assert report.value == tw
            assert_lower_witness(report, g)
        assert raised >= 4

    def test_settled_by_the_improved_graph(self, kernel_calls):
        masks = IMPROVABLE.masks()
        assert exact._peel(list(masks))[0] == []
        assert (exact._minor_min_width(masks)[0], exact._min_fill(masks)[0]) == (4, 5)
        report = exact_treewidth(IMPROVABLE)
        assert (report.value, report.method) == (5, "bounds")
        assert kernel_calls["tw"] == []
        assert improves(report.lower_witness)
        assert_lower_witness(report, IMPROVABLE)
        text = format_minor_script(report.lower_witness)
        assert "\na " in "\n" + text
        assert parse_minor_script(text) == report.lower_witness

    @pytest.mark.parametrize("case, message", [
        ("few", "common neighbors, fewer than 5"),
        ("adjacent", "already present"),
        ("missing", "not in graph"),
    ], ids=["too-few-common-neighbors", "adjacent-pair", "missing-vertex"])
    def test_a_tampered_edge_addition_is_an_inconsistency(self, case, message):
        steps, i, cur = lower_bound_witness(IMPROVABLE, 5)
        u = steps[i][1]
        if case == "few":
            v = next(v for v in cur.vertices_sorted() if v != u and not cur.has_edge(u, v)
                     and len(cur.neighbors(u) & cur.neighbors(v)) < 5)
        elif case == "adjacent":
            v = min(cur.neighbors(u))
        else:
            v = max(cur.vertices) + 1
        steps[i] = ("a", u, v)
        tampered = MinorScript(tuple(steps))
        with pytest.raises(ScriptError, match=message):
            replay_lower_witness(IMPROVABLE, tampered, 5)
        with pytest.raises(InconsistencyError, match="does not replay"):
            exact._check_lower_witness(IMPROVABLE, 5, tampered)

    def test_an_edge_addition_is_checked_against_the_value(self):
        # enough common neighbors for 5, not for 6
        script = exact_treewidth(IMPROVABLE).lower_witness
        with pytest.raises(InconsistencyError, match="does not replay"):
            exact._check_lower_witness(IMPROVABLE, 6, script)

    @pytest.mark.parametrize("text", ["a 1\n", "a 1 2 3\n", "a 1 x\n"],
                             ids=["one-id", "three-ids", "non-numeric-id"])
    def test_a_malformed_edge_addition_is_a_format_error(self, text):
        with pytest.raises(FormatError):
            parse_minor_script(text)


# the solve workload's strata: n = 10..14 at densities 0.2, 0.5 and 0.8
SOLVE_STRATA = tuple((n, p) for n in (10, 11, 12, 13, 14) for p in (2, 5, 8))


def test_kernel_calls_over_the_solve_strata(kernel_calls):
    """How many components reach the tree-width kernel over ten rounds of
    seeded graphs in the solve workload's strata.  The count depends only
    on the code, not on the host: 61 with minor-min-width alone as the
    lower bound, 49 with the graph improved once before contracting, 41
    with it improved again after every contraction, 40 once the peel
    shrinks the components the bounds leave unsettled, one of them to
    nothing."""
    rng = SplitMix64(1)
    for _ in range(10):
        for n, p in SOLVE_STRATA:
            exact_treewidth(random_graph(rng, n, p))
    assert len(kernel_calls["tw"]) == 40
