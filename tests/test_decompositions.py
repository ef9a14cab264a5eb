import math

import pytest
from hypothesis import given, settings, strategies as st

from twpw.decomposition import (
    PathDecomposition,
    TreeDecomposition,
    find_clique_bag,
    is_valid,
    path_to_tree,
    remove_redundant_bags,
    tree_path_decomposition,
    tree_to_path,
    trivial_path_decomposition,
    trivial_tree_decomposition,
    Violation,
    validate,
    width,
    width_within,
)
from twpw.errors import InconsistencyError, ParameterError
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.graphs import (
    Graph,
    caterpillar_example,
    complete_graph,
    cycle_graph,
    incidence_star_example,
    path_graph,
    star_graph,
)
from twpw.harness import SplitMix64, random_graph, random_tree


def spider_fixture():
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


def spider_path_fixture():
    g = incidence_star_example()
    bags = [frozenset({0, 1, 2}), frozenset({2, 5, 6}), frozenset({2, 3, 4})]
    return g, PathDecomposition(g, bags)


class TestWidth:
    def test_width_is_largest_bag_minus_one(self):
        g, d = spider_fixture()
        assert width(d) == 1
        g, d = spider_path_fixture()
        assert width(d) == 2

    def test_width_of_all_empty_bags_is_undefined(self):
        d = PathDecomposition(Graph(), [frozenset()])
        assert width(d) is None
        assert width_within(d, -1)

    def test_width_within(self):
        g, d = spider_path_fixture()
        assert width_within(d, 2)
        assert not width_within(d, 1)


class TestConstruction:
    def test_tree_shape_required(self):
        g = path_graph(2)
        bags = {0: frozenset({0}), 1: frozenset({1}), 2: frozenset({0, 1})}
        cyclic = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ParameterError):
            TreeDecomposition(g, cyclic, bags)

    def test_bag_keys_must_match_tree_nodes(self):
        g = path_graph(2)
        with pytest.raises(ParameterError):
            TreeDecomposition(g, Graph([0]), {1: frozenset({0, 1})})

    def test_at_least_one_bag(self):
        with pytest.raises(ParameterError):
            PathDecomposition(Graph(), [])

    def test_trivial_decompositions(self):
        g = cycle_graph(4)
        t = trivial_tree_decomposition(g)
        p = trivial_path_decomposition(g)
        assert is_valid(g, t) and is_valid(g, p)
        assert width(t) == width(p) == 3


class TestValidation:
    def test_spider_tree_decomposition_valid(self):
        g, d = spider_fixture()
        report = validate(g, d)
        assert report.valid and not report.violations

    def test_spider_path_decomposition_valid(self):
        g, d = spider_path_fixture()
        assert validate(g, d).valid

    def test_missing_vertex_flagged(self):
        g = path_graph(3)
        d = PathDecomposition(g, [frozenset({0, 1}), frozenset({1})])
        tags = [v.tag for v in validate(g, d).violations]
        assert "pw-1" in tags and "pw-2" in tags

    def test_missing_edge_flagged(self):
        g = complete_graph(3)
        d = PathDecomposition(g, [frozenset({0, 1}), frozenset({1, 2})])
        report = validate(g, d)
        assert [(v.tag, v.witness) for v in report.violations] == [
            ("pw-2", (0, 2))
        ]

    def test_broken_subtree_flagged(self):
        g = path_graph(3)
        tree = Graph(range(3), [(0, 1), (1, 2)])
        bags = {
            0: frozenset({0, 1}),
            1: frozenset({1, 2}),
            2: frozenset({0, 2}),
        }
        report = validate(g, TreeDecomposition(g, tree, bags))
        assert [v.tag for v in report.violations] == ["tw-3"]
        assert report.violations[0].witness == (0,)

    def test_noncontiguous_occurrence_flagged(self):
        g = path_graph(3)
        d = PathDecomposition(
            g, [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]
        )
        tags = [v.tag for v in validate(g, d).violations]
        assert "pw-3" in tags

    def test_foreign_vertex_in_bag_flagged(self):
        g = path_graph(2)
        d = PathDecomposition(g, [frozenset({0, 1, 9})])
        tags = [v.tag for v in validate(g, d).violations]
        assert "bag" in tags

    def test_host_mismatch_rejected(self):
        g, d = spider_fixture()
        with pytest.raises(ParameterError):
            validate(path_graph(3), d)


def scan_validate_tree(g, d):
    """The tree validator as it was before the vertex -> nodes index: one
    scan of every bag per host edge and per host vertex.  Frozen here as the
    oracle for the current validator's violation lists."""
    out = []
    for u, bag in d.bag_items():
        for v in sorted(bag - g.vertices):
            out.append(Violation("bag", (u, v)))
    covered = frozenset().union(*d.all_bags()) if d.all_bags() else frozenset()
    for v in sorted(g.vertices - covered):
        out.append(Violation("tw-1", (v,)))
    for u, v in g.edges_sorted():
        if not any(u in bag and v in bag for bag in d.all_bags()):
            out.append(Violation("tw-2", (u, v)))
    tree_adj = d.tree.adjacency()
    for v in sorted(g.vertices):
        nodes = {u for u, bag in d.bags.items() if v in bag}
        if len(nodes) <= 1:
            continue
        start = min(nodes)
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in tree_adj[x]:
                if y in nodes and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if seen != nodes:
            out.append(Violation("tw-3", (v,)))
    return out


def scan_validate_path(g, d):
    """The path validator before the index, frozen as an oracle."""
    out = []
    for i, bag in d.bag_items():
        for v in sorted(bag - g.vertices):
            out.append(Violation("bag", (i, v)))
    covered = frozenset().union(*d.bags)
    for v in sorted(g.vertices - covered):
        out.append(Violation("pw-1", (v,)))
    for u, v in g.edges_sorted():
        if not any(u in bag and v in bag for bag in d.bags):
            out.append(Violation("pw-2", (u, v)))
    for v in sorted(g.vertices):
        idxs = [i for i, bag in enumerate(d.bags) if v in bag]
        if idxs and idxs[-1] - idxs[0] + 1 != len(idxs):
            out.append(Violation("pw-3", (v,)))
    return out


def corrupt(rng, g, bags):
    """Apply one to three seeded corruptions to a list of bags: add a vertex
    foreign to the host, drop a vertex, or add a host vertex to a bag that
    lacks it (which can break its subtree)."""
    bags = [set(bag) for bag in bags]
    hosts = g.vertices_sorted()
    for _ in range(1 + rng.next_below(3)):
        bag = bags[rng.next_below(len(bags))]
        kind = rng.next_below(3)
        if kind == 0:
            bag.update(g.n + rng.next_below(64) for _ in range(2))
        elif kind == 1 and bag:
            bag.discard(sorted(bag)[rng.next_below(len(bag))])
        else:
            bag.add(hosts[rng.next_below(len(hosts))])
    return bags


class TestValidatorAgainstScanOracle:
    def test_seeded_corruptions(self):
        rng = SplitMix64(31)
        tags = set()
        for _ in range(150):
            g = random_graph(rng, 3 + rng.next_below(8), (2, 5, 8)[rng.next_below(3)])
            td = exact_treewidth(g).certificate
            nodes = td.tree.vertices_sorted()
            bags = corrupt(rng, g, [td.bags[u] for u in nodes])
            bad_td = TreeDecomposition(g, td.tree, dict(zip(nodes, bags)))
            pd = exact_pathwidth(g).certificate
            bad_pd = PathDecomposition(g, corrupt(rng, g, pd.bags))
            for d, oracle in ((td, scan_validate_tree), (bad_td, scan_validate_tree),
                              (pd, scan_validate_path), (bad_pd, scan_validate_path)):
                got = list(validate(g, d).violations)
                assert got == oracle(g, d), (g, d.bag_items())
                tags.update(v.tag for v in got)
        assert tags == {"bag", "tw-1", "tw-2", "tw-3", "pw-1", "pw-2", "pw-3"}


class TestPathToTree:
    def test_path_becomes_spine(self):
        g, d = spider_path_fixture()
        t = path_to_tree(d)
        assert is_valid(g, t)
        assert width(t) == width(d)


class TestFindCliqueBag:
    def test_edge_clique(self):
        g, d = spider_fixture()
        assert find_clique_bag(d, {2, 5}) == 2

    def test_triangle_in_complete_graph(self):
        g = complete_graph(4)
        d = trivial_tree_decomposition(g)
        assert find_clique_bag(d, {0, 1, 2, 3}) == 0

    def test_lowest_bag_wins(self):
        g, d = spider_fixture()
        assert find_clique_bag(d, {2}) == 1

    def test_non_clique_rejected(self):
        g, d = spider_fixture()
        with pytest.raises(ParameterError):
            find_clique_bag(d, {0, 6})

    def test_every_clique_of_every_small_graph_lands_in_a_bag(self):
        from itertools import combinations

        from twpw.smallgraphs import all_graphs_up_to

        for g in all_graphs_up_to(5):
            if g.n == 0:
                continue
            d = exact_treewidth(g).certificate
            for size in (1, 2, 3):
                for c in combinations(g.vertices_sorted(), size):
                    if all(g.has_edge(u, v) for u, v in combinations(c, 2)):
                        find_clique_bag(d, c)  # raises if absent


class TestRedundantBags:
    def test_nested_bags_merge(self):
        g = path_graph(3)
        tree = Graph(range(3), [(0, 1), (1, 2)])
        bags = {
            0: frozenset({0, 1}),
            1: frozenset({1}),
            2: frozenset({1, 2}),
        }
        slim = remove_redundant_bags(TreeDecomposition(g, tree, bags))
        assert is_valid(g, slim)
        assert len(slim.bags) == 2
        assert width(slim) == 1

    def test_no_nested_pair_remains(self):
        g, d = spider_fixture()
        slim = remove_redundant_bags(d)
        items = list(slim.bags.values())
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                assert not (a <= b or b <= a)

    def test_invalid_input_rejected(self):
        g = complete_graph(3)
        bad = TreeDecomposition(
            g, Graph([0]), {0: frozenset({0, 1})}
        )
        with pytest.raises(ParameterError):
            remove_redundant_bags(bad)


def log3_bound(n):
    return math.ceil(math.log(2 * n + 1, 3))


class TestTreePathDecomposition:
    def test_single_vertex(self):
        d = tree_path_decomposition(path_graph(1))
        assert is_valid(path_graph(1), d)
        assert width(d) == 0

    def test_path_stays_narrow(self):
        for n in (2, 5, 9, 27):
            g = path_graph(n)
            d = tree_path_decomposition(g)
            assert is_valid(g, d)
            assert width(d) <= log3_bound(n)

    def test_star_and_caterpillar(self):
        for g in (star_graph(6), caterpillar_example(), incidence_star_example()):
            d = tree_path_decomposition(g)
            assert is_valid(g, d)
            assert width(d) <= log3_bound(g.n)

    def test_random_trees_meet_log_bound(self):
        rng = SplitMix64(99)
        for _ in range(60):
            n = 1 + rng.next_below(31)
            t = random_tree(rng, n)
            d = tree_path_decomposition(t)
            assert is_valid(t, d)
            assert width(d) <= log3_bound(n)

    def test_non_tree_rejected(self):
        with pytest.raises(ParameterError):
            tree_path_decomposition(cycle_graph(4))
        with pytest.raises(ParameterError):
            tree_path_decomposition(Graph(range(2)))


class TestTreeToPath:
    def test_spider_conversion(self):
        g, d = spider_fixture()
        p = tree_to_path(g, d)
        assert is_valid(g, p)
        # tw 1, n 7: (1+1)*(log3(15)+1)-1
        assert width(p) <= (1 + 1) * (math.log(15, 3) + 1) - 1 + 1e-9

    def test_random_graphs_meet_bound(self):
        rng = SplitMix64(5)
        for _ in range(40):
            g = random_graph(rng, 1 + rng.next_below(8), 5)
            rep = exact_treewidth(g)
            p = tree_to_path(g, rep.certificate)
            assert is_valid(g, p)
            bound = (rep.value + 1) * (math.log(2 * g.n + 1, 3) + 1) - 1
            assert (width(p) or 0) <= bound + 1e-9

    def test_invalid_input_rejected(self):
        g = complete_graph(3)
        bad = TreeDecomposition(g, Graph([0]), {0: frozenset({0, 1})})
        with pytest.raises(ParameterError):
            tree_to_path(g, bad)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_trivial_decompositions_always_valid(seed, n):
    g = random_graph(SplitMix64(seed), n, 5)
    assert is_valid(g, trivial_tree_decomposition(g))
    assert is_valid(g, trivial_path_decomposition(g))
