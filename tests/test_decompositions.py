import math

import pytest
from hypothesis import given, settings, strategies as st

from twpw import decomposition
from twpw.decomposition import (
    PathDecomposition,
    TreeDecomposition,
    is_valid,
    remove_redundant_bags,
    tree_path_decomposition,
    tree_to_path,
    trivial_path_decomposition,
    trivial_tree_decomposition,
    Violation,
    validate,
    width,
)
from twpw.errors import InconsistencyError, ParameterError, ToolError
from twpw.exact import (
    elimination_decomposition,
    exact_pathwidth,
    exact_treewidth,
    layout_decomposition,
)
from twpw.graphs import (
    Graph,
    caterpillar_example,
    complete_graph,
    cycle_graph,
    grid_graph,
    incidence_star_example,
    path_graph,
    star_graph,
)
from twpw.harness import SplitMix64, random_graph, random_tree

from frozen_validate import frozen_validate
from rooting import assert_rooting, path_to_tree
from smallgraphs import all_graphs_up_to


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
        assert width(d) == -1
        assert width(d) <= -1

    def test_width_within(self):
        g, d = spider_path_fixture()
        assert width(d) <= 2
        assert not width(d) <= 1


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

    def test_frozenset_bags_are_kept_by_identity(self):
        g = path_graph(3)
        a, b = frozenset({0, 1}), frozenset({1, 2})
        td = TreeDecomposition(g, path_graph(2), {0: a, 1: b})
        assert td.bags[0] is a and td.bags[1] is b
        pd = PathDecomposition(g, [a, b])
        assert pd.bags[0] is a and pd.bags[1] is b

    def test_other_bags_are_read_with_int(self):
        g = path_graph(3)

        def fresh():
            return [["0", True], {1, 2.0}, (v for v in ("2", False))]

        want = (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2}))
        pd = PathDecomposition(g, fresh())
        td = TreeDecomposition(g, path_graph(3), dict(zip(["0", True, 2], fresh())))
        for bags in (pd.bags, tuple(td.bags[u] for u in range(3))):
            assert bags == want
            assert all(type(bag) is frozenset for bag in bags)
            assert all(type(v) is int for bag in bags for v in bag)

    @pytest.mark.parametrize("foreign", [frozenset({0, 1, "2"}),
                                         frozenset({0, 1, 2.5, "x", None})])
    def test_frozenset_with_foreign_ids_is_a_bag_violation(self, foreign):
        g = path_graph(3)
        others = sorted(foreign - g.vertices, key=repr)
        for d in (TreeDecomposition(g, path_graph(2), {0: foreign, 1: frozenset({1, 2})}),
                  PathDecomposition(g, [foreign, frozenset({1, 2})])):
            assert d.bags[0] is foreign
            report = validate(g, d)
            assert not report.valid and not is_valid(g, d)
            assert [v.witness for v in report.violations if v.tag == "bag"] == [
                (0, v) for v in others]
            with pytest.raises(ToolError):
                tree_to_path(g, d if isinstance(d, TreeDecomposition) else path_to_tree(d))

    def test_trivial_decompositions(self):
        g = cycle_graph(4)
        t = trivial_tree_decomposition(g)
        p = trivial_path_decomposition(g)
        assert is_valid(g, t) and is_valid(g, p)
        assert width(t) == width(p) == 3


class TestRebag:
    def test_identity_keeps_the_shape_and_takes_the_new_host(self):
        g, d = spider_fixture()
        host = Graph(g.vertices, [])
        same = d.rebag(host, lambda bag: bag)
        assert type(same) is TreeDecomposition
        assert same.host is host
        assert same._parent is d._parent and same._root == d._root
        assert same.tree == d.tree
        assert dict(same.bags) == dict(d.bags)
        g, p = spider_path_fixture()
        same = p.rebag(host, lambda bag: bag)
        assert type(same) is PathDecomposition
        assert same.host is host
        assert same.bags == p.bags

    def test_every_bag_is_rewritten_in_place(self):
        g, d = spider_fixture()
        host = Graph(g.vertices | {7}, g.edges)
        grown = d.rebag(host, lambda bag: bag | {7})
        assert dict(grown.bags) == {u: bag | {7} for u, bag in d.bags.items()}
        g, p = spider_path_fixture()
        grown = p.rebag(host, lambda bag: bag | {7})
        assert grown.bags == tuple(bag | {7} for bag in p.bags)


class TestImmutability:
    def test_certificate_bags_cannot_be_reassigned(self):
        g = cycle_graph(5)
        tree_cert = exact_treewidth(g).certificate
        k = next(iter(tree_cert.bags))
        with pytest.raises(TypeError):
            tree_cert.bags[k] = frozenset({99})
        path_cert = exact_pathwidth(g).certificate
        with pytest.raises(TypeError):
            path_cert.bags[0] = frozenset({99})
        assert validate(g, tree_cert).valid and validate(g, path_cert).valid


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
    bags = [bag for _, bag in d.bag_items()]
    covered = frozenset().union(*bags)
    for v in sorted(g.vertices - covered):
        out.append(Violation("tw-1", (v,)))
    for u, v in g.edges_sorted():
        if not any(u in bag and v in bag for bag in bags):
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

    def test_seeded_corruptions_of_certify_family_certificates(self):
        rng = SplitMix64(37)
        for _ in range(2):
            for g in certify_family_graphs(rng):
                order = seeded_order(rng, g)
                td = elimination_decomposition(g, order)
                nodes = td.tree.vertices_sorted()
                bags = corrupt(rng, g, [td.bags[u] for u in nodes])
                bad_td = TreeDecomposition(g, td.tree, dict(zip(nodes, bags)))
                pd = layout_decomposition(g, order)
                bad_pd = PathDecomposition(g, corrupt(rng, g, pd.bags))
                for d, oracle in ((td, scan_validate_tree), (bad_td, scan_validate_tree),
                                  (pd, scan_validate_path), (bad_pd, scan_validate_path)):
                    assert list(validate(g, d).violations) == oracle(g, d)


class TestPathToTree:
    def test_path_becomes_spine(self):
        g, d = spider_path_fixture()
        t = path_to_tree(d)
        assert is_valid(g, t)
        assert width(t) == width(d)


class TestCliquesInBags:
    def test_every_clique_of_every_small_graph_lands_in_a_bag(self):
        from itertools import combinations

        for g in all_graphs_up_to(5, include_empty=False):
            d = exact_treewidth(g).certificate
            for size in (1, 2, 3):
                for c in combinations(g.vertices_sorted(), size):
                    if all(g.has_edge(u, v) for u, v in combinations(c, 2)):
                        assert any(set(c) <= bag for _, bag in d.bag_items())


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

    def test_foreign_host_rejected(self):
        d = exact_treewidth(cycle_graph(5)).certificate
        with pytest.raises(ParameterError, match="built for a different graph"):
            tree_to_path(path_graph(5), d)

    def test_validates_input_and_output_once_each(self, monkeypatch):
        calls = []

        def spy(g, d):
            calls.append((g, d))
            return validate(g, d)

        monkeypatch.setattr(decomposition, "validate", spy)
        g = cycle_graph(8)
        td = exact_treewidth(g).certificate
        pd = tree_to_path(g, td)
        assert len(calls) == 2
        assert calls[0][0] == g and calls[0][1] is td
        assert calls[1][0] == g and calls[1][1] is pd


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_trivial_decompositions_always_valid(seed, n):
    g = random_graph(SplitMix64(seed), n, 5)
    assert is_valid(g, trivial_tree_decomposition(g))
    assert is_valid(g, trivial_path_decomposition(g))


def pairwise_elimination_decomposition(g, order):
    """The elimination certificate as it was before the fill became one set
    union per neighbor: one Python step per pair of neighbors, and one bag
    per vertex.  Frozen here as the oracle for the current builder, which
    keeps only the bags that remove_redundant_bags leaves of these."""
    pos = {v: i for i, v in enumerate(order)}
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    bags = {}
    tree_edges = []
    roots = []
    for v in order:
        nb = adj.pop(v)
        bags[v] = frozenset(nb | {v})
        if nb:
            tree_edges.append((v, min(nb, key=pos.__getitem__)))
        else:
            roots.append(v)
        for a in nb:
            adj[a].discard(v)
        for a in nb:
            for b in nb:
                if a < b:
                    adj[a].add(b)
                    adj[b].add(a)
    tree_edges.extend(zip(roots, roots[1:]))
    return TreeDecomposition(g, Graph(g.vertices, tree_edges), bags)


def rescan_layout_decomposition(g, order):
    """The layout certificate as it was before the running boundary: the
    whole boundary recomputed for every placed vertex, and one bag per
    vertex.  Frozen here as the oracle for the current builder, which keeps
    only the bags not contained in their successor."""
    placed = set()
    bags = []
    for v in order:
        boundary = {u for u in placed if g.neighbors(u) - placed}
        bags.append(boundary | {v})
        placed.add(v)
    return PathDecomposition(g, bags)


def min_degree_order(g):
    """Greedy elimination order: always eliminate a vertex of least degree,
    ties to the smallest id."""
    adj = {v: set(nb) for v, nb in g.adjacency().items()}
    order = []
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        nb = adj.pop(v)
        for a in nb:
            adj[a].discard(v)
            adj[a].update(nb - {a})
        order.append(v)
    return order


def seeded_order(rng, g):
    order = g.vertices_sorted()
    for i in range(len(order) - 1, 0, -1):
        j = rng.next_below(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def gnp(rng, n, p):
    threshold = int(p * (1 << 64))
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)
                            if rng.next_u64() < threshold])


def caterpillar(rng, spine):
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(spine):
        for _ in range(rng.next_below(4)):
            edges.append((i, n))
            n += 1
    return Graph(range(n), edges)


def certify_family_graphs(rng):
    """One graph from each family of the certify benchmark workload."""
    yield gnp(rng, 40 + rng.next_below(61), 0.2)
    n = 100 + rng.next_below(101)
    yield gnp(rng, n, 3.0 / n)
    rows = 3 + rng.next_below(4)
    low, high = -(-40 // rows), 200 // rows
    yield grid_graph(rows, low + rng.next_below(high - low + 1))
    yield random_tree(rng, 40 + rng.next_below(161))
    yield caterpillar(rng, 20 + rng.next_below(41))


def assert_builders_match_oracles(g, order):
    """The builders against the one-bag-per-vertex oracles: the path keeps
    the oracle's bags less each one inside its successor, and the tree
    keeps the bags remove_redundant_bags leaves of the oracle's, with no
    tree edge between nested bags and a rooting that fits its tree."""
    td = elimination_decomposition(g, order)
    old_td = pairwise_elimination_decomposition(g, order)
    assert width(td) == width(old_td)
    slim = remove_redundant_bags(old_td)
    assert sorted(map(sorted, td.bags.values())) == sorted(map(sorted, slim.bags.values()))
    for u, p in td._parent.items():
        assert not (td.bags[u] <= td.bags[p] or td.bags[p] <= td.bags[u])
    assert_rooting(td)
    assert validate(g, td).valid
    pd = layout_decomposition(g, order)
    old_bags = rescan_layout_decomposition(g, order).bags
    assert width(pd) == max(map(len, old_bags)) - 1
    assert list(pd.bags) == [bag for bag, after in zip(old_bags, old_bags[1:] + (None,))
                             if after is None or not bag <= after]


class TestCertificateBuildersAgainstOracles:
    def test_every_atlas_graph(self):
        rng = SplitMix64(41)
        for g in all_graphs_up_to(7, include_empty=False):
            assert_builders_match_oracles(g, min_degree_order(g))
            assert_builders_match_oracles(g, seeded_order(rng, g))

    def test_seeded_certify_family_graphs(self):
        rng = SplitMix64(43)
        for _ in range(4):
            for g in certify_family_graphs(rng):
                assert_builders_match_oracles(g, min_degree_order(g))
                assert_builders_match_oracles(g, seeded_order(rng, g))

    def test_sparse_ids(self):
        g = Graph([3, 7, 20, 21, 40], [(3, 20), (20, 40), (7, 21), (3, 40)])
        assert_builders_match_oracles(g, [40, 3, 21, 20, 7])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 9))
def test_certificate_builders_match_oracles(seed, n, p):
    rng = SplitMix64(seed)
    g = random_graph(rng, n, p)
    assert_builders_match_oracles(g, seeded_order(rng, g))


def relabelled_tree(rng, k):
    """A random_tree on k nodes whose ids are spread over 0..3k-1, so the
    lowest node need not be 0 and node order differs from id order."""
    t = random_tree(rng, k)
    ids = sorted(seeded_order(rng, Graph(range(3 * k)))[:k])
    shuffled = seeded_order(rng, Graph(ids))
    return Graph(shuffled, [(shuffled[a], shuffled[b]) for a, b in t.edges])


def arbitrary_decomposition(rng):
    """A host graph and a tree- or path-decomposition whose bags are
    arbitrary subsets of the host's vertices and up to three foreign ids,
    so every axiom can fail, alone or together."""
    g = random_graph(rng, 1 + rng.next_below(7), (2, 5, 8)[rng.next_below(3)])
    pool = g.vertices_sorted() + [g.n + rng.next_below(4) for _ in range(rng.next_below(4))]
    k = 1 + rng.next_below(8)
    odds = 1 + rng.next_below(4)  # a member is kept with probability 1/odds
    bags = [frozenset(v for v in pool if not rng.next_below(odds)) for _ in range(k)]
    if rng.next_below(2):
        return g, PathDecomposition(g, bags)
    tree = relabelled_tree(rng, k)
    return g, TreeDecomposition(g, tree, dict(zip(tree.vertices_sorted(), bags)))


def top_nodes(d):
    """vertex -> the nodes holding it whose parent, in the tree rooted at
    its lowest node (bag i - 1 on a path), does not."""
    if isinstance(d, PathDecomposition):
        parent = {i: i - 1 for i in range(1, len(d.bags))}
    else:
        adj = d.tree.adjacency()
        root = min(d.tree.vertices)
        parent, stack = {root: None}, [root]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    stack.append(w)
    bags = dict(d.bag_items())
    tops = {}
    for u, bag in bags.items():
        above = bags[parent[u]] if parent.get(u) is not None else frozenset()
        for v in bag - above:
            tops.setdefault(v, []).append(u)
    return tops


def covered_away_from_a_top(g, d):
    """True when some edge uv is inside a bag, v has two or more top
    nodes, one of them does not hold u, and no top node of u holds v: a
    check that reads one top node per vertex can miss the cover there."""
    tops = top_nodes(d)
    bags = dict(d.bag_items())
    for a, b in g.edges:
        for u, v in ((a, b), (b, a)):
            if (len(tops.get(v, ())) > 1
                    and any(u in bag and v in bag for bag in bags.values())
                    and any(u not in bags[x] for x in tops[v])
                    and not any(v in bags[x] for x in tops.get(u, ()))):
                return True
    return False


def scan_validate(g, d):
    oracle = scan_validate_tree if isinstance(d, TreeDecomposition) else scan_validate_path
    return oracle(g, d)


class TestValidatorOnArbitraryBags:
    def test_every_tag_and_the_fallback_occur(self):
        rng = SplitMix64(53)
        tags, fallback = set(), 0
        for _ in range(400):
            g, d = arbitrary_decomposition(rng)
            got = list(validate(g, d).violations)
            assert got == scan_validate(g, d), (g.edges_sorted(), d.bag_items())
            tags.update(v.tag for v in got)
            fallback += covered_away_from_a_top(g, d)
        assert tags == {"bag", "tw-1", "tw-2", "tw-3", "pw-1", "pw-2", "pw-3"}
        assert fallback >= 20

    @pytest.mark.parametrize("bags", [
        [{0}, {0, 1}, {2}, {1}],  # 1 enters at bags 1 and 3, the edge is in bag 1
        [{1}, {2}, {0}, {0, 1}],  # 1 enters at bags 0 and 3, the edge is in bag 3
    ])
    def test_edge_covered_at_one_of_two_top_nodes(self, bags):
        g = Graph(range(3), [(0, 1)])
        bags = [frozenset(bag) for bag in bags]
        for d in (PathDecomposition(g, bags),
                  TreeDecomposition(g, path_graph(4), dict(enumerate(bags)))):
            tag = "pw" if isinstance(d, PathDecomposition) else "tw"
            assert covered_away_from_a_top(g, d)
            assert list(validate(g, d).violations) == [Violation(f"{tag}-3", (1,))]

    @pytest.mark.parametrize("tree", [
        Graph(range(3), [(0, 1), (1, 2), (0, 2)]),           # a cycle
        Graph(range(4), [(0, 1), (1, 2), (0, 2)]),           # n - 1 edges, not connected
        Graph(range(4), [(1, 2), (2, 3)]),                   # a forest, lowest node isolated
        Graph([2, 5, 9, 11], [(2, 5), (5, 9), (9, 2)]),     # sparse ids, a triangle and 11 alone
        Graph(range(5), [(0, 1), (2, 3), (3, 4), (4, 2)]),  # n - 1 edges, cycle elsewhere
    ])
    def test_non_trees_are_refused(self, tree):
        g = path_graph(2)
        bags = {u: frozenset({0, 1}) for u in tree.vertices}
        with pytest.raises(ParameterError, match="^decomposition nodes must form a tree$"):
            TreeDecomposition(g, tree, bags)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_validator_matches_scan_oracle_on_arbitrary_bags(seed):
    g, d = arbitrary_decomposition(SplitMix64(seed))
    assert list(validate(g, d).violations) == scan_validate(g, d)


class TestValidatorAgainstFrozenCheck:
    """validate against the form that counted every entry set, frozen in
    frozen_validate, which roots each tree at its lowest node itself."""

    def test_solver_certificates_of_every_atlas_graph(self):
        for g in all_graphs_up_to(6):
            for report in (exact_treewidth(g), exact_pathwidth(g)):
                d = report.certificate
                assert validate(g, d) == frozen_validate(g, d) == decomposition._VALID

    @pytest.mark.parametrize("bags, tags", [
        ([{0, 1}, {2, 3}, {1, 2}, {1}], ["3"]),   # 1 enters twice
        ([{0, 1}, {1, 2}, {2}, {2}], ["1", "2"]),  # 3 is in no bag, so 2-3 is bare
        ([{0, 1}, {2, 3}, {3}, {3}], ["2"]),      # the edge 1-2 is in no bag
        # 9 and 7 are foreign, 1-2 and 2-3 bare and 0 enters twice
        ([{0, 1, 9}, {2}, {0}, {3, 7}], ["bag", "bag", "2", "2", "3"]),
    ])
    def test_crafted_faults(self, bags, tags):
        g = path_graph(4)
        bags = [frozenset(bag) for bag in bags]
        for d in (PathDecomposition(g, bags),
                  TreeDecomposition(g, path_graph(4), dict(enumerate(bags)))):
            report = validate(g, d)
            assert report == frozen_validate(g, d)
            assert [v.tag.rpartition("-")[2] for v in report.violations] == tags
        star = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
        d = TreeDecomposition(g, star, dict(enumerate(bags)))
        assert validate(g, d) == frozen_validate(g, d)

    def test_faults_under_a_kept_rooting(self):
        # solver certificates keep the rooting they were built with, at the
        # last vertex eliminated, which need not be the lowest node
        rng = SplitMix64(59)
        tags, elsewhere = set(), 0
        for _ in range(200):
            g = random_graph(rng, 2 + rng.next_below(8), (2, 5, 8)[rng.next_below(3)])
            td = exact_treewidth(g).certificate
            bad = map(frozenset, corrupt(rng, g, list(td.bags.values())))
            bad_td = TreeDecomposition._rooted(g, dict(zip(td.bags, bad)),
                                               td._root, td._parent)
            elsewhere += td._root != min(td.tree.vertices)
            report = validate(g, bad_td)
            assert report == frozen_validate(g, bad_td)
            tags.update(v.tag for v in report.violations)
        assert tags == {"bag", "tw-1", "tw-2", "tw-3"}
        assert elsewhere >= 10

    def test_arbitrary_bags_under_every_rooting(self):
        rng = SplitMix64(67)
        for _ in range(300):
            g, d = arbitrary_decomposition(rng)
            expected = frozen_validate(g, d)
            if isinstance(d, PathDecomposition):
                assert validate(g, d) == expected
                continue
            adj = d.tree.adjacency()
            for root in d.tree.vertices:
                parent, walk = {root: root}, [root]
                for u in walk:
                    for w in sorted(adj[u]):
                        if w not in parent:
                            parent[w] = u
                            walk.append(w)
                del parent[root]
                rerooted = TreeDecomposition._rooted(g, dict(d.bags), root, parent)
                assert validate(g, rerooted) == expected
