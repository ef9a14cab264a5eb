"""The one-pass carriers against their frozen rescanning versions.

Every atlas graph up to seven vertices is carried with its optimal tree
and path certificates; the graph, the written decomposition and the claim
must match the oracle's.  A few hand-made decompositions add what the
certificates lack: bag members outside the graph, runs of empty bags and
marked nodes spread over a larger tree.
"""

from functools import lru_cache

import pytest

import frozen_carriers as frozen
from rooting import assert_rooting, path_to_tree
from smallgraphs import all_graphs_up_to
from twpw import binary, unary
from twpw.decomposition import (
    PathDecomposition,
    TreeDecomposition,
    remove_redundant_bags,
)
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.fileformats import format_td
from twpw.graphs import Graph, complete_graph, cycle_graph, path_graph
from twpw.harness import SplitMix64, random_graph, random_tree

KINDS = ("tree", "path")


@lru_cache(maxsize=1)
def certified_atlas():
    """(graph, tree certificate, path certificate) of every atlas graph."""
    return tuple(
        (g, exact_treewidth(g).certificate, exact_pathwidth(g).certificate)
        for g in all_graphs_up_to(7)
    )


def cases(kind, min_n=0):
    for g, tree, path in certified_atlas():
        if g.n >= min_n:
            yield g, tree if kind == "tree" else path


def outcome(call):
    """What a carrier gives: its graph, decomposition and claim (or the
    exception it raises), with the decomposition as bags, tree edges and,
    when its bags lie in the graph, its .td text.  A tree's rooting must
    fit its tree, since the walks that read it trust it."""
    try:
        res = call()
    except Exception as exc:  # the oracle's exception is part of its outcome
        return type(exc).__name__, str(exc)
    d = res.decomposition
    if d is None:
        return res.graph, None, res.claimed_bound
    tree = None
    if isinstance(d, TreeDecomposition):
        assert_rooting(d)
        tree = sorted(d.tree.edges)
    inside = all(bag <= res.graph.vertices for _, bag in d.bag_items())
    text = format_td(d) if inside else None
    return res.graph, type(d).__name__, d.bag_items(), tree, text, res.claimed_bound


def same(new, old, *args):
    assert outcome(lambda: new(*args)) == outcome(lambda: old(*args)), args


def spread_pairs(g):
    """(v, w) pairs from both ends of the sorted vertex order inward."""
    vs = g.vertices_sorted()
    return [(v, w) for v, w in zip(vs, reversed(vs)) if v < w]


@pytest.mark.parametrize("kind", KINDS)
def test_line_graph(kind):
    for g, d in cases(kind):
        same(unary.line_graph, frozen.line_graph, g, d)


@pytest.mark.parametrize("kind", KINDS)
def test_incidence_graph(kind):
    for g, d in cases(kind):
        same(unary.incidence_graph, frozen.incidence_graph, g, d)


@pytest.mark.parametrize("kind", KINDS)
def test_identify_vertices(kind):
    for g, d in cases(kind, min_n=2):
        for v, w in spread_pairs(g):
            same(unary.identify_vertices, frozen.identify_vertices, g, v, w, d)


@pytest.mark.parametrize("kind", KINDS)
def test_delete_vertex(kind):
    for g, d in cases(kind, min_n=1):
        for v in {min(g.vertices), max(g.vertices)}:
            same(unary.delete_vertex, frozen.delete_vertex, g, v, d)


@pytest.mark.parametrize("kind", KINDS)
def test_lexicographic_product_carries(kind):
    second = [path_graph(2), cycle_graph(3), Graph(range(2))]
    for i, (g, d) in enumerate(cases(kind)):
        same(binary.product, frozen.product, "lexicographic", g, second[i % 3], d)


@pytest.mark.parametrize("product_kind", binary.PRODUCT_KINDS)
def test_every_product_kind(product_kind):
    atlas = all_graphs_up_to(4)
    for g1 in atlas:
        for g2 in atlas:
            same(binary.product, frozen.product, product_kind, g1, g2)


@pytest.mark.parametrize("product_kind", binary.PRODUCT_KINDS)
def test_sparse_products_on_seeded_pairs(product_kind):
    # every kind is listed from the factors' class pairs; the result must be
    # the pairwise scan's graph, holding its edges in the same order.  The
    # kinds that join apart pairs are dense, so their factors keep to 12
    # vertices: the scan stays fast and the product under the size guard
    cap = 12 if product_kind in ("conormal", "symmetric-difference", "rejection") else 40
    rng = SplitMix64(29)
    sizes = [(cap, cap), (1, cap), (cap, 1)]
    sizes += [(1 + rng.next_below(cap), 1 + rng.next_below(cap)) for _ in range(3)]
    for n1, n2 in sizes:
        g1 = random_graph(rng, n1, 1 + rng.next_below(3))
        g2 = random_graph(rng, n2, 1 + rng.next_below(3))
        ours = binary.product(product_kind, g1, g2).graph
        theirs = frozen.product(product_kind, g1, g2).graph
        assert ours == theirs
        assert list(ours.edges) == list(theirs.edges)


def test_product_kinds_keep_their_order():
    assert binary.PRODUCT_KINDS == (
        "cartesian", "categorical", "conormal", "lexicographic", "normal",
        "symmetric-difference", "rejection")


@pytest.mark.parametrize("kind", KINDS)
def test_corona(kind):
    second = [(h, exact_treewidth(h).certificate, exact_pathwidth(h).certificate)
              for h in (Graph(), Graph(range(1)), path_graph(2), complete_graph(3))]
    for i, (g, d) in enumerate(cases(kind, min_n=1)):
        h, tree, path = second[i % len(second)]
        same(binary.corona, frozen.corona, g, h, d, tree if kind == "tree" else path)


# --- hand-made decompositions ------------------------------------------------


def test_bag_members_outside_the_graph():
    # node 2 holds only 9, a vertex the graph lacks; 8 rides along in node 0
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    tree = TreeDecomposition(g, Graph(range(4), [(0, 1), (1, 2), (1, 3)]),
                             {0: {0, 1, 3, 8}, 1: {1, 2, 3}, 2: {9}, 3: {3}})
    path = PathDecomposition(g, [{0, 1, 3, 8}, {1, 3, 9}, {1, 2, 3}, {3, 9}])
    for d in (tree, path):
        same(unary.line_graph, frozen.line_graph, g, d)
        same(unary.incidence_graph, frozen.incidence_graph, g, d)
        same(unary.identify_vertices, frozen.identify_vertices, g, 0, 2, d)
        for v in range(4):
            same(unary.delete_vertex, frozen.delete_vertex, g, v, d)
        same(binary.product, frozen.product, "lexicographic", g, path_graph(2), d)
    h = path_graph(2)
    same(binary.corona, frozen.corona, g, h, tree, exact_treewidth(h).certificate)
    # a member outside the graph contributes no edge ids to a line graph bag
    bags = unary.line_graph(g, tree).decomposition.bags
    assert bags[2] == frozenset() and bags[0] == frozenset({0, 1, 2, 3})


def _random_tree_decomposition(rng, g, nodes):
    """A tree over nodes ids 0, 2, 4, ... whose bags are single vertices,
    empty or unions of two of those: many become empty when a vertex goes,
    and each vertex is marked on nodes spread over the tree."""
    t = random_tree(rng, nodes)
    vs = g.vertices_sorted()
    bags = {}
    for u in range(nodes):
        draw = rng.next_below(3)
        picks = [vs[rng.next_below(len(vs))] for _ in range(draw)]
        bags[2 * u] = set(picks)
    tree = Graph([2 * u for u in range(nodes)], [(2 * a, 2 * b) for a, b in t.edges])
    return TreeDecomposition(g, tree, bags)


def test_random_trees_with_empty_and_scattered_bags():
    # neither rewrite needs a valid decomposition: the contractions only
    # read which bags are empty, the subtree only which nodes are marked
    rng = SplitMix64(15)
    for _ in range(60):
        g = path_graph(1 + rng.next_below(5))
        d = _random_tree_decomposition(rng, g, 1 + rng.next_below(25))
        for v in g.vertices_sorted():
            same(unary.delete_vertex, frozen.delete_vertex, g, v, d)
        for v, w in spread_pairs(g):
            same(unary.identify_vertices, frozen.identify_vertices, g, v, w, d)


def test_deleting_the_only_vertex_leaves_one_node():
    g = Graph(range(1))
    d = TreeDecomposition(g, Graph(range(5), [(0, 1), (1, 2), (1, 3), (3, 4)]),
                          {u: {0} if u % 2 else set() for u in range(5)})
    res = unary.delete_vertex(g, 0, d)
    assert res.decomposition.tree.n == 1
    same(unary.delete_vertex, frozen.delete_vertex, g, 0, d)


# --- redundant bags ----------------------------------------------------------


def slimmed(remove, d):
    """What remove gives on d: its tree edges and bags (or the exception
    it raises).  The rooting it keeps must fit its tree."""
    try:
        slim = remove(d)
    except Exception as exc:  # the oracle's exception is part of its outcome
        return type(exc).__name__, str(exc)
    assert_rooting(slim)
    return sorted(slim.tree.edges), slim.bag_items()


def same_slim(d):
    new = slimmed(remove_redundant_bags, d)
    assert new == slimmed(frozen.remove_redundant_bags, d), (d.bag_items(), sorted(d.tree.edges))


def _padded(rng, d):
    """d's tree with a node on every edge holding the two bags' common part
    or a copy of one of them, a leaf holding part of the bag under about
    half of the nodes, and every node renamed at random: many nested and
    equal bags, met in an order unrelated to the tree's."""
    nodes = d.tree.vertices_sorted()
    ids = list(range(3 * len(nodes)))
    for i in range(len(ids) - 1, 0, -1):
        j = rng.next_below(i + 1)
        ids[i], ids[j] = ids[j], ids[i]
    fresh = iter(ids)
    name = {u: next(fresh) for u in nodes}
    bags = {name[u]: d.bags[u] for u in nodes}
    edges = []
    for a, b in sorted(d.tree.edges):
        mid = next(fresh)
        bags[mid] = (d.bags[a] & d.bags[b], d.bags[a], d.bags[b])[rng.next_below(3)]
        edges += [(name[a], mid), (mid, name[b])]
    for u in nodes:
        if rng.next_below(2):
            leaf = next(fresh)
            bags[leaf] = frozenset(v for v in d.bags[u] if rng.next_below(2))
            edges.append((name[u], leaf))
    return TreeDecomposition(d.host, Graph(bags, edges), bags)


def test_remove_redundant_bags_of_every_certificate():
    for g, tree, path in certified_atlas():
        same_slim(tree)
        same_slim(path_to_tree(path))


def test_remove_redundant_bags_of_padded_trees():
    rng = SplitMix64(16)
    graphs = [g for g, _, _ in certified_atlas()[::7]]
    graphs += [random_graph(rng, n, p) for n in range(8, 13) for p in (2, 5, 8)]
    for g in graphs:
        for d in (exact_treewidth(g).certificate, path_to_tree(exact_pathwidth(g).certificate)):
            for _ in range(3):
                same_slim(_padded(rng, d))


def test_remove_redundant_bags_of_a_long_path():
    # every other bag of P200's path decomposition is nested in both neighbours
    g = path_graph(200)
    bags = [frozenset({i // 2}) if i % 2 == 0 else frozenset({i // 2, i // 2 + 1})
            for i in range(2 * g.n - 1)]
    d = path_to_tree(PathDecomposition(g, bags))
    same_slim(d)
    assert remove_redundant_bags(d).tree.n == g.n - 1


def test_remove_redundant_bags_refuses_an_invalid_tree():
    g = complete_graph(3)
    same_slim(TreeDecomposition(g, Graph([0, 1], [(0, 1)]), {0: {0, 1}, 1: {2}}))
