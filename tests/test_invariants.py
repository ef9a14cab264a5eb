from itertools import product

import networkx as nx
import pytest

from twpw.errors import CapabilityError
from twpw.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from twpw.harness import SplitMix64, random_graph
from twpw.invariants import (
    INVARIANT_MAX_VERTICES,
    chromatic_number,
    clique_number,
    graph_invariants,
    independence_number,
    vertex_connectivity,
)

from smallgraphs import all_graphs_up_to, to_networkx


def colorable(g, k):
    ids = g.vertices_sorted()
    for assignment in product(range(k), repeat=len(ids)):
        color = dict(zip(ids, assignment))
        if all(color[u] != color[v] for u, v in g.edges_sorted()):
            return True
    return False


def brute_chromatic(g):
    if g.n == 0:
        return 0
    k = 1
    while not colorable(g, k):
        k += 1
    return k


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(range(10), outer + inner + spokes)


class TestClosedForms:
    def test_complete(self):
        inv = graph_invariants(complete_graph(6))
        assert inv.clique_number == 6
        assert inv.independence_number == 1
        assert inv.chromatic_number == 6
        assert inv.vertex_connectivity == 5

    def test_cycle_odd(self):
        inv = graph_invariants(cycle_graph(5))
        assert inv.clique_number == 2
        assert inv.independence_number == 2
        assert inv.chromatic_number == 3
        assert inv.vertex_connectivity == 2

    def test_star(self):
        inv = graph_invariants(star_graph(5))
        assert inv.clique_number == 2
        assert inv.independence_number == 5
        assert inv.chromatic_number == 2
        assert inv.vertex_connectivity == 1

    def test_biclique(self):
        inv = graph_invariants(complete_bipartite_graph(3, 4))
        assert inv.clique_number == 2
        assert inv.independence_number == 4
        assert inv.chromatic_number == 2
        assert inv.vertex_connectivity == 3

    def test_petersen(self):
        inv = graph_invariants(petersen())
        assert inv.clique_number == 2
        assert inv.independence_number == 4
        assert inv.chromatic_number == 3
        assert inv.vertex_connectivity == 3

    def test_path(self):
        inv = graph_invariants(path_graph(6))
        assert inv.chromatic_number == 2
        assert inv.vertex_connectivity == 1

    def test_edgeless(self):
        inv = graph_invariants(Graph(range(4)))
        assert inv.clique_number == 1
        assert inv.independence_number == 4
        assert inv.chromatic_number == 1
        assert inv.vertex_connectivity == 0


class TestAgainstIndependentOracles:
    def test_small_graphs_match_networkx_and_brute_force(self):
        for g in all_graphs_up_to(5):
            if g.n == 0:
                continue
            h = to_networkx(g)
            cliques = max(len(c) for c in nx.find_cliques(h))
            assert clique_number(g) == cliques
            co = nx.complement(h)
            alpha = max(len(c) for c in nx.find_cliques(co)) if g.n else 0
            assert independence_number(g) == alpha
            assert chromatic_number(g) == brute_chromatic(g)
            assert vertex_connectivity(g) == nx.node_connectivity(h)

    def test_seeded_graphs_match_networkx(self):
        rng = SplitMix64(8)
        for _ in range(25):
            g = random_graph(rng, 6 + rng.next_below(3), (2, 5, 8)[rng.next_below(3)])
            h = to_networkx(g)
            assert clique_number(g) == max(len(c) for c in nx.find_cliques(h))
            assert vertex_connectivity(g) == nx.node_connectivity(h)
            assert chromatic_number(g) == brute_chromatic(g)

    def test_complement_duality(self):
        rng = SplitMix64(11)
        for _ in range(20):
            g = random_graph(rng, 1 + rng.next_below(8), 5)
            co_edges = [
                (u, v)
                for i, u in enumerate(g.vertices_sorted())
                for v in g.vertices_sorted()[i + 1:]
                if not g.has_edge(u, v)
            ]
            co = Graph(g.vertices, co_edges)
            assert clique_number(g) == independence_number(co)
            assert independence_number(g) == clique_number(co)


class TestGuard:
    def test_oversize_rejected(self):
        g = Graph(range(INVARIANT_MAX_VERTICES + 1))
        with pytest.raises(CapabilityError):
            graph_invariants(g)

    def test_limit_accepted(self):
        g = Graph(range(INVARIANT_MAX_VERTICES))
        assert graph_invariants(g).chromatic_number == 1
