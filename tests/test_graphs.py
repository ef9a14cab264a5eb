import pytest
from hypothesis import given, strategies as st

from twpw import unary
from twpw.errors import CapabilityError, ParameterError
from twpw.graphs import (
    GRAPH_MAX_EDGES,
    GRAPH_MAX_VERTICES,
    Graph,
    caterpillar_example,
    complete_bipartite_graph,
    complete_graph,
    components_within,
    connected_components,
    cycle_graph,
    empty_graph,
    fresh_id,
    generate,
    generator_names,
    grid_graph,
    incidence_star_example,
    is_connected,
    is_forest,
    is_tree,
    isolated_graph,
    max_degree,
    path_graph,
    star_graph,
)
from twpw.harness import SplitMix64, random_graph

from smallgraphs import induced_subgraph


def edge_set(pairs):
    return frozenset(frozenset(p) for p in pairs)


class TestGraphBasics:
    def test_vertices_and_edges_normalize(self):
        g = Graph([2, 0, 1], [(1, 0), (2, 1)])
        assert g.vertices_sorted() == [0, 1, 2]
        assert g.edges_sorted() == [(0, 1), (1, 2)]
        assert g.n == 3 and g.m == 2

    def test_equality_ignores_construction_order(self):
        a = Graph([0, 1, 2], [(0, 1), (1, 2)])
        b = Graph([2, 1, 0], [(2, 1), (1, 0)])
        assert a == b
        assert hash(a) == hash(b)

    def test_loops_rejected(self):
        with pytest.raises(ParameterError):
            Graph([0], [(0, 0)])

    def test_edges_need_existing_vertices(self):
        with pytest.raises(ParameterError):
            Graph([0, 1], [(0, 2)])

    def test_negative_ids_rejected(self):
        with pytest.raises(ParameterError):
            Graph([-1, 0])

    def test_duplicate_edges_collapse(self):
        g = Graph([0, 1], [(0, 1), (1, 0)])
        assert g.m == 1

    def test_neighbors_and_degree(self):
        g = path_graph(4)
        assert g.neighbors(1) == frozenset({0, 2})
        assert g.degree(0) == 1
        assert g.degree(2) == 2

    def test_has_edge_is_symmetric(self):
        g = path_graph(3)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)


class TestMasksAndEquality:
    """Masks are computed once per graph and handed out as fresh lists;
    equality short-cuts only on the very same object."""

    def test_masks_are_fresh_lists_of_one_computation(self):
        g = Graph([2, 5, 9], [(2, 9), (5, 9)])
        first = g.masks()
        assert first == [0b100, 0b100, 0b011]
        first[2] = 0  # callers may change the list in place
        again = g.masks()
        assert again == [0b100, 0b100, 0b011] and again is not first

    def test_trusted_graphs_have_the_masks_of_the_checked_build(self):
        rng = SplitMix64(17)
        for n in range(1, 13):
            g = random_graph(rng, n, 4)
            checked = Graph(g.vertices, g.edges)
            for adj in (None, g.adjacency()):
                trusted = Graph._trusted(g.vertices, g.edges, adj)
                assert trusted.masks() == checked.masks()
                assert trusted.adjacency() == checked.adjacency()
                assert trusted == checked

    def test_rewritten_graphs_have_the_masks_of_the_checked_build(self):
        # delete_vertex, add_edge and the merge of contract_edge and
        # identify_vertices build their graphs with Graph._trusted
        g = Graph([0, 3, 4, 8], [(0, 3), (3, 4), (4, 8)])
        results = [unary.delete_vertex(g, 3), unary.add_edge(g, 0, 8),
                   unary.contract_edge(g, 3, 4), unary.identify_vertices(g, 0, 8)]
        for r in results:
            checked = Graph(r.graph.vertices, r.graph.edges)
            assert r.graph.masks() == checked.masks()
            assert r.graph == checked

    def test_equality_is_reflexive_and_separates_one_edge_or_vertex(self):
        g = grid_graph(3, 3)
        assert g == g and not g != g
        assert g == Graph(g.vertices, g.edges)
        one_edge_less = Graph(g.vertices, g.edges_sorted()[1:])
        one_vertex_more = Graph(g.vertices | {99}, g.edges)
        for other in (one_edge_less, one_vertex_more):
            assert g != other and other != g
            assert not g == other
        assert g != "not a graph"


class TestTraversal:
    def test_components_of_union(self):
        g = Graph(range(5), [(0, 1), (3, 4)])
        assert connected_components(g) == [
            frozenset({0, 1}),
            frozenset({2}),
            frozenset({3, 4}),
        ]

    def test_components_within_a_vertex_set(self):
        # the path 0-1-2-3-4 without 2, and a set that skips an isolated 5
        g = Graph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert components_within({0, 1, 3, 4}, g.adjacency()) == [
            frozenset({0, 1}),
            frozenset({3, 4}),
        ]
        assert components_within(set(), g.adjacency()) == []

    @given(st.integers(0, 2**32 - 1), st.integers(0, 9), st.integers(0, 2**9 - 1))
    def test_components_within_match_the_induced_subgraph(self, seed, n, keep):
        g = random_graph(SplitMix64(seed), n, 5)
        sub = {v for v in g.vertices if keep >> v & 1}
        assert components_within(sub, g.adjacency()) == connected_components(
            induced_subgraph(g, sub))

    def test_connected(self):
        assert is_connected(path_graph(5))
        assert not is_connected(Graph(range(2)))
        assert is_connected(empty_graph())

    def test_forest_and_tree(self):
        assert is_tree(path_graph(4))
        assert is_forest(Graph(range(3), [(0, 1)]))
        assert not is_tree(Graph(range(3), [(0, 1)]))
        assert not is_forest(cycle_graph(3))
        assert not is_tree(empty_graph())

    def test_fresh_id(self):
        assert fresh_id(empty_graph()) == 0
        assert fresh_id(Graph([0, 7])) == 8

    def test_max_degree(self):
        assert max_degree(star_graph(4)) == 4
        assert max_degree(Graph(range(3))) == 0
        assert max_degree(empty_graph()) == 0


class TestGenerators:
    def test_path(self):
        assert path_graph(1) == Graph([0])
        assert path_graph(4).edges_sorted() == [(0, 1), (1, 2), (2, 3)]

    def test_cycle(self):
        g = cycle_graph(4)
        assert g.m == 4
        assert all(g.degree(v) == 2 for v in g.vertices)
        with pytest.raises(ParameterError):
            cycle_graph(2)

    def test_complete(self):
        g = complete_graph(5)
        assert g.m == 10

    def test_star(self):
        g = star_graph(3)
        assert g.degree(0) == 3
        assert all(g.degree(v) == 1 for v in range(1, 4))

    def test_biclique(self):
        g = complete_bipartite_graph(2, 3)
        assert g.m == 6
        assert g.degree(0) == 3 and g.degree(2) == 2

    def test_grid(self):
        g = grid_graph(2, 3)
        assert g.n == 6 and g.m == 7
        assert g.has_edge(0, 1) and g.has_edge(0, 3)
        assert grid_graph(1, 1) == Graph([0])

    def test_caterpillar_shape(self):
        g = caterpillar_example()
        assert is_tree(g)
        assert sorted(g.degree(v) for v in g.vertices) == [1, 1, 1, 2, 2, 3]

    def test_spider_is_subdivided_star(self):
        g = incidence_star_example()
        assert is_tree(g)
        assert max_degree(g) == 3
        # three legs of two edges each hang off the degree-3 hub
        hub = next(v for v in g.vertices if g.degree(v) == 3)
        assert all(g.degree(v) <= 2 for v in g.vertices if v != hub)

    def test_generate_dispatch(self):
        assert generate("grid", 3, 3) == grid_graph(3, 3)
        assert generate("empty") == empty_graph()
        with pytest.raises(ParameterError):
            generate("grid", 3)
        with pytest.raises(ParameterError):
            generate("moebius", 5)

    def test_size_limits(self):
        assert isolated_graph(GRAPH_MAX_VERTICES).n == GRAPH_MAX_VERTICES
        with pytest.raises(CapabilityError):
            isolated_graph(GRAPH_MAX_VERTICES + 1)
        side = 1414  # the largest complete graph within GRAPH_MAX_EDGES
        assert side * (side - 1) // 2 <= GRAPH_MAX_EDGES < side * (side + 1) // 2
        with pytest.raises(CapabilityError):
            complete_graph(side + 1)
        with pytest.raises(CapabilityError):
            complete_bipartite_graph(1001, 1000)
        with pytest.raises(CapabilityError):
            grid_graph(400, 400)
        with pytest.raises(CapabilityError):
            path_graph(GRAPH_MAX_VERTICES + 1)
        with pytest.raises(CapabilityError):
            cycle_graph(GRAPH_MAX_VERTICES + 1)
        with pytest.raises(CapabilityError):
            star_graph(GRAPH_MAX_VERTICES)

    def test_generator_names_sorted(self):
        names = generator_names()
        assert names == sorted(names)
        assert {"path", "cycle", "complete", "grid", "ik13"} <= set(names)


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_random_graph_accessors_consistent(n, seed):
    from twpw.harness import SplitMix64, random_graph

    g = random_graph(SplitMix64(seed), n, 5)
    assert g.n == n
    assert sum(g.degree(v) for v in g.vertices) == 2 * g.m
    for u, v in g.edges_sorted():
        assert u < v
        assert v in g.neighbors(u) and u in g.neighbors(v)
