import time

import pytest

from twpw import unary
from twpw.decomposition import is_valid, width
from twpw.errors import ParameterError
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.graphs import (
    Graph,
    caterpillar_example,
    complete_graph,
    cycle_graph,
    incidence_star_example,
    is_isomorphic,
    max_degree,
    path_graph,
    star_graph,
)
from twpw.harness import SplitMix64, random_graph
from twpw.smallgraphs import all_graphs_up_to


def certs(g):
    t = exact_treewidth(g)
    p = exact_pathwidth(g)
    return t.value, p.value, t.certificate, p.certificate


def check_carried(host, carried, table=None):
    assert is_valid(host, carried.decomposition)
    w = width(carried.decomposition)
    assert (-1 if w is None else w) <= carried.claimed_bound
    if table is not None:
        assert carried.claimed_bound <= table


class TestVertexSurgery:
    def test_delete_vertex_from_triangle(self):
        res = unary.delete_vertex(complete_graph(3), 2)
        assert res.graph == complete_graph(2)
        assert res.vertex_map == {0: 0, 1: 1}
        assert exact_treewidth(res.graph).value == 1

    def test_delete_missing_vertex(self):
        with pytest.raises(ParameterError):
            unary.delete_vertex(path_graph(2), 7)

    def test_add_vertex_fresh_id(self):
        res = unary.add_vertex(path_graph(3), [0, 2])
        assert res.new_ids == frozenset({3})
        assert res.graph.has_edge(3, 0) and res.graph.has_edge(3, 2)

    def test_add_vertex_explicit_id(self):
        res = unary.add_vertex(path_graph(2), [0], v=9)
        assert res.graph.edges_sorted() == [(0, 1), (0, 9)]

    def test_pendant_keeps_treewidth(self):
        g = caterpillar_example()
        res = unary.add_vertex(g, [5])
        assert is_isomorphic(res.graph, incidence_star_example())
        assert exact_treewidth(res.graph).value == 1

    def test_pendant_can_raise_pathwidth(self):
        g = caterpillar_example()
        assert exact_pathwidth(g).value == 1
        res = unary.add_vertex(g, [5])
        assert exact_pathwidth(res.graph).value == 2

    def test_identify_path_ends_makes_triangle(self):
        res = unary.identify_vertices(path_graph(4), 0, 3)
        assert is_isomorphic(res.graph, complete_graph(3))
        assert res.vertex_map[0] == res.vertex_map[3]
        assert exact_treewidth(res.graph).value == 2

    def test_contract_clique_edge(self):
        res = unary.contract_edge(complete_graph(5), 0, 1)
        assert is_isomorphic(res.graph, complete_graph(4))
        assert exact_treewidth(res.graph).value == 3

    def test_contract_requires_edge(self):
        with pytest.raises(ParameterError):
            unary.contract_edge(path_graph(3), 0, 2)

    def test_identify_requires_distinct(self):
        with pytest.raises(ParameterError):
            unary.identify_vertices(path_graph(3), 1, 1)


class TestEdgeSurgery:
    def test_add_edge(self):
        res = unary.add_edge(path_graph(3), 0, 2)
        assert is_isomorphic(res.graph, cycle_graph(3))
        with pytest.raises(ParameterError):
            unary.add_edge(path_graph(3), 0, 1)

    def test_delete_edge(self):
        res = unary.delete_edge(cycle_graph(4), 0, 1)
        assert is_isomorphic(res.graph, path_graph(4))
        with pytest.raises(ParameterError):
            unary.delete_edge(path_graph(3), 0, 2)

    def test_subdivide_caterpillar_gives_spider(self):
        res = unary.subdivide_edge(caterpillar_example(), 2, 5)
        assert is_isomorphic(res.graph, incidence_star_example())
        assert exact_pathwidth(res.graph).value == 2

    def test_subdivide_preserves_treewidth(self):
        for g in (cycle_graph(4), complete_graph(4), path_graph(3)):
            k = exact_treewidth(g).value
            res = unary.subdivide_edge(g, *g.edges_sorted()[0])
            assert exact_treewidth(res.graph).value == max(k, 1)


class TestDerivedGraphs:
    def test_incidence_of_star_is_spider(self):
        res = unary.incidence_graph(star_graph(3))
        assert is_isomorphic(res.graph, incidence_star_example())

    def test_incidence_of_triangle_is_hexagon(self):
        res = unary.incidence_graph(cycle_graph(3))
        assert is_isomorphic(res.graph, cycle_graph(6))

    def test_incidence_new_ids_are_edge_vertices(self):
        g = path_graph(3)
        res = unary.incidence_graph(g)
        assert len(res.new_ids) == g.m
        assert res.graph.n == g.n + g.m

    def test_power_of_cycle_completes(self):
        res = unary.graph_power(cycle_graph(5), 2)
        assert res.graph == complete_graph(5)

    def test_power_distance_semantics(self):
        res = unary.graph_power(path_graph(5), 2)
        assert res.graph.has_edge(0, 2)
        assert not res.graph.has_edge(0, 3)

    def test_power_of_empty(self):
        assert unary.graph_power(Graph(), 3).graph == Graph()

    def test_power_rejects_nonpositive_exponent(self):
        with pytest.raises(ParameterError):
            unary.graph_power(path_graph(3), 0)

    def test_power_degree_bound_counts_reachable_vertices(self):
        # on a path, at most 4 other vertices sit within distance 2
        assert unary.power_degree_bound(path_graph(9), 2) == 4
        assert unary.power_degree_bound(Graph(range(3)), 5) == 0

    def test_power_degree_bound_closed_forms(self):
        # Delta <= 2 in closed form, Delta >= 3 clamped at d = n - 1
        for g in (Graph(range(4), [(0, 1)]), path_graph(6), cycle_graph(5),
                  star_graph(3), Graph(range(6), [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])):
            delta = max(g.degree(v) for v in g.vertices)
            for d in range(1, 8):
                steps = d if delta <= 2 else min(d, g.n - 1)
                assert unary.power_degree_bound(g, d) == delta * sum(
                    (delta - 1) ** i for i in range(steps))

    def test_huge_power_is_power_n_minus_1(self):
        g = Graph(range(6), [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
        start = time.perf_counter()
        for h in (g, cycle_graph(4), path_graph(5)):
            assert unary.graph_power(h, 10**9).graph == unary.graph_power(h, h.n - 1).graph
            assert unary.power_degree_bound(h, 10**9) >= unary.power_degree_bound(h, h.n - 1)
        assert unary.power_degree_bound(g, 10**9) == unary.power_degree_bound(g, g.n - 1)
        assert time.perf_counter() - start < 2.0

    def test_line_graph_of_path_and_cycle(self):
        assert is_isomorphic(unary.line_graph(path_graph(5)).graph, path_graph(4))
        assert is_isomorphic(unary.line_graph(cycle_graph(5)).graph, cycle_graph(5))

    def test_line_graph_of_star_is_clique(self):
        assert is_isomorphic(unary.line_graph(star_graph(4)).graph, complete_graph(4))

    def test_line_graph_clique_lower_bound(self):
        rng = SplitMix64(33)
        for _ in range(15):
            g = random_graph(rng, 2 + rng.next_below(5), 5)
            if g.m == 0:
                continue
            lg = unary.line_graph(g).graph
            assert exact_treewidth(lg).value >= max_degree(g) - 1


class TestComplements:
    def test_complement_of_star_isolates_center(self):
        res = unary.edge_complement(star_graph(4))
        assert res.graph.degree(0) == 0
        assert exact_treewidth(res.graph).value == 3

    def test_complement_is_involution(self):
        rng = SplitMix64(4)
        for _ in range(10):
            g = random_graph(rng, 1 + rng.next_below(7), 5)
            assert unary.edge_complement(unary.edge_complement(g).graph).graph == g

    def test_local_complement_of_star_center(self):
        res = unary.local_complement(star_graph(4), 0)
        assert res.graph == complete_graph(5)

    def test_local_complement_is_involution(self):
        rng = SplitMix64(5)
        for _ in range(10):
            g = random_graph(rng, 2 + rng.next_below(6), 5)
            v = g.vertices_sorted()[rng.next_below(g.n)]
            assert unary.local_complement(unary.local_complement(g, v).graph, v).graph == g

    def test_seidel_complement_is_involution(self):
        rng = SplitMix64(6)
        for _ in range(10):
            g = random_graph(rng, 2 + rng.next_below(6), 5)
            v = g.vertices_sorted()[rng.next_below(g.n)]
            assert unary.seidel_complement(unary.seidel_complement(g, v).graph, v).graph == g

    def test_seidel_complement_moves_cross_pairs_only(self):
        res = unary.seidel_complement(path_graph(4), 1)
        assert is_isomorphic(res.graph, path_graph(4))


class TestSwitching:
    def test_switch_toggles_one_vertex_row(self):
        res = unary.seidel_switch(path_graph(5), 0)
        assert res.graph.edges_sorted() == [
            (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4)
        ]
        assert exact_treewidth(res.graph).value == 2

    def test_switch_is_involution(self):
        rng = SplitMix64(7)
        for _ in range(10):
            g = random_graph(rng, 1 + rng.next_below(7), 5)
            v = g.vertices_sorted()[rng.next_below(g.n)]
            assert unary.seidel_switch(unary.seidel_switch(g, v).graph, v).graph == g

    def test_switch_sequence_composes(self):
        res = unary.switch_sequence(path_graph(4), [0, 2])
        step = unary.seidel_switch(path_graph(4), 0)
        step = unary.seidel_switch(step.graph, 2)
        assert res.graph == step.graph

    def test_switch_sequence_claim_counts_distinct_vertices(self):
        g = cycle_graph(5)
        k, _, dt, _ = certs(g)
        carried = unary.switch_sequence_decomposition(dt, [0, 1, 0])
        host = unary.switch_sequence(g, [0, 1, 0]).graph
        check_carried(host, carried)
        assert carried.claimed_bound == k + 2


class TestForestDecomposition:
    def test_every_small_forest(self):
        from twpw.graphs import is_forest

        for g in all_graphs_up_to(6):
            if g.n == 0 or not is_forest(g):
                continue
            d = unary.forest_decomposition(g)
            assert is_valid(g, d)
            assert (width(d) or 0) <= 1

    def test_cycle_rejected(self):
        with pytest.raises(ParameterError):
            unary.forest_decomposition(cycle_graph(3))


def transformer_table(g, ktw, kpw):
    """Every transformer with parameters, result graph and bound columns."""
    rows = []
    for v in g.vertices_sorted():
        rows.append((
            unary.delete_vertex(g, v).graph,
            lambda d, v=v: unary.delete_vertex_decomposition(d, v),
            ktw, kpw,
        ))
        rows.append((
            unary.seidel_switch(g, v).graph,
            lambda d, v=v: unary.seidel_switch_decomposition(d, v),
            ktw + 1, kpw + 1,
        ))
    for nbrs in ([], g.vertices_sorted()[:1], g.vertices_sorted()):
        rows.append((
            unary.add_vertex(g, nbrs).graph,
            lambda d, nbrs=tuple(nbrs): unary.add_vertex_decomposition(d, nbrs),
            max(ktw, 1) if len(nbrs) == 1 else ktw + 1,
            kpw + 1,
        ))
    for u, v in g.edges_sorted():
        rows.append((
            unary.delete_edge(g, u, v).graph,
            lambda d, u=u, v=v: unary.delete_edge_decomposition(d, u, v),
            ktw, kpw,
        ))
        rows.append((
            unary.contract_edge(g, u, v).graph,
            lambda d, u=u, v=v: unary.contract_edge_decomposition(d, u, v),
            ktw, kpw,
        ))
        rows.append((
            unary.subdivide_edge(g, u, v).graph,
            lambda d, u=u, v=v: unary.subdivide_edge_decomposition(d, u, v),
            max(ktw, 1), kpw + 1,
        ))
    vs = g.vertices_sorted()
    for u, v in zip(vs, vs[1:]):
        rows.append((
            unary.identify_vertices(g, u, v).graph,
            lambda d, u=u, v=v: unary.identify_vertices_decomposition(d, u, v),
            ktw + 1, kpw + 1,
        ))
        if not g.has_edge(u, v):
            rows.append((
                unary.add_edge(g, u, v).graph,
                lambda d, u=u, v=v: unary.add_edge_decomposition(d, u, v),
                ktw + 1, kpw + 1,
            ))
    if g.n + g.m <= 16:
        rows.append((
            unary.incidence_graph(g).graph,
            unary.incidence_graph_decomposition,
            max(ktw, 1),
            kpw + 1,
        ))
    if g.m <= 12:
        dmax = max_degree(g)
        rows.append((
            unary.line_graph(g).graph,
            unary.line_graph_decomposition,
            max((ktw + 1) * dmax - 1, -1),
            max((kpw + 1) * dmax - 1, -1),
        ))
    for d in (2, 3):
        pdb = unary.power_degree_bound(g, d)
        rows.append((
            unary.graph_power(g, d).graph,
            lambda dec, d=d: unary.graph_power_decomposition(dec, d),
            (ktw + 1) * (1 + pdb) - 1,
            (kpw + 1) * (1 + pdb) - 1,
        ))
    return rows


def test_every_transformer_is_sound_on_all_five_vertex_graphs():
    for g in all_graphs_up_to(5):
        if g.n == 0:
            continue
        ktw, kpw, dt, dp = certs(g)
        for host, tf, table_tw, table_pw in transformer_table(g, ktw, kpw):
            check_carried(host, tf(dt), table_tw)
            check_carried(host, tf(dp), table_pw)


def test_transformers_on_seeded_graphs_with_redundant_certificates():
    # feed the transformers non-optimal decompositions too
    from twpw.decomposition import trivial_path_decomposition, trivial_tree_decomposition

    rng = SplitMix64(12)
    for _ in range(25):
        g = random_graph(rng, 2 + rng.next_below(5), 5)
        dt = trivial_tree_decomposition(g)
        dp = trivial_path_decomposition(g)
        k = g.n - 1
        for host, tf, table_tw, table_pw in transformer_table(g, k, k):
            check_carried(host, tf(dt), table_tw)
            check_carried(host, tf(dp), table_pw)
