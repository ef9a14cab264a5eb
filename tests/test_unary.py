import time

import pytest

from twpw import unary
from twpw.decomposition import is_valid, width
from twpw.errors import CapabilityError, ParameterError
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.graphs import (
    Graph,
    caterpillar_example,
    complete_graph,
    cycle_graph,
    incidence_star_example,
    max_degree,
    path_graph,
    star_graph,
)
from twpw.harness import SplitMix64, random_graph

from smallgraphs import all_graphs_up_to, is_isomorphic


def certs(g):
    t = exact_treewidth(g)
    p = exact_pathwidth(g)
    return t.value, p.value, t.certificate, p.certificate


def check_carried(host, carried, table=None):
    assert carried.graph == host
    assert is_valid(host, carried.decomposition)
    assert width(carried.decomposition) <= carried.claimed_bound
    if table is not None:
        assert carried.claimed_bound <= table


class TestVertexSurgery:
    def test_delete_vertex_from_triangle(self):
        res = unary.delete_vertex(complete_graph(3), 2)
        assert res.graph == complete_graph(2)
        # survivors keep their ids
        assert unary.delete_vertex(path_graph(3), 0).graph.edges_sorted() == [(1, 2)]
        assert exact_treewidth(res.graph).value == 1

    def test_delete_missing_vertex(self):
        with pytest.raises(ParameterError):
            unary.delete_vertex(path_graph(2), 7)

    def test_add_vertex_fresh_id(self):
        res = unary.add_vertex(path_graph(3), [0, 2])
        assert res.graph.vertices - path_graph(3).vertices == frozenset({3})
        assert res.graph.has_edge(3, 0) and res.graph.has_edge(3, 2)

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
        # the ends fuse into the fresh vertex 4; 1 and 2 keep their ids
        assert res.graph.vertices == frozenset({1, 2, 4})
        assert res.graph.neighbors(4) == frozenset({1, 2})
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
        assert res.graph.n == g.n + g.m
        # edge i in sorted order becomes vertex n + i, adjacent to its ends
        assert res.graph.neighbors(3) == frozenset({0, 1})
        assert res.graph.neighbors(4) == frozenset({1, 2})

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
        # every Delta clamped at d = n - 1
        for g in (Graph(range(4), [(0, 1)]), path_graph(6), cycle_graph(5),
                  star_graph(3), Graph(range(6), [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])):
            delta = max(g.degree(v) for v in g.vertices)
            for d in range(1, 8):
                steps = min(d, g.n - 1)
                assert unary.power_degree_bound(g, d) == delta * sum(
                    (delta - 1) ** i for i in range(steps))

    def test_power_degree_bound_is_quick_on_long_stars(self):
        # K_{1,999} plus 8,000 isolated vertices: 8,998 powers of 998 summed
        g = Graph(range(9000), [(0, j) for j in range(1, 1000)])
        assert unary.power_degree_bound(g, 300) == 999 * sum(998 ** i for i in range(300))
        start = time.perf_counter()
        bound = unary.power_degree_bound(g, 8999)
        assert time.perf_counter() - start < 0.5
        assert bound == 999 * (998 ** 8999 - 1) // 997

    def test_power_edge_count_stops_once_past_the_limit(self, monkeypatch):
        balls = []
        real = unary._ball
        monkeypatch.setattr(unary, "_ball", lambda adj, src, r: balls.append(src) or real(
            adj, src, r))
        # P3000's balls at r = 1500 each hold at least 1501 vertices, so the
        # ordered pairs pass 2,000,000 after at most 1,333 of them
        with pytest.raises(CapabilityError) as raised:
            unary.graph_power(path_graph(3000), 1500)
        assert str(raised.value) == "graphs support at most 1000000 edges, got more than 1000000"
        assert 0 < len(balls) <= 1333
        # a component of at most r + 1 vertices is complete: counted without a ball
        balls.clear()
        with pytest.raises(CapabilityError, match="^graphs support at most 1000000 edges, "
                                                  "got 1124250$"):
            unary.graph_power(path_graph(1500), 1499)
        assert balls == []

    def test_counted_power_walks_each_ball_once(self, monkeypatch):
        balls = []
        real = unary._ball
        monkeypatch.setattr(unary, "_ball", lambda adj, src, r: balls.append(src) or real(
            adj, src, r))
        # a pendant at vertex 1 of P2000 gives Delta = 3, whose degree bound
        # at r = 30 forces the count; the triangle is counted in closed form
        # and walked only when the edges are built
        g = Graph(range(2004), [(i, i + 1) for i in range(1999)]
                  + [(1, 2000), (2001, 2002), (2002, 2003), (2001, 2003)])
        res = unary.graph_power(g, 30)
        assert sorted(balls) == g.vertices_sorted()
        adj = g.adjacency()
        want = set()
        for src in g.vertices:  # distances by a breadth-first walk per vertex
            dist, frontier = {src: 0}, [src]
            for step in range(1, 31):
                frontier = [y for x in frontier for y in adj[x] if y not in dist]
                dist |= dict.fromkeys(frontier, step)
            want |= {(src, y) for y in dist if src < y}
        assert res.graph == Graph(g.vertices, want)

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

    @pytest.mark.parametrize("op", [unary.local_complement, unary.seidel_complement,
                                    unary.seidel_switch])
    def test_missing_vertex_is_refused(self, op):
        with pytest.raises(ParameterError, match="^vertex 7 not in graph$"):
            op(path_graph(3), 7)


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
    """Every carrying operation with parameters, as a call on the input
    decomposition (or None), and its bound columns."""
    rows = []
    for v in g.vertices_sorted():
        rows.append((lambda d, v=v: unary.delete_vertex(g, v, d), ktw, kpw))
        rows.append((lambda d, v=v: unary.seidel_switch(g, v, d), ktw + 1, kpw + 1))
    for nbrs in ([], g.vertices_sorted()[:1], g.vertices_sorted()):
        rows.append((
            lambda d, nbrs=tuple(nbrs): unary.add_vertex(g, nbrs, d=d),
            max(ktw, 1) if len(nbrs) == 1 else ktw + 1,
            kpw + 1,
        ))
    for u, v in g.edges_sorted():
        rows.append((lambda d, u=u, v=v: unary.delete_edge(g, u, v, d), ktw, kpw))
        rows.append((lambda d, u=u, v=v: unary.contract_edge(g, u, v, d), ktw, kpw))
        rows.append((
            lambda d, u=u, v=v: unary.subdivide_edge(g, u, v, d), max(ktw, 1), kpw + 1,
        ))
    vs = g.vertices_sorted()
    for u, v in zip(vs, vs[1:]):
        rows.append((
            lambda d, u=u, v=v: unary.identify_vertices(g, u, v, d), ktw + 1, kpw + 1,
        ))
        if not g.has_edge(u, v):
            rows.append((
                lambda d, u=u, v=v: unary.add_edge(g, u, v, d), ktw + 1, kpw + 1,
            ))
    if g.n + g.m <= 16:
        rows.append((lambda d: unary.incidence_graph(g, d), max(ktw, 1), kpw + 1))
    if g.m <= 12:
        dmax = max_degree(g)
        rows.append((
            lambda d: unary.line_graph(g, d),
            max((ktw + 1) * dmax - 1, -1),
            max((kpw + 1) * dmax - 1, -1),
        ))
    for r in (2, 3):
        pdb = unary.power_degree_bound(g, r)
        rows.append((
            lambda d, r=r: unary.graph_power(g, r, d),
            (ktw + 1) * (1 + pdb) - 1,
            (kpw + 1) * (1 + pdb) - 1,
        ))
    return rows


def test_every_transformer_is_sound_on_all_five_vertex_graphs():
    for g in all_graphs_up_to(5):
        if g.n == 0:
            continue
        ktw, kpw, dt, dp = certs(g)
        for op, table_tw, table_pw in transformer_table(g, ktw, kpw):
            host = op(None).graph
            check_carried(host, op(dt), table_tw)
            check_carried(host, op(dp), table_pw)


def test_transformers_on_seeded_graphs_with_redundant_certificates():
    # feed the transformers non-optimal decompositions too
    from twpw.decomposition import trivial_path_decomposition, trivial_tree_decomposition

    rng = SplitMix64(12)
    for _ in range(25):
        g = random_graph(rng, 2 + rng.next_below(5), 5)
        dt = trivial_tree_decomposition(g)
        dp = trivial_path_decomposition(g)
        k = g.n - 1
        for op, table_tw, table_pw in transformer_table(g, k, k):
            host = op(None).graph
            check_carried(host, op(dt), table_tw)
            check_carried(host, op(dp), table_pw)
