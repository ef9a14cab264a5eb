import time

import pytest

from twpw import binary, unary
from twpw.decomposition import is_valid, trivial_path_decomposition, width
from twpw.errors import CapabilityError, ParameterError
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    incidence_star_example,
    path_graph,
    star_graph,
)
from twpw.harness import SplitMix64, random_graph

from smallgraphs import is_isomorphic


def certs(g):
    t = exact_treewidth(g)
    p = exact_pathwidth(g)
    return t.value, p.value, t.certificate, p.certificate


def check_carried(host, carried):
    assert is_valid(host, carried.decomposition)
    assert width(carried.decomposition) <= carried.claimed_bound


def seeded_pairs(seed, count, max_n, min_n=1):
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        n1 = min_n + rng.next_below(max_n - min_n + 1)
        n2 = min_n + rng.next_below(max_n - min_n + 1)
        out.append((random_graph(rng, n1, 5), random_graph(rng, n2, 5)))
    return out


class TestDisjointUnion:
    def test_graph_and_id_map(self):
        res = binary.disjoint_union(path_graph(2), path_graph(3))
        # graph 1 at 0..n1-1, graph 2 at n1..n1+n2-1, both in sorted order
        assert res.graph.vertices == frozenset(range(5))
        assert res.graph.edges_sorted() == [(0, 1), (2, 3), (3, 4)]

    def test_width_is_max_of_sides(self):
        for g1, g2 in seeded_pairs(101, 12, 5):
            k1, p1, dt1, dp1 = certs(g1)
            k2, p2, dt2, dp2 = certs(g2)
            res = binary.disjoint_union(g1, g2, dt1, dt2)
            check_carried(res.graph, res)
            assert res.claimed_bound == max(k1, k2)
            assert exact_treewidth(res.graph).value == max(k1, k2)
            res = binary.disjoint_union(g1, g2, dp1, dp2)
            check_carried(res.graph, res)
            assert exact_pathwidth(res.graph).value == max(p1, p2)


class TestJoin:
    def test_wheel_from_hub_and_rim(self):
        res = binary.join(complete_graph(1), cycle_graph(4))
        assert res.graph.n == 5 and res.graph.m == 8
        assert exact_treewidth(res.graph).value == 3

    def test_two_edges_join_to_k4(self):
        res = binary.join(complete_graph(2), complete_graph(2))
        assert res.graph == complete_graph(4)
        assert exact_treewidth(res.graph).value == 3

    def test_claim_is_exact_both_parameters(self):
        for g1, g2 in seeded_pairs(102, 12, 4):
            k1, p1, dt1, dp1 = certs(g1)
            k2, p2, dt2, dp2 = certs(g2)
            res = binary.join(g1, g2, dt1, dt2)
            check_carried(res.graph, res)
            assert res.claimed_bound == min(k1 + g2.n, k2 + g1.n)
            assert exact_treewidth(res.graph).value == res.claimed_bound
            res = binary.join(g1, g2, dp1, dp2)
            check_carried(res.graph, res)
            assert res.claimed_bound == min(p1 + g2.n, p2 + g1.n)
            assert exact_pathwidth(res.graph).value == res.claimed_bound


class TestUnionSameVertices:
    def test_grid_from_row_and_column_paths(self):
        rows = Graph(range(9), [(3 * i + j, 3 * i + j + 1) for i in range(3) for j in range(2)])
        cols = Graph(range(9), [(3 * i + j, 3 * i + j + 3) for i in range(2) for j in range(3)])
        res = binary.union_same_vertices(rows, cols)
        assert is_isomorphic(res.graph, grid_graph(3, 3))
        assert res.decomposition is None
        assert exact_treewidth(rows).value == 1
        assert exact_treewidth(res.graph).value == 3

    def test_rejects_mismatched_vertex_sets(self):
        with pytest.raises(ParameterError):
            binary.union_same_vertices(path_graph(3), path_graph(4))


class TestSubstitute:
    def test_clique_into_clique(self):
        res = binary.substitute(complete_graph(3), 0, complete_graph(4))
        assert is_isomorphic(res.graph, complete_graph(6))
        assert exact_treewidth(res.graph).value == 5

    def test_id_map_covers_both_sides(self):
        g1, g2 = cycle_graph(4), path_graph(2)
        res = binary.substitute(g1, 1, g2)
        # g1 keeps its ids but 1; g2 moves to 4, 5, joined to N(1) = {0, 2}
        assert res.graph.vertices == frozenset({0, 2, 3, 4, 5})
        assert res.graph.edges_sorted() == [
            (0, 3), (0, 4), (0, 5), (2, 3), (2, 4), (2, 5), (4, 5)]

    def test_neighbors_combiner_can_overshoot(self):
        g1, g2 = path_graph(3), path_graph(2)
        _, _, dt1, _ = certs(g1)
        _, _, dt2, _ = certs(g2)
        res = binary.substitute(g1, 1, g2, dt1, dt2, combiner="neighbors")
        check_carried(res.graph, res)
        assert res.claimed_bound == 3
        assert exact_treewidth(res.graph).value == 2

    def test_replace_combiner_both_kinds(self):
        for g1, g2 in seeded_pairs(103, 10, 4):
            if g2.n == 0:
                continue
            v = g1.vertices_sorted()[0] if g1.n else None
            if v is None:
                continue
            k1, p1, dt1, dp1 = certs(g1)
            k2, p2, dt2, dp2 = certs(g2)
            res = binary.substitute(g1, v, g2, dt1, dt2)
            check_carried(res.graph, res)
            assert res.claimed_bound == min(k1 + g2.n, k2 + g1.n) - 1
            res = binary.substitute(g1, v, g2, dp1, dp2)
            check_carried(res.graph, res)
            assert res.claimed_bound == min(p1 + g2.n, p2 + g1.n) - 1

    def test_neighbors_combiner_sweep(self):
        for g1, g2 in seeded_pairs(104, 10, 4):
            picks = [v for v in g1.vertices_sorted() if g1.degree(v)]
            if not picks or g2.n == 0:
                continue
            v = picks[0]
            k1, _, dt1, _ = certs(g1)
            k2, _, dt2, _ = certs(g2)
            res = binary.substitute(g1, v, g2, dt1, dt2, combiner="neighbors")
            check_carried(res.graph, res)
            assert res.claimed_bound == max(k1 - 1, k2) + g1.degree(v)

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            binary.substitute(path_graph(3), 9, path_graph(2))
        with pytest.raises(ParameterError):
            binary.substitute(path_graph(3), 0, Graph())
        _, _, dt1, dp1 = certs(path_graph(3))
        _, _, dt2, dp2 = certs(path_graph(2))
        with pytest.raises(ParameterError):
            binary.substitute(path_graph(3), 0, path_graph(2), dt1, dt2, combiner="midpoint")
        with pytest.raises(ParameterError):
            binary.substitute(path_graph(3), 0, path_graph(2), dp1, dp2, combiner="neighbors")
        iso = Graph(range(2))
        _, _, it, _ = certs(iso)
        with pytest.raises(ParameterError):
            binary.substitute(iso, 0, path_graph(2), it, dt2, combiner="neighbors")

    def test_decomposition_pairing_guards(self):
        g1, g2 = path_graph(3), path_graph(2)
        _, _, dt1, dp1 = certs(g1)
        _, _, dt2, dp2 = certs(g2)
        with pytest.raises(ParameterError):
            binary.substitute(g1, 0, g2, dt1, None)
        with pytest.raises(ParameterError):
            binary.substitute(g1, 0, g2, dt1, dp2)
        with pytest.raises(ParameterError):
            binary.substitute(g1, 0, g2, dt2, dt1)


class TestProducts:
    def test_cartesian_of_paths_is_grid(self):
        res = binary.product("cartesian", path_graph(3), path_graph(3))
        assert is_isomorphic(res.graph, grid_graph(3, 3))

    def test_pair_ids_are_row_major(self):
        g1, g2 = path_graph(2), path_graph(3)
        res = binary.product("categorical", g1, g2)
        # the pair (i, j) is vertex 3i + j: (0,0)-(1,1), (0,1)-(1,0),
        # (0,1)-(1,2) and (0,2)-(1,1)
        assert res.graph.edges_sorted() == [(0, 4), (1, 3), (1, 5), (2, 4)]

    def test_lexicographic_blowup_width(self):
        g = path_graph(3)
        _, _, dt, dp = certs(g)
        res = binary.product("lexicographic", g, complete_graph(2), dt)
        check_carried(res.graph, res)
        assert res.claimed_bound == 3
        assert exact_treewidth(res.graph).value == 3
        res = binary.product("lexicographic", g, complete_graph(2), dp)
        check_carried(res.graph, res)
        assert res.claimed_bound == 3
        assert exact_pathwidth(res.graph).value == 3

    def test_conormal_is_complement_of_rejection(self):
        for g1, g2 in seeded_pairs(105, 8, 3):
            co = binary.product("conormal", g1, g2).graph
            rej = binary.product("rejection", g1, g2).graph
            assert unary.edge_complement(co).graph == rej

    def test_rejection_is_normal_of_complements(self):
        for g1, g2 in seeded_pairs(106, 10, 3):
            c1 = unary.edge_complement(g1).graph
            c2 = unary.edge_complement(g2).graph
            assert binary.product("rejection", g1, g2).graph == binary.product("normal", c1, c2).graph

    def test_normal_is_complement_of_conormal_of_complements(self):
        for g1, g2 in seeded_pairs(107, 10, 3):
            c1 = unary.edge_complement(g1).graph
            c2 = unary.edge_complement(g2).graph
            inner = binary.product("conormal", c1, c2).graph
            assert binary.product("normal", g1, g2).graph == unary.edge_complement(inner).graph

    def test_symmetric_difference_decomposes_into_three_products(self):
        for g1, g2 in seeded_pairs(108, 10, 3):
            c1 = unary.edge_complement(g1).graph
            c2 = unary.edge_complement(g2).graph
            acc = binary.product("cartesian", g1, g2).graph
            acc = binary.union_same_vertices(acc, binary.product("categorical", g1, c2).graph).graph
            acc = binary.union_same_vertices(acc, binary.product("categorical", c1, g2).graph).graph
            assert binary.product("symmetric-difference", g1, g2).graph == acc

    @pytest.mark.parametrize("kind", binary.PRODUCT_KINDS)
    def test_size_guard_counts_every_edge_exactly(self, monkeypatch, kind):
        # the guard is decided from n1 * n2 and the edge count before any
        # edge is built: the result is accepted at a limit of exactly its
        # size and refused, naming that size, one below
        cases = [(g1, g2, binary.product(kind, g1, g2).graph)
                 for g1, g2 in seeded_pairs(109, 12, 6, min_n=0)]
        for g1, g2, g in cases:
            monkeypatch.setattr("twpw.graphs.GRAPH_MAX_EDGES", g.m)
            monkeypatch.setattr("twpw.graphs.GRAPH_MAX_VERTICES", g.n)
            assert binary.product(kind, g1, g2).graph == g
            monkeypatch.setattr("twpw.graphs.GRAPH_MAX_EDGES", g.m - 1)
            with pytest.raises(CapabilityError, match=f"edges, got {g.m}$"):
                binary.product(kind, g1, g2)
            monkeypatch.setattr("twpw.graphs.GRAPH_MAX_EDGES", g.m)
            monkeypatch.setattr("twpw.graphs.GRAPH_MAX_VERTICES", g.n - 1)
            with pytest.raises(CapabilityError, match=f"vertices, got {g.n}$"):
                binary.product(kind, g1, g2)

    def test_edgeless_factors_list_no_pairs(self):
        # on edgeless factors every kind but rejection has no edges, and no
        # pattern with an empty class may list the other factor's pairs;
        # rejection joins every pair and is refused by the guard
        start = time.perf_counter()
        for n1, n2 in [(80, 80), (2000, 1), (1, 2000)]:
            g1, g2 = Graph(range(n1)), Graph(range(n2))
            for kind in binary.PRODUCT_KINDS:
                if kind == "rejection":
                    with pytest.raises(CapabilityError):
                        binary.product(kind, g1, g2)
                else:
                    assert binary.product(kind, g1, g2).graph.m == 0
        assert time.perf_counter() - start < 1.0

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            binary.product("tensor", path_graph(2), path_graph(2))
        _, _, dt, _ = certs(path_graph(2))
        with pytest.raises(ParameterError):
            binary.product("cartesian", path_graph(2), path_graph(2), dt)
        with pytest.raises(ParameterError):
            binary.product("lexicographic", path_graph(3), path_graph(2), dt)


class TestOneSum:
    def test_spider_from_leg_and_path(self):
        res = binary.one_sum(path_graph(3), 2, path_graph(5), 2)
        assert is_isomorphic(res.graph, incidence_star_example())
        assert res.graph.n == 7
        # the fused vertex is n1 + n2, with degree deg(v) + deg(w)
        assert res.graph.degree(8) == 1 + 2

    def test_two_triangles_share_a_vertex(self):
        g = complete_graph(3)
        k, p, dt, dp = certs(g)
        res = binary.one_sum(g, 0, g, 0, dt, dt)
        assert res.graph.n == 5 and res.graph.m == 6
        check_carried(res.graph, res)
        assert res.claimed_bound == 2
        assert exact_treewidth(res.graph).value == 2

    def test_treewidth_claim_is_exact(self):
        for g1, g2 in seeded_pairs(109, 10, 4):
            if g1.n == 0 or g2.n == 0:
                continue
            v = g1.vertices_sorted()[-1]
            w = g2.vertices_sorted()[0]
            k1, p1, dt1, dp1 = certs(g1)
            k2, p2, dt2, dp2 = certs(g2)
            res = binary.one_sum(g1, v, g2, w, dt1, dt2)
            check_carried(res.graph, res)
            assert res.claimed_bound == max(k1, k2)
            assert exact_treewidth(res.graph).value == max(k1, k2)
            res = binary.one_sum(g1, v, g2, w, dp1, dp2)
            check_carried(res.graph, res)
            assert res.claimed_bound <= max(p1, p2) + 1
            assert exact_pathwidth(res.graph).value >= max(p1, p2)

    def test_missing_attachment_vertices(self):
        with pytest.raises(ParameterError):
            binary.one_sum(path_graph(2), 5, path_graph(2), 0)
        with pytest.raises(ParameterError):
            binary.one_sum(path_graph(2), 0, path_graph(2), 5)


class TestCorona:
    def test_pendant_corona_makes_path(self):
        res = binary.corona(complete_graph(2), complete_graph(1))
        assert is_isomorphic(res.graph, path_graph(4))
        assert exact_pathwidth(res.graph).value == 1

    def test_star_of_cliques(self):
        res = binary.corona(complete_graph(1), complete_graph(4))
        assert res.graph == complete_graph(5)
        assert exact_pathwidth(res.graph).value == 4

    def test_pair_ids_layout(self):
        res = binary.corona(path_graph(2), path_graph(2))
        # copy i of g2 sits at n1 + i*n2 onward, joined to vertex i
        assert res.graph.edges_sorted() == [
            (0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 3), (4, 5)]

    def test_combiner_both_kinds(self):
        for g1, g2 in seeded_pairs(110, 8, 3):
            if g1.n == 0:
                continue
            k1, p1, dt1, dp1 = certs(g1)
            k2, p2, dt2, dp2 = certs(g2)
            res = binary.corona(g1, g2, dt1, dt2)
            check_carried(res.graph, res)
            if g2.n:
                assert res.claimed_bound == max(k1, k2) + 1
            res = binary.corona(g1, g2, dp1, dp2)
            check_carried(res.graph, res)

    def test_empty_attachment_graph(self):
        g1 = cycle_graph(4)
        k1, _, dt1, _ = certs(g1)
        _, _, et, _ = certs(Graph())
        res = binary.corona(g1, Graph(), dt1, et)
        assert is_isomorphic(res.graph, g1)
        check_carried(res.graph, res)
        assert res.claimed_bound == k1

    def test_needs_nonempty_base(self):
        with pytest.raises(ParameterError):
            binary.corona(Graph(), complete_graph(2))

    def test_complete_corona_closed_form(self):
        for n in range(1, 5):
            for m in range(1, 4):
                res = binary.corona(complete_graph(n), complete_graph(m))
                assert exact_pathwidth(res.graph).value == n + max(0, m - n // 2) - 1


def test_combiners_accept_redundant_decompositions():
    # combiners must not assume their inputs are optimal
    rng = SplitMix64(111)
    for _ in range(6):
        g1 = random_graph(rng, 1 + rng.next_below(4), 5)
        g2 = random_graph(rng, 1 + rng.next_below(4), 5)
        dp1 = trivial_path_decomposition(g1)
        dp2 = trivial_path_decomposition(g2)
        for res in (
            binary.disjoint_union(g1, g2, dp1, dp2),
            binary.join(g1, g2, dp1, dp2),
            binary.substitute(g1, g1.vertices_sorted()[0], g2, dp1, dp2),
            binary.one_sum(g1, g1.vertices_sorted()[0], g2, g2.vertices_sorted()[0], dp1, dp2),
            binary.corona(g1, g2, dp1, dp2),
        ):
            check_carried(res.graph, res)
