from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from twpw.decomposition import PathDecomposition, TreeDecomposition, is_valid, width
from twpw.errors import CapabilityError, ParameterError
from twpw.exact import (
    SOLVER_MAX_VERTICES,
    exact_pathwidth,
    exact_treewidth,
    exact_width,
)
from twpw.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    incidence_star_example,
    path_graph,
    star_graph,
)
from twpw.harness import SplitMix64, random_graph
from twpw.minors import MinorScript

from smallgraphs import all_graphs_up_to


def brute_force_treewidth(g):
    """Minimum over all elimination orders of the largest neighborhood met."""
    ids = g.vertices_sorted()
    best = g.n
    for perm in permutations(ids):
        adj = {v: set(g.neighbors(v)) for v in ids}
        seen = 0
        for v in perm:
            nb = adj.pop(v)
            seen = max(seen, len(nb))
            if seen >= best:
                break
            for u in nb:
                adj[u].discard(v)
            for a in nb:
                for b in nb:
                    if a < b:
                        adj[a].add(b)
                        adj[b].add(a)
        else:
            best = seen
    return best


def brute_force_pathwidth(g):
    """Minimum over all layouts of the largest prefix boundary."""
    ids = g.vertices_sorted()
    best = g.n
    for perm in permutations(ids):
        placed = set()
        worst = 0
        for v in perm:
            placed.add(v)
            boundary = sum(1 for u in placed if g.neighbors(u) - placed)
            worst = max(worst, boundary)
            if worst >= best:
                break
        else:
            best = worst
    return best


class TestClosedForms:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_complete_graphs(self, n):
        g = complete_graph(n)
        assert exact_treewidth(g).value == n - 1
        assert exact_pathwidth(g).value == n - 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_paths(self, n):
        g = path_graph(n)
        assert exact_treewidth(g).value == 1
        assert exact_pathwidth(g).value == 1

    @pytest.mark.parametrize("n", range(3, 9))
    def test_cycles(self, n):
        g = cycle_graph(n)
        assert exact_treewidth(g).value == 2
        assert exact_pathwidth(g).value == 2

    def test_stars(self):
        g = star_graph(7)
        assert exact_treewidth(g).value == 1
        assert exact_pathwidth(g).value == 1

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 2), (2, 3), (3, 3), (3, 4)])
    def test_complete_bipartite(self, a, b):
        g = complete_bipartite_graph(a, b)
        assert exact_treewidth(g).value == min(a, b)
        assert exact_pathwidth(g).value == min(a, b)

    @pytest.mark.parametrize("r,c", [(1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
    def test_grids(self, r, c):
        g = grid_graph(r, c)
        assert exact_treewidth(g).value == min(r, c)
        assert exact_pathwidth(g).value == min(r, c)

    def test_one_by_one_grid_is_a_point(self):
        g = grid_graph(1, 1)
        assert exact_treewidth(g).value == 0
        assert exact_pathwidth(g).value == 0

    def test_spider(self):
        g = incidence_star_example()
        assert exact_treewidth(g).value == 1
        assert exact_pathwidth(g).value == 2


class TestAgainstBruteForce:
    def test_all_graphs_up_to_five(self):
        for g in all_graphs_up_to(5):
            if g.n == 0:
                continue
            assert exact_treewidth(g).value == brute_force_treewidth(g), g.edges_sorted()
            assert exact_pathwidth(g).value == brute_force_pathwidth(g), g.edges_sorted()

    def test_seeded_six_and_seven_vertex_graphs(self):
        rng = SplitMix64(2024)
        for _ in range(30):
            n = 6 + rng.next_below(2)
            p = (2, 5, 8)[rng.next_below(3)]
            g = random_graph(rng, n, p)
            assert exact_treewidth(g).value == brute_force_treewidth(g)
            assert exact_pathwidth(g).value == brute_force_pathwidth(g)


class TestCertificates:
    def test_certificates_validate_and_match_value(self):
        for g in all_graphs_up_to(6):
            if g.n == 0:
                continue
            for solve, cls in (
                (exact_treewidth, TreeDecomposition),
                (exact_pathwidth, PathDecomposition),
            ):
                rep = solve(g)
                assert isinstance(rep.certificate, cls)
                assert is_valid(g, rep.certificate)
                assert width(rep.certificate) == rep.value

    def test_report_fields(self):
        rep = exact_treewidth(path_graph(3))
        assert rep.parameter == "tw"
        # the peel removes the path whole, so no kernel runs; the peeled
        # edge {1, 2} is the witness
        assert rep.method == "bounds"
        assert rep.lower_witness == MinorScript((("dv", 0),))
        rep = exact_treewidth(cycle_graph(4))
        assert (rep.method, rep.lower_witness) == ("subset-DP", None)
        rep = exact_pathwidth(path_graph(3))
        assert rep.parameter == "pw"

    def test_empty_graph(self):
        rep = exact_treewidth(Graph())
        assert rep.value == -1
        assert is_valid(Graph(), rep.certificate)
        rep = exact_pathwidth(Graph())
        assert rep.value == -1


class TestGuards:
    def test_oversize_rejected(self):
        g = Graph(range(SOLVER_MAX_VERTICES + 1))
        with pytest.raises(CapabilityError):
            exact_treewidth(g)
        with pytest.raises(CapabilityError):
            exact_pathwidth(g)

    def test_limit_size_accepted(self):
        n = SOLVER_MAX_VERTICES
        for g, expected in ((Graph(range(n)), 0), (grid_graph(4, 4), 4),
                            (complete_graph(n), n - 1), (path_graph(n), 1)):
            assert g.n == n
            for parameter in ("tw", "pw"):
                report = exact_width(g, parameter)
                assert report.value == expected, (parameter, g.edges_sorted())
                assert is_valid(g, report.certificate)
                assert width(report.certificate) == expected

    def test_exact_width_dispatch(self):
        g = cycle_graph(5)
        assert exact_width(g, "tw").value == 2
        assert exact_width(g, "pw").value == 2
        with pytest.raises(ParameterError):
            exact_width(g, "bandwidth")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_deleting_a_vertex_never_raises_width(seed, n):
    rng = SplitMix64(seed)
    g = random_graph(rng, n, 5)
    v = g.vertices_sorted()[rng.next_below(n)]
    h = Graph(g.vertices - {v}, [e for e in g.edges if v not in e])
    assert exact_treewidth(h).value <= exact_treewidth(g).value
    assert exact_pathwidth(h).value <= exact_pathwidth(g).value
