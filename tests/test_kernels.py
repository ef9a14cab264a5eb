import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from twpw import kernels
from twpw.graphs import Graph, complete_graph, from_networkx, is_connected, path_graph
from twpw.harness import SplitMix64, random_graph


def adjacency_masks(g):
    ids = g.vertices_sorted()
    pos = {v: i for i, v in enumerate(ids)}
    masks = [0] * g.n
    for u, v in g.edges_sorted():
        masks[pos[u]] |= 1 << pos[v]
        masks[pos[v]] |= 1 << pos[u]
    return masks


def test_graph_masks_match_reference():
    rng = SplitMix64(11)
    for n in range(9):
        for p in (2, 5, 8):
            g = random_graph(rng, n, p)
            assert g.masks() == adjacency_masks(g)
    sparse_ids = Graph([3, 7, 10], [(3, 10)])
    assert sparse_ids.masks() == adjacency_masks(sparse_ids) == [0b100, 0, 0b001]


class TestPureKernelValues:
    def test_empty(self):
        assert kernels.treewidth_dp([]) == (-1, [])
        assert kernels.pathwidth_dp([]) == (-1, [])

    def test_single_vertex(self):
        assert kernels.treewidth_dp([0]) == (0, [0])
        assert kernels.pathwidth_dp([0]) == (0, [0])

    def test_edge(self):
        masks = [2, 1]
        value, order = kernels.treewidth_dp(masks)
        assert value == 1 and sorted(order) == [0, 1]
        value, order = kernels.pathwidth_dp(masks)
        assert value == 1

    def test_triangle(self):
        masks = [6, 5, 3]
        assert kernels.treewidth_dp(masks)[0] == 2
        assert kernels.pathwidth_dp(masks)[0] == 2

    def test_path4(self):
        masks = [2, 5, 10, 4]
        assert kernels.treewidth_dp(masks)[0] == 1
        assert kernels.pathwidth_dp(masks)[0] == 1

    def test_order_is_permutation(self):
        masks = adjacency_masks(random_graph(SplitMix64(3), 7, 5))
        for fn in (kernels.treewidth_dp, kernels.pathwidth_dp):
            _, order = fn(masks)
            assert sorted(order) == list(range(7))


def per_vertex_treewidth_dp(masks):
    """The tree-width kernel as it was before the component pass: one BFS
    per vertex of every subset, ties to the lowest vertex index.  Frozen
    here as the oracle for the current kernel's values and orders."""
    n = len(masks)
    if n == 0:
        return -1, []
    full = (1 << n) - 1
    value = [0] * (full + 1)
    choice = [0] * (full + 1)
    value[0] = -1
    for s in range(1, full + 1):
        best = n
        bestv = -1
        t = s
        while t:
            low = t & -t
            v = low.bit_length() - 1
            t ^= low
            rest = s ^ low
            allowed = s
            comp = low
            nb = masks[v]
            frontier = nb & allowed & ~comp
            while frontier:
                comp |= frontier
                grow = 0
                f = frontier
                while f:
                    fb = f & -f
                    grow |= masks[fb.bit_length() - 1]
                    f ^= fb
                nb |= grow
                frontier = nb & allowed & ~comp
            cand = (nb & ~allowed).bit_count()
            if value[rest] > cand:
                cand = value[rest]
            if cand < best:
                best = cand
                bestv = v
        value[s] = best
        choice[s] = bestv
    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()
    return value[full], order


class TestTreewidthAgainstPerVertexOracle:
    def test_every_atlas_graph(self):
        for h in nx.graph_atlas_g():
            masks = from_networkx(h).masks()
            assert kernels.treewidth_dp(masks) == per_vertex_treewidth_dp(masks), masks

    def test_seeded_graphs_up_to_13_vertices(self):
        rng = SplitMix64(23)
        disconnected = 0
        for n in range(8, 14):
            for p in (2, 2, 5, 8):
                g = random_graph(rng, n, p)
                disconnected += not is_connected(g)
                masks = g.masks()
                assert kernels.treewidth_dp(masks) == per_vertex_treewidth_dp(masks), masks
        assert disconnected > 0


def loop_pathwidth_dp(masks):
    """The path-width kernel as it was before subset families: one pass over
    every vertex of every subset, ties to the lowest vertex index.  Frozen
    here as the readable oracle for the current kernel's values and orders."""
    n = len(masks)
    if n == 0:
        return -1, []
    full = (1 << n) - 1
    value = [0] * (full + 1)
    choice = [0] * (full + 1)
    for s in range(1, full + 1):
        boundary = 0
        best = n
        bestv = -1
        t = s
        while t:
            low = t & -t
            v = low.bit_length() - 1
            t ^= low
            if masks[v] & ~s:
                boundary += 1
            cand = value[s ^ low]
            if cand < best:
                best = cand
                bestv = v
        value[s] = boundary if boundary > best else best
        choice[s] = bestv
    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()
    return value[full], order


class TestPathwidthAgainstLoopOracle:
    def test_every_atlas_graph(self):
        for h in nx.graph_atlas_g():
            masks = from_networkx(h).masks()
            assert kernels.pathwidth_dp(masks) == loop_pathwidth_dp(masks), masks

    def test_seeded_graphs_up_to_16_vertices(self):
        rng = SplitMix64(29)
        disconnected = 0
        for n in range(8, 17):
            for p in (2, 5, 8):
                g = random_graph(rng, n, p)
                disconnected += not is_connected(g)
                masks = g.masks()
                assert kernels.pathwidth_dp(masks) == loop_pathwidth_dp(masks), masks
        assert disconnected > 0

    @pytest.mark.parametrize("g", [Graph(range(16)), path_graph(16), complete_graph(16)],
                             ids=["edgeless", "path", "complete"])
    def test_sixteen_vertex_extremes(self, g):
        masks = g.masks()
        assert kernels.pathwidth_dp(masks) == loop_pathwidth_dp(masks)


    def test_cliques_answered_without_families(self):
        for n in range(1, 13):
            masks = complete_graph(n).masks()
            assert kernels.pathwidth_dp(masks) == loop_pathwidth_dp(masks) \
                == (n - 1, list(range(n - 1, -1, -1)))
        # one edge short of a clique goes through the families
        masks = complete_graph(5).masks()
        masks[0] ^= 0b10
        masks[1] ^= 0b01
        assert kernels.pathwidth_dp(masks) == loop_pathwidth_dp(masks) == (3, [4, 3, 2, 1, 0])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from((2, 5, 8)))
def test_pathwidth_matches_loop_oracle(seed, n, p):
    masks = random_graph(SplitMix64(seed), n, p).masks()
    assert kernels.pathwidth_dp(masks) == loop_pathwidth_dp(masks)


class TestSizeGuard:
    @pytest.mark.parametrize("name", ["treewidth_dp", "pathwidth_dp"])
    def test_more_than_16_masks_refused(self, name):
        with pytest.raises(ValueError, match="at most 16 vertices"):
            getattr(kernels, name)([0] * 17)


# masks that describe no simple graph, by the message the kernels give
BAD_MASKS = {
    "bit at n": ([0b100, 0b000], "outside the 2 vertices"),
    "bit far beyond n": ([0b10, 0b01, 1 << 40], "outside the 3 vertices"),
    "negative mask": ([0b10, -1], "outside the 2 vertices"),
    "loop": ([0b10, 0b11], "loop at vertex 1"),
    "asymmetric pair": ([0b110, 0b001, 0b000], r"asymmetric pair \(0, 2\)"),
}


class TestInputCheck:
    @pytest.mark.parametrize("name", ["treewidth_dp", "pathwidth_dp"])
    @pytest.mark.parametrize("kind", sorted(BAD_MASKS))
    def test_masks_of_no_simple_graph_refused(self, name, kind):
        masks, message = BAD_MASKS[kind]
        with pytest.raises(ValueError, match=message):
            getattr(kernels, name)(masks)

    @pytest.mark.parametrize("name", ["treewidth_dp", "pathwidth_dp"])
    def test_sixteen_vertex_input_refused_for_one_bad_bit(self, name):
        masks = complete_graph(16).masks()
        masks[15] ^= 1 << 14
        with pytest.raises(ValueError, match=r"asymmetric pair \(14, 15\)"):
            getattr(kernels, name)(masks)


class TestSelection:
    def test_module_binds_some_backend(self):
        assert kernels.backend() == "python"
        assert kernels.load_backend("python") is kernels
        assert callable(kernels.treewidth_dp)
        assert callable(kernels.pathwidth_dp)

    def test_compiled_backend_is_not_importable(self):
        with pytest.raises(ImportError):
            kernels.load_backend("c")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            kernels.load_backend("fortran")


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_treewidth_never_exceeds_pathwidth(seed, n):
    masks = adjacency_masks(random_graph(SplitMix64(seed), n, 5))
    assert kernels.treewidth_dp(masks)[0] <= kernels.pathwidth_dp(masks)[0]
