import os
import subprocess
import sys

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


PURE = kernels.load_backend("python")


def test_graph_masks_match_reference():
    rng = SplitMix64(11)
    for n in range(9):
        for p in (2, 5, 8):
            g = random_graph(rng, n, p)
            assert g.masks() == adjacency_masks(g)
    sparse_ids = Graph([3, 7, 10], [(3, 10)])
    assert sparse_ids.masks() == adjacency_masks(sparse_ids) == [0b100, 0, 0b001]


def available_backends():
    yield PURE
    try:
        yield kernels.load_backend("c")
    except ImportError:
        pytest.skip("compiled kernels not built")


class TestPureKernelValues:
    def test_empty(self):
        assert PURE.treewidth_dp([]) == (-1, [])
        assert PURE.pathwidth_dp([]) == (-1, [])

    def test_single_vertex(self):
        assert PURE.treewidth_dp([0]) == (0, [0])
        assert PURE.pathwidth_dp([0]) == (0, [0])

    def test_edge(self):
        masks = [2, 1]
        value, order = PURE.treewidth_dp(masks)
        assert value == 1 and sorted(order) == [0, 1]
        value, order = PURE.pathwidth_dp(masks)
        assert value == 1

    def test_triangle(self):
        masks = [6, 5, 3]
        assert PURE.treewidth_dp(masks)[0] == 2
        assert PURE.pathwidth_dp(masks)[0] == 2

    def test_path4(self):
        masks = [2, 5, 10, 4]
        assert PURE.treewidth_dp(masks)[0] == 1
        assert PURE.pathwidth_dp(masks)[0] == 1

    def test_order_is_permutation(self):
        masks = adjacency_masks(random_graph(SplitMix64(3), 7, 5))
        for fn in (PURE.treewidth_dp, PURE.pathwidth_dp):
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
            assert PURE.treewidth_dp(masks) == per_vertex_treewidth_dp(masks), masks

    def test_seeded_graphs_up_to_13_vertices(self):
        rng = SplitMix64(23)
        disconnected = 0
        for n in range(8, 14):
            for p in (2, 2, 5, 8):
                g = random_graph(rng, n, p)
                disconnected += not is_connected(g)
                masks = g.masks()
                assert PURE.treewidth_dp(masks) == per_vertex_treewidth_dp(masks), masks
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
            assert PURE.pathwidth_dp(masks) == loop_pathwidth_dp(masks), masks

    def test_seeded_graphs_up_to_16_vertices(self):
        rng = SplitMix64(29)
        disconnected = 0
        for n in range(8, 17):
            for p in (2, 5, 8):
                g = random_graph(rng, n, p)
                disconnected += not is_connected(g)
                masks = g.masks()
                assert PURE.pathwidth_dp(masks) == loop_pathwidth_dp(masks), masks
        assert disconnected > 0

    @pytest.mark.parametrize("g", [Graph(range(16)), path_graph(16), complete_graph(16)],
                             ids=["edgeless", "path", "complete"])
    def test_sixteen_vertex_extremes(self, g):
        masks = g.masks()
        assert PURE.pathwidth_dp(masks) == loop_pathwidth_dp(masks)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.sampled_from((2, 5, 8)))
def test_pathwidth_matches_loop_oracle(seed, n, p):
    masks = random_graph(SplitMix64(seed), n, p).masks()
    assert PURE.pathwidth_dp(masks) == loop_pathwidth_dp(masks)


class TestSizeGuard:
    @pytest.mark.parametrize("name", ["treewidth_dp", "pathwidth_dp"])
    def test_more_than_16_masks_refused(self, name):
        with pytest.raises(ValueError, match="at most 16 vertices"):
            getattr(PURE, name)([0] * 17)


class TestBackendAgreement:
    def test_backends_match_on_seeded_graphs(self):
        backends = list(available_backends())
        if len(backends) < 2:
            pytest.skip("only one backend present")
        rng = SplitMix64(17)
        for _ in range(120):
            n = 1 + rng.next_below(8)
            p = (2, 5, 8)[rng.next_below(3)]
            masks = adjacency_masks(random_graph(rng, n, p))
            for name in ("treewidth_dp", "pathwidth_dp"):
                results = [getattr(b, name)(masks) for b in backends]
                assert all(r == results[0] for r in results), (name, masks, results)
                assert sorted(results[0][1]) == list(range(n))

    def test_compiled_guards_width(self):
        try:
            fast = kernels.load_backend("c")
        except ImportError:
            pytest.skip("compiled kernels not built")
        for fn in (fast.treewidth_dp, fast.pathwidth_dp):
            with pytest.raises(ValueError):
                fn([0] * 17)


class TestSelection:
    def test_module_binds_some_backend(self):
        assert kernels.BACKEND in ("python", "c")
        assert callable(kernels.treewidth_dp)
        assert callable(kernels.pathwidth_dp)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            kernels.load_backend("fortran")

    @pytest.mark.parametrize("name,expected", [("python", "python"), ("pure", "python")])
    def test_env_var_forces_pure(self, name, expected):
        env = dict(os.environ, TWPW_KERNELS=name)
        out = subprocess.run(
            [sys.executable, "-c", "import twpw.kernels as k; print(k.BACKEND)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == expected

    def test_env_var_auto_prefers_compiled_when_built(self):
        try:
            kernels.load_backend("c")
        except ImportError:
            pytest.skip("compiled kernels not built")
        env = dict(os.environ, TWPW_KERNELS="auto")
        out = subprocess.run(
            [sys.executable, "-c", "import twpw.kernels as k; print(k.BACKEND)"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "c"


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(1, 7))
def test_treewidth_never_exceeds_pathwidth(seed, n):
    masks = adjacency_masks(random_graph(SplitMix64(seed), n, 5))
    assert PURE.treewidth_dp(masks)[0] <= PURE.pathwidth_dp(masks)[0]
