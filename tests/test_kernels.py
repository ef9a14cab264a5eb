import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from twpw import exact, kernels
from twpw.graphs import Graph, complete_graph, is_connected, path_graph
from twpw.harness import SplitMix64, random_graph, sample_graph
from twpw.unary import line_graph

from smallgraphs import all_graphs_up_to


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
        for g in all_graphs_up_to(7):
            masks = g.masks()
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

    def test_seeded_graphs_of_14_to_16_vertices(self):
        # the sizes where the table is large: 16 K to 64 K subsets
        rng = SplitMix64(31)
        for n, p in ((14, 2), (14, 8), (15, 5), (16, 2), (16, 5)):
            masks = random_graph(rng, n, p).masks()
            assert kernels.treewidth_dp(masks) == per_vertex_treewidth_dp(masks), masks

    def test_line_graph_of_an_eight_vertex_sample(self):
        # the shape the sweep's linegraph row sends: an 8-vertex, 16-edge
        # sample whose line graph has 16 vertices
        g = sample_graph(SplitMix64(37), 8)
        assert (g.n, g.m) == (8, 16)
        masks = line_graph(g).graph.masks()
        assert len(masks) == 16
        assert kernels.treewidth_dp(masks) == per_vertex_treewidth_dp(masks)


class TestTreewidthTable:
    def test_refusals_come_before_a_table_is_sized(self, monkeypatch):
        def sized(n):
            raise AssertionError("a table was sized")

        monkeypatch.setattr(kernels, "bytearray", sized, raising=False)
        for masks, message in BAD_MASKS.values():
            with pytest.raises(ValueError, match=message):
                kernels.treewidth_dp(masks)
        with pytest.raises(ValueError, match="at most 16 vertices"):
            kernels.treewidth_dp([0] * 17)
        masks = complete_graph(16).masks()
        masks[15] ^= 1 << 14
        with pytest.raises(ValueError, match=r"asymmetric pair \(14, 15\)"):
            kernels.treewidth_dp(masks)

    def test_twelve_vertex_call_stays_far_below_a_list_table(self):
        # 4 K subsets: a byte each is 4 KB, where a list slot each, for
        # the value and the choice, took 64 KB
        masks = random_graph(SplitMix64(5), 12, 5).masks()
        tracemalloc.start()
        try:
            kernels.treewidth_dp(masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024


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


def seeded_graphs():
    """G(n, p) draws of 8 to 16 vertices, some of them disconnected."""
    rng = SplitMix64(29)
    return [random_graph(rng, n, p) for n in range(8, 17) for p in (2, 5, 8)]


class TestPathwidthAgainstLoopOracle:
    def test_every_atlas_graph(self):
        for g in all_graphs_up_to(7):
            masks = g.masks()
            assert kernels.pathwidth_dp(masks) == loop_pathwidth_dp(masks), masks

    def test_seeded_graphs_up_to_16_vertices(self):
        disconnected = 0
        for g in seeded_graphs():
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


def vertex_separation(masks, layout):
    """The most placed vertices with a neighbor not yet placed, over the
    prefixes of layout."""
    placed = worst = 0
    for v in layout:
        placed |= 1 << v
        worst = max(worst, sum(1 for u in range(len(masks))
                               if placed >> u & 1 and masks[u] & ~placed))
    return worst


START_GRAPHS = [g for g in all_graphs_up_to(7) + seeded_graphs() if g.n]


class TestStart:
    """pathwidth_dp(masks, start) builds no family below start: any start
    up to the path-width gives the path-width, and a layout of it; start 0
    gives the loop oracle's layout too."""

    def test_every_start_up_to_the_pathwidth(self):
        for g in START_GRAPHS:
            masks = g.masks()
            pw, order = loop_pathwidth_dp(masks)
            assert kernels.pathwidth_dp(masks, 0) == (pw, order), masks
            for start in range(1, pw + 1):
                value, layout = kernels.pathwidth_dp(masks, start)
                assert value == pw, (masks, start)
                assert sorted(layout) == list(range(g.n)), (masks, start)
                assert vertex_separation(masks, layout) == pw, (masks, start)

    def test_start_outside_the_vertices_refused_before_a_table_is_sized(self, monkeypatch):
        def sized(n):
            raise AssertionError("a table was sized")

        monkeypatch.setattr(kernels, "_lacking", sized)
        for g in START_GRAPHS[::25] + [complete_graph(16), path_graph(16)]:
            for start in (-1, g.n, 1 << 40):
                with pytest.raises(ValueError, match=f"start {start} is outside 0..{g.n - 1}"):
                    kernels.pathwidth_dp(g.masks(), start)
        with pytest.raises(ValueError, match="start 1 is outside 0..0"):
            kernels.pathwidth_dp([], 1)

    def test_minor_min_width_is_at_most_the_pathwidth(self):
        for g in START_GRAPHS:
            masks = g.masks()
            assert exact._minor_min_width(masks)[0] <= kernels.pathwidth_dp(masks)[0], masks


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


def scan_check_masks(masks):
    """kernels._check_masks as it was before the packed check: every mask
    scanned in vertex order, the first fault named.  Frozen here as the
    oracle for which masks are refused and with which message."""
    n = len(masks)
    if n > kernels.MAX_VERTICES:
        raise ValueError(f"kernel supports at most {kernels.MAX_VERTICES} vertices")
    for v, mask in enumerate(masks):
        if mask >> n:
            raise ValueError(f"vertex {v} has a neighbor outside the {n} vertices")
        if mask >> v & 1:
            raise ValueError(f"loop at vertex {v}")
        rest = mask
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if not masks[u] >> v & 1:
                raise ValueError(f"asymmetric pair ({v}, {u})")
    return n


def check_outcome(check, masks):
    try:
        return check(masks)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def mask_cases(masks):
    """masks, then every single-bit flip in the 16 bits of each row and
    beyond them, each row made negative, and a 17th row."""
    n = len(masks)
    yield masks
    for v in range(n):
        for bit in (*range(17), 40):
            flipped = list(masks)
            flipped[v] ^= 1 << bit
            yield flipped
        for negative in (-1, ~masks[v], -masks[v] or -2, -(1 << 16)):
            changed = list(masks)
            changed[v] = negative
            yield changed
    yield masks + [0]
    yield masks + [1 << n]


class TestMaskCheckAgainstScan:
    """The packed bit-matrix check against the scan it replaced: the same
    masks accepted, and the same first fault named for the rest."""

    def test_seeded_graphs_up_to_16_vertices(self):
        rng = SplitMix64(97)
        refused = set()
        for n in range(17):
            for p in (2, 5, 8):
                for masks in mask_cases(random_graph(rng, n, p).masks()):
                    want = check_outcome(scan_check_masks, masks)
                    assert check_outcome(kernels._check_masks, masks) == want, masks
                    if isinstance(want, tuple):
                        refused.add(want[1].split(" ")[0])
        assert refused == {"vertex", "loop", "asymmetric", "kernel"}

    @pytest.mark.parametrize("masks", [[], [0], [0.5], [2, 1.0], [2, "1"], [True, 0], [False]])
    def test_masks_that_are_no_ints(self, masks):
        assert check_outcome(kernels._check_masks, masks) == check_outcome(scan_check_masks, masks)


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
