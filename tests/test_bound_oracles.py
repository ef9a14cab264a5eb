"""The solver layer's bounds and mask helpers against their frozen copies.

Every atlas graph up to seven vertices and seeded G(n, p) graphs of 9 to
16 vertices are run through both sides, as are the k-improved graphs of
each for every k up to min-fill's bound, so the improved graphs' denser
ties are covered too.  Orders, steps and masks must match exactly, except
for the lower bound: the frozen one improves the graph once before it
contracts, the current one again after every contraction, so the frozen
bound is the floor the current one must reach.  That search, LBN+, is
minor-min-width's loop run with k; it must find a witness exactly where
the frozen copy of its earlier, separate loop does, with the same steps.
The peel, run with bound -1 as on the whole graph, must match the frozen
simplicial peel, which has no bound.  The lower witness the peel records
as it eliminates must be the one the frozen replay of its eliminations
finds, at every bound.
"""

import pytest

import frozen_bounds as frozen
from smallgraphs import all_graphs_up_to
from twpw import exact
from twpw.graphs import Graph
from twpw.harness import SplitMix64, random_graph
from twpw.minors import replay_lower_witness

from test_solver_layer import almost_simplicial_graphs, seeded_graphs

SEEDED = [random_graph(SplitMix64(seed), n, p)
          for seed in (1, 2, 3) for n in range(9, 17) for p in (2, 4, 5, 6, 8)]


def inputs(graphs):
    """The masks of each graph and of its k-improved graphs, k = 1 up to
    its min-fill bound."""
    for g in graphs:
        masks = g.masks()
        yield masks
        hi, _ = frozen.min_fill(masks)
        for k in range(1, hi + 1):
            yield frozen.improved(masks, k)[0]


CASES = {"atlas": list(inputs(all_graphs_up_to(7))), "seeded": list(inputs(SEEDED))}


@pytest.fixture(params=sorted(CASES))
def cases(request):
    return CASES[request.param]


def test_min_fill(cases):
    for masks in cases:
        assert exact._min_fill(masks) == frozen.min_fill(masks), masks


def test_min_fill_keys_by_delta(cases):
    """Keys kept by delta give the orders of keys counted again."""
    for masks in cases:
        assert exact._min_fill(masks) == frozen.min_fill_by_recount(masks), masks


def test_minor_min_width(cases):
    for masks in cases:
        assert exact._minor_min_width(masks) == frozen.minor_min_width(masks), masks


def test_lbn_plus(cases):
    for masks in cases:
        hi, _ = frozen.min_fill(masks)
        for k in range(1, hi + 2):
            value, steps = exact._minor_min_width(masks, k)
            assert (steps if value >= k else None) == frozen.lbn_plus(masks, k), (masks, k)


def test_improved(cases):
    for masks in cases:
        hi, _ = frozen.min_fill(masks)
        for k in range(hi + 2):
            assert exact._improved(masks, k) == frozen.improved(masks, k), (masks, k)


def test_improved_again_from_the_touched_ends(cases):
    """Improving a k-improved graph with some edges added, trying only the
    pairs at their ends, gives the k-improved graph of the whole."""
    for masks in cases[::3]:
        for k in (1, 2, 3):
            adj = frozen.improved(masks, k)[0]
            for u, v in [(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj))
                         if not adj[u] >> v & 1][:3]:
                grown = list(adj)
                grown[u] |= 1 << v
                grown[v] |= 1 << u
                ours = exact._improved(grown, k, 1 << u | 1 << v)[0]
                assert ours == frozen.improved(grown, k)[0], (masks, k, u, v)


def replayed_min_degree(masks, steps, value):
    """Minimum degree of the graph left by replaying steps on masks as a
    lower witness for value."""
    n = len(masks)
    g = Graph(range(n), [(u, v) for u in range(n) for v in range(u + 1, n) if masks[u] >> v & 1])
    left = replay_lower_witness(g, exact._lower_witness(list(range(n)), list(range(n)), steps),
                                value)
    return min(map(len, left.adjacency().values()))


# cases, at min-fill's bound as the cap, where the bound beats the frozen one
GAINS = {"atlas": 0, "seeded": 39}


@pytest.mark.parametrize("name", sorted(CASES))
def test_lower_bound(name):
    """Never weaker than the frozen bound, above the cap only where
    minor-min-width alone is, and its steps replay to a graph of minimum
    degree at least the bound."""
    gains = 0
    for masks in CASES[name]:
        hi, _ = frozen.min_fill(masks)
        for cap in {hi, hi + 1, max(hi - 1, 0)}:
            lo, steps = exact._lower_bound(masks, cap)
            floor, _ = frozen.lower_bound(masks, cap)
            # a cap below minor-min-width's bound stops no search: both keep it
            assert floor <= lo <= max(cap, floor), (masks, cap)
            if lo > 0:
                assert replayed_min_degree(masks, steps, lo) >= lo, (masks, cap)
            gains += cap == hi and lo > floor
    assert gains == GAINS[name]


def test_peel_split_and_restrict(cases):
    for masks in cases:
        full = (1 << len(masks)) - 1
        assert exact._components(masks, full) == frozen.components(masks, full), masks
        ours, theirs = list(masks), list(masks)
        peeled = exact._peel(ours, -1)
        assert peeled[:3] == frozen.peel_simplicial(theirs), masks
        assert ours == theirs, masks
        comps = exact._components(ours, peeled[2])
        assert comps == frozen.components(theirs, peeled[2]), masks
        for comp in comps:
            members = frozen._members(comp)
            assert exact._restrict(ours, members) == frozen.restrict(theirs, members)


def test_the_peel_records_the_replayed_witness():
    """Wherever the peel raises its bound, its witness is the frozen
    replay's, over every bound from -1 to the lower bound."""
    compared = contracted = 0
    for g in all_graphs_up_to(7) + seeded_graphs() + almost_simplicial_graphs():
        masks = g.masks()
        lo, _ = exact._lower_bound(masks, exact._min_fill(masks)[0])
        for bound in range(-1, lo + 1):
            removed, low, _, raised = exact._peel(list(masks), bound)
            if low == bound:
                assert raised is None, (masks, bound)
                continue
            witness = exact._peel_witness(removed, *raised)
            assert witness == frozen.peeled_clique(masks, removed, low), (masks, bound)
            compared += 1
            contracted += any(step[0] == "c" for step in witness[1])
    assert compared > 1000
    assert contracted > 0


def test_inputs_are_not_changed():
    for masks in CASES["seeded"][:40]:
        kept = list(masks)
        exact._min_fill(masks)
        exact._minor_min_width(masks)
        exact._minor_min_width(masks, 3)
        exact._improved(masks, 3)
        exact._lower_bound(masks, len(masks))
        assert masks == kept
