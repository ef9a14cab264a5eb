"""Brute-force graph invariants used as independent oracles.

Everything here enumerates subsets or colorings directly, so the shared
guard keeps inputs at 12 vertices or fewer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CapabilityError
from .graphs import Graph, components_within, is_connected

INVARIANT_MAX_VERTICES = 12


def _guard(g: Graph) -> None:
    if g.n > INVARIANT_MAX_VERTICES:
        raise CapabilityError(
            f"invariants support at most {INVARIANT_MAX_VERTICES} vertices, got {g.n}"
        )


def _max_clique_size(masks: list[int]) -> int:
    n = len(masks)
    if n == 0:
        return 0
    best = 1
    is_clique = bytearray(1 << n)
    is_clique[0] = 1
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        if is_clique[rest] and rest & ~masks[low.bit_length() - 1] == 0:
            is_clique[s] = 1
            size = s.bit_count()
            if size > best:
                best = size
    return best


def clique_number(g: Graph) -> int:
    _guard(g)
    return _max_clique_size(g.masks())


def independence_number(g: Graph) -> int:
    _guard(g)
    masks = g.masks()
    full = (1 << g.n) - 1
    co = [full & ~masks[i] & ~(1 << i) for i in range(g.n)]
    return _max_clique_size(co)


def chromatic_number(g: Graph) -> int:
    _guard(g)
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    order = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
    adj = g.adjacency()
    colors: dict[int, int] = {}

    def colorable(i: int, k: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        taken = {colors[u] for u in adj[v] if u in colors}
        # a fresh color may only be the next unused one
        limit = min(k, max(colors.values(), default=-1) + 2)
        for c in range(limit):
            if c in taken:
                continue
            colors[v] = c
            if colorable(i + 1, k):
                return True
            del colors[v]
        return False

    lower = clique_number(g)
    for k in range(max(lower, 1), g.n + 1):
        colors.clear()
        if colorable(0, k):
            return k
    return g.n


def vertex_connectivity(g: Graph) -> int:
    """Size of a smallest separating vertex set; n-1 for complete graphs."""
    _guard(g)
    if g.n == 0:
        return 0
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1
    if not is_connected(g):
        return 0
    order = g.vertices_sorted()
    adj = g.adjacency()
    for k in range(1, g.n - 1):
        for cut in combinations(order, k):
            if len(components_within(g.vertices.difference(cut), adj)) > 1:
                return k
    return g.n - 1


@dataclass(frozen=True)
class GraphInvariants:
    clique_number: int
    independence_number: int
    chromatic_number: int
    vertex_connectivity: int


def graph_invariants(g: Graph) -> GraphInvariants:
    _guard(g)
    return GraphInvariants(
        clique_number(g),
        independence_number(g),
        chromatic_number(g),
        vertex_connectivity(g),
    )
