"""Exhaustive families of small graphs, one per isomorphism class, and the
networkx bridges the tests check the package against."""

from __future__ import annotations

from functools import lru_cache

import networkx as nx

from twpw.errors import CapabilityError
from twpw.graphs import Graph

ATLAS_MAX_VERTICES = 7


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices_sorted())
    h.add_edges_from(g.edges_sorted())
    return h


def from_networkx(h: nx.Graph) -> Graph:
    return Graph(h.nodes(), h.edges())


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return nx.is_isomorphic(to_networkx(g1), to_networkx(g2))


def induced_subgraph(g: Graph, vertices) -> Graph:
    keep = frozenset(vertices)
    return Graph(keep, [e for e in g.edges if e[0] in keep and e[1] in keep])


def biconnected_components(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of the biconnected components (each spans >= 2 vertices),
    ordered by smallest member; isolated vertices belong to none."""
    comps = [frozenset(c) for c in nx.biconnected_components(to_networkx(g))]
    return sorted(comps, key=min)


@lru_cache(maxsize=1)
def _atlas() -> tuple[Graph, ...]:
    return tuple(from_networkx(h) for h in nx.graph_atlas_g())


def all_graphs_up_to(n: int, include_empty: bool = True) -> list[Graph]:
    """Every graph with at most n vertices, up to isomorphism."""
    if n > ATLAS_MAX_VERTICES:
        raise CapabilityError(f"graph family is enumerated up to {ATLAS_MAX_VERTICES} vertices")
    out = [g for g in _atlas() if g.n <= n]
    if not include_empty:
        out = [g for g in out if g.n > 0]
    return out
