"""Exhaustive families of small graphs, one per isomorphism class."""

from __future__ import annotations

from functools import lru_cache

from twpw.errors import CapabilityError
from twpw.graphs import Graph, from_networkx

ATLAS_MAX_VERTICES = 7


@lru_cache(maxsize=1)
def _atlas() -> tuple[Graph, ...]:
    from networkx.generators.atlas import graph_atlas_g

    return tuple(from_networkx(h) for h in graph_atlas_g())


def all_graphs_up_to(n: int, include_empty: bool = True) -> list[Graph]:
    """Every graph with at most n vertices, up to isomorphism."""
    if n > ATLAS_MAX_VERTICES:
        raise CapabilityError(f"graph family is enumerated up to {ATLAS_MAX_VERTICES} vertices")
    out = [g for g in _atlas() if g.n <= n]
    if not include_empty:
        out = [g for g in out if g.n > 0]
    return out
