"""Exact width solvers returning certifying decompositions.

Both solvers run a subset dynamic program over all 2^n vertex subsets and
rebuild an optimal decomposition from the recorded choices, so they are
guarded to 16 vertices.  Certificates are validated before they are
returned; a certificate whose width disagrees with the computed value is an
internal inconsistency, never a return value.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .decomposition import (
    Decomposition,
    PathDecomposition,
    TreeDecomposition,
    trivial_path_decomposition,
    trivial_tree_decomposition,
    validate,
    width,
)
from .errors import CapabilityError, InconsistencyError, ParameterError
from .graphs import Graph

SOLVER_MAX_VERTICES = 16
METHOD_SUBSET_DP = "subset-DP"


@dataclass(frozen=True)
class WidthReport:
    parameter: str  # "tw" or "pw"
    value: int | None
    certificate: Decomposition
    method: str


def _guard(g: Graph) -> None:
    if g.n > SOLVER_MAX_VERTICES:
        raise CapabilityError(
            f"exact solvers support at most {SOLVER_MAX_VERTICES} vertices, got {g.n}"
        )


def elimination_decomposition(g: Graph, order: list[int]) -> TreeDecomposition:
    """Tree-decomposition read off an elimination order.

    Eliminating v produces the bag {v} plus v's current neighbors, which
    are then completed into a clique.  The bag node of v hangs off the bag
    node of its earliest-eliminated remaining neighbor; vertices eliminated
    with no remaining neighbor root their components and are chained.
    """
    if sorted(order) != g.vertices_sorted():
        raise ParameterError("elimination order must list every vertex once")
    pos = {v: i for i, v in enumerate(order)}
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    bags = {}
    tree_edges = []
    roots = []
    for v in order:
        nb = adj.pop(v)
        bags[v] = frozenset(nb | {v})
        if nb:
            tree_edges.append((v, min(nb, key=pos.__getitem__)))
        else:
            roots.append(v)
        for a in nb:
            adj[a].discard(v)
        for a in nb:
            for b in nb:
                if a < b:
                    adj[a].add(b)
                    adj[b].add(a)
    tree_edges.extend(zip(roots, roots[1:]))
    return TreeDecomposition(g, Graph(g.vertices, tree_edges), bags)


def layout_decomposition(g: Graph, order: list[int]) -> PathDecomposition:
    """Path-decomposition read off a vertex layout.

    Bag i holds v_i plus every earlier vertex that still has a neighbor
    outside the first i-1 vertices.
    """
    if sorted(order) != g.vertices_sorted():
        raise ParameterError("layout must list every vertex once")
    placed: set[int] = set()
    bags = []
    for v in order:
        boundary = {u for u in placed if g.neighbors(u) - placed}
        bags.append(boundary | {v})
        placed.add(v)
    return PathDecomposition(g, bags)


def _finish(g: Graph, parameter: str, value: int, cert: Decomposition) -> WidthReport:
    report = validate(g, cert)
    if not report.valid or width(cert) != value:
        raise InconsistencyError(f"{parameter} certificate does not match value {value}")
    return WidthReport(parameter, value, cert, METHOD_SUBSET_DP)


def exact_treewidth(g: Graph) -> WidthReport:
    _guard(g)
    if g.n == 0:
        return WidthReport("tw", None, trivial_tree_decomposition(g), METHOD_SUBSET_DP)
    order = g.vertices_sorted()
    value, elim = kernels.treewidth_dp(g.masks())
    cert = elimination_decomposition(g, [order[i] for i in elim])
    return _finish(g, "tw", value, cert)


def exact_pathwidth(g: Graph) -> WidthReport:
    _guard(g)
    if g.n == 0:
        return WidthReport("pw", None, trivial_path_decomposition(g), METHOD_SUBSET_DP)
    order = g.vertices_sorted()
    value, layout = kernels.pathwidth_dp(g.masks())
    cert = layout_decomposition(g, [order[i] for i in layout])
    return _finish(g, "pw", value, cert)


def exact_width(g: Graph, parameter: str) -> WidthReport:
    if parameter == "tw":
        return exact_treewidth(g)
    if parameter == "pw":
        return exact_pathwidth(g)
    raise ParameterError(f"unknown width parameter {parameter!r}")
