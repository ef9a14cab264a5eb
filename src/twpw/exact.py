"""Exact width solvers returning certifying decompositions.

Both solvers end in a subset dynamic program over vertex subsets
(`kernels.treewidth_dp`, `kernels.pathwidth_dp`), so they are guarded to
16 vertices, but a solver layer first cuts the graph into the parts the
kernel has to see:

* Tree-width removes simplicial vertices (a vertex whose neighbors are
  pairwise adjacent) while any is left; tw(G) = max(deg(v), tw(G - v))
  for such a v (Bodlaender and Koster, "Safe separators for treewidth",
  2006).  The kernel then runs on each connected component of what
  remains, so a tree never reaches it.  The certificate is one
  elimination order: the simplicial vertices in removal order, then each
  component's order.
* Path-width runs the kernel on each connected component with more than
  one vertex and concatenates the layouts.

Every tie goes to the highest vertex index: the highest simplicial vertex
is removed first, and components are taken by their lowest vertex,
highest first.  The kernel picks the lowest index for the vertex placed
*last* and its order is read back in reverse, so this keeps the layer's
certificates close to the ones the kernel alone returns; a connected
graph without simplicial vertices gets exactly the kernel's certificate.

Certificates are validated before they are returned; a certificate whose
width disagrees with the computed value is an internal inconsistency,
never a return value.
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

    Each neighbor's row takes the clique in one set union, so the Python
    steps are linear in the total size of the bags; the unions add up to
    the sum of the squared bag sizes, done in C.  Each bag is frozen once,
    and TreeDecomposition keeps it without a copy.  Checking the order
    costs O(n log n).
    """
    if sorted(order) != g.vertices_sorted():
        raise ParameterError("elimination order must list every vertex once")
    pos = {v: i for i, v in enumerate(order)}
    adj = {v: set(nb) for v, nb in g.adjacency().items()}
    bags = {}
    tree_edges = []
    roots = []
    for v in order:
        nb = adj.pop(v)
        if nb:
            tree_edges.append((v, min(nb, key=pos.__getitem__)))
        else:
            roots.append(v)
        for a in nb:
            row = adj[a]
            row |= nb
            row.discard(a)
            row.discard(v)
        nb.add(v)
        bags[v] = frozenset(nb)
    tree_edges.extend(zip(roots, roots[1:]))
    return TreeDecomposition(g, Graph(g.vertices, tree_edges), bags)


def layout_decomposition(g: Graph, order: list[int]) -> PathDecomposition:
    """Path-decomposition read off a vertex layout.

    Bag i holds v_i plus every earlier vertex that still has a neighbor
    outside the first i-1 vertices.  A count of not-yet-placed neighbors
    per vertex keeps that boundary as the layout goes, and each bag is the
    boundary with v_i frozen once, which PathDecomposition keeps without a
    copy.  So the cost is linear in the size of the graph plus the total
    size of the bags.  Checking the layout costs O(n log n).
    """
    if sorted(order) != g.vertices_sorted():
        raise ParameterError("layout must list every vertex once")
    adj = g.adjacency()
    unplaced = {v: len(nb) for v, nb in adj.items()}
    boundary: set[int] = set()
    bags = []
    for v in order:
        boundary.add(v)
        bags.append(frozenset(boundary))
        for u in adj[v]:
            unplaced[u] -= 1
            if not unplaced[u]:
                boundary.discard(u)
        if not unplaced[v]:
            boundary.discard(v)
    return PathDecomposition(g, bags)


def _finish(g: Graph, parameter: str, value: int, cert: Decomposition) -> WidthReport:
    report = validate(g, cert)
    if not report.valid or width(cert) != value:
        raise InconsistencyError(f"{parameter} certificate does not match value {value}")
    return WidthReport(parameter, value, cert, METHOD_SUBSET_DP)


# --- solver layer -------------------------------------------------------
#
# The helpers below work on adjacency masks (bit j of adj[i] set when i and
# j are adjacent) and vertex sets as masks over the same indices.


def _members(mask: int) -> list[int]:
    """Indices of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _is_simplicial(adj: list[int], v: int) -> bool:
    """True when the neighbors of v are pairwise adjacent."""
    nb = adj[v]
    rest = nb
    while rest:
        b = rest & -rest
        rest ^= b
        if nb & ~adj[b.bit_length() - 1] != b:
            return False
    return True


def _peel_simplicial(adj: list[int]) -> tuple[list[int], int, int]:
    """Remove simplicial vertices from adj in place, highest index first.

    Returns the removed vertices in removal order, the largest degree one
    had when it was removed (-1 when none was), and the mask of the
    vertices left.  Removing a vertex keeps every other simplicial vertex
    simplicial and can make only its neighbors simplicial, so only those
    are tested again.
    """
    alive = (1 << len(adj)) - 1
    simplicial = 0
    for v in range(len(adj)):
        if _is_simplicial(adj, v):
            simplicial |= 1 << v
    removed, low = [], -1
    while simplicial:
        v = simplicial.bit_length() - 1
        simplicial ^= 1 << v
        alive ^= 1 << v
        removed.append(v)
        nb = adj[v]
        low = max(low, nb.bit_count())
        for u in _members(nb):
            adj[u] ^= 1 << v
            if _is_simplicial(adj, u):
                simplicial |= 1 << u
    return removed, low, alive


def _components(adj: list[int], alive: int) -> list[int]:
    """Components of the graph on alive, by lowest vertex, highest first.

    adj must hold no vertex outside alive for the vertices in alive."""
    comps = []
    while alive:
        comp = frontier = alive & -alive
        while frontier:
            grown = 0
            for u in _members(frontier):
                grown |= adj[u]
            frontier = grown & ~comp
            comp |= frontier
        comps.append(comp)
        alive ^= comp
    return comps[::-1]


def _restrict(adj: list[int], members: list[int]) -> list[int]:
    """Kernel masks of the subgraph on members, re-indexed in list order."""
    index = {v: 1 << i for i, v in enumerate(members)}
    return [sum(index[u] for u in _members(adj[v])) for v in members]


def _by_components(kernel, adj: list[int], alive: int) -> tuple[int, list[int]]:
    """Width and order, by index, from kernel run on each component of the
    graph on alive, components by lowest vertex, highest first; a
    one-vertex component has width 0 without a kernel call.  (-1, []) when
    alive is empty."""
    value, order = -1, []
    for comp in _components(adj, alive):
        members = _members(comp)
        part, sub = kernel(_restrict(adj, members)) if len(members) > 1 else (0, [0])
        value = max(value, part)
        order.extend(members[i] for i in sub)
    return value, order


def exact_treewidth(g: Graph) -> WidthReport:
    _guard(g)
    if g.n == 0:
        return WidthReport("tw", None, trivial_tree_decomposition(g), METHOD_SUBSET_DP)
    ids = g.vertices_sorted()
    adj = g.masks()
    removed, low, alive = _peel_simplicial(adj)
    value, order = _by_components(kernels.treewidth_dp, adj, alive)
    cert = elimination_decomposition(g, [ids[i] for i in removed + order])
    return _finish(g, "tw", max(low, value), cert)


def exact_pathwidth(g: Graph) -> WidthReport:
    _guard(g)
    if g.n == 0:
        return WidthReport("pw", None, trivial_path_decomposition(g), METHOD_SUBSET_DP)
    ids = g.vertices_sorted()
    value, layout = _by_components(kernels.pathwidth_dp, g.masks(), (1 << g.n) - 1)
    cert = layout_decomposition(g, [ids[i] for i in layout])
    return _finish(g, "pw", value, cert)


def exact_width(g: Graph, parameter: str) -> WidthReport:
    if parameter == "tw":
        return exact_treewidth(g)
    if parameter == "pw":
        return exact_pathwidth(g)
    raise ParameterError(f"unknown width parameter {parameter!r}")
