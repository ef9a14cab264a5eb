"""Exact width solvers returning certifying decompositions.

Both solvers end in a subset dynamic program over vertex subsets
(`kernels.treewidth_dp`, `kernels.pathwidth_dp`), so they are guarded to
16 vertices, but a solver layer first cuts the graph into the parts the
kernel has to see:

* Tree-width, in four steps:

  1. Peel: remove simplicial vertices (a vertex whose neighbors are
     pairwise adjacent) while any is left; tw(G) = max(deg(v), tw(G - v))
     for such a v (Bodlaender and Koster, "Safe separators for
     treewidth", 2006).  So a tree never reaches the kernel.
  2. Split what remains into connected components.
  3. Bound each component of at least 9 vertices: the min-fill
     elimination order gives an upper bound hi (Bodlaender and Koster,
     "Treewidth computations I. Upper bounds", 2010), minor-min-width
     with the least-c contraction rule a lower bound lo (Gogate and
     Dechter, UAI 2004).  While lo < hi, lo + 1 is tried on the
     (lo + 1)-improved graph, which joins every non-adjacent pair with at
     least lo + 1 common neighbors until none is left (Clautiaux, Carlier,
     Moukrim and Negre, WEA 2003; LBN+ in Bodlaender, Koster and Wolle,
     JGAA 2006): when minor-min-width reaches lo + 1 there, that is the
     new lo.  When lo == hi the component is settled and its
     order is the min-fill order.  Smaller components skip this step:
     their kernel table has at most 256 entries and costs no more than
     the bounds, and their certificates stay the kernel's.
  4. Run the kernel on every component left.

  The certificate is one elimination order: the simplicial vertices in
  removal order, then each component's order.
* Path-width runs the kernel on each connected component with more than
  one vertex and concatenates the layouts.

Every tie in the peel and the split goes to the highest vertex index:
the highest simplicial vertex is removed first, and components are taken
by their lowest vertex, highest first.  The kernel picks the lowest index
for the vertex placed *last* and its order is read back in reverse, so
this keeps the layer's certificates close to the ones the kernel alone
returns; a connected graph of at most 8 vertices without simplicial
vertices gets exactly the kernel's certificate.  The bounds take the
lowest index on ties (see `_min_fill` and `_minor_min_width`).

The empty graph has tree-width and path-width -1, certified by one empty
bag.

`WidthReport.method` is "bounds" when some component was settled by the
bounds and none reached the kernel, and "subset-DP" otherwise; it is read
off `lower_witness`, which exactly the "bounds" reports carry.  The
witness is a script that proves the lower side: replayed from the graph
with `minors.replay_lower_witness` it leaves a graph of minimum degree at
least the value.  Tree-width is at least the minimum degree.  Were it
below the value, it would stay below under every minor step and under
every edge addition whose ends share at least value common neighbors,
which replay checks for each addition.  The script deletes every vertex
outside the component whose lower bound gives the value, then replays
that component's edge additions, if its bound came from an improved
graph, and its contractions; when a peeled simplicial vertex gives the
value, it deletes every vertex outside that vertex's clique instead.

Certificates and lower witnesses are checked before they are returned; a
certificate whose width disagrees with the computed value, or a witness
that does not replay to a minor of that minimum degree, is an internal
inconsistency, never a return value.
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
from .errors import CapabilityError, InconsistencyError, ParameterError, ToolError
from .graphs import Graph
from .minors import MinorScript, replay_lower_witness

SOLVER_MAX_VERTICES = 16
BOUNDS_MIN_VERTICES = 9  # smaller tree-width components go straight to the kernel
METHOD_SUBSET_DP = "subset-DP"
METHOD_BOUNDS = "bounds"


@dataclass(frozen=True)
class WidthReport:
    parameter: str  # "tw" or "pw"
    value: int  # -1 for the empty graph
    certificate: Decomposition
    lower_witness: MinorScript | None = None  # set when the bounds decided

    @property
    def method(self) -> str:
        return METHOD_SUBSET_DP if self.lower_witness is None else METHOD_BOUNDS


def _guard(g: Graph) -> None:
    if g.n > SOLVER_MAX_VERTICES:
        raise CapabilityError(
            f"exact solvers support at most {SOLVER_MAX_VERTICES} vertices, got {g.n}"
        )


def elimination_decomposition(g: Graph, order: list[int]) -> TreeDecomposition:
    """Tree-decomposition read off an elimination order.

    Eliminating v produces the bag {v} plus N+(v), v's neighbors in the
    filled graph when it is eliminated.  The bag node of v hangs off the
    bag node of the earliest-eliminated vertex of N+(v), its parent in the
    elimination tree; vertices with an empty N+(v) root their components
    and are chained.  N+(v) follows from the elimination tree (Liu, "The
    role of elimination trees in sparse factorization", 1990):

        N+(v) = (N(v) - eliminated) | union over children c of (N+(c) - {v})

    that is, v's neighbors and its children's N+ sets, less every vertex
    eliminated so far, v included.  Each N+ set is read once, by its
    parent, so the set operations add up to the size of the graph plus the
    total size of the bags, and the Python steps are linear in the number
    of vertices.  Each bag is frozen once, and TreeDecomposition keeps it
    without a copy.  The tree's edges join vertices of g, so it is built
    without Graph's checks, from a set filled and frozen as Graph does,
    which keeps the order its edges are listed in.  Checking the order
    costs O(n log n).

    Every tree edge joins a node to one eliminated later, so the tree is
    rooted at the last vertex of the order with each node's parent known
    as it is made, and the decomposition is built from these parts
    without walking the tree again.
    """
    if sorted(order) != g.vertices_sorted():
        raise ParameterError("elimination order must list every vertex once")
    rank = {v: i for i, v in enumerate(order)}.__getitem__
    adj = g.adjacency()
    eliminated: set[int] = set()
    below: dict[int, list[frozenset[int]]] = {}  # the N+ sets of each vertex's children
    bags = {}
    up: dict[int, int] = {}  # each node's parent, children first
    tree_edges: set[tuple[int, int]] = set()
    roots = []
    for v in order:
        eliminated.add(v)
        nb = adj[v].union(*below.pop(v, ())) - eliminated
        if nb:
            up[v] = parent = min(nb, key=rank)
            tree_edges.add((v, parent) if v < parent else (parent, v))
            below.setdefault(parent, []).append(nb)
        else:
            roots.append(v)
        bags[v] = nb.union((v,))
    up.update(zip(roots, roots[1:]))
    tree_edges.update((u, v) if u < v else (v, u) for u, v in zip(roots, roots[1:]))
    tree = Graph._trusted(g.vertices, frozenset(tree_edges))
    return TreeDecomposition._rooted(g, tree, bags, roots[-1], dict(reversed(up.items())))


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


def _finish(g: Graph, parameter: str, value: int, cert: Decomposition,
            lower_witness: MinorScript | None = None) -> WidthReport:
    report = validate(g, cert)
    if not report.valid or width(cert) != value:
        raise InconsistencyError(f"{parameter} certificate does not match value {value}")
    if lower_witness is not None:
        _check_lower_witness(g, value, lower_witness)
    return WidthReport(parameter, value, cert, lower_witness)


def _check_lower_witness(g: Graph, value: int, script: MinorScript) -> None:
    """Replay script from g as a lower witness for value; the graph it leaves
    must have minimum degree at least value, which proves tw(g) >= value."""
    try:
        minor = replay_lower_witness(g, script, value)
    except ToolError as exc:
        raise InconsistencyError(f"tw lower witness does not replay: {exc}") from None
    if not minor.n or min(map(len, minor.adjacency().values())) < value:
        raise InconsistencyError(f"tw lower witness does not reach value {value}")


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
        nb = rest = adj[v]
        low = max(low, nb.bit_count())
        while rest:
            b = rest & -rest
            rest ^= b
            u = b.bit_length() - 1
            adj[u] ^= 1 << v
            if _is_simplicial(adj, u):
                simplicial |= b
    return removed, low, alive


def _components(adj: list[int], alive: int) -> list[int]:
    """Components of the graph on alive, by lowest vertex, highest first.

    adj must hold no vertex outside alive for the vertices in alive."""
    comps = []
    while alive:
        comp = frontier = alive & -alive
        while frontier:
            grown = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                grown |= adj[b.bit_length() - 1]
            frontier = grown & ~comp
            comp |= frontier
        comps.append(comp)
        alive ^= comp
    return comps[::-1]


def _restrict(adj: list[int], members: list[int]) -> list[int]:
    """Kernel masks of the subgraph on members, re-indexed in list order.

    members must be ascending, and each member's neighbors members too, as
    in a component.  Each run of consecutive members then keeps its order
    and moves down as one block: the run starting at list index i moves by
    members[i] - i, and its bits land on indices i to the run's end.
    When members name every vertex, the masks are adj itself.
    """
    if len(members) == len(adj):
        return adj
    runs = []  # (how far the run moves down, its bits once moved)
    start = 0
    for i, v in enumerate(members):
        if i + 1 == len(members) or members[i + 1] != v + 1:
            runs.append((members[start] - start, ((2 << i) - 1) ^ ((1 << start) - 1)))
            start = i + 1
    out = []
    for v in members:
        nb, mask = adj[v], 0
        for shift, bits in runs:
            mask |= nb >> shift & bits
        out.append(mask)
    return out


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


def _min_fill(adj: list[int]) -> tuple[int, list[int]]:
    """Width and order of the min-fill elimination heuristic on adj.

    Each step eliminates the vertex with the smallest key (fill, degree,
    index), where fill counts the missing edges among its neighbors, and
    completes its neighbors into a clique.  The width of the order, the
    largest degree a vertex has when it is eliminated, bounds the
    tree-width from above.  (-1, []) for the empty graph.

    Keys are kept between steps: an elimination changes the fill only of
    the eliminated vertex's neighbors and of their neighbors, so only
    theirs are counted again.  Once the vertices left form a clique they
    all tie, and the rest of the order is ascending.
    """
    n = len(adj)
    adj = list(adj)
    # key[v] packs (fill, degree, v) into one int, so min(key) picks;
    # an eliminated vertex's key is above every other
    bits = n.bit_length()
    index = (1 << bits) - 1
    key = [0] * n
    gone = n * n << 2 * bits
    value, order = -1, []
    alive = stale = (1 << n) - 1  # stale: the vertices whose key is out of date
    for left in range(n, 0, -1):
        while stale:
            b = stale & -stale
            stale ^= b
            v = b.bit_length() - 1
            nb = rest = adj[v]
            # each missing edge among the neighbors is counted from both ends
            missing = -nb.bit_count()
            while rest:
                u = rest & -rest
                rest ^= u
                missing += (nb & ~adj[u.bit_length() - 1]).bit_count()
            key[v] = (missing << bits | nb.bit_count()) << bits | v
        best = min(key)
        if best >> bits == left - 1:
            # no fill and every other vertex a neighbor: what is left is a
            # clique, whose vertices all tie and go lowest index first
            order.extend(_members(alive))
            return max(value, left - 1), order
        pick = best & index
        key[pick] = gone
        alive ^= 1 << pick
        nb = rest = adj[pick]
        value = max(value, nb.bit_count())
        order.append(pick)
        # completing nb changes the fill of its members and their neighbors
        stale = nb
        while rest:
            b = rest & -rest
            rest ^= b
            u = b.bit_length() - 1
            adj[u] = (adj[u] | nb) & ~(b | 1 << pick)
            stale |= adj[u]
    return value, order


def _minor_min_width(adj: list[int]) -> tuple[int, list[tuple]]:
    """The minor-min-width lower bound on adj, and the steps that reach it.

    Each step takes the lowest-index vertex v of minimum degree and raises
    the bound to its degree; then it contracts v into the neighbor with the
    fewest common neighbors, lowest index on ties, which keeps that
    neighbor's index (or deletes v when it has no neighbor).  Every graph
    passed through is a minor of adj, and tree-width is at least the
    minimum degree and does not grow under minors, so the largest minimum
    degree seen bounds the tree-width from below.  The steps are minor
    steps ("c", v, u) and ("dv", v) over adj's indices, up to the first
    graph whose minimum degree is the bound.  (-1, []) for the empty graph.
    Degrees are kept as the graph shrinks, and the steps stop once no graph
    left could raise the bound.
    """
    n = len(adj)
    adj = list(adj)
    # key[v] packs (degree, v) into one int, so min(key) picks; a removed
    # vertex's key is above every other
    bits = n.bit_length()
    one = 1 << bits
    key = [nb.bit_count() << bits | v for v, nb in enumerate(adj)]
    value, steps, reached = (0 if adj else -1), [], 0
    # a graph on `left` vertices has minimum degree at most left - 1, so
    # the bound stops rising once that is at most value
    for left in range(n, 1, -1):
        if left - 1 <= value:
            break
        v = min(key) & (one - 1)
        key[v] = n * one
        nb = adj[v]
        if nb.bit_count() > value:
            value, reached = nb.bit_count(), len(steps)
        if not nb:
            steps.append(("dv", v))
            continue
        u, fewest, rest = -1, n, nb
        while rest:
            b = rest & -rest
            rest ^= b
            w = b.bit_length() - 1
            adj[w] ^= 1 << v
            key[w] -= one
            common = (adj[w] & nb).bit_count()
            if common < fewest:
                u, fewest = w, common
        steps.append(("c", v, u))
        merged = adj[u] | nb & ~(1 << u)
        rest = merged & ~adj[u]
        while rest:
            b = rest & -rest
            rest ^= b
            w = b.bit_length() - 1
            adj[w] |= 1 << u
            key[w] += one
        adj[u] = merged
        key[u] = merged.bit_count() << bits | u
    return value, steps[:reached]


def _improved(adj: list[int], k: int) -> tuple[list[int], list[tuple]]:
    """The k-improved graph of adj, and the steps ("a", u, v) that build it.

    Each pass joins, lowest pair first, every non-adjacent pair u < v with
    at least k common neighbors at that point; passes repeat until one
    joins nothing.  A join only adds common neighbors, so the graph left
    is the same whatever the order.  If tw(adj) <= k - 1, every join keeps
    that bound (see `minors.replay_lower_witness`), so a lower bound of k
    on the improved graph proves tw(adj) >= k.
    """
    adj = list(adj)
    full = (1 << len(adj)) - 1
    steps: list[tuple] = []
    joined = True
    while joined:
        joined = False
        for u in range(len(adj)):
            rest = full & ~adj[u] & ~((2 << u) - 1)
            while rest:
                b = rest & -rest
                rest ^= b
                v = b.bit_length() - 1
                if (adj[u] & adj[v]).bit_count() >= k:
                    adj[u] |= b
                    adj[v] |= 1 << u
                    steps.append(("a", u, v))
                    joined = True
    return adj, steps


def _lower_bound(adj: list[int], hi: int) -> tuple[int, list[tuple]]:
    """A lower bound on the tree-width of adj, at most hi, and the steps of
    its witness: LBN+ over minor-min-width (Bodlaender, Koster and Wolle,
    "Contraction and treewidth lower bounds", JGAA 2006).

    From the minor-min-width bound lo, each k = lo + 1, ..., hi in turn is
    tried on the k-improved graph: when minor-min-width reaches k there, lo
    becomes k, and its steps are the improvement's edge additions followed
    by the contractions.  The first k that fails ends the search.
    """
    lo, steps = _minor_min_width(adj)
    while lo < hi:
        improved, added = _improved(adj, lo + 1)
        reached, contracted = _minor_min_width(improved)
        if reached <= lo:
            break
        lo, steps = lo + 1, added + contracted
    return lo, steps


def _settle_component(masks: list[int]) -> tuple[int, list[int], list[tuple] | None]:
    """Tree-width and an optimal order of a connected graph, and the steps
    of its lower witness when the bounds meet; None for the steps when the
    kernel decided."""
    if len(masks) >= BOUNDS_MIN_VERTICES:
        hi, order = _min_fill(masks)
        lo, steps = _lower_bound(masks, hi)
        if lo == hi:
            return hi, order, steps
    value, order = kernels.treewidth_dp(masks)
    return value, order, None


def _peeled_clique(masks: list[int], removed: list[int], degree: int) -> list[int]:
    """The first peeled vertex with the given degree at its removal, with
    its neighbors then: a clique of the graph on masks."""
    gone = 0
    for v in removed:
        nb = masks[v] & ~gone
        if nb.bit_count() == degree:
            return _members(nb | 1 << v)
        gone |= 1 << v
    raise InconsistencyError(f"no peeled vertex had degree {degree}")


def _lower_witness(ids: list[int], keep: list[int], steps: list[tuple]) -> MinorScript:
    """Witness steps over the vertex ids: delete every vertex outside keep,
    then replay steps, written over the indices of keep.  A contraction's
    vertex is named as unary.contract_edge names it, one more than the
    largest id left."""
    names = {i: ids[v] for i, v in enumerate(keep)}
    kept = set(names.values())
    script = [("dv", v) for v in ids if v not in kept]
    for step in steps:
        if step[0] == "dv":
            script.append(("dv", names.pop(step[1])))
        elif step[0] == "a":
            script.append(("a", names[step[1]], names[step[2]]))
        else:
            fresh = max(names.values()) + 1
            script.append(("c", names.pop(step[1]), names[step[2]]))
            names[step[2]] = fresh
    return MinorScript(tuple(script))


def exact_treewidth(g: Graph) -> WidthReport:
    _guard(g)
    if g.n == 0:
        return WidthReport("tw", -1, trivial_tree_decomposition(g))
    ids = g.vertices_sorted()
    adj = g.masks()
    removed, low, alive = _peel_simplicial(adj)
    value, order = low, list(removed)
    settled = kernel_used = False
    lower = None  # (members, steps) of the settled component that sets value
    # the peel leaves no isolated vertex, so every component has an edge
    for comp in _components(adj, alive):
        members = _members(comp)
        part, sub, steps = _settle_component(_restrict(adj, members))
        order.extend(members[i] for i in sub)
        if steps is None:
            kernel_used = True
        else:
            settled = True
            if part > value:
                lower = members, steps
        value = max(value, part)
    cert = elimination_decomposition(g, [ids[i] for i in order])
    if not settled or kernel_used:
        return _finish(g, "tw", value, cert)
    keep, steps = lower or (_peeled_clique(g.masks(), removed, low), [])
    return _finish(g, "tw", value, cert, _lower_witness(ids, keep, steps))


def exact_pathwidth(g: Graph) -> WidthReport:
    _guard(g)
    if g.n == 0:
        return WidthReport("pw", -1, trivial_path_decomposition(g))
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
