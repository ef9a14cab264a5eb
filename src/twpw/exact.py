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
     Dechter, UAI 2004).  While lo < hi, k = lo + 1 is tried by LBN+
     (Bodlaender, Koster and Wolle, JGAA 2006), which is minor-min-width's
     loop run with k: the same contractions on the k-improved graph, which
     joins every non-adjacent pair with at least k common neighbors until
     none is left (Clautiaux, Carlier, Moukrim and Negre, WEA 2003), with
     the graph k-improved again after every contraction.  When the bound
     reaches k there, that is the new lo.  When lo == hi the component
     is settled and its order is the min-fill order.  Otherwise the
     component is peeled again with the bound lo: besides simplicial
     vertices, an almost-simplicial vertex (all its neighbors but one, w,
     pairwise adjacent) of degree at most lo is eliminated, which
     contracts it into w (Bodlaender, Koster and van den Eijkhof,
     "Preprocessing rules for triangulation of probabilistic networks",
     Computational Intelligence 2005).  Every vertex eliminated has degree
     at most low, lo raised by the degrees of the simplicial ones, and
     low <= tw, so tw = max(low, tw of what is left).  The peel notes
     the vertex that raised low as it eliminates.  When nothing is left,
     the component is settled at low.  Smaller components skip this step
     so that their certificates stay the kernel's, which the golden pins
     of the tests are built on; the bounds would cost less there, not
     more (README, "Solver layer").
  4. Run the kernel on every component left.

  `_by_components` is the one loop over components, for both widths.
  Tree-width runs it on what the first peel leaves, settling each
  component as in step 3, and on what a component's own peel leaves,
  giving each part to the kernel.

  The certificate is one elimination order: the simplicial vertices in
  removal order, then each component's order, which starts with the
  vertices its own peel eliminated.
* Path-width runs the kernel on each connected component with more than
  one vertex and concatenates the layouts.  The kernel starts at the
  component's minor-min-width bound (step 3 above): tree-width is at
  most path-width, so no level below that bound can hold the component,
  and the kernel builds none.  This moves only the layout's tie-breaks
  below the bound, never the width.

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

`WidthReport.method` is "bounds" when no kernel ran: every component was
settled by the bounds or by its own peel, or the first peel removed the
whole graph; it is "subset-DP" otherwise.  It is read off
`lower_witness`, which exactly the "bounds" reports carry.  The witness
is a script that proves the lower side: replayed from the graph with
`minors.replay_lower_witness` it leaves a graph of minimum degree at
least the value.  Tree-width is at least the minimum degree.  Were it
below the value, it would stay below under every minor step and under
every edge addition whose ends share at least value common neighbors,
which replay checks for each addition.  The script deletes every vertex
outside the component whose lower bound gives the value, then replays
that component's steps: if its bound came from LBN+, the edge additions
that improve it, then each contraction followed by the edge additions
that improve the graph again; otherwise its contractions alone.  When a
peeled simplicial vertex gives the value, the script deletes every
vertex outside that vertex's clique instead; when the peel had
contracted vertices before it, the script first replays the peel's
eliminations up to that vertex, contractions and deletions, since the
clique is one of the graph they leave.  The peel notes the vertex that
last raised its bound with its clique as it eliminates, and the witness
is built from that note only when it is the one returned (see `_peel`
and `_peel_witness`); nothing replays the peel afterwards.

Certificates and lower witnesses are checked before they are returned; a
certificate whose width disagrees with the computed value, or a witness
that does not replay to a minor of that minimum degree, is an internal
inconsistency, never a return value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

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
from .minors import MinorScript, _replay

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
    """Tree-decomposition read off an elimination order: the clique tree of
    the filled graph.

    Eliminating v gives the bag {v} plus N+(v), v's neighbors in the
    filled graph when it is eliminated.  Its parent in the elimination
    tree is the earliest-eliminated vertex of N+(v), and N+(v) follows
    from that tree (Liu, "The role of elimination trees in sparse
    factorization", 1990):

        N+(v) = (N(v) - eliminated) | union over children c of (N+(c) - {v})

    that is, v's neighbors and its children's N+ sets, less every vertex
    eliminated so far, v included.  So N+(v) contains N+(c) - {v} for
    each child c, and v's bag lies inside c's exactly when N+(c) is one
    larger than N+(v).  Then v's bag is not a maximal clique of the
    filled graph, and v joins the node of its first such child, in
    elimination order, instead of making one (Blair and Peyton, "An
    introduction to chordal graphs and clique trees", 1993).  Every other
    vertex makes a node, keyed by its id, whose bag is {v} plus N+(v).
    The node of each child that v does not join hangs off v's node; the
    nodes of vertices with an empty N+(v) root their components, and each
    hangs off the next one.  So no tree edge joins nested bags, and the
    bags are the maximal cliques of the filled graph, each once.

    Each N+ set is read once, by its parent, so the set operations add up
    to the size of the graph plus the total size of the bags, and the
    Python steps are linear in the number of vertices.  Each bag is frozen
    once, and TreeDecomposition keeps it without a copy.  Checking the
    order costs O(n log n).

    A node's parent is found when a vertex of the parent node is
    eliminated, and the parent node's own parent only later, after its
    last vertex.  So the tree is rooted at the node that holds the last
    vertex eliminated, the parent pairs read in reverse of the order they
    were found list every node after its parent, and the decomposition is
    these bags and this rooting: no tree is built or walked.
    """
    if sorted(order) != g.vertices_sorted():
        raise ParameterError("elimination order must list every vertex once")
    rank = {v: i for i, v in enumerate(order)}.__getitem__
    adj = g.adjacency()
    eliminated: set[int] = set()
    below: dict[int, list[tuple[int, frozenset[int]]]] = {}  # (node, N+ set) of each child
    bags = {}
    up = []  # (node, parent node), in the order they are found
    root = None
    for v in order:
        eliminated.add(v)
        kids = below.pop(v, None)
        node = v
        if kids is None:
            nb = adj[v] - eliminated
        elif len(kids) == 1:  # the common case, built without a list or a generator
            (u, s), = kids
            nb = (adj[v] | s) - eliminated
            if len(s) == len(nb) + 1:
                node = u
            else:
                up.append((u, v))
        else:
            nb = adj[v].union(*[s for _, s in kids]) - eliminated
            node = next((u for u, s in kids if len(s) == len(nb) + 1), v)
            up += [(u, node) for u, _ in kids if u != node]
        if node == v:
            bags[v] = nb.union((v,))
        if nb:
            below.setdefault(min(nb, key=rank), []).append((node, nb))
        else:
            if root is not None:
                up.append((root, node))
            root = node
    return TreeDecomposition._rooted(g, bags, root, dict(reversed(up)))


def layout_decomposition(g: Graph, order: list[int]) -> PathDecomposition:
    """Path-decomposition read off a vertex layout.

    After v_i is placed, the boundary holds every placed vertex that still
    has a neighbor outside the first i vertices.  The bag of step i is
    v_i plus the boundary before it, and it lies inside the next bag
    unless some member leaves the boundary at step i; so a bag is kept
    only at such a step, the last one always.  A count of not-yet-placed
    neighbors per vertex keeps the boundary as the layout goes.  A
    neighbor whose count reaches 0 before it is placed has not entered
    the boundary; it leaves when it is placed.  Each kept bag is the
    boundary frozen once, which PathDecomposition keeps without a copy.
    So the cost is linear in the size of the graph plus the total size of
    the bags.  Checking the layout costs O(n log n).
    """
    if sorted(order) != g.vertices_sorted():
        raise ParameterError("layout must list every vertex once")
    adj = g.adjacency()
    unplaced = {v: len(nb) for v, nb in adj.items()}
    boundary: set[int] = set()
    bags = []
    for v in order:
        boundary.add(v)
        done = []
        for u in adj[v]:
            unplaced[u] -= 1
            if not unplaced[u] and u in boundary:
                done.append(u)
        if not unplaced[v]:
            done.append(v)
        if done:
            bags.append(frozenset(boundary))
            boundary.difference_update(done)
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
    """Replay script from g as a lower witness for value, as
    `minors.replay_lower_witness` does; the graph it leaves must have
    minimum degree at least value, which proves tw(g) >= value.  Only the
    degrees are read, so the replay edits mutable copies of g's neighbor
    sets in place and keeps no edge set."""
    adj = {v: set(nb) for v, nb in g.adjacency().items()}
    try:
        _replay(adj, None, script, value)
    except ToolError as exc:
        raise InconsistencyError(f"tw lower witness does not replay: {exc}") from None
    if not adj or min(map(len, adj.values())) < value:
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


def _is_clique(adj: list[int], mask: int) -> bool:
    """True when the vertices of mask are pairwise adjacent."""
    rest = mask
    while rest:
        b = rest & -rest
        rest ^= b
        if mask & ~adj[b.bit_length() - 1] != b:
            return False
    return True


def _eliminable(adj: list[int], v: int, bound: int) -> int:
    """The bit of the vertex that v goes into when it is eliminated: v's
    own when v is simplicial; the lowest w when v is almost simplicial
    with degree at most bound, that is all its neighbors but w pairwise
    adjacent; 0 when v cannot be eliminated."""
    nb = rest = adj[v]
    while rest:
        b = rest & -rest
        rest ^= b
        missing = (nb & ~adj[b.bit_length() - 1]) ^ b
        if missing:
            # every non-adjacent pair of neighbors holds w, so w is b, or
            # the one neighbor that b misses, which is above b
            if nb.bit_count() > bound:
                return 0
            if _is_clique(adj, nb ^ b):
                return b
            return missing if missing & (missing - 1) == 0 and _is_clique(adj, nb ^ missing) else 0
    return 1 << v


def _eliminate(adj: list[int], v: int) -> list[tuple[int, int]]:
    """Join the neighbors of v pairwise and remove v, in adj in place.
    Returns (u, the neighbors u gains) for each neighbor u that gains one."""
    nb = rest = adj[v]
    joined = []
    while rest:
        b = rest & -rest
        rest ^= b
        u = b.bit_length() - 1
        gains = (nb & ~adj[u]) ^ b
        if gains:
            joined.append((u, gains))
        adj[u] = (adj[u] | nb) & ~(b | 1 << v)
    return joined


def _peel(adj: list[int], bound: int = -1) -> tuple[list[int], int, int, tuple | None]:
    """Eliminate from adj in place, highest index first, every simplicial
    vertex and every almost-simplicial vertex of degree at most bound,
    while any is left.

    Returns the eliminated vertices in order, low: bound raised to the
    largest degree one had when it was eliminated, the mask of the
    vertices left, and the raise note of low when low > bound, else None.
    Eliminating an almost-simplicial v joins w to v's other neighbors,
    which is contracting v into w.  An elimination changes the
    neighborhoods of v's neighbors only, and joins only pairs of them, so
    only they and the common neighbors of a joined pair are tested again.
    With bound -1 only simplicial vertices go, and no pair is joined.

    The raise note is (count, clique, alive, into): the vertex that last
    raised low was the count-th eliminated, clique is the mask of it and
    its neighbors then, alive the mask of the vertices left after it, and
    into[v] the bit of the vertex each eliminated v went into, v's own
    when v was simplicial.  `_peel_witness` builds low's witness from it,
    only where that witness is used.
    """
    into = [0] * len(adj)  # the bit of the vertex each ready vertex goes into
    alive = (1 << len(adj)) - 1
    ready = 0
    for v in range(len(adj)):
        into[v] = _eliminable(adj, v, bound)
        if into[v]:
            ready |= 1 << v
    removed, low, raised = [], bound, None
    while ready:
        v = ready.bit_length() - 1
        alive ^= 1 << v
        stale = adj[v]
        if stale.bit_count() > low:
            low = stale.bit_count()
            raised = len(removed), stale | 1 << v, alive, into
        removed.append(v)
        for u, gains in _eliminate(adj, v):
            while gains:
                b = gains & -gains
                gains ^= b
                stale |= adj[u] & adj[b.bit_length() - 1]
        ready &= ~(stale | 1 << v)
        while stale:
            b = stale & -stale
            stale ^= b
            u = b.bit_length() - 1
            into[u] = _eliminable(adj, u, bound)
            if into[u]:
                ready |= b
    return removed, low, alive, raised


def _peel_witness(removed: list[int], count: int, clique: int, alive: int,
                  into: list[int]) -> tuple[list[int], list[tuple]]:
    """The (keep, steps) of a lower witness for the bound that a peel which
    eliminated removed noted as (count, clique, alive, into).

    Each elimination is a minor step: ("dv", v) for a simplicial v, ("c",
    v, w) for an almost-simplicial one.  The vertex that last raised the
    bound was simplicial, so with its neighbors it made a clique of the
    graph the steps before it left.  When none of them contracted, that
    clique is one of the graph peeled: keep is the clique and there are
    no steps.  Otherwise keep is every vertex, and the steps are those
    before it, then the deletion of every vertex outside the clique.
    """
    before = removed[:count]
    if all(into[v] == 1 << v for v in before):
        return _members(clique), []
    steps = [("dv", v) if into[v] == 1 << v else ("c", v, into[v].bit_length() - 1)
             for v in before]
    return list(range(len(into))), steps + [("dv", u) for u in _members(alive & ~clique)]


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


def _by_components(settle, adj: list[int], alive: int, value: int = -1,
                   lower: Callable[[], tuple] | None = None
                   ) -> tuple[int, list[int], tuple | None]:
    """Width, order and lower witness, by index, from settle run on each
    component of the graph on alive, components by lowest vertex, highest
    first.

    settle returns a component's width, order and the (keep, steps) of its
    lower witness, or None when a kernel decided it.  A one-vertex
    component has width 0 and the witness ([0], []) without a call.  The
    width starts at value, and lower, when given, is a function that
    builds value's witness: it is called only when that witness is the
    one returned.  A component wider than every part before it brings its
    own witness instead; the witness is None once any kernel ran.
    (value, [], lower()) when alive is empty."""
    order, ran, witness = [], False, None
    for comp in _components(adj, alive):
        members = _members(comp)
        part, sub, found = (settle(_restrict(adj, members)) if len(members) > 1
                            else (0, [0], ([0], [])))
        order.extend(members[i] for i in sub)
        if found is None:
            ran = True
        elif part > value:
            witness, lower = ([members[i] for i in found[0]], found[1]), None
        value = max(value, part)
    if ran:
        return value, order, None
    return value, order, lower() if lower else witness


def _min_fill(adj: list[int]) -> tuple[int, list[int]]:
    """Width and order of the min-fill elimination heuristic on adj.

    Each step eliminates the vertex with the smallest key (fill, degree,
    index), where fill counts the missing edges among its neighbors, and
    completes its neighbors into a clique.  The width of the order, the
    largest degree a vertex has when it is eliminated, bounds the
    tree-width from above.  (-1, []) for the empty graph.

    Keys are kept between steps: an elimination changes the neighborhoods
    only of the eliminated vertex's neighbors, so only their fill is
    counted again.  Any other vertex keeps its neighbors, and loses one
    missing pair for each fill edge whose ends are both its neighbors,
    which is taken off its key.  Once the vertices left form a clique they
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
    pair = 2 << 2 * bits  # one missing pair, counted from both ends
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
        # completing nb changes the neighbors of its members; a vertex
        # outside nb adjacent to both ends of a fill edge loses that pair
        stale = nb
        while rest:
            b = rest & -rest
            rest ^= b
            u = b.bit_length() - 1
            fill = nb & ~adj[u] & -(b << 1)  # the fill edges to higher members
            adj[u] = (adj[u] | nb) & ~(b | 1 << pick)
            outside = adj[u] & ~nb
            while fill:
                x = fill & -fill
                fill ^= x
                common = outside & adj[x.bit_length() - 1]
                while common:
                    w = common & -common
                    common ^= w
                    key[w.bit_length() - 1] -= pair
    return value, order


def _minor_min_width(adj: list[int], k: int | None = None) -> tuple[int, list[tuple]]:
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

    With k this is LBN+ for k (Bodlaender, Koster and Wolle, "Contraction
    and treewidth lower bounds", JGAA 2006): the same steps on the
    k-improved graph, k-improved again after each contraction, with its
    edge additions among the steps.  A bound of at least k then proves
    tw(adj) >= k (see `_improved`); the steps stop once it is reached or
    at most k vertices are left, as no such graph has minimum degree k.
    """
    n = len(adj)
    adj, steps = (list(adj), []) if k is None else _improved(adj, k)
    # key[v] packs (degree, v) into one int, so min(key) picks; a removed
    # vertex's key is above every other
    bits = n.bit_length()
    one = 1 << bits
    key = [nb.bit_count() << bits | v for v, nb in enumerate(adj)]
    value, reached = (0 if adj else -1), 0
    # a graph on `left` vertices has minimum degree at most left - 1, so
    # the bound stops rising once that is at most value
    for left in range(n, 1, -1):
        if left - 1 <= value if k is None else left <= k:
            break
        v = min(key) & (one - 1)
        key[v] = n * one
        nb, adj[v] = adj[v], 0  # zeroed: _improved scans every index
        if nb.bit_count() > value:
            value, reached = nb.bit_count(), len(steps)
            if k is not None and value >= k:
                break
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
        fresh = rest = nb & ~adj[u] & ~(1 << u)
        while rest:
            b = rest & -rest
            rest ^= b
            w = b.bit_length() - 1
            adj[w] |= 1 << u
            key[w] += one
        adj[u] |= fresh
        key[u] = adj[u].bit_count() << bits | u
        if k is not None:
            adj, added = _improved(adj, k, fresh | 1 << u)
            for _, s, t in added:
                key[s] += one
                key[t] += one
            steps += added
    return value, steps[:reached]


def _improved(adj: list[int], k: int, touched: int = -1) -> tuple[list[int], list[tuple]]:
    """The k-improved graph of adj, and the steps ("a", u, v) that build it.

    Each pass joins, lowest pair first, every non-adjacent pair u < v with
    at least k common neighbors at that point; passes repeat until one
    joins nothing.  A join only adds common neighbors, so the graph left
    is the same whatever the order.  If tw(adj) <= k - 1, every join keeps
    that bound (see `minors.replay_lower_witness`), so a lower bound of k
    on the improved graph proves tw(adj) >= k.

    Only pairs with an end in the mask touched are tried (every pair by
    default), and the ends of each join are touched from then on.  A pair
    gains a common neighbor only when one of its ends gains a neighbor, so
    when adj was k-improved before its latest edges were added, touching
    their ends is enough.
    """
    adj = list(adj)
    full = (1 << len(adj)) - 1
    steps: list[tuple] = []
    joined = True
    while joined:
        joined = False
        for u in range(len(adj)):
            rest = (full if touched >> u & 1 else touched) & ~adj[u] & ~((2 << u) - 1)
            while rest:
                b = rest & -rest
                rest ^= b
                v = b.bit_length() - 1
                if (adj[u] & adj[v]).bit_count() >= k:
                    adj[u] |= b
                    adj[v] |= 1 << u
                    touched |= b | 1 << u
                    steps.append(("a", u, v))
                    joined = True
    return adj, steps


def _lower_bound(adj: list[int], hi: int) -> tuple[int, list[tuple]]:
    """A lower bound on the tree-width of adj, at most hi, and the steps of
    its witness.

    From the minor-min-width bound lo, each k = lo + 1, ..., hi in turn is
    tried by LBN+, `_minor_min_width` run with k: when its bound reaches k,
    lo becomes k and its steps are the witness.  Only k is proved, even
    when the bound goes past it, since the additions are safe for k alone.
    The first k that fails ends the search.
    """
    lo, steps = _minor_min_width(adj)
    while lo < hi:
        reached, found = _minor_min_width(adj, lo + 1)
        if reached <= lo:
            break
        lo, steps = lo + 1, found
    return lo, steps


def _settle_component(masks: list[int]) -> tuple[int, list[int], tuple | None]:
    """Tree-width and an optimal order of a connected graph, and the
    (keep, steps) of its lower witness, over masks' indices, when no
    kernel ran; None when one did.

    A component of at least 9 vertices is bounded first.  When the bounds
    leave lo < hi, the peel with bound lo shrinks it before the kernel
    sees what is left: each vertex it eliminates has degree at most low,
    the bound it returns, and lo <= low <= tw, so tw = max(low, tw(rest)).
    low is witnessed by lo's steps, or, when low > lo, by the witness the
    peel's raise note gives; when the peel leaves nothing, that witness
    settles the component at low."""
    if len(masks) < BOUNDS_MIN_VERTICES:
        return _treewidth_kernel(masks)
    hi, order = _min_fill(masks)
    lo, steps = _lower_bound(masks, hi)
    if lo == hi:
        return hi, order, (range(len(masks)), steps)
    adj = list(masks)
    removed, low, alive, raised = _peel(adj, lo)
    lower = (partial(_peel_witness, removed, *raised) if raised
             else lambda: (range(len(masks)), steps))
    value, rest, witness = _by_components(_treewidth_kernel, adj, alive, low, lower)
    return value, removed + rest, witness


def _treewidth_kernel(masks: list[int]) -> tuple[int, list[int], None]:
    """The tree-width kernel on masks, which leaves no lower witness."""
    return (*kernels.treewidth_dp(masks), None)


def _lower_witness(ids: list[int], keep: list[int], steps: list[tuple]) -> MinorScript:
    """Witness steps over the vertex ids: delete every vertex outside keep,
    then replay steps, written over the indices of keep.  A contraction's
    vertex is named as graphs.fuse_vertices names it, one more than the
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
    removed, low, alive, raised = _peel(adj)
    lower = raised and partial(_peel_witness, removed, *raised)
    value, order, witness = _by_components(_settle_component, adj, alive, low, lower)
    cert = elimination_decomposition(g, [ids[i] for i in removed + order])
    script = None if witness is None else _lower_witness(ids, *witness)
    return _finish(g, "tw", value, cert, script)


def exact_pathwidth(g: Graph) -> WidthReport:
    _guard(g)
    if g.n == 0:
        return WidthReport("pw", -1, trivial_path_decomposition(g))
    ids = g.vertices_sorted()
    value, layout, _ = _by_components(_pathwidth_above_bound, g.masks(), (1 << g.n) - 1)
    cert = layout_decomposition(g, [ids[i] for i in layout])
    return _finish(g, "pw", value, cert)


def _pathwidth_above_bound(masks: list[int]) -> tuple[int, list[int], None]:
    """The path-width kernel on masks, started at their minor-min-width
    bound: mmw <= tw <= pw.  The kernel decides, so there is no witness."""
    return (*kernels.pathwidth_dp(masks, _minor_min_width(masks)[0]), None)


def exact_width(g: Graph, parameter: str) -> WidthReport:
    if parameter == "tw":
        return exact_treewidth(g)
    if parameter == "pw":
        return exact_pathwidth(g)
    raise ParameterError(f"unknown width parameter {parameter!r}")
