"""Single-graph operations.

Each operation builds its result graph once and returns a `Result`.  Where
a width bound is provable, the operation also takes an optional
decomposition `d` of its input; given one, it rewrites it into a
decomposition of the result and records the claimed width bound.
Complement-like operations take none: no bound in terms of the input width
exists.

The rewrite assumes its input decomposition is valid; outputs are correct
by construction and cross-checked by the validator in the tests and the
sweep harness.
"""

from __future__ import annotations

from .decomposition import (
    Decomposition,
    PathDecomposition,
    TreeDecomposition,
    _drop_empty_bags_tree,
    trivial_tree_decomposition,
    width,
)
from .errors import CapabilityError, ParameterError
from .graphs import (
    GRAPH_MAX_EDGES,
    Graph,
    _require_edge,
    connected_components,
    drop_edge,
    drop_vertex,
    edited,
    fresh_id,
    fuse_vertices,
    guard_size,
    is_forest,
    join_vertices,
    max_degree,
    new_vertex,
)
from .results import Result, check_host


def _carry(g2: Graph, d: Decomposition | None, f, extra: int = 0) -> Result:
    """g2 with, when d is given, d's bags rewritten by f and the claim
    width(d) + extra."""
    if d is None:
        return Result(g2)
    return Result(g2, d.rebag(g2, f), width(d) + extra)


def _hang_bags(d: TreeDecomposition, g2: Graph, leaves) -> TreeDecomposition:
    """d over g2 plus one leaf node per (anchor node, bag) of leaves,
    numbered from the largest node + 1 on; the tree keeps d's rooting,
    each new leaf a child of its anchor."""
    bags = dict(d.bags)
    parent = dict(d._parent)
    for z, (anchor, bag) in enumerate(leaves, max(d.bags) + 1):
        bags[z] = bag
        parent[z] = anchor
    return TreeDecomposition._rooted(g2, bags, d._root, parent)


# --- vertex and edge surgery --------------------------------------------


def delete_vertex(g: Graph, v: int, d: Decomposition | None = None) -> Result:
    check_host(g, d)
    g2, _ = edited(g, drop_vertex, v)
    if d is None:
        return Result(g2)
    stripped = d.rebag(g2, lambda bag: bag - {v})
    if isinstance(stripped, TreeDecomposition):
        return Result(g2, _drop_empty_bags_tree(stripped), width(d))
    kept = [bag for bag in stripped.bags if bag] or [frozenset()]
    return Result(g2, PathDecomposition(g2, kept), width(d))


def add_vertex(g: Graph, neighbors, d: Decomposition | None = None) -> Result:
    """A new vertex fresh_id(g) joined to the given neighbors."""
    check_host(g, d)
    nb = frozenset(int(u) for u in neighbors)
    if not nb <= g.vertices:
        raise ParameterError("neighbors must be existing vertices")
    g2, v = edited(g, new_vertex, nb)
    if isinstance(d, TreeDecomposition) and len(nb) == 1:
        # pendant vertex: one fresh bag keeps the width at max(w, 1)
        (u,) = nb
        anchor = min(node for node, bag in d.bags.items() if u in bag)
        dec = _hang_bags(d, g2, [(anchor, frozenset({u, v}))])
        return Result(g2, dec, max(width(d), 1))
    return _carry(g2, d, lambda bag: bag | {v}, 1)


def delete_edge(g: Graph, u: int, v: int, d: Decomposition | None = None) -> Result:
    check_host(g, d)
    g2, _ = edited(g, drop_edge, u, v)
    return _carry(g2, d, lambda bag: bag)


def add_edge(g: Graph, u: int, v: int, d: Decomposition | None = None) -> Result:
    check_host(g, d)
    g2, _ = edited(g, join_vertices, u, v)
    # the second endpoint is the one added to every bag
    return _carry(g2, d, lambda bag: bag | {int(v)}, 1)


# --- identification, contraction, subdivision ---------------------------


def _rename_pair(bag: frozenset[int], v: int, w: int, z: int) -> frozenset[int]:
    if v in bag or w in bag:
        return (bag - {v, w}) | {z}
    return bag


def _steiner_nodes(d: TreeDecomposition, marked: set[int]) -> set[int]:
    """Nodes of the minimal subtree of d's tree spanning ``marked``: the
    marked nodes and both ends of every tree edge with marked nodes on
    both sides.  The marked nodes below each node are counted children
    first, along the rooting the decomposition keeps."""
    parent = d._parent  # each node after its parent; the root is omitted
    below = {u: int(u in marked) for u in d.bags}
    for u in reversed(parent):
        below[parent[u]] += below[u]
    keep = set(marked)
    for u, p in parent.items():
        if 0 < below[u] < len(marked):
            keep.update((u, p))
    return keep


def identify_vertices(g: Graph, v: int, w: int, d: Decomposition | None = None) -> Result:
    check_host(g, d)
    g2, z = edited(g, fuse_vertices, v, w)
    if d is None:
        return Result(g2)
    claimed = width(d) + 1
    if isinstance(d, TreeDecomposition):
        bags = {u: _rename_pair(bag, v, w, z) for u, bag in d.bags.items()}
        marked = {u for u, bag in bags.items() if z in bag}
        # re-connect the two former subtrees by threading z along the tree
        for u in _steiner_nodes(d, marked):
            bags[u] = bags[u] | {z}
        dec = TreeDecomposition._rooted(g2, bags, d._root, d._parent)
        return Result(g2, dec, claimed)
    bags = [_rename_pair(bag, v, w, z) for bag in d.bags]
    idxs = [i for i, bag in enumerate(bags) if z in bag]
    for i in range(idxs[0], idxs[-1] + 1):
        bags[i] = bags[i] | {z}
    return Result(g2, PathDecomposition(g2, bags), claimed)


def contract_edge(g: Graph, v: int, w: int, d: Decomposition | None = None) -> Result:
    check_host(g, d)
    _require_edge(g.adjacency(), v, w)
    g2, z = edited(g, fuse_vertices, v, w)
    # some bag held both endpoints, so the renamed occurrences stay connected
    return _carry(g2, d, lambda bag: _rename_pair(bag, v, w, z))


def forest_decomposition(g: Graph) -> TreeDecomposition:
    """Width-1 tree-decomposition of a forest: a bag per edge, a bag per
    isolated vertex, components chained by their first nodes.  The DFS
    of each component hangs each edge's node off the node of the edge
    above it (an edge at the component's root off the component's first
    node), and each component's first node off the previous one's, so the
    tree is rooted at node 0 with each node after its parent."""
    if not is_forest(g):
        raise ParameterError("input has a cycle")
    if g.n == 0:
        return trivial_tree_decomposition(g)
    adj = g.adjacency()
    bags: dict[int, frozenset[int]] = {}
    parent: dict[int, int] = {}
    anchor = 0  # the first node of the latest component
    seen: set[int] = set()
    for root in g.vertices_sorted():
        if root in seen:
            continue
        seen.add(root)
        if bags:
            parent[len(bags)] = anchor
        anchor = len(bags)
        if not adj[root]:
            bags[anchor] = frozenset({root})
            continue
        node_of = {root: anchor}  # vertex -> the node its child edges hang off
        stack = [(root, None)]
        while stack:
            x, up = stack.pop()
            for c in sorted(adj[x], reverse=True):
                if c == up:
                    continue
                seen.add(c)
                u = len(bags)
                bags[u] = frozenset({x, c})
                if u != anchor:
                    parent[u] = node_of[x]
                node_of[c] = u
                stack.append((c, x))
    return TreeDecomposition._rooted(g, bags, 0, parent)


def _subdivide(adj: dict[int, frozenset[int]], edges: set[tuple[int, int]],
               v: int, w: int) -> int:
    """Step: replace the edge vw by a new vertex joined to v and w."""
    drop_edge(adj, edges, v, w)
    return new_vertex(adj, edges, frozenset((int(v), int(w))))


def subdivide_edge(g: Graph, v: int, w: int, d: Decomposition | None = None) -> Result:
    check_host(g, d)
    g2, u = edited(g, _subdivide, v, w)
    if d is None:
        return Result(g2)
    wd = width(d)
    if isinstance(d, TreeDecomposition):
        if is_forest(g):
            return Result(g2, forest_decomposition(g2), 1)
        # a cycle forces width >= 2, so a {v, u, w} bag costs nothing
        anchor = min(x for x, bag in d.bags.items() if v in bag and w in bag)
        return Result(g2, _hang_bags(d, g2, [(anchor, frozenset({v, u, w}))]), wd)
    bags = list(d.bags)
    i = min(i for i, bag in enumerate(bags) if v in bag and w in bag)
    bags[i] = bags[i] | {u}
    return Result(g2, PathDecomposition(g2, bags), wd + 1)


# --- incidence graph -----------------------------------------------------


def incidence_graph(g: Graph, d: Decomposition | None = None) -> Result:
    """Each edge {v, w} becomes a degree-2 vertex adjacent to v and w; the
    new vertices are numbered from fresh_id(g) on in sorted edge order."""
    check_host(g, d)
    es = g.edges_sorted()
    base = fresh_id(g)
    edges = []
    for x, (a, b) in enumerate(es, base):
        edges += [(a, x), (x, b)]
    g2 = Graph(g.vertices | set(range(base, base + len(es))), edges)
    if d is None:
        return Result(g2)
    wd = width(d)
    if isinstance(d, TreeDecomposition) and is_forest(g):
        return Result(g2, forest_decomposition(g2), max(wd, 1))
    # each edge -> the first node holding both its ends (the lowest node id
    # of a tree, the first bag of a path): walked backwards, it comes last
    adj = g.adjacency()
    home = {(a, b): u for u, bag in reversed(d.bag_items())
            for a in bag & g.vertices for b in adj[a] & bag if a < b}
    if isinstance(d, TreeDecomposition):
        leaves = [(home[e], frozenset({*e, x})) for x, e in enumerate(es, base)]
        return Result(g2, _hang_bags(d, g2, leaves), max(wd, 1))
    copies = [[] for _ in d.bags]
    for x, e in enumerate(es, base):
        copies[home[e]].append(x)
    bags = []
    for bag, xs in zip(d.bags, copies):
        bags += [bag] + [bag | {x} for x in xs]
    return Result(g2, PathDecomposition(g2, bags), wd + 1)


# --- powers and line graphs ----------------------------------------------


def _ball(adj, src: int, r: int) -> list[int]:
    """The vertices at distance at most r from src, src first."""
    seen = {src}
    ball, frontier = [src], [src]
    for _ in range(r):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if not nxt:
            break
        ball += nxt
        frontier = nxt
    return ball


def _power_pairs(g: Graph, adj, r: int) -> tuple[int, dict[int, list[int]]] | None:
    """The ordered pairs of distinct vertices within distance r, and the
    ball of each vertex walked to count them; None once the pairs pass
    2 * GRAPH_MAX_EDGES.  A component of at most r + 1 vertices is
    complete in G^r, so it is counted in closed form and walks no ball."""
    pairs = 0
    balls = {}
    for comp in connected_components(g):
        if len(comp) <= r + 1:
            pairs += len(comp) * (len(comp) - 1)
            continue
        for src in comp:
            ball = balls[src] = _ball(adj, src, r)
            pairs += len(ball) - 1
            if pairs > 2 * GRAPH_MAX_EDGES:
                return None
    return pairs, balls


def graph_power(g: Graph, r: int, d: Decomposition | None = None) -> Result:
    """Connect vertices at distance at most r.  When the degree bound
    allows a result too large for a graph, its edges are counted first and
    the result is refused (graphs.guard_size) before any edge is stored;
    the count stops once it passes the limit, and the refusal then gives
    no exact count.  The edges are built from the balls the count walked,
    and from a new walk for each vertex it did not."""
    check_host(g, d)
    if r < 1:
        raise ParameterError("power needs d >= 1")
    adj = g.adjacency()
    reach = power_degree_bound(g, r) if g.n else 0
    balls = {}
    if g.n * reach > 2 * GRAPH_MAX_EDGES:
        counted = _power_pairs(g, adj, r)
        if counted is None:
            raise CapabilityError(f"graphs support at most {GRAPH_MAX_EDGES} edges, "
                                  f"got more than {GRAPH_MAX_EDGES}")
        pairs, balls = counted
        guard_size(g.n, pairs // 2)
    edges = set()
    for src in g.vertices:
        for y in (balls.pop(src, None) or _ball(adj, src, r))[1:]:
            edges.add((src, y) if src < y else (y, src))
    g2 = Graph(g.vertices, edges)
    if d is None:
        return Result(g2)
    adj2 = g2.adjacency()
    claimed = (width(d) + 1) * (1 + reach) - 1
    # each bag grows by the G^r-neighbors of its members
    grow = lambda bag: bag.union(*(adj2[v] for v in bag))
    return Result(g2, d.rebag(g2, grow), claimed)


def power_degree_bound(g: Graph, d: int) -> int:
    """Upper bound on |N_{G^d}(v)|: Delta * sum_{i<d} (Delta-1)^i.

    d is first clamped to n-1: every distance in G is below n, so
    G^d = G^(n-1) once d >= n-1.  In closed form, with s = min(d, n-1),
    the bound is 0 for Delta = 0, 1 for Delta = 1, 2 * s for Delta = 2 and
    Delta * ((Delta-1)^s - 1) / (Delta-2) for Delta >= 3."""
    if d < 1:
        raise ParameterError("power needs d >= 1")
    if g.n == 0:
        raise ParameterError("degree bound needs a nonempty graph")
    delta = max_degree(g)
    steps = min(d, g.n - 1)
    if delta <= 2:
        return delta * (steps if delta == 2 else 1)
    return delta * ((delta - 1) ** steps - 1) // (delta - 2)


def line_graph(g: Graph, d: Decomposition | None = None) -> Result:
    """Vertices are the edges of g, numbered in sorted order; adjacency is
    sharing an endpoint.  A result too large for a graph is refused
    (graphs.guard_size) before any edge is built."""
    check_host(g, d)
    # two edges of a simple graph share at most one end, so each pair once
    guard_size(g.m, sum(len(nb) * (len(nb) - 1) // 2 for nb in g.adjacency().values()))
    es = g.edges_sorted()
    at = {v: [] for v in g.vertices}  # vertex -> the ids of its edges
    for i, (a, b) in enumerate(es):
        at[a].append(i)
        at[b].append(i)
    edges = [(i, j) for ids in at.values() for k, i in enumerate(ids) for j in ids[k + 1 :]]
    g2 = Graph(range(len(es)), edges)
    if d is None:
        return Result(g2)
    claimed = (width(d) + 1) * max_degree(g) - 1
    incident = lambda bag: frozenset().union(*(at.get(v, ()) for v in bag))
    return Result(g2, d.rebag(g2, incident), claimed)


# --- complement-like operations ------------------------------------------


def edge_complement(g: Graph) -> Result:
    """Every pair g lacks; a result too large for a graph is refused
    (graphs.guard_size) before any edge is built."""
    guard_size(g.n, g.n * (g.n - 1) // 2 - g.m)
    order = g.vertices_sorted()
    edges = [
        (u, v)
        for i, u in enumerate(order)
        for v in order[i + 1 :]
        if not g.has_edge(u, v)
    ]
    return Result(Graph(g.vertices, edges))


def local_complement(g: Graph, v: int) -> Result:
    """Complement the subgraph induced on the neighborhood of v."""
    nb = sorted(g.neighbors(v))
    pairs = {(a, b) for i, a in enumerate(nb) for b in nb[i + 1 :]}
    return Result(Graph(g.vertices, g.edges ^ pairs))


def seidel_complement(g: Graph, v: int) -> Result:
    """Complement the edges between N(v) and V - N(v) - {v}."""
    nb = g.neighbors(v)
    far = g.vertices - nb - {v}
    pairs = {(a, b) if a < b else (b, a) for a in nb for b in far}
    return Result(Graph(g.vertices, g.edges ^ pairs))


def seidel_switch(g: Graph, v: int, d: Decomposition | None = None) -> Result:
    """Disconnect v from its neighbors and connect it to the rest; v joins
    every bag."""
    check_host(g, d)
    far = g.vertices - g.neighbors(v) - {v}
    g2 = Graph(g.vertices, [e for e in g.edges if v not in e] + [(v, u) for u in far])
    return _carry(g2, d, lambda bag: bag | {v}, 1)
