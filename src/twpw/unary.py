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
    _contract,
    trivial_tree_decomposition,
    width,
)
from .errors import ParameterError
from .graphs import GRAPH_MAX_EDGES, Graph, fresh_id, guard_size, is_forest, max_degree
from .results import Result, check_host


def _require_vertex(g: Graph, v: int) -> None:
    if not g.has_vertex(v):
        raise ParameterError(f"vertex {v} not in graph")


def _require_edge(g: Graph, u: int, v: int) -> None:
    if not g.has_edge(u, v):
        raise ParameterError(f"edge ({u}, {v}) not in graph")


def _carry(g2: Graph, d: Decomposition | None, f, extra: int = 0) -> Result:
    """g2 with, when d is given, d's bags rewritten by f and the claim
    width(d) + extra."""
    if d is None:
        return Result(g2)
    return Result(g2, d.rebag(g2, f), width(d) + extra)


def _hang_bags(d: TreeDecomposition, g2: Graph, leaves) -> TreeDecomposition:
    """d over g2 plus one leaf node per (anchor node, bag) of leaves,
    numbered from the largest node + 1 on."""
    z = max(d.tree.vertices) + 1
    bags = dict(d.bags)
    edges = list(d.tree.edges)
    for i, (anchor, bag) in enumerate(leaves):
        bags[z + i] = bag
        edges.append((anchor, z + i))
    return TreeDecomposition(g2, Graph(bags.keys(), edges), bags)


# --- vertex and edge surgery --------------------------------------------


def _drop_empty_bags_tree(d: TreeDecomposition) -> TreeDecomposition:
    adj = {u: set(nb) for u, nb in d.tree.adjacency().items()}
    bags = dict(d.bags)
    # an empty bag crosses no vertex subtree, so its neighbors re-link
    # freely; a contraction empties no bag, so the empty nodes are met in
    # ascending order, each contracted into its lowest neighbor
    for u in sorted(u for u, bag in bags.items() if not bag):
        if len(bags) == 1:
            break
        _contract(adj, bags, u, min(adj[u]))
    tree = Graph(adj, [(a, b) for a in adj for b in adj[a] if a < b])
    return TreeDecomposition(d.host, tree, bags)


def delete_vertex(g: Graph, v: int, d: Decomposition | None = None) -> Result:
    check_host(g, d)
    _require_vertex(g, v)
    adj = g.adjacency()
    adj2 = dict(adj)
    del adj2[v]
    for x in adj[v]:
        adj2[x] = adj[x] - {v}
    edges = g.edges - {(v, x) if v < x else (x, v) for x in adj[v]}
    g2 = Graph._trusted(g.vertices - {v}, edges, adj2)
    if d is None:
        return Result(g2)
    stripped = d.rebag(g2, lambda bag: bag - {v})
    if isinstance(stripped, TreeDecomposition):
        return Result(g2, _drop_empty_bags_tree(stripped), width(d))
    kept = [bag for bag in stripped.bags if bag] or [frozenset()]
    return Result(g2, PathDecomposition(g2, kept), width(d))


def add_vertex(g: Graph, neighbors, v: int | None = None,
               d: Decomposition | None = None) -> Result:
    check_host(g, d)
    nb = frozenset(int(u) for u in neighbors)
    if not nb <= g.vertices:
        raise ParameterError("neighbors must be existing vertices")
    if v is None:
        v = fresh_id(g)
    elif g.has_vertex(v):
        raise ParameterError(f"vertex {v} already present")
    g2 = Graph(g.vertices | {v}, list(g.edges) + [(v, u) for u in nb])
    if isinstance(d, TreeDecomposition) and len(nb) == 1:
        # pendant vertex: one fresh bag keeps the width at max(w, 1)
        (u,) = nb
        anchor = min(node for node, bag in d.bags.items() if u in bag)
        dec = _hang_bags(d, g2, [(anchor, frozenset({u, v}))])
        return Result(g2, dec, max(width(d), 1))
    return _carry(g2, d, lambda bag: bag | {v}, 1)


def delete_edge(g: Graph, u: int, v: int, d: Decomposition | None = None) -> Result:
    check_host(g, d)
    _require_edge(g, u, v)
    edges = [e for e in g.edges if e != ((u, v) if u < v else (v, u))]
    return _carry(Graph(g.vertices, edges), d, lambda bag: bag)


def add_edge(g: Graph, u: int, v: int, d: Decomposition | None = None) -> Result:
    check_host(g, d)
    _require_vertex(g, u)
    _require_vertex(g, v)
    if u == v:
        raise ParameterError("cannot add a loop")
    if g.has_edge(u, v):
        raise ParameterError(f"edge ({u}, {v}) already present")
    u, v = int(u), int(v)
    adj = dict(g.adjacency())
    adj[u], adj[v] = adj[u] | {v}, adj[v] | {u}
    g2 = Graph._trusted(g.vertices, g.edges | {(u, v) if u < v else (v, u)}, adj)
    # the second endpoint is the one added to every bag
    return _carry(g2, d, lambda bag: bag | {v}, 1)


# --- identification, contraction, subdivision ---------------------------


def _merge(g: Graph, v: int, w: int) -> tuple[Graph, int]:
    """g with v and w fused into the fresh vertex z; returns (graph, z).

    Only the edges at v and w change, so the result is g's edges and
    adjacency with those replaced; z is above every id, so each new edge
    is (x, z)."""
    z = fresh_id(g)
    adj = g.adjacency()
    pair = {v, w}
    around = (adj[v] | adj[w]) - pair
    gone = {(v, x) if v < x else (x, v) for x in adj[v]}
    gone.update((w, x) if w < x else (x, w) for x in adj[w])
    edges = (g.edges - gone) | {(x, z) for x in around}
    adj2 = dict(adj)
    del adj2[v], adj2[w]
    for x in around:
        adj2[x] = (adj[x] - pair) | {z}
    adj2[z] = around
    return Graph._trusted((g.vertices - pair) | {z}, edges, adj2), z


def _rename_pair(bag: frozenset[int], v: int, w: int, z: int) -> frozenset[int]:
    if v in bag or w in bag:
        return (bag - {v, w}) | {z}
    return bag


def _steiner_nodes(d: TreeDecomposition, marked: set[int]) -> set[int]:
    """Nodes of the minimal subtree of d's tree spanning ``marked``: the
    marked nodes and both ends of every tree edge with marked nodes on
    both sides.  The marked nodes below each node are counted children
    first, along the rooting the decomposition keeps."""
    parent = d._parent  # breadth-first from the root, which it omits
    below = {u: int(u in marked) for u in d.tree.vertices}
    for u in reversed(parent):
        below[parent[u]] += below[u]
    keep = set(marked)
    for u, p in parent.items():
        if 0 < below[u] < len(marked):
            keep.update((u, p))
    return keep


def identify_vertices(g: Graph, v: int, w: int, d: Decomposition | None = None) -> Result:
    check_host(g, d)
    _require_vertex(g, v)
    _require_vertex(g, w)
    if v == w:
        raise ParameterError("identification needs two distinct vertices")
    g2, z = _merge(g, v, w)
    if d is None:
        return Result(g2)
    claimed = width(d) + 1
    if isinstance(d, TreeDecomposition):
        bags = {u: _rename_pair(bag, v, w, z) for u, bag in d.bags.items()}
        marked = {u for u, bag in bags.items() if z in bag}
        # re-connect the two former subtrees by threading z along the tree
        for u in _steiner_nodes(d, marked):
            bags[u] = bags[u] | {z}
        return Result(g2, TreeDecomposition(g2, d.tree, bags), claimed)
    bags = [_rename_pair(bag, v, w, z) for bag in d.bags]
    idxs = [i for i, bag in enumerate(bags) if z in bag]
    for i in range(idxs[0], idxs[-1] + 1):
        bags[i] = bags[i] | {z}
    return Result(g2, PathDecomposition(g2, bags), claimed)


def contract_edge(g: Graph, v: int, w: int, d: Decomposition | None = None) -> Result:
    check_host(g, d)
    _require_edge(g, v, w)
    g2, z = _merge(g, v, w)
    # some bag held both endpoints, so the renamed occurrences stay connected
    return _carry(g2, d, lambda bag: _rename_pair(bag, v, w, z))


def forest_decomposition(g: Graph) -> TreeDecomposition:
    """Width-1 tree-decomposition of a forest: a bag per edge, a bag per
    isolated vertex, components chained by their first nodes."""
    if not is_forest(g):
        raise ParameterError("input has a cycle")
    if g.n == 0:
        return trivial_tree_decomposition(g)
    adj = g.adjacency()
    bags: dict[int, frozenset[int]] = {}
    tree_edges: list[tuple[int, int]] = []
    anchors = []
    counter = 0
    seen: set[int] = set()
    for root in g.vertices_sorted():
        if root in seen:
            continue
        seen.add(root)
        if not adj[root]:
            bags[counter] = frozenset({root})
            anchors.append(counter)
            counter += 1
            continue
        anchor = None
        node_of: dict[int, int] = {}  # child vertex -> node of its parent edge
        stack = [(root, None)]
        while stack:
            x, parent = stack.pop()
            for c in sorted(adj[x], reverse=True):
                if c == parent:
                    continue
                seen.add(c)
                bags[counter] = frozenset({x, c})
                node_of[c] = counter
                if x == root:
                    if anchor is None:
                        anchor = counter
                    else:
                        tree_edges.append((anchor, counter))
                else:
                    tree_edges.append((node_of[x], counter))
                counter += 1
                stack.append((c, x))
        anchors.append(anchor)
    tree_edges.extend(zip(anchors, anchors[1:]))
    return TreeDecomposition(g, Graph(range(counter), tree_edges), bags)


def subdivide_edge(g: Graph, v: int, w: int, d: Decomposition | None = None) -> Result:
    check_host(g, d)
    _require_edge(g, v, w)
    u = fresh_id(g)
    edges = [e for e in g.edges if e != ((v, w) if v < w else (w, v))]
    edges += [(v, u), (u, w)]
    g2 = Graph(g.vertices | {u}, edges)
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


def graph_power(g: Graph, r: int, d: Decomposition | None = None) -> Result:
    """Connect vertices at distance at most r.  When the degree bound
    allows a result too large for a graph, its edges are counted first and
    the result is refused (graphs.guard_size) before any edge is stored."""
    check_host(g, d)
    if r < 1:
        raise ParameterError("power needs d >= 1")
    adj = g.adjacency()
    reach = power_degree_bound(g, r) if g.n else 0
    if g.n * reach > 2 * GRAPH_MAX_EDGES:
        guard_size(g.n, sum(len(_ball(adj, src, r)) - 1 for src in g.vertices) // 2)
    edges = set()
    for src in g.vertices:
        for y in _ball(adj, src, r)[1:]:
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
    G^d = G^(n-1) once d >= n-1.  In closed form the bound is 0 for
    Delta = 0, 1 for Delta = 1 and 2 * min(d, n-1) for Delta = 2."""
    if d < 1:
        raise ParameterError("power needs d >= 1")
    if g.n == 0:
        raise ParameterError("degree bound needs a nonempty graph")
    delta = max_degree(g)
    steps = min(d, g.n - 1)
    if delta <= 2:
        return delta * (steps if delta == 2 else 1)
    return delta * sum((delta - 1) ** i for i in range(steps))


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
    _require_vertex(g, v)
    nb = sorted(g.neighbors(v))
    pairs = {(a, b) for i, a in enumerate(nb) for b in nb[i + 1 :]}
    return Result(Graph(g.vertices, g.edges ^ pairs))


def seidel_complement(g: Graph, v: int) -> Result:
    """Complement the edges between N(v) and V - N(v) - {v}."""
    _require_vertex(g, v)
    nb = g.neighbors(v)
    far = g.vertices - nb - {v}
    pairs = {(a, b) if a < b else (b, a) for a in nb for b in far}
    return Result(Graph(g.vertices, g.edges ^ pairs))


def seidel_switch(g: Graph, v: int, d: Decomposition | None = None) -> Result:
    """Disconnect v from its neighbors and connect it to the rest."""
    return switch_sequence(g, [v], d)


def switch_sequence(g: Graph, vs, d: Decomposition | None = None) -> Result:
    """Seidel switches at vs in turn; every switched vertex joins every bag."""
    check_host(g, d)
    vs = list(vs)
    cur = g
    for v in vs:
        _require_vertex(g, v)
        new_nb = cur.vertices - cur.neighbors(v) - {v}
        cur = Graph(cur.vertices, [e for e in cur.edges if v not in e]
                    + [(v, u) for u in new_nb])
    switched = frozenset(vs)
    return _carry(cur, d, lambda bag: bag | switched, len(switched))
