"""Single-graph operations paired with decomposition transformers.

Every operation returns the new graph plus id bookkeeping.  Where a width
bound is provable, a companion ``*_decomposition`` transformer rewrites a
valid decomposition of the input into a valid decomposition of the output
and records the claimed width bound.  Complement-like operations have no
transformer: no bound in terms of the input width exists.

Transformers assume their input decomposition is valid; outputs are
correct by construction and cross-checked by the validator in the tests
and the sweep harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import (
    Decomposition,
    PathDecomposition,
    TreeDecomposition,
    trivial_tree_decomposition,
    width,
)
from .errors import ParameterError
from .graphs import Graph, fresh_id, is_forest, max_degree


@dataclass(frozen=True)
class UnaryResult:
    graph: Graph
    vertex_map: dict[int, int]  # old id -> new id for surviving vertices
    new_ids: frozenset[int]


@dataclass(frozen=True)
class CarriedDecomposition:
    decomposition: Decomposition
    claimed_bound: int


def _bound(w: int | None) -> int:
    # widths enter bound arithmetic with the empty decomposition as -1
    return -1 if w is None else w


def _identity(vertices) -> dict[int, int]:
    return {v: v for v in vertices}


def _require_vertex(g: Graph, v: int) -> None:
    if not g.has_vertex(v):
        raise ParameterError(f"vertex {v} not in graph")


def _require_edge(g: Graph, u: int, v: int) -> None:
    if not g.has_edge(u, v):
        raise ParameterError(f"edge ({u}, {v}) not in graph")


# --- vertex and edge surgery --------------------------------------------


def delete_vertex(g: Graph, v: int) -> UnaryResult:
    _require_vertex(g, v)
    keep = g.vertices - {v}
    edges = [e for e in g.edges if v not in e]
    return UnaryResult(Graph(keep, edges), _identity(keep), frozenset())


def _drop_empty_bags_tree(d: TreeDecomposition, host: Graph) -> TreeDecomposition:
    adj = {u: set(nb) for u, nb in d.tree.adjacency().items()}
    bags = dict(d.bags)
    # an empty bag crosses no vertex subtree, so its neighbors re-link freely
    while len(bags) > 1:
        empties = sorted(u for u, bag in bags.items() if not bag)
        if not empties:
            break
        u = empties[0]
        nbrs = sorted(adj[u])
        hub = nbrs[0]
        for x in nbrs:
            adj[x].discard(u)
        for x in nbrs[1:]:
            adj[x].add(hub)
            adj[hub].add(x)
        del adj[u], bags[u]
    tree = Graph(adj, [(a, b) for a in adj for b in adj[a] if a < b])
    return TreeDecomposition(host, tree, bags)


def delete_vertex_decomposition(d: Decomposition, v: int) -> CarriedDecomposition:
    g2 = delete_vertex(d.host, v).graph
    claimed = _bound(width(d))
    if isinstance(d, TreeDecomposition):
        stripped = TreeDecomposition(g2, d.tree, {u: bag - {v} for u, bag in d.bags.items()})
        return CarriedDecomposition(_drop_empty_bags_tree(stripped, g2), claimed)
    bags = [bag - {v} for bag in d.bags]
    kept = [bag for bag in bags if bag] or [frozenset()]
    return CarriedDecomposition(PathDecomposition(g2, kept), claimed)


def add_vertex(g: Graph, neighbors, v: int | None = None) -> UnaryResult:
    nb = frozenset(int(u) for u in neighbors)
    if not nb <= g.vertices:
        raise ParameterError("neighbors must be existing vertices")
    if v is None:
        v = fresh_id(g)
    elif g.has_vertex(v):
        raise ParameterError(f"vertex {v} already present")
    graph = Graph(g.vertices | {v}, list(g.edges) + [(v, u) for u in nb])
    return UnaryResult(graph, _identity(g.vertices), frozenset({v}))


def add_vertex_decomposition(d: Decomposition, neighbors, v: int | None = None) -> CarriedDecomposition:
    res = add_vertex(d.host, neighbors, v)
    g2 = res.graph
    (v,) = res.new_ids
    nb = frozenset(int(u) for u in neighbors)
    w = width(d)
    if isinstance(d, TreeDecomposition) and len(nb) == 1:
        # pendant vertex: one fresh bag keeps the width at max(w, 1)
        (u,) = nb
        anchor = min(node for node, bag in d.bags.items() if u in bag)
        z = max(d.tree.vertices) + 1
        tree = Graph(d.tree.vertices | {z}, list(d.tree.edges) + [(anchor, z)])
        bags = dict(d.bags)
        bags[z] = frozenset({u, v})
        return CarriedDecomposition(TreeDecomposition(g2, tree, bags), max(_bound(w), 1))
    if isinstance(d, TreeDecomposition):
        bags = {u: bag | {v} for u, bag in d.bags.items()}
        return CarriedDecomposition(TreeDecomposition(g2, d.tree, bags), _bound(w) + 1)
    return CarriedDecomposition(
        PathDecomposition(g2, [bag | {v} for bag in d.bags]), _bound(w) + 1
    )


def delete_edge(g: Graph, u: int, v: int) -> UnaryResult:
    _require_edge(g, u, v)
    edges = [e for e in g.edges if e != ((u, v) if u < v else (v, u))]
    return UnaryResult(Graph(g.vertices, edges), _identity(g.vertices), frozenset())


def delete_edge_decomposition(d: Decomposition, u: int, v: int) -> CarriedDecomposition:
    g2 = delete_edge(d.host, u, v).graph
    claimed = _bound(width(d))
    if isinstance(d, TreeDecomposition):
        return CarriedDecomposition(TreeDecomposition(g2, d.tree, d.bags), claimed)
    return CarriedDecomposition(PathDecomposition(g2, d.bags), claimed)


def add_edge(g: Graph, u: int, v: int) -> UnaryResult:
    _require_vertex(g, u)
    _require_vertex(g, v)
    if u == v:
        raise ParameterError("cannot add a loop")
    if g.has_edge(u, v):
        raise ParameterError(f"edge ({u}, {v}) already present")
    return UnaryResult(
        Graph(g.vertices, list(g.edges) + [(u, v)]), _identity(g.vertices), frozenset()
    )


def add_edge_decomposition(d: Decomposition, u: int, v: int) -> CarriedDecomposition:
    # the second endpoint is the one added to every bag
    g2 = add_edge(d.host, u, v).graph
    claimed = _bound(width(d)) + 1
    if isinstance(d, TreeDecomposition):
        bags = {x: bag | {v} for x, bag in d.bags.items()}
        return CarriedDecomposition(TreeDecomposition(g2, d.tree, bags), claimed)
    return CarriedDecomposition(PathDecomposition(g2, [bag | {v} for bag in d.bags]), claimed)


# --- identification, contraction, subdivision ---------------------------


def _merge(g: Graph, v: int, w: int) -> UnaryResult:
    z = fresh_id(g)
    keep = g.vertices - {v, w}
    edges = set()
    for a, b in g.edges:
        a2 = z if a in (v, w) else a
        b2 = z if b in (v, w) else b
        if a2 != b2:
            edges.add((a2, b2) if a2 < b2 else (b2, a2))
    vmap = _identity(keep)
    vmap[v] = z
    vmap[w] = z
    return UnaryResult(Graph(keep | {z}, edges), vmap, frozenset({z}))


def identify_vertices(g: Graph, v: int, w: int) -> UnaryResult:
    _require_vertex(g, v)
    _require_vertex(g, w)
    if v == w:
        raise ParameterError("identification needs two distinct vertices")
    return _merge(g, v, w)


def contract_edge(g: Graph, v: int, w: int) -> UnaryResult:
    _require_edge(g, v, w)
    return _merge(g, v, w)


def _rename_pair(bag: frozenset[int], v: int, w: int, z: int) -> frozenset[int]:
    if v in bag or w in bag:
        return (bag - {v, w}) | {z}
    return bag


def _steiner_nodes(tree: Graph, marked: set[int]) -> set[int]:
    """Nodes of the minimal subtree of ``tree`` spanning ``marked``."""
    adj = {u: set(nb) for u, nb in tree.adjacency().items()}
    while True:
        leaf = next(
            (u for u in sorted(adj) if u not in marked and len(adj[u]) <= 1), None
        )
        if leaf is None:
            return set(adj)
        for x in adj[leaf]:
            adj[x].discard(leaf)
        del adj[leaf]


def identify_vertices_decomposition(d: Decomposition, v: int, w: int) -> CarriedDecomposition:
    res = identify_vertices(d.host, v, w)
    g2 = res.graph
    (z,) = res.new_ids
    claimed = _bound(width(d)) + 1
    if isinstance(d, TreeDecomposition):
        bags = {u: _rename_pair(bag, v, w, z) for u, bag in d.bags.items()}
        marked = {u for u, bag in bags.items() if z in bag}
        # re-connect the two former subtrees by threading z along the tree
        for u in _steiner_nodes(d.tree, marked):
            bags[u] = bags[u] | {z}
        return CarriedDecomposition(TreeDecomposition(g2, d.tree, bags), claimed)
    bags = [_rename_pair(bag, v, w, z) for bag in d.bags]
    idxs = [i for i, bag in enumerate(bags) if z in bag]
    for i in range(idxs[0], idxs[-1] + 1):
        bags[i] = bags[i] | {z}
    return CarriedDecomposition(PathDecomposition(g2, bags), claimed)


def contract_edge_decomposition(d: Decomposition, v: int, w: int) -> CarriedDecomposition:
    res = contract_edge(d.host, v, w)
    g2 = res.graph
    (z,) = res.new_ids
    # some bag held both endpoints, so the renamed occurrences stay connected
    claimed = _bound(width(d))
    if isinstance(d, TreeDecomposition):
        bags = {u: _rename_pair(bag, v, w, z) for u, bag in d.bags.items()}
        return CarriedDecomposition(TreeDecomposition(g2, d.tree, bags), claimed)
    bags = [_rename_pair(bag, v, w, z) for bag in d.bags]
    return CarriedDecomposition(PathDecomposition(g2, bags), claimed)


def subdivide_edge(g: Graph, v: int, w: int) -> UnaryResult:
    _require_edge(g, v, w)
    u = fresh_id(g)
    edges = [e for e in g.edges if e != ((v, w) if v < w else (w, v))]
    edges += [(v, u), (u, w)]
    return UnaryResult(Graph(g.vertices | {u}, edges), _identity(g.vertices), frozenset({u}))


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


def subdivide_edge_decomposition(d: Decomposition, v: int, w: int) -> CarriedDecomposition:
    res = subdivide_edge(d.host, v, w)
    g2 = res.graph
    (u,) = res.new_ids
    wd = _bound(width(d))
    if isinstance(d, TreeDecomposition):
        if is_forest(d.host):
            return CarriedDecomposition(forest_decomposition(g2), 1)
        # a cycle forces width >= 2, so a {v, u, w} bag costs nothing
        anchor = min(x for x, bag in d.bags.items() if v in bag and w in bag)
        z = max(d.tree.vertices) + 1
        tree = Graph(d.tree.vertices | {z}, list(d.tree.edges) + [(anchor, z)])
        bags = dict(d.bags)
        bags[z] = frozenset({v, u, w})
        return CarriedDecomposition(TreeDecomposition(g2, tree, bags), wd)
    bags = list(d.bags)
    i = min(i for i, bag in enumerate(bags) if v in bag and w in bag)
    bags[i] = bags[i] | {u}
    return CarriedDecomposition(PathDecomposition(g2, bags), wd + 1)


# --- incidence graph -----------------------------------------------------


def incidence_edge_ids(g: Graph) -> dict[tuple[int, int], int]:
    """Fresh vertex id for each edge, assigned in sorted edge order."""
    base = fresh_id(g)
    return {e: base + i for i, e in enumerate(g.edges_sorted())}


def incidence_graph(g: Graph) -> UnaryResult:
    """Each edge {v, w} becomes a degree-2 vertex adjacent to v and w."""
    ids = incidence_edge_ids(g)
    edges = []
    for (a, b), x in ids.items():
        edges.append((a, x))
        edges.append((x, b))
    graph = Graph(g.vertices | set(ids.values()), edges)
    return UnaryResult(graph, _identity(g.vertices), frozenset(ids.values()))


def incidence_graph_decomposition(d: Decomposition) -> CarriedDecomposition:
    g = d.host
    ids = incidence_edge_ids(g)
    g2 = incidence_graph(g).graph
    wd = width(d)
    if isinstance(d, TreeDecomposition):
        claimed = max(_bound(wd), 1)
        if is_forest(g):
            return CarriedDecomposition(forest_decomposition(g2), claimed)
        tree_vertices = set(d.tree.vertices)
        tree_edges = list(d.tree.edges)
        bags = dict(d.bags)
        z = max(d.tree.vertices) + 1
        for (a, b), x in sorted(ids.items()):
            anchor = min(u for u, bag in d.bags.items() if a in bag and b in bag)
            tree_vertices.add(z)
            tree_edges.append((anchor, z))
            bags[z] = frozenset({a, b, x})
            z += 1
        return CarriedDecomposition(
            TreeDecomposition(g2, Graph(tree_vertices, tree_edges), bags), claimed
        )
    first_bag = {
        e: min(i for i, bag in enumerate(d.bags) if e[0] in bag and e[1] in bag)
        for e in ids
    }
    bags = []
    for i, bag in enumerate(d.bags):
        bags.append(bag)
        for e, x in sorted(ids.items()):
            if first_bag[e] == i:
                bags.append(bag | {x})
    return CarriedDecomposition(PathDecomposition(g2, bags), _bound(wd) + 1)


# --- powers and line graphs ----------------------------------------------


def graph_power(g: Graph, d: int) -> UnaryResult:
    """Connect vertices at distance at most d."""
    if d < 1:
        raise ParameterError("power needs d >= 1")
    adj = g.adjacency()
    edges = set()
    for src in g.vertices:
        depth = {src: 0}
        frontier = [src]
        for _ in range(d):
            if not frontier:
                break
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in depth:
                        depth[y] = depth[x] + 1
                        nxt.append(y)
            frontier = nxt
        for y in depth:
            if y != src:
                edges.add((src, y) if src < y else (y, src))
    return UnaryResult(Graph(g.vertices, edges), _identity(g.vertices), frozenset())


def power_degree_bound(g: Graph, d: int) -> int:
    """Upper bound on |N_{G^d}(v)|: Delta * sum_{i<d} (Delta-1)^i.

    For Delta >= 3, d is first clamped to n-1: every distance in G is below
    n, so G^d = G^(n-1) once d >= n-1."""
    if d < 1:
        raise ParameterError("power needs d >= 1")
    if g.n == 0:
        raise ParameterError("degree bound needs a nonempty graph")
    delta = max_degree(g)
    if delta <= 2:
        return delta * (d if delta == 2 else 1)
    return delta * sum((delta - 1) ** i for i in range(min(d, g.n - 1)))


def graph_power_decomposition(dec: Decomposition, d: int) -> CarriedDecomposition:
    g = dec.host
    res = graph_power(g, d)
    g2 = res.graph
    adj2 = g2.adjacency()
    reach = power_degree_bound(g, d) if g.n else 0
    claimed = (_bound(width(dec)) + 1) * (1 + reach) - 1

    def grow(bag: frozenset[int]) -> frozenset[int]:
        return bag.union(*(adj2[v] for v in bag)) if bag else bag

    if isinstance(dec, TreeDecomposition):
        bags = {u: grow(bag) for u, bag in dec.bags.items()}
        return CarriedDecomposition(TreeDecomposition(g2, dec.tree, bags), claimed)
    return CarriedDecomposition(
        PathDecomposition(g2, [grow(bag) for bag in dec.bags]), claimed
    )


def line_graph_edge_ids(g: Graph) -> dict[tuple[int, int], int]:
    """Edge of g -> vertex id of the line graph, in sorted edge order."""
    return {e: i for i, e in enumerate(g.edges_sorted())}


def line_graph(g: Graph) -> UnaryResult:
    """Vertices are the edges of g; adjacency is sharing an endpoint."""
    ids = line_graph_edge_ids(g)
    es = g.edges_sorted()
    edges = [
        (i, j)
        for i in range(len(es))
        for j in range(i + 1, len(es))
        if set(es[i]) & set(es[j])
    ]
    return UnaryResult(Graph(range(len(es)), edges), {}, frozenset(range(len(es))))


def line_graph_decomposition(d: Decomposition) -> CarriedDecomposition:
    g = d.host
    ids = line_graph_edge_ids(g)
    g2 = line_graph(g).graph
    claimed = (_bound(width(d)) + 1) * max_degree(g) - 1

    def incident(bag: frozenset[int]) -> frozenset[int]:
        return frozenset(x for e, x in ids.items() if e[0] in bag or e[1] in bag)

    if isinstance(d, TreeDecomposition):
        bags = {u: incident(bag) for u, bag in d.bags.items()}
        return CarriedDecomposition(TreeDecomposition(g2, d.tree, bags), claimed)
    return CarriedDecomposition(
        PathDecomposition(g2, [incident(bag) for bag in d.bags]), claimed
    )


# --- complement-like operations ------------------------------------------


def edge_complement(g: Graph) -> UnaryResult:
    order = g.vertices_sorted()
    edges = [
        (u, v)
        for i, u in enumerate(order)
        for v in order[i + 1 :]
        if not g.has_edge(u, v)
    ]
    return UnaryResult(Graph(g.vertices, edges), _identity(g.vertices), frozenset())


def local_complement(g: Graph, v: int) -> UnaryResult:
    """Complement the subgraph induced on the neighborhood of v."""
    _require_vertex(g, v)
    nb = sorted(g.neighbors(v))
    edges = set(g.edges)
    for i, a in enumerate(nb):
        for b in nb[i + 1 :]:
            e = (a, b)
            if e in edges:
                edges.discard(e)
            else:
                edges.add(e)
    return UnaryResult(Graph(g.vertices, edges), _identity(g.vertices), frozenset())


def seidel_complement(g: Graph, v: int) -> UnaryResult:
    """Complement the edges between N(v) and V - N(v) - {v}."""
    _require_vertex(g, v)
    nb = g.neighbors(v)
    far = g.vertices - nb - {v}
    edges = set(g.edges)
    for a in nb:
        for b in far:
            e = (a, b) if a < b else (b, a)
            if e in edges:
                edges.discard(e)
            else:
                edges.add(e)
    return UnaryResult(Graph(g.vertices, edges), _identity(g.vertices), frozenset())


def seidel_switch(g: Graph, v: int) -> UnaryResult:
    """Disconnect v from its neighbors and connect it to the rest."""
    _require_vertex(g, v)
    new_nb = g.vertices - g.neighbors(v) - {v}
    edges = [e for e in g.edges if v not in e] + [(v, u) for u in new_nb]
    return UnaryResult(Graph(g.vertices, edges), _identity(g.vertices), frozenset())


def seidel_switch_decomposition(d: Decomposition, v: int) -> CarriedDecomposition:
    return switch_sequence_decomposition(d, [v])


def switch_sequence(g: Graph, vs) -> UnaryResult:
    cur = g
    for v in vs:
        cur = seidel_switch(cur, v).graph
    return UnaryResult(cur, _identity(g.vertices), frozenset())


def switch_sequence_decomposition(d: Decomposition, vs) -> CarriedDecomposition:
    vs = list(vs)
    for v in vs:
        _require_vertex(d.host, v)
    g2 = switch_sequence(d.host, vs).graph
    switched = frozenset(vs)
    claimed = _bound(width(d)) + len(switched)
    if isinstance(d, TreeDecomposition):
        bags = {u: bag | switched for u, bag in d.bags.items()}
        return CarriedDecomposition(TreeDecomposition(g2, d.tree, bags), claimed)
    return CarriedDecomposition(
        PathDecomposition(g2, [bag | switched for bag in d.bags]), claimed
    )
