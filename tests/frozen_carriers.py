"""Six carrying operations and the redundant-bag removal as they were
before each became one pass, frozen as oracles.

These rescan a whole structure per element: the line graph tests every
pair of edges, the incidence graph and the corona scan every bag once per
edge or per vertex, identification prunes one leaf of the tree at a time,
vertex deletion looks for the lowest empty bag again after every
contraction, the redundant-bag removal sorts every tree edge again after
every merge, and the product decides each pair through a chain of tests
on its kind.  The current operations must give the same graph, the same
decomposition and the same claim on every input they accept; the copies
here leave out the argument checks.  The private helpers they used are
copied too, so a rewrite of those cannot change both sides of a
differential test.
"""

from twpw.decomposition import PathDecomposition, TreeDecomposition, validate, width
from twpw.errors import ParameterError
from twpw.graphs import Graph, fresh_id, is_forest, max_degree
from twpw.results import Result
from twpw.unary import forest_decomposition


def _hang_bags(d, g2, leaves):
    z = max(d.tree.vertices) + 1
    bags = dict(d.bags)
    edges = list(d.tree.edges)
    for i, (anchor, bag) in enumerate(leaves):
        bags[z + i] = bag
        edges.append((anchor, z + i))
    return TreeDecomposition(g2, Graph(bags.keys(), edges), bags)


def _contract(adj, bags, drop, keep):
    for w in adj[drop]:
        adj[w].discard(drop)
        if w != keep:
            adj[w].add(keep)
            adj[keep].add(w)
    del adj[drop], bags[drop]


def _merge(g, v, w):
    z = fresh_id(g)
    edges = set()
    for a, b in g.edges:
        a2 = z if a in (v, w) else a
        b2 = z if b in (v, w) else b
        if a2 != b2:
            edges.add((a2, b2) if a2 < b2 else (b2, a2))
    return Graph((g.vertices - {v, w}) | {z}, edges), z


def _rename_pair(bag, v, w, z):
    if v in bag or w in bag:
        return (bag - {v, w}) | {z}
    return bag


def _mapped_tree(d, vmap, node_offset):
    nodes = d.tree.vertices_sorted()
    rank = {u: node_offset + i for i, u in enumerate(nodes)}
    edges = [(rank[a], rank[b]) for a, b in d.tree.edges]
    bags = {rank[u]: frozenset(vmap(x) for x in d.bags[u]) for u in nodes}
    return rank, edges, bags


# --- unary ------------------------------------------------------------------


def drop_empty_bags_tree(d):
    adj = {u: set(nb) for u, nb in d.tree.adjacency().items()}
    bags = dict(d.bags)
    while len(bags) > 1:
        empties = [u for u, bag in bags.items() if not bag]
        if not empties:
            break
        u = min(empties)
        _contract(adj, bags, u, min(adj[u]))
    tree = Graph(adj, [(a, b) for a in adj for b in adj[a] if a < b])
    return TreeDecomposition(d.host, tree, bags)


def delete_vertex(g, v, d=None):
    g2 = Graph(g.vertices - {v}, [e for e in g.edges if v not in e])
    if d is None:
        return Result(g2)
    stripped = d.rebag(g2, lambda bag: bag - {v})
    if isinstance(stripped, TreeDecomposition):
        return Result(g2, drop_empty_bags_tree(stripped), width(d))
    kept = [bag for bag in stripped.bags if bag] or [frozenset()]
    return Result(g2, PathDecomposition(g2, kept), width(d))


def steiner_nodes(tree, marked):
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


def identify_vertices(g, v, w, d=None):
    g2, z = _merge(g, v, w)
    if d is None:
        return Result(g2)
    claimed = width(d) + 1
    if isinstance(d, TreeDecomposition):
        bags = {u: _rename_pair(bag, v, w, z) for u, bag in d.bags.items()}
        marked = {u for u, bag in bags.items() if z in bag}
        for u in steiner_nodes(d.tree, marked):
            bags[u] = bags[u] | {z}
        return Result(g2, TreeDecomposition(g2, d.tree, bags), claimed)
    bags = [_rename_pair(bag, v, w, z) for bag in d.bags]
    idxs = [i for i, bag in enumerate(bags) if z in bag]
    for i in range(idxs[0], idxs[-1] + 1):
        bags[i] = bags[i] | {z}
    return Result(g2, PathDecomposition(g2, bags), claimed)


def incidence_graph(g, d=None):
    base = fresh_id(g)
    ids = {e: base + i for i, e in enumerate(g.edges_sorted())}
    edges = []
    for (a, b), x in ids.items():
        edges.append((a, x))
        edges.append((x, b))
    g2 = Graph(g.vertices | set(ids.values()), edges)
    if d is None:
        return Result(g2)
    wd = width(d)
    if isinstance(d, TreeDecomposition):
        if is_forest(g):
            return Result(g2, forest_decomposition(g2), max(wd, 1))
        leaves = [
            (min(u for u, bag in d.bags.items() if a in bag and b in bag),
             frozenset({a, b, x}))
            for (a, b), x in ids.items()
        ]
        return Result(g2, _hang_bags(d, g2, leaves), max(wd, 1))
    first_bag = {
        e: min(i for i, bag in enumerate(d.bags) if e[0] in bag and e[1] in bag)
        for e in ids
    }
    bags = []
    for i, bag in enumerate(d.bags):
        bags.append(bag)
        for e, x in ids.items():
            if first_bag[e] == i:
                bags.append(bag | {x})
    return Result(g2, PathDecomposition(g2, bags), wd + 1)


def line_graph(g, d=None):
    es = g.edges_sorted()
    edges = [
        (i, j)
        for i in range(len(es))
        for j in range(i + 1, len(es))
        if set(es[i]) & set(es[j])
    ]
    g2 = Graph(range(len(es)), edges)
    if d is None:
        return Result(g2)
    ids = {e: i for i, e in enumerate(es)}
    claimed = (width(d) + 1) * max_degree(g) - 1
    incident = lambda bag: frozenset(x for e, x in ids.items() if e[0] in bag or e[1] in bag)
    return Result(g2, d.rebag(g2, incident), claimed)


# --- binary -----------------------------------------------------------------


def product(kind, g1, g2, d1=None):
    o1 = g1.vertices_sorted()
    o2 = g2.vertices_sorted()
    pair = {(u1, u2): i1 * g2.n + i2 for i1, u1 in enumerate(o1) for i2, u2 in enumerate(o2)}
    pairs = sorted(pair, key=pair.__getitem__)
    edges = []
    for i, (u1, u2) in enumerate(pairs):
        for v1, v2 in pairs[i + 1 :]:
            e1 = g1.has_edge(u1, v1)
            e2 = g2.has_edge(u2, v2)
            if kind == "cartesian":
                keep = (u1 == v1 and e2) or (u2 == v2 and e1)
            elif kind == "categorical":
                keep = e1 and e2
            elif kind == "conormal":
                keep = e1 or e2
            elif kind == "lexicographic":
                keep = e1 or (u1 == v1 and e2)
            elif kind == "normal":
                keep = (u1 == v1 and e2) or (e1 and u2 == v2) or (e1 and e2)
            elif kind == "symmetric-difference":
                keep = e1 != e2
            else:  # rejection
                keep = not e1 and not e2
            if keep:
                edges.append((pair[(u1, u2)], pair[(v1, v2)]))
    graph = Graph(range(g1.n * g2.n), edges)
    if d1 is None:
        return Result(graph)
    blocks = {u1: frozenset(pair[(u1, u2)] for u2 in g2.vertices) for u1 in g1.vertices}
    claimed = (width(d1) + 1) * g2.n - 1
    dec = d1.rebag(graph, lambda bag: frozenset().union(*(blocks[x] for x in bag)))
    return Result(graph, dec, claimed)


def corona(g1, g2, d1=None, d2=None):
    n1, n2 = g1.n, g2.n
    m1 = {x: i for i, x in enumerate(g1.vertices_sorted())}
    o2 = g2.vertices_sorted()
    copy = {(i, u): n1 + i * n2 + j for i in range(n1) for j, u in enumerate(o2)}
    edges = [(m1[u], m1[v]) for u, v in g1.edges]
    for i in range(n1):
        edges += [(copy[(i, a)], copy[(i, b)]) for a, b in g2.edges]
        edges += [(i, copy[(i, u)]) for u in o2]
    graph = Graph(range(n1 + n1 * n2), edges)
    if d1 is None:
        return Result(graph)
    w1 = width(d1)
    w2 = width(d2)
    if n2 == 0:
        return Result(graph, d1.rebag(graph, lambda bag: frozenset(m1[x] for x in bag)), w1)
    if isinstance(d1, TreeDecomposition):
        _, e1, b1 = _mapped_tree(d1, m1.__getitem__, 0)
        nodes = d1.tree.n + n1 * d2.tree.n
        edges_t = list(e1)
        bags = dict(b1)
        for i in range(n1):
            offset = d1.tree.n + i * d2.tree.n
            _, e2, b2 = _mapped_tree(d2, lambda x: copy[(i, x)], offset)
            edges_t += e2
            bags |= {u: bag | {i} for u, bag in b2.items()}
            anchor = min(u for u, bag in b1.items() if i in bag)
            edges_t.append((anchor, offset))
        tree = Graph(range(nodes), edges_t)
        return Result(graph, TreeDecomposition(graph, tree, bags), max(w1, w2) + 1)
    everyone = frozenset(range(n1))
    bags = []
    for i in range(n1):
        bags += [frozenset(copy[(i, x)] for x in bag) | everyone for bag in d2.bags]
    return Result(graph, PathDecomposition(graph, bags), max(w1, w2) + n1)


def remove_redundant_bags(td):
    if not validate(td.host, td).valid:
        raise ParameterError("decomposition invalid")
    adj = {u: set(nb) for u, nb in td.tree.adjacency().items()}
    bags = dict(td.bags)
    while True:
        merged = False
        for u, v in sorted((min(u, v), max(u, v)) for u in adj for v in adj[u]):
            drop, keep = None, None
            if bags[u] <= bags[v]:
                drop, keep = u, v
            elif bags[v] <= bags[u]:
                drop, keep = v, u
            if drop is None:
                continue
            _contract(adj, bags, drop, keep)
            merged = True
            break
        if not merged:
            break
    tree = Graph(adj, [(u, v) for u in adj for v in adj[u] if u < v])
    return TreeDecomposition(td.host, tree, bags)
