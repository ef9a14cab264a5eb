"""Two-graph operations.

Each operation builds its result graph once and returns a `Result`.  It
takes the two graphs plus, optionally, one valid decomposition per graph
it combines (both or neither, same kind); given them, the result carries a
combined decomposition with its claimed width bound.  Inputs are relabeled
to disjoint id ranges: graph 1 to 0..n1-1 and graph 2 to n1..n1+n2-1 in
sorted-id order, except where an operation documents its own layout.
"""

from __future__ import annotations

from .decomposition import PathDecomposition, TreeDecomposition, width
from .errors import ParameterError
from .graphs import Graph, edited, fuse_vertices, guard_size
from .results import Result, check_host


def _rank_maps(g1: Graph, g2: Graph) -> tuple[dict[int, int], dict[int, int]]:
    m1 = {v: i for i, v in enumerate(g1.vertices_sorted())}
    m2 = {v: g1.n + i for i, v in enumerate(g2.vertices_sorted())}
    return m1, m2


def _map_edges(g: Graph, m: dict[int, int]):
    return [(m[u], m[v]) for u, v in g.edges]


def _check_pair(d1, d2, g1: Graph, g2: Graph) -> None:
    if (d1 is None) != (d2 is None):
        raise ParameterError("combiners need both decompositions or neither")
    if d1 is None:
        return
    if type(d1) is not type(d2):
        raise ParameterError("decompositions must be of the same kind")
    check_host(g1, d1)
    check_host(g2, d2)


def _through(f):
    """The bag function pushing each member through the vertex map f."""
    return lambda bag: frozenset(map(f, bag))


def _lowest(d: TreeDecomposition) -> dict[int, int]:
    """Each vertex in d's bags -> the lowest tree node holding it."""
    return {x: u for u, bag in reversed(d.bag_items()) for x in bag}


def _graft(host: Graph, d: TreeDecomposition, f, pieces) -> TreeDecomposition:
    """One tree-decomposition of host from d's tree with each piece's tree
    hung off it.  A piece is (p, g, a, b): tree-decomposition p, its bag
    function g, and the link from d's node a to p's node b.  d's nodes
    become 0, 1, ... in id order, then each piece's nodes in turn; bags go
    through f for d and through g for a piece.

    The result is rooted at node 0, d's lowest node, and each piece hangs
    from its link: d and every piece are re-rooted there first (see
    `_rerooted`), so the rooting is built, not walked."""
    rank = {u: i for i, u in enumerate(sorted(d.bags))}
    parent = {rank[x]: rank[y] for x, y in _rerooted(d, min(d.bags)).items()}
    bags = {i: f(d.bags[u]) for u, i in rank.items()}
    for p, g, a, b in pieces:
        offset = len(bags)
        prank = {u: offset + i for i, u in enumerate(sorted(p.bags))}
        parent[prank[b]] = rank[a]
        parent |= {prank[x]: prank[y] for x, y in _rerooted(p, b).items()}
        bags |= {i: g(p.bags[u]) for u, i in prank.items()}
    return TreeDecomposition._rooted(host, bags, 0, parent)


def _rerooted(d: TreeDecomposition, root: int) -> dict[int, int]:
    """d's rooting moved to node root: the parent path from root up to d's
    root is reversed, and every other node keeps its parent.  The path
    comes first, root's old parent first, so each node still comes after
    its parent."""
    path = [root]
    while path[-1] != d._root:
        path.append(d._parent[path[-1]])
    parent = dict(zip(path[1:], path))
    parent |= {x: y for x, y in d._parent.items() if x not in parent and x != root}
    return parent


# --- disjoint union and join ---------------------------------------------


def disjoint_union(g1: Graph, g2: Graph, d1=None, d2=None) -> Result:
    """Side-by-side copy of both graphs; width is the max of the inputs."""
    _check_pair(d1, d2, g1, g2)
    m1, m2 = _rank_maps(g1, g2)
    graph = Graph(range(g1.n + g2.n), _map_edges(g1, m1) + _map_edges(g2, m2))
    if d1 is None:
        return Result(graph)
    f1, f2 = _through(m1.__getitem__), _through(m2.__getitem__)
    if isinstance(d1, TreeDecomposition):
        lowest = (min(d1.bags), min(d2.bags))
        dec = _graft(graph, d1, f1, [(d2, f2, *lowest)])
    else:
        dec = PathDecomposition(graph, [*map(f1, d1.bags), *map(f2, d2.bags)])
    return Result(graph, dec, max(width(d1), width(d2)))


def join(g1: Graph, g2: Graph, d1=None, d2=None) -> Result:
    """Disjoint union plus all edges between the sides.

    The combiner keeps the decomposition of the side minimizing
    width + |other side| and pours the other side into every bag; the
    claimed bound min(w1+n2, w2+n1) is exact.  A result too large for a
    graph is refused (graphs.guard_size) before any edge is built.
    """
    _check_pair(d1, d2, g1, g2)
    guard_size(g1.n + g2.n, g1.m + g2.m + g1.n * g2.n)
    m1, m2 = _rank_maps(g1, g2)
    cross = [(m1[u], m2[v]) for u in g1.vertices for v in g2.vertices]
    graph = Graph(range(g1.n + g2.n), _map_edges(g1, m1) + _map_edges(g2, m2) + cross)
    if d1 is None:
        return Result(graph)
    cost1 = width(d1) + g2.n
    cost2 = width(d2) + g1.n
    if cost1 <= cost2:
        base, m_keep, pour = d1, m1, frozenset(m2.values())
    else:
        base, m_keep, pour = d2, m2, frozenset(m1.values())
    dec = base.rebag(graph, lambda bag: frozenset(m_keep[x] for x in bag) | pour)
    return Result(graph, dec, min(cost1, cost2))


def union_same_vertices(g1: Graph, g2: Graph) -> Result:
    """Edge union over a shared vertex set; ids are kept.  No combiner
    exists: thin inputs can union into arbitrarily wide graphs (grids from
    two sets of paths)."""
    if g1.vertices != g2.vertices:
        raise ParameterError("edge union needs identical vertex sets")
    return Result(Graph(g1.vertices, list(g1.edges) + list(g2.edges)))


# --- substitution ---------------------------------------------------------


def substitute(
    g1: Graph,
    v: int,
    g2: Graph,
    d1=None,
    d2=None,
    combiner: str = "replace",
) -> Result:
    """Replace vertex v of g1 by the whole of g2, joining g2 to N(v).

    g1 keeps its ids (minus v); g2 moves to max(V1)+1 onward.  Combiner
    "replace" substitutes V2 for v in the better-priced side (claimed bound
    min(w1+n2, w2+n1)-1); "neighbors" needs tree-decompositions and a
    non-isolated v and bridges a reshaped pair (claimed bound
    max(w1-1, w2) + deg(v))."""
    if not g1.has_vertex(v):
        raise ParameterError(f"vertex {v} not in graph")
    if g2.n == 0:
        raise ParameterError("substitution needs a nonempty replacement graph")
    _check_pair(d1, d2, g1, g2)
    base = max(g1.vertices) + 1
    m2 = {u: base + i for i, u in enumerate(g2.vertices_sorted())}
    nb = g1.neighbors(v)
    edges = [e for e in g1.edges if v not in e]
    edges += _map_edges(g2, m2)
    edges += [(x, m2[u]) for x in nb for u in g2.vertices]
    graph = Graph((g1.vertices - {v}) | set(m2.values()), edges)
    if d1 is None:
        return Result(graph)
    if combiner == "replace":
        return _substitute_replace(graph, v, d1, d2, m2)
    if combiner == "neighbors":
        return _substitute_neighbors(graph, v, nb, d1, d2, m2)
    raise ParameterError(f"unknown substitution combiner {combiner!r}")


def _substitute_replace(graph, v, d1, d2, m2) -> Result:
    block = frozenset(m2.values())
    cost1 = width(d1) + len(block)
    cost2 = width(d2) + d1.host.n
    claimed = min(cost1, cost2) - 1
    if cost1 <= cost2:
        dec = d1.rebag(graph, lambda bag: (bag - {v}) | block if v in bag else bag)
    else:
        rest = frozenset(d1.host.vertices - {v})
        dec = d2.rebag(graph, lambda bag: frozenset(m2[x] for x in bag) | rest)
    return Result(graph, dec, claimed)


def _substitute_neighbors(graph, v, nb, d1, d2, m2) -> Result:
    if not isinstance(d1, TreeDecomposition):
        raise ParameterError("the neighbors combiner works on tree-decompositions")
    if not nb:
        raise ParameterError("the neighbors combiner needs a non-isolated vertex")
    claimed = max(width(d1) - 1, width(d2)) + len(nb)
    dec = _graft(
        graph, d1, lambda bag: (bag - {v}) | nb if v in bag else bag,
        [(d2, lambda bag: frozenset(map(m2.__getitem__, bag)) | nb,
          _lowest(d1)[v], min(d2.bags))],
    )
    return Result(graph, dec, claimed)


# --- products -------------------------------------------------------------


# whether (u1, u2) and (v1, v2) are adjacent, from four facts: u1 == v1,
# u1v1 an edge of the first factor, u2 == v2, u2v2 an edge of the second
_PRODUCT_RULES = {
    "cartesian": lambda s1, e1, s2, e2: (s1 and e2) or (s2 and e1),
    "categorical": lambda s1, e1, s2, e2: e1 and e2,
    "conormal": lambda s1, e1, s2, e2: e1 or e2,
    "lexicographic": lambda s1, e1, s2, e2: e1 or (s1 and e2),
    "normal": lambda s1, e1, s2, e2: (s1 and e2) or (e1 and s2) or (e1 and e2),
    "symmetric-difference": lambda s1, e1, s2, e2: e1 != e2,
    "rejection": lambda s1, e1, s2, e2: not e1 and not e2,
}
PRODUCT_KINDS = tuple(_PRODUCT_RULES)

# An ordered pair of distinct product vertices is same, edge or apart
# (distinct and not adjacent) in each coordinate; a kind's patterns are the
# (first, second) classes its rule joins (Hammack, Imrich and Klavzar).
_SAME, _EDGE, _APART = (True, False), (False, True), (False, False)
_PRODUCT_PATTERNS = {
    kind: tuple((a, b) for a in (_SAME, _EDGE, _APART) for b in (_SAME, _EDGE, _APART)
                if (a, b) != (_SAME, _SAME) and rule(*a, *b))
    for kind, rule in _PRODUCT_RULES.items()
}


def _class_pairs(g: Graph, classes) -> dict[tuple[bool, bool], list[tuple[int, int]]]:
    """g's pairs i < j of sorted-order ranks by class, same as (i, i); apart
    pairs only when asked for."""
    rank = {u: i for i, u in enumerate(g.vertices_sorted())}
    pairs = {_SAME: [(i, i) for i in range(g.n)], _EDGE: [(rank[a], rank[b]) for a, b in g.edges]}
    if _APART in classes:
        taken = set(pairs[_EDGE])
        pairs[_APART] = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)
                         if (i, j) not in taken]
    return pairs


def _product_edges(kind: str, g1: Graph, g2: Graph) -> list[tuple[int, int]]:
    """The product's edges as sorted row-major id pairs, the order of a
    pairwise scan.  Patterns with an empty class are dropped first; the
    rest give the edge count for graphs.guard_size (each pattern the product
    of its classes' ordered-pair counts, each edge two ordered pairs) and
    then the edges, so nothing is listed that the guard did not count."""
    c1, c2 = ({_SAME: g.n, _EDGE: 2 * g.m, _APART: g.n * (g.n - 1) - 2 * g.m} for g in (g1, g2))
    patterns = [(a, b) for a, b in _PRODUCT_PATTERNS[kind] if c1[a] and c2[b]]
    guard_size(g1.n * g2.n, sum(c1[a] * c2[b] for a, b in patterns) // 2)
    p1 = _class_pairs(g1, [a for a, _ in patterns])
    p2 = _class_pairs(g2, [b for _, b in patterns])
    n2 = g2.n
    edges = []
    for a, b in patterns:
        if a == _SAME:  # equal first coordinates
            edges += [(x * n2 + p, x * n2 + q) for x in range(g1.n) for p, q in p2[b]]
        else:
            both = p2[b] if b == _SAME else p2[b] + [(q, p) for p, q in p2[b]]
            edges += [(x * n2 + p, y * n2 + q) for x, y in p1[a] for p, q in both]
    edges.sort()
    return edges


def product(kind: str, g1: Graph, g2: Graph, d1=None) -> Result:
    """The seven products over V1 x V2; (u1, u2) gets the row-major id
    i1 * n2 + i2 of its ranks in the sorted vertex orders.  The size guard
    and the edge listing both read the rule's patterns, skipping those with
    an empty class, so a result too large for a graph is refused
    (graphs.guard_size) before any edge is built.

    Only the lexicographic product carries a decomposition (of g1): each
    vertex blows up into its {v} x V2 block, claimed (w1+1)|V2|-1."""
    if kind not in PRODUCT_KINDS:
        raise ParameterError(f"unknown product kind {kind!r}")
    if d1 is not None and kind != "lexicographic":
        raise ParameterError("only the lexicographic product has a combiner")
    check_host(g1, d1)
    graph = Graph(range(g1.n * g2.n), _product_edges(kind, g1, g2))
    if d1 is None:
        return Result(graph)
    n2 = g2.n
    blocks = {u1: frozenset(range(i1 * n2, (i1 + 1) * n2))
              for i1, u1 in enumerate(g1.vertices_sorted())}
    claimed = (width(d1) + 1) * n2 - 1
    dec = d1.rebag(graph, lambda bag: frozenset().union(*(blocks[x] for x in bag)))
    return Result(graph, dec, claimed)


# --- 1-sum and corona -----------------------------------------------------


def one_sum(g1: Graph, v: int, g2: Graph, w: int, d1=None, d2=None) -> Result:
    """Disjoint union with v and w fused by graphs.fuse_vertices, into the
    new vertex n1+n2.

    Tree-decompositions bridge two bags holding the fused vertex (width
    max(w1, w2), exact); bag sequences concatenate, adding the fused vertex
    to the gap bags only when contiguity demands it (claimed max+1)."""
    if not g1.has_vertex(v):
        raise ParameterError(f"vertex {v} not in first graph")
    if not g2.has_vertex(w):
        raise ParameterError(f"vertex {w} not in second graph")
    _check_pair(d1, d2, g1, g2)
    m1, m2 = _rank_maps(g1, g2)
    union = Graph(range(g1.n + g2.n), _map_edges(g1, m1) + _map_edges(g2, m2))
    graph, z = edited(union, fuse_vertices, m1[v], m2[w])
    f1 = lambda x: z if x == v else m1[x]
    f2 = lambda x: z if x == w else m2[x]
    if d1 is None:
        return Result(graph)
    claimed = max(width(d1), width(d2))
    if isinstance(d1, TreeDecomposition):
        piece = (d2, _through(f2), _lowest(d1)[v], _lowest(d2)[w])
        return Result(graph, _graft(graph, d1, _through(f1), [piece]), claimed)
    bags = [*map(_through(f1), d1.bags), *map(_through(f2), d2.bags)]
    idxs = [i for i, bag in enumerate(bags) if z in bag]
    if idxs[-1] - idxs[0] + 1 != len(idxs):
        for i in range(idxs[0], idxs[-1] + 1):
            bags[i] = bags[i] | {z}
        claimed += 1
    return Result(graph, PathDecomposition(graph, bags), claimed)


def corona(g1: Graph, g2: Graph, d1=None, d2=None) -> Result:
    """g1 plus one copy of g2 per vertex of g1, that vertex joined to its
    copy.  Layout: g1 at 0..n1-1 (sorted order), copy i at n1+i*n2 onward,
    in g2's sorted order.  A result too large for a graph is refused
    (graphs.guard_size) before any edge is built."""
    if g1.n == 0:
        raise ParameterError("corona needs a nonempty first graph")
    _check_pair(d1, d2, g1, g2)
    n1, n2 = g1.n, g2.n
    guard_size(n1 + n1 * n2, g1.m + n1 * (g2.m + n2))
    m1, m2 = _rank_maps(g1, g2)  # copy i is g2 so relabeled, shifted by i * n2
    e2 = _map_edges(g2, m2)
    edges = _map_edges(g1, m1)
    for i in range(n1):
        shift = i * n2
        edges += [(a + shift, b + shift) for a, b in e2]
        edges += [(i, j + shift) for j in range(n1, n1 + n2)]
    graph = Graph(range(n1 + n1 * n2), edges)
    if d1 is None:
        return Result(graph)
    w1 = width(d1)
    w2 = width(d2)
    if n2 == 0:
        return Result(graph, d1.rebag(graph, _through(m1.__getitem__)), w1)
    shifted = lambda i, bag: frozenset(m2[x] + i * n2 for x in bag)
    if isinstance(d1, TreeDecomposition):
        lowest, top = _lowest(d1), min(d2.bags)
        pieces = [(d2, lambda bag, i=i: shifted(i, bag) | {i}, lowest[x], top)
                  for i, x in enumerate(g1.vertices_sorted())]
        dec = _graft(graph, d1, _through(m1.__getitem__), pieces)
        return Result(graph, dec, max(w1, w2) + 1)
    everyone = frozenset(range(n1))
    bags = [shifted(i, bag) | everyone for i in range(n1) for bag in d2.bags]
    return Result(graph, PathDecomposition(graph, bags), max(w1, w2) + n1)
