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
from .graphs import Graph, guard_size
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


def _mapped_tree(d: TreeDecomposition, vmap, node_offset: int):
    """Tree nodes renumbered to offset..offset+r-1 in sorted order; bags
    pushed through vmap (a callable on vertex ids)."""
    nodes = d.tree.vertices_sorted()
    rank = {u: node_offset + i for i, u in enumerate(nodes)}
    edges = [(rank[a], rank[b]) for a, b in d.tree.edges]
    bags = {rank[u]: frozenset(vmap(x) for x in d.bags[u]) for u in nodes}
    return rank, edges, bags


# --- disjoint union and join ---------------------------------------------


def disjoint_union(g1: Graph, g2: Graph, d1=None, d2=None) -> Result:
    """Side-by-side copy of both graphs; width is the max of the inputs."""
    _check_pair(d1, d2, g1, g2)
    m1, m2 = _rank_maps(g1, g2)
    graph = Graph(range(g1.n + g2.n), _map_edges(g1, m1) + _map_edges(g2, m2))
    if d1 is None:
        return Result(graph)
    claimed = max(width(d1), width(d2))
    if isinstance(d1, TreeDecomposition):
        _, e1, b1 = _mapped_tree(d1, m1.__getitem__, 0)
        _, e2, b2 = _mapped_tree(d2, m2.__getitem__, d1.tree.n)
        tree = Graph(range(d1.tree.n + d2.tree.n), e1 + e2 + [(0, d1.tree.n)])
        return Result(graph, TreeDecomposition(graph, tree, b1 | b2), claimed)
    bags = [frozenset(m1[x] for x in bag) for bag in d1.bags]
    bags += [frozenset(m2[x] for x in bag) for bag in d2.bags]
    return Result(graph, PathDecomposition(graph, bags), claimed)


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
    rank1, edges1, bags1 = _mapped_tree(d1, lambda x: x, 0)
    anchor = rank1[min(u for u, bag in d1.bags.items() if v in bag)]
    bags1 = {u: (bag - {v}) | nb if v in bag else bag for u, bag in bags1.items()}
    _, edges2, bags2 = _mapped_tree(d2, m2.__getitem__, d1.tree.n)
    bags2 = {u: bag | nb for u, bag in bags2.items()}
    tree = Graph(
        range(d1.tree.n + d2.tree.n), edges1 + edges2 + [(anchor, d1.tree.n)]
    )
    return Result(graph, TreeDecomposition(graph, tree, bags1 | bags2), claimed)


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
# the kinds whose edges follow from the factors' edges, so they are listed
# from them instead of deciding every pair of vertices
_SPARSE_KINDS = ("cartesian", "categorical", "lexicographic", "normal")

_SAME, _EDGE, _APART = (True, False), (False, True), (False, False)


def _product_size(rule, g1: Graph, g2: Graph) -> int:
    """The number of edges of the product by rule.  An ordered pair of
    distinct product vertices is same, edge or apart (distinct and not
    adjacent) in each coordinate; each pattern but same-same counts the
    product of its coordinates' ordered-pair counts, and each edge is two
    ordered pairs."""
    def counts(g):
        return {_SAME: g.n, _EDGE: 2 * g.m, _APART: g.n * (g.n - 1) - 2 * g.m}
    c1, c2 = counts(g1), counts(g2)
    return sum(c1[a] * c2[b] for a in c1 for b in c2
               if (a, b) != (_SAME, _SAME) and rule(*a, *b)) // 2


def _sparse_product_edges(kind: str, g1: Graph, g2: Graph) -> list[tuple[int, int]]:
    """The edges of a sparse product as row-major id pairs, read off the
    factors' edges.  Each factor edge (a, b) has a < b, so every pair is
    ordered; the list is sorted, the order in which the pairwise scan finds
    the edges, so the result graph holds its edges in the same order."""
    n2 = g2.n
    r1 = {u: i * n2 for i, u in enumerate(g1.vertices_sorted())}  # id of (u, 0th)
    r2 = {u: j for j, u in enumerate(g2.vertices_sorted())}
    e1 = [(r1[a], r1[b]) for a, b in g1.edges]
    e2 = [(r2[a], r2[b]) for a, b in g2.edges]
    edges = []
    if kind != "categorical":  # equal first coordinates, adjacent second ones
        edges += [(x + a, x + b) for x in r1.values() for a, b in e2]
    if kind in ("cartesian", "normal"):  # adjacent first, equal second
        edges += [(a + j, b + j) for a, b in e1 for j in range(n2)]
    if kind in ("categorical", "normal"):  # adjacent in both
        edges += [(a + c, b + d) for a, b in e1 for c, d in e2]
        edges += [(a + d, b + c) for a, b in e1 for c, d in e2]
    if kind == "lexicographic":  # adjacent first, any second
        edges += [(a + x, b + y) for a, b in e1 for x in range(n2) for y in range(n2)]
    edges.sort()
    return edges


def product(kind: str, g1: Graph, g2: Graph, d1=None) -> Result:
    """The seven products over V1 x V2; (u1, u2) gets the row-major id
    i1 * n2 + i2 of its ranks in the sorted vertex orders.  A result too
    large for a graph is refused (graphs.guard_size) before any edge is
    built.

    Only the lexicographic product carries a decomposition (of g1): each
    vertex blows up into its {v} x V2 block, claimed (w1+1)|V2|-1."""
    if kind not in PRODUCT_KINDS:
        raise ParameterError(f"unknown product kind {kind!r}")
    if d1 is not None and kind != "lexicographic":
        raise ParameterError("only the lexicographic product has a combiner")
    check_host(g1, d1)
    rule = _PRODUCT_RULES[kind]
    guard_size(g1.n * g2.n, _product_size(rule, g1, g2))
    o1, o2 = g1.vertices_sorted(), g2.vertices_sorted()
    if kind in _SPARSE_KINDS:
        edges = _sparse_product_edges(kind, g1, g2)
    else:
        pairs = [(u1, u2) for u1 in o1 for u2 in o2]
        edges = []
        for i, (u1, u2) in enumerate(pairs):
            for j, (v1, v2) in enumerate(pairs[i + 1 :], i + 1):
                if rule(u1 == v1, g1.has_edge(u1, v1), u2 == v2, g2.has_edge(u2, v2)):
                    edges.append((i, j))
    graph = Graph(range(g1.n * g2.n), edges)
    if d1 is None:
        return Result(graph)
    n2 = g2.n
    blocks = {u1: frozenset(range(i1 * n2, (i1 + 1) * n2)) for i1, u1 in enumerate(o1)}
    claimed = (width(d1) + 1) * n2 - 1
    dec = d1.rebag(graph, lambda bag: frozenset().union(*(blocks[x] for x in bag)))
    return Result(graph, dec, claimed)


# --- 1-sum and corona -----------------------------------------------------


def one_sum(g1: Graph, v: int, g2: Graph, w: int, d1=None, d2=None) -> Result:
    """Disjoint union with v and w fused into the fresh vertex n1+n2.

    Tree-decompositions bridge two bags holding the fused vertex (width
    max(w1, w2), exact); bag sequences concatenate, adding the fused vertex
    to the gap bags only when contiguity demands it (claimed max+1)."""
    if not g1.has_vertex(v):
        raise ParameterError(f"vertex {v} not in first graph")
    if not g2.has_vertex(w):
        raise ParameterError(f"vertex {w} not in second graph")
    _check_pair(d1, d2, g1, g2)
    m1, m2 = _rank_maps(g1, g2)
    z = g1.n + g2.n
    f1 = lambda x: z if x == v else m1[x]
    f2 = lambda x: z if x == w else m2[x]
    edges = {tuple(sorted((f1(a), f1(b)))) for a, b in g1.edges}
    edges |= {tuple(sorted((f2(a), f2(b)))) for a, b in g2.edges}
    vertices = {f1(x) for x in g1.vertices} | {f2(x) for x in g2.vertices}
    graph = Graph(vertices, edges)
    if d1 is None:
        return Result(graph)
    claimed = max(width(d1), width(d2))
    if isinstance(d1, TreeDecomposition):
        _, e1, b1 = _mapped_tree(d1, f1, 0)
        _, e2, b2 = _mapped_tree(d2, f2, d1.tree.n)
        a1 = min(u for u, bag in b1.items() if z in bag)
        a2 = min(u for u, bag in b2.items() if z in bag)
        tree = Graph(range(d1.tree.n + d2.tree.n), e1 + e2 + [(a1, a2)])
        return Result(graph, TreeDecomposition(graph, tree, b1 | b2), claimed)
    bags = [frozenset(f1(x) for x in bag) for bag in d1.bags]
    bags += [frozenset(f2(x) for x in bag) for bag in d2.bags]
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
    m1 = {x: i for i, x in enumerate(g1.vertices_sorted())}
    m2 = {u: j for j, u in enumerate(g2.vertices_sorted())}
    e2 = _map_edges(g2, m2)  # copy i is g2 so relabeled, shifted by n1 + i * n2
    edges = _map_edges(g1, m1)
    for i in range(n1):
        base = n1 + i * n2
        edges += [(base + a, base + b) for a, b in e2] + [(i, base + j) for j in range(n2)]
    graph = Graph(range(n1 + n1 * n2), edges)
    if d1 is None:
        return Result(graph)
    w1 = width(d1)
    w2 = width(d2)
    if n2 == 0:
        return Result(graph, d1.rebag(graph, lambda bag: frozenset(m1[x] for x in bag)), w1)
    if isinstance(d1, TreeDecomposition):
        r1, r2 = d1.tree.n, d2.tree.n
        _, edges_t, bags = _mapped_tree(d1, m1.__getitem__, 0)
        _, t2, b2 = _mapped_tree(d2, m2.__getitem__, 0)
        # vertex of g1 -> the lowest node holding it: walked backwards, it comes last
        anchor = {x: u for u, bag in reversed(bags.items()) for x in bag}
        for i in range(n1):
            base, offset = n1 + i * n2, r1 + i * r2
            edges_t += [(a + offset, b + offset) for a, b in t2] + [(anchor[i], offset)]
            bags |= {u + offset: frozenset(base + x for x in bag) | {i} for u, bag in b2.items()}
        tree = Graph(range(r1 + n1 * r2), edges_t)
        return Result(graph, TreeDecomposition(graph, tree, bags), max(w1, w2) + 1)
    everyone = frozenset(range(n1))
    b2 = [frozenset(m2[x] for x in bag) for bag in d2.bags]
    bags = [frozenset(n1 + i * n2 + x for x in bag) | everyone for i in range(n1) for bag in b2]
    return Result(graph, PathDecomposition(graph, bags), max(w1, w2) + n1)
