"""Two-graph operations with decomposition combiners.

Operations take the two graphs plus, optionally, one valid decomposition
per graph (both or neither, same kind); when given, the result carries a
combined decomposition with its claimed width bound.  Inputs are relabeled
to disjoint id ranges: graph 1 to 0..n1-1 and graph 2 to n1..n1+n2-1 in
sorted-id order, except where an operation documents its own layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decomposition import PathDecomposition, TreeDecomposition, width
from .errors import ParameterError
from .graphs import Graph
from .unary import CarriedDecomposition, _bound

PRODUCT_KINDS = (
    "cartesian",
    "categorical",
    "conormal",
    "lexicographic",
    "normal",
    "symmetric-difference",
    "rejection",
)


@dataclass(frozen=True)
class CombineResult:
    graph: Graph
    decomposition: CarriedDecomposition | None
    id_map: dict[tuple[int, int], int]  # (origin 1|2, old id) -> new id
    merged_id: int | None = None  # the fused vertex of a 1-sum
    pair_ids: dict[tuple[int, int], int] | None = None  # products and corona


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
    if d1.host != g1 or d2.host != g2:
        raise ParameterError("decompositions must belong to the given graphs")


def _mapped_tree(d: TreeDecomposition, vmap, node_offset: int):
    """Tree nodes renumbered to offset..offset+r-1 in sorted order; bags
    pushed through vmap (a callable on vertex ids)."""
    nodes = d.tree.vertices_sorted()
    rank = {u: node_offset + i for i, u in enumerate(nodes)}
    edges = [(rank[a], rank[b]) for a, b in d.tree.edges]
    bags = {rank[u]: frozenset(vmap(x) for x in d.bags[u]) for u in nodes}
    return rank, edges, bags


# --- disjoint union and join ---------------------------------------------


def disjoint_union(g1: Graph, g2: Graph, d1=None, d2=None) -> CombineResult:
    """Side-by-side copy of both graphs; width is the max of the inputs."""
    _check_pair(d1, d2, g1, g2)
    m1, m2 = _rank_maps(g1, g2)
    graph = Graph(range(g1.n + g2.n), _map_edges(g1, m1) + _map_edges(g2, m2))
    id_map = {(1, v): m1[v] for v in g1.vertices} | {(2, v): m2[v] for v in g2.vertices}
    carried = None
    if d1 is not None:
        claimed = max(_bound(width(d1)), _bound(width(d2)))
        if isinstance(d1, TreeDecomposition):
            _, e1, b1 = _mapped_tree(d1, m1.__getitem__, 0)
            _, e2, b2 = _mapped_tree(d2, m2.__getitem__, d1.tree.n)
            tree = Graph(range(d1.tree.n + d2.tree.n), e1 + e2 + [(0, d1.tree.n)])
            carried = CarriedDecomposition(
                TreeDecomposition(graph, tree, b1 | b2), claimed
            )
        else:
            bags = [frozenset(m1[x] for x in bag) for bag in d1.bags]
            bags += [frozenset(m2[x] for x in bag) for bag in d2.bags]
            carried = CarriedDecomposition(PathDecomposition(graph, bags), claimed)
    return CombineResult(graph, carried, id_map)


def join(g1: Graph, g2: Graph, d1=None, d2=None) -> CombineResult:
    """Disjoint union plus all edges between the sides.

    The combiner keeps the decomposition of the side minimizing
    width + |other side| and pours the other side into every bag; the
    claimed bound min(w1+n2, w2+n1) is exact.
    """
    _check_pair(d1, d2, g1, g2)
    m1, m2 = _rank_maps(g1, g2)
    cross = [(m1[u], m2[v]) for u in g1.vertices for v in g2.vertices]
    graph = Graph(range(g1.n + g2.n), _map_edges(g1, m1) + _map_edges(g2, m2) + cross)
    id_map = {(1, v): m1[v] for v in g1.vertices} | {(2, v): m2[v] for v in g2.vertices}
    carried = None
    if d1 is not None:
        cost1 = _bound(width(d1)) + g2.n
        cost2 = _bound(width(d2)) + g1.n
        if cost1 <= cost2:
            base, m_keep, pour = d1, m1, frozenset(m2.values())
        else:
            base, m_keep, pour = d2, m2, frozenset(m1.values())
        claimed = min(cost1, cost2)
        if isinstance(base, TreeDecomposition):
            _, edges, bags = _mapped_tree(base, m_keep.__getitem__, 0)
            bags = {u: bag | pour for u, bag in bags.items()}
            carried = CarriedDecomposition(
                TreeDecomposition(graph, Graph(range(base.tree.n), edges), bags), claimed
            )
        else:
            bags = [frozenset(m_keep[x] for x in bag) | pour for bag in base.bags]
            carried = CarriedDecomposition(PathDecomposition(graph, bags), claimed)
    return CombineResult(graph, carried, id_map)


def union_same_vertices(g1: Graph, g2: Graph) -> CombineResult:
    """Edge union over a shared vertex set.  No combiner exists: thin
    inputs can union into arbitrarily wide graphs (grids from two sets of
    paths).  Ids are kept, so id_map records origin 1 only."""
    if g1.vertices != g2.vertices:
        raise ParameterError("edge union needs identical vertex sets")
    graph = Graph(g1.vertices, list(g1.edges) + list(g2.edges))
    return CombineResult(graph, None, {(1, v): v for v in g1.vertices})


# --- substitution ---------------------------------------------------------


def substitute(
    g1: Graph,
    v: int,
    g2: Graph,
    d1=None,
    d2=None,
    combiner: str = "replace",
) -> CombineResult:
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
    id_map = {(1, u): u for u in g1.vertices - {v}}
    id_map |= {(2, u): m2[u] for u in g2.vertices}
    carried = None
    if d1 is not None:
        if combiner == "replace":
            carried = _substitute_replace(graph, v, d1, d2, m2)
        elif combiner == "neighbors":
            carried = _substitute_neighbors(graph, v, nb, d1, d2, m2)
        else:
            raise ParameterError(f"unknown substitution combiner {combiner!r}")
    return CombineResult(graph, carried, id_map)


def _substitute_replace(graph, v, d1, d2, m2) -> CarriedDecomposition:
    block = frozenset(m2.values())
    cost1 = _bound(width(d1)) + len(block)
    cost2 = _bound(width(d2)) + d1.host.n
    claimed = min(cost1, cost2) - 1
    if cost1 <= cost2:
        repl = lambda bag: (bag - {v}) | block if v in bag else bag
        if isinstance(d1, TreeDecomposition):
            bags = {u: repl(bag) for u, bag in d1.bags.items()}
            return CarriedDecomposition(TreeDecomposition(graph, d1.tree, bags), claimed)
        return CarriedDecomposition(
            PathDecomposition(graph, [repl(bag) for bag in d1.bags]), claimed
        )
    rest = frozenset(d1.host.vertices - {v})
    if isinstance(d2, TreeDecomposition):
        _, edges, bags = _mapped_tree(d2, m2.__getitem__, 0)
        bags = {u: bag | rest for u, bag in bags.items()}
        return CarriedDecomposition(
            TreeDecomposition(graph, Graph(range(d2.tree.n), edges), bags), claimed
        )
    bags = [frozenset(m2[x] for x in bag) | rest for bag in d2.bags]
    return CarriedDecomposition(PathDecomposition(graph, bags), claimed)


def _substitute_neighbors(graph, v, nb, d1, d2, m2) -> CarriedDecomposition:
    if not isinstance(d1, TreeDecomposition):
        raise ParameterError("the neighbors combiner works on tree-decompositions")
    if not nb:
        raise ParameterError("the neighbors combiner needs a non-isolated vertex")
    claimed = max(_bound(width(d1)) - 1, _bound(width(d2))) + len(nb)
    rank1, edges1, bags1 = _mapped_tree(d1, lambda x: x, 0)
    anchor = rank1[min(u for u, bag in d1.bags.items() if v in bag)]
    bags1 = {u: (bag - {v}) | nb if v in bag else bag for u, bag in bags1.items()}
    _, edges2, bags2 = _mapped_tree(d2, m2.__getitem__, d1.tree.n)
    bags2 = {u: bag | nb for u, bag in bags2.items()}
    tree = Graph(
        range(d1.tree.n + d2.tree.n), edges1 + edges2 + [(anchor, d1.tree.n)]
    )
    return CarriedDecomposition(
        TreeDecomposition(graph, tree, bags1 | bags2), claimed
    )


# --- products -------------------------------------------------------------


def product_pair_ids(g1: Graph, g2: Graph) -> dict[tuple[int, int], int]:
    """(u1, u2) -> row-major index over sorted vertex orders."""
    o1 = g1.vertices_sorted()
    o2 = g2.vertices_sorted()
    return {(u1, u2): i1 * g2.n + i2 for i1, u1 in enumerate(o1) for i2, u2 in enumerate(o2)}


def product(kind: str, g1: Graph, g2: Graph, d1=None) -> CombineResult:
    """The seven products over V1 x V2; pairs are row-major ids.

    Only the lexicographic product carries a decomposition (of g1): each
    vertex blows up into its {v} x V2 block, claimed (w1+1)|V2|-1."""
    if kind not in PRODUCT_KINDS:
        raise ParameterError(f"unknown product kind {kind!r}")
    if d1 is not None and kind != "lexicographic":
        raise ParameterError("only the lexicographic product has a combiner")
    if d1 is not None and d1.host != g1:
        raise ParameterError("decomposition must belong to the first graph")
    pair = product_pair_ids(g1, g2)
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
    carried = None
    if d1 is not None:
        blocks = {
            u1: frozenset(pair[(u1, u2)] for u2 in g2.vertices) for u1 in g1.vertices
        }
        claimed = (_bound(width(d1)) + 1) * g2.n - 1
        expand = lambda bag: frozenset().union(*(blocks[x] for x in bag)) if bag else frozenset()
        if isinstance(d1, TreeDecomposition):
            bags = {u: expand(bag) for u, bag in d1.bags.items()}
            carried = CarriedDecomposition(TreeDecomposition(graph, d1.tree, bags), claimed)
        else:
            carried = CarriedDecomposition(
                PathDecomposition(graph, [expand(bag) for bag in d1.bags]), claimed
            )
    return CombineResult(graph, carried, {}, pair_ids=pair)


# --- 1-sum and corona -----------------------------------------------------


def one_sum(g1: Graph, v: int, g2: Graph, w: int, d1=None, d2=None) -> CombineResult:
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
    id_map = {(1, x): m1[x] for x in g1.vertices if x != v}
    id_map |= {(2, x): m2[x] for x in g2.vertices if x != w}
    carried = None
    if d1 is not None:
        w1 = _bound(width(d1))
        w2 = _bound(width(d2))
        if isinstance(d1, TreeDecomposition):
            _, e1, b1 = _mapped_tree(d1, f1, 0)
            _, e2, b2 = _mapped_tree(d2, f2, d1.tree.n)
            bags = b1 | b2
            a1 = min(u for u, bag in b1.items() if z in bag)
            a2 = min(u for u, bag in b2.items() if z in bag)
            tree = Graph(range(d1.tree.n + d2.tree.n), e1 + e2 + [(a1, a2)])
            carried = CarriedDecomposition(
                TreeDecomposition(graph, tree, bags), max(w1, w2)
            )
        else:
            bags = [frozenset(f1(x) for x in bag) for bag in d1.bags]
            bags += [frozenset(f2(x) for x in bag) for bag in d2.bags]
            idxs = [i for i, bag in enumerate(bags) if z in bag]
            claimed = max(w1, w2)
            if idxs[-1] - idxs[0] + 1 != len(idxs):
                for i in range(idxs[0], idxs[-1] + 1):
                    bags[i] = bags[i] | {z}
                claimed += 1
            carried = CarriedDecomposition(PathDecomposition(graph, bags), claimed)
    return CombineResult(graph, carried, id_map, merged_id=z)


def corona(g1: Graph, g2: Graph, d1=None, d2=None) -> CombineResult:
    """g1 plus one copy of g2 per vertex of g1, that vertex joined to its
    copy.  Layout: g1 at 0..n1-1 (sorted order), copy i at n1+i*n2 onward;
    pair_ids maps (copy index, old g2 id) to the new id."""
    if g1.n == 0:
        raise ParameterError("corona needs a nonempty first graph")
    _check_pair(d1, d2, g1, g2)
    n1, n2 = g1.n, g2.n
    m1 = {x: i for i, x in enumerate(g1.vertices_sorted())}
    o2 = g2.vertices_sorted()
    copy = {
        (i, u): n1 + i * n2 + j
        for i in range(n1)
        for j, u in enumerate(o2)
    }
    edges = _map_edges(g1, m1)
    for i in range(n1):
        edges += [(copy[(i, a)], copy[(i, b)]) for a, b in g2.edges]
        edges += [(i, copy[(i, u)]) for u in o2]
    graph = Graph(range(n1 + n1 * n2), edges)
    id_map = {(1, x): m1[x] for x in g1.vertices}
    carried = None
    if d1 is not None:
        w1 = _bound(width(d1))
        w2 = _bound(width(d2))
        if n2 == 0:
            if isinstance(d1, TreeDecomposition):
                _, e1, b1 = _mapped_tree(d1, m1.__getitem__, 0)
                dec = TreeDecomposition(graph, Graph(range(d1.tree.n), e1), b1)
            else:
                dec = PathDecomposition(
                    graph, [frozenset(m1[x] for x in bag) for bag in d1.bags]
                )
            carried = CarriedDecomposition(dec, w1)
        elif isinstance(d1, TreeDecomposition):
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
            carried = CarriedDecomposition(
                TreeDecomposition(graph, Graph(range(nodes), edges_t), bags),
                max(w1, w2) + 1,
            )
        else:
            everyone = frozenset(range(n1))
            bags = []
            for i in range(n1):
                bags += [
                    frozenset(copy[(i, x)] for x in bag) | everyone for bag in d2.bags
                ]
            carried = CarriedDecomposition(
                PathDecomposition(graph, bags), max(w1, w2) + n1
            )
    return CombineResult(graph, carried, id_map, pair_ids=copy)


def corona_pw_complete(n: int, m: int) -> int:
    """Closed-form path-width of the corona of two complete graphs."""
    if n < 1 or m < 1:
        raise ParameterError("corona closed form needs n, m >= 1")
    if n == 1:
        return m
    return n + max(0, m - n // 2) - 1
