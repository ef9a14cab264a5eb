"""Tree- and path-decompositions as first-class validated values.

A tree-decomposition of a graph G is a tree whose nodes carry bags of
vertices such that every vertex appears in a bag, every edge is inside some
bag, and the nodes holding any fixed vertex form a subtree.  A
path-decomposition is the same with the tree replaced by a bag sequence;
the subtree condition becomes contiguity of each vertex's occurrences.
Width is the largest bag size minus one, or None when all bags are empty
(only possible for decompositions of the empty graph).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import InconsistencyError, ParameterError
from .graphs import Graph, connected_components, is_tree


class TreeDecomposition:
    """A bag per tree node; the tree is a Graph over node ids."""

    __slots__ = ("host", "tree", "bags")

    def __init__(self, host: Graph, tree: Graph, bags: Mapping[int, Iterable[int]]):
        if tree.n == 0:
            raise ParameterError("decomposition needs at least one node")
        if not is_tree(tree):
            raise ParameterError("decomposition nodes must form a tree")
        bagmap = {int(u): frozenset(int(v) for v in bag) for u, bag in bags.items()}
        if set(bagmap) != set(tree.vertices):
            raise ParameterError("bags must be keyed exactly by the tree nodes")
        self.host = host
        self.tree = tree
        self.bags = bagmap

    def bag_items(self) -> list[tuple[int, frozenset[int]]]:
        return [(u, self.bags[u]) for u in self.tree.vertices_sorted()]

    def all_bags(self) -> list[frozenset[int]]:
        return [bag for _, bag in self.bag_items()]

    def __repr__(self) -> str:
        return f"TreeDecomposition(nodes={self.tree.n}, width={width(self)})"


class PathDecomposition:
    """A bag sequence; bag i is adjacent to bag i+1."""

    __slots__ = ("host", "bags")

    def __init__(self, host: Graph, bags: Sequence[Iterable[int]]):
        seq = tuple(frozenset(int(v) for v in bag) for bag in bags)
        if not seq:
            raise ParameterError("decomposition needs at least one bag")
        self.host = host
        self.bags = seq

    def bag_items(self) -> list[tuple[int, frozenset[int]]]:
        return list(enumerate(self.bags))

    def all_bags(self) -> list[frozenset[int]]:
        return list(self.bags)

    def __repr__(self) -> str:
        return f"PathDecomposition(bags={len(self.bags)}, width={width(self)})"


Decomposition = Union[TreeDecomposition, PathDecomposition]


def width(d: Decomposition) -> int | None:
    """Largest bag size minus one; None when every bag is empty."""
    largest = max(len(bag) for bag in d.all_bags())
    return None if largest == 0 else largest - 1


def width_within(d: Decomposition, bound: int) -> bool:
    """True when width(d) <= bound, treating undefined width as within."""
    w = width(d)
    return w is None or w <= bound


@dataclass(frozen=True)
class Violation:
    """One failed axiom with a minimal witness tuple."""

    tag: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[Violation, ...]


def _check_bags(
    g: Graph,
    items: list[tuple[int, frozenset[int]]],
    tag: str,
    contiguous: Callable[[set[int]], bool],
) -> list[Violation]:
    """The bag, <tag>-1, <tag>-2 and <tag>-3 checks over (node, bag) items.

    One pass over the bags builds the index vertex -> holding nodes; vertex
    cover, edge cover and contiguity are read off it.  contiguous(nodes)
    says whether two or more holding nodes of one vertex form a subtree.
    """
    out = []
    held: dict[int, set[int]] = {v: set() for v in g.vertices}
    for u, bag in items:
        for v in sorted(bag - g.vertices):
            out.append(Violation("bag", (u, v)))
        for v in bag:
            if v in held:
                held[v].add(u)
    vertices = g.vertices_sorted()
    out.extend(Violation(f"{tag}-1", (v,)) for v in vertices if not held[v])
    out.extend(Violation(f"{tag}-2", (u, v)) for u, v in g.edges_sorted()
               if held[u].isdisjoint(held[v]))
    out.extend(Violation(f"{tag}-3", (v,)) for v in vertices
               if len(held[v]) > 1 and not contiguous(held[v]))
    return out


def _validate_tree(g: Graph, d: TreeDecomposition) -> list[Violation]:
    tree_adj = d.tree.adjacency()

    def subtree(nodes: set[int]) -> bool:
        start = min(nodes)
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in tree_adj[x]:
                if y in nodes and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen == nodes

    return _check_bags(g, d.bag_items(), "tw", subtree)


def _validate_path(g: Graph, d: PathDecomposition) -> list[Violation]:
    return _check_bags(g, d.bag_items(), "pw",
                       lambda idxs: max(idxs) - min(idxs) + 1 == len(idxs))


def validate(g: Graph, d: Decomposition) -> ValidationReport:
    """Check every axiom and report all violations with witnesses."""
    if d.host != g:
        raise ParameterError("decomposition was built for a different graph")
    if isinstance(d, TreeDecomposition):
        violations = _validate_tree(g, d)
    else:
        violations = _validate_path(g, d)
    return ValidationReport(not violations, tuple(violations))


def is_valid(g: Graph, d: Decomposition) -> bool:
    return validate(g, d).valid


def trivial_tree_decomposition(g: Graph) -> TreeDecomposition:
    """Single bag holding all of V(G); width n - 1."""
    return TreeDecomposition(g, Graph([0]), {0: g.vertices})


def trivial_path_decomposition(g: Graph) -> PathDecomposition:
    return PathDecomposition(g, [g.vertices])


def _path_shaped_tree(r: int) -> Graph:
    return Graph(range(r), [(i, i + 1) for i in range(r - 1)])


def path_to_tree(d: PathDecomposition) -> TreeDecomposition:
    """View a path-decomposition as a tree-decomposition over a path."""
    tree = _path_shaped_tree(len(d.bags))
    return TreeDecomposition(d.host, tree, dict(enumerate(d.bags)))


def find_clique_bag(d: Decomposition, clique: Iterable[int]) -> int:
    """Smallest node id (or bag index) whose bag contains the given clique.

    Every clique of the host sits inside some bag of a valid decomposition;
    absence is therefore reported as an inconsistency, not as None.
    """
    cl = frozenset(int(v) for v in clique)
    g = d.host
    if not cl <= g.vertices:
        raise ParameterError("clique uses vertices outside the host graph")
    for u, v in ((u, v) for u in cl for v in cl if u < v):
        if not g.has_edge(u, v):
            raise ParameterError(f"vertices {u} and {v} are not adjacent")
    for u, bag in d.bag_items():
        if cl <= bag:
            return u
    raise InconsistencyError("no bag contains the clique; decomposition is invalid")


def remove_redundant_bags(td: TreeDecomposition) -> TreeDecomposition:
    """Merge tree-adjacent bags where one contains the other.

    The result has no tree edge whose endpoint bags are nested, so a valid
    input over a nonempty graph shrinks to at most |V| nodes.
    """
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
            for w in adj[drop]:
                adj[w].discard(drop)
                if w != keep:
                    adj[w].add(keep)
                    adj[keep].add(w)
            del adj[drop], bags[drop]
            merged = True
            break
        if not merged:
            break
    tree = Graph(adj, [(u, v) for u in adj for v in adj[u] if u < v])
    return TreeDecomposition(td.host, tree, bags)


def tree_path_decomposition(t: Graph) -> PathDecomposition:
    """Path-decomposition of a tree by repeated balanced separation.

    The separator vertex (minimizing the largest remaining component, ties
    to the smallest id) joins every bag of its components' decompositions,
    which are then concatenated.  Gives width at most ceil(log3(2n+1)) at
    the sizes this package targets.
    """
    if not is_tree(t):
        raise ParameterError("input is not a tree")
    adj = t.adjacency()

    def build(sub: frozenset[int]) -> list[set[int]]:
        if len(sub) == 1:
            return [set(sub)]
        best = None
        for v in sorted(sub):
            rest = sub - {v}
            largest = max(len(c) for c in _components_within(rest, adj))
            if best is None or largest < best[0]:
                best = (largest, v)
        s = best[1]
        comps = sorted(_components_within(sub - {s}, adj), key=min)
        bags: list[set[int]] = []
        for comp in comps:
            for bag in build(comp):
                bag.add(s)
                bags.append(bag)
        return bags

    return PathDecomposition(t, build(t.vertices))


def _components_within(sub: frozenset[int], adj: Mapping[int, frozenset[int]]) -> list[frozenset[int]]:
    seen: set[int] = set()
    comps = []
    for start in sorted(sub):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in sub and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def tree_to_path(g: Graph, td: TreeDecomposition) -> PathDecomposition:
    """Turn a tree-decomposition into a path-decomposition.

    Decomposes the (redundancy-free) decomposition tree itself into a path
    and unions the bags along each path node.  Width grows by a factor
    logarithmic in the number of bags.
    """
    report = validate(g, td)
    if not report.valid:
        raise ParameterError("decomposition invalid")
    slim = remove_redundant_bags(td)
    if slim.tree.n == 1:
        bags = [slim.bags[next(iter(slim.tree.vertices))]]
    else:
        spine = tree_path_decomposition(slim.tree)
        bags = [frozenset().union(*(slim.bags[u] for u in group)) for group in spine.bags]
    pd = PathDecomposition(g, bags)
    if not validate(g, pd).valid:
        raise InconsistencyError("tree_to_path produced an invalid decomposition")
    return pd
