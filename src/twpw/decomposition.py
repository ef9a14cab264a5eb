"""Tree- and path-decompositions as first-class validated values.

A tree-decomposition of a graph G is a tree whose nodes carry bags of
vertices such that every vertex appears in a bag, every edge is inside some
bag, and the nodes holding any fixed vertex form a subtree.  A
path-decomposition is the same with the tree replaced by a bag sequence;
the subtree condition becomes contiguity of each vertex's occurrences.
Width is the largest bag size minus one, so -1 when all bags are empty
(only possible for decompositions of the empty graph): tw and pw of the
empty graph are -1, and the bound arithmetic reads that value as it is.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import InconsistencyError, ParameterError
from .graphs import Graph, components_within, is_tree


Rebag = Callable[[frozenset[int]], Iterable[int]]


def _frozen(bag: Iterable[int]) -> frozenset[int]:
    """bag itself when it is a frozenset, else its members read with int.
    The certificate builders and parse_td hand over frozensets of ints
    they have just made, so a copy would be a second pass over every bag."""
    return bag if type(bag) is frozenset else frozenset(map(int, bag))


def _tree_walk(adj, root: int) -> dict[int, int]:
    """The parent of every node but root, in breadth-first order from root.

    adj[u] holds the neighbors of u, with no loop and no repeat.  One walk
    both roots the nodes and checks that they form a tree: it reaches every
    node and reads 2(n - 1) neighbor entries, n - 1 edges; ParameterError
    when it does not."""
    parent = {root: root}
    walk = [root]
    reads = 0
    for u in walk:
        nb = adj[u]
        reads += len(nb)
        for w in nb:
            if w not in parent:
                parent[w] = u
                walk.append(w)
    if len(walk) != len(adj) or reads != 2 * len(walk) - 2:
        raise ParameterError("decomposition nodes must form a tree")
    del parent[root]
    return parent


def _contract(adj: dict[int, set[int]], bags: dict[int, frozenset[int]],
              into: dict[int, int], drop: int, keep: int) -> None:
    """Contract the tree edge drop-keep into keep, in place: drop's other
    neighbors become keep's, drop's node and bag are deleted, and into
    records that drop went into keep."""
    for w in adj[drop]:
        adj[w].discard(drop)
        if w != keep:
            adj[w].add(keep)
            adj[keep].add(w)
    del adj[drop], bags[drop]
    into[drop] = keep


class TreeDecomposition:
    """A bag per tree node, and the tree rooted at one of its nodes.  The
    bags are a read-only mapping, so a validated decomposition stays valid.

    The rooting is the only stored shape: ``_parent`` maps every node but
    ``_root`` to its parent, each node after its parent, and ``tree`` is
    derived from it.

    A bag given as a frozenset is kept as it is, without a copy and
    without converting its members; any other iterable becomes
    ``frozenset(map(int, bag))``.  So a frozenset holding an id that is
    not an int is kept, and ``validate`` reports that id as a ``bag``
    violation, as it does for any id outside the host.
    """

    __slots__ = ("host", "bags", "_root", "_parent")

    def __init__(self, host: Graph, tree: Graph, bags: Mapping[int, Iterable[int]]):
        if tree.n == 0:
            raise ParameterError("decomposition needs at least one node")
        root = min(tree.vertices)
        parent = _tree_walk(tree.adjacency(), root)
        bagmap = {int(u): _frozen(bag) for u, bag in bags.items()}
        if set(bagmap) != set(tree.vertices):
            raise ParameterError("bags must be keyed exactly by the tree nodes")
        self.host = host
        self.bags = MappingProxyType(bagmap)
        self._root = root
        self._parent = parent

    @classmethod
    def _rooted(cls, host: Graph, bags: dict[int, frozenset[int]],
                root: int, parent: dict[int, int]) -> TreeDecomposition:
        """The decomposition with these parts, from a builder that made them
        fit: bags frozen and keyed by the nodes, and parent mapping every
        node but root to its parent, each node after its parent, so that
        the parent pairs form a tree over the nodes.  Nothing is checked,
        and no tree is built: ``tree`` derives it when it is read."""
        d = cls.__new__(cls)
        d.host, d.bags = host, MappingProxyType(bags)
        d._root, d._parent = root, parent
        return d

    @property
    def tree(self) -> Graph:
        """The decomposition tree, built from the rooting each time it is
        read: the nodes, and an edge from each node but the root to its
        parent."""
        return Graph._trusted(frozenset(self.bags), frozenset(
            (u, p) if u < p else (p, u) for u, p in self._parent.items()))

    def rebag(self, host: Graph, f: Rebag) -> TreeDecomposition:
        """The same tree and node ids over host, each bag B replaced by f(B);
        the tree keeps its rooting."""
        bags = {u: _frozen(f(bag)) for u, bag in self.bags.items()}
        return TreeDecomposition._rooted(host, bags, self._root, self._parent)

    def bag_items(self) -> list[tuple[int, frozenset[int]]]:
        return [(u, self.bags[u]) for u in sorted(self.bags)]

    def __repr__(self) -> str:
        return f"TreeDecomposition(nodes={len(self.bags)}, width={width(self)})"


class PathDecomposition:
    """A bag sequence; bag i is adjacent to bag i+1.

    Bags are taken as in TreeDecomposition: a frozenset is kept as it is,
    any other iterable becomes ``frozenset(map(int, bag))``, and a
    frozenset id that is not an int is a ``bag`` violation for ``validate``.
    """

    __slots__ = ("host", "bags")

    def __init__(self, host: Graph, bags: Sequence[Iterable[int]]):
        seq = tuple(map(_frozen, bags))
        if not seq:
            raise ParameterError("decomposition needs at least one bag")
        self.host = host
        self.bags = seq

    def rebag(self, host: Graph, f: Rebag) -> PathDecomposition:
        """The same bag sequence over host, each bag B replaced by f(B)."""
        return PathDecomposition(host, [f(bag) for bag in self.bags])

    def bag_items(self) -> list[tuple[int, frozenset[int]]]:
        return list(enumerate(self.bags))

    def __repr__(self) -> str:
        return f"PathDecomposition(bags={len(self.bags)}, width={width(self)})"


Decomposition = Union[TreeDecomposition, PathDecomposition]


def width(d: Decomposition) -> int:
    """Largest bag size minus one; -1 when every bag is empty."""
    bags = d.bags.values() if isinstance(d, TreeDecomposition) else d.bags
    return max(map(len, bags)) - 1


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
    bag_of: Mapping[int, frozenset[int]] | Sequence[frozenset[int]],
    tag: str,
    root: int,
    kids: Iterable[int],
    parents: Iterable[int],
) -> list[Violation]:
    """The bag, <tag>-1, <tag>-2 and <tag>-3 checks over the bags bag_of[u]
    of a tree rooted at root, kids[i] being a child of parents[i].

    The entry set of a node is its bag less its parent's bag (the whole
    bag at the root).  A vertex enters one node per component of the nodes
    holding it, the component's top node, so the vertices in no entry set
    are the <tag>-1 ones (in no bag), and those in two or more the <tag>-3
    ones.  The entry sets are disjoint exactly when their sizes add up to
    the size of their union, the vertices in some bag; only otherwise are
    the entries counted.  Two subtrees meet
    exactly when the top node of one lies in the other: when a node lies
    in both, so does the deeper of the two top nodes, which is on that
    node's path up to the other.  So an edge uv whose ends enter once each
    is covered exactly when v is in the bag of u's top node or u in the
    bag of v's.  An edge at a vertex
    that enters two or more times is covered exactly when that holds for
    some pair of top nodes; only such edges read the top nodes of those
    vertices, indexed for them alone.

    Python steps are linear in the number of nodes, vertices and edges;
    the work per bag member is done by set operations.
    """
    out = []
    hosted = g.vertices
    nodes = [root, *kids]
    bags = list(map(bag_of.__getitem__, nodes))
    held = frozenset().union(*bags)  # the vertices in some bag
    if not held <= hosted:
        bag_of = dict(zip(nodes, bags))
        for u in sorted(nodes):
            stray = bag_of[u] - hosted
            if stray:
                out.extend(Violation("bag", (u, v)) for v in sorted(stray, key=_id_order))
                bag_of[u] &= hosted
        bags = list(map(bag_of.__getitem__, nodes))
        held &= hosted
    entries = [bags[0], *map(frozenset.__sub__, bags[1:], map(bag_of.__getitem__, parents))]
    split = set()
    if sum(map(len, entries)) > len(held):
        entered = Counter(chain.from_iterable(entries))
        split = {v for v, count in entered.items() if count > 1}
    # the bag of a top node of each vertex, empty for a vertex in no bag
    top = {v: bag for bag, entry in zip(bags, entries) for v in entry}
    missing = len(held) < len(hosted)
    if missing:
        top = dict.fromkeys(hosted, frozenset()) | top
    tops = _top_bags(bags, entries, split) if split else {}
    uncovered = []
    for e in g.edges:
        u, v = e
        if v in top[u] or u in top[v]:
            continue
        if any(v in bag for bag in tops.get(u, ())) or any(u in bag for bag in tops.get(v, ())):
            continue
        uncovered.append(e)
    if missing:
        out.extend(Violation(f"{tag}-1", (v,)) for v in sorted(hosted - held))
    if uncovered:
        out.extend(Violation(f"{tag}-2", e) for e in sorted(uncovered))
    if split:
        out.extend(Violation(f"{tag}-3", (v,)) for v in g.vertices_sorted() if v in split)
    return out


def _top_bags(
    bags: list[frozenset[int]], entries: list[frozenset[int]], vertices: set[int]
) -> dict[int, list[frozenset[int]]]:
    """vertex -> the bags of its top nodes, for the given vertices."""
    tops: dict[int, list[frozenset[int]]] = {v: [] for v in vertices}
    for bag, entry in zip(bags, entries):
        for v in entry & vertices:
            tops[v].append(bag)
    return tops


def _id_order(v: object) -> tuple:
    """Ints by value, then other ids by repr: a frozenset bag is kept as
    given, so its foreign ids need not be comparable with each other."""
    return (0, v) if isinstance(v, int) else (1, repr(v))


_VALID = ValidationReport(True, ())


def validate(g: Graph, d: Decomposition) -> ValidationReport:
    """Check every axiom and report all violations with witnesses."""
    if d.host != g:
        raise ParameterError("decomposition was built for a different graph")
    if isinstance(d, TreeDecomposition):
        parent = d._parent
        violations = _check_bags(g, d.bags, "tw", d._root, parent, parent.values())
    else:
        k = len(d.bags)
        violations = _check_bags(g, d.bags, "pw", 0, range(1, k), range(k - 1))
    return ValidationReport(False, tuple(violations)) if violations else _VALID


def is_valid(g: Graph, d: Decomposition) -> bool:
    return validate(g, d).valid


def trivial_tree_decomposition(g: Graph) -> TreeDecomposition:
    """Single bag holding all of V(G); width n - 1."""
    return TreeDecomposition(g, Graph([0]), {0: g.vertices})


def trivial_path_decomposition(g: Graph) -> PathDecomposition:
    return PathDecomposition(g, [g.vertices])


def remove_redundant_bags(td: TreeDecomposition) -> TreeDecomposition:
    """Merge tree-adjacent bags where one contains the other.

    The tree edges u-v, u < v, whose bags are nested are merged lowest
    (u, v) first, into the node with the larger bag; equal bags keep v.  A
    merge changes no bag, so it changes no edge's nestedness: the nested
    edges after it are those before it, less the ones at the dropped node,
    plus the ones it moves to the kept node.  So one heap of nested edges,
    given the moved ones after each merge and skipping those whose node is
    gone, merges in the order that rescanning the sorted edges after each
    merge gives, in one pass.

    The result has no tree edge whose endpoint bags are nested, so a valid
    input over a nonempty graph shrinks to at most |V| nodes.  It keeps
    td's rooting, each kept node rooted as _contracted says; td itself is
    the result when no tree edge joins nested bags.
    """
    if not validate(td.host, td).valid:
        raise ParameterError("decomposition invalid")
    bags = dict(td.bags)

    def nested(u: int, v: int) -> bool:
        return bags[u] <= bags[v] or bags[v] <= bags[u]

    heap = [(u, p) if u < p else (p, u) for u, p in td._parent.items() if nested(u, p)]
    if not heap:
        return td
    adj = {u: set(nb) for u, nb in td.tree.adjacency().items()}
    into: dict[int, int] = {}
    heapify(heap)
    while heap:
        u, v = heappop(heap)
        if v not in adj.get(u, ()):
            continue
        drop, keep = (u, v) if bags[u] <= bags[v] else (v, u)
        moved = adj[drop] - {keep}
        _contract(adj, bags, into, drop, keep)
        for w in moved:
            if nested(keep, w):
                heappush(heap, (keep, w) if keep < w else (w, keep))
    return _contracted(td, bags, into)


def _drop_empty_bags_tree(td: TreeDecomposition) -> TreeDecomposition:
    """td less its empty bags, unless every bag is empty: then one node
    stays.  td itself when no bag is empty."""
    empty = sorted(u for u, bag in td.bags.items() if not bag)
    if not empty:
        return td
    adj = {u: set(nb) for u, nb in td.tree.adjacency().items()}
    bags = dict(td.bags)
    into: dict[int, int] = {}
    # an empty bag crosses no vertex subtree, so its neighbors re-link
    # freely; a contraction empties no bag, so the empty nodes are met in
    # ascending order, each contracted into its lowest neighbor
    for u in empty:
        if len(bags) == 1:
            break
        _contract(adj, bags, into, u, min(adj[u]))
    return _contracted(td, bags, into)


def _contracted(td: TreeDecomposition, bags: dict[int, frozenset[int]],
                into: dict[int, int]) -> TreeDecomposition:
    """td with its tree edges contracted as into records, bags holding
    the kept nodes' bags, under td's rooting.

    The nodes kept as one node form a subtree of td's tree, which only its
    top node joins to a node kept as another.  So the kept node of each
    such subtree takes the kept node of its top node's parent, and td's
    rooting, read in its order, lists each kept node after its parent."""
    # a node goes into one that is still there, which may go on later: so
    # resolved latest first, each node goes into its kept node at once
    for u in reversed(into):
        into[u] = into.get(into[u], into[u])
    parent = {}
    for u, p in td._parent.items():
        ku, kp = into.get(u, u), into.get(p, p)
        if ku != kp:
            parent[ku] = kp
    return TreeDecomposition._rooted(td.host, bags, into.get(td._root, td._root), parent)


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
            largest = max(len(c) for c in components_within(rest, adj))
            if best is None or largest < best[0]:
                best = (largest, v)
        s = best[1]
        comps = sorted(components_within(sub - {s}, adj), key=min)
        bags: list[set[int]] = []
        for comp in comps:
            for bag in build(comp):
                bag.add(s)
                bags.append(bag)
        return bags

    return PathDecomposition(t, build(t.vertices))


def tree_to_path(g: Graph, td: TreeDecomposition) -> PathDecomposition:
    """Turn a tree-decomposition into a path-decomposition.

    Decomposes the (redundancy-free) decomposition tree itself into a path
    and unions the bags along each path node.  Width grows by a factor
    logarithmic in the number of bags.
    """
    if td.host != g:
        raise ParameterError("decomposition was built for a different graph")
    slim = remove_redundant_bags(td)  # validates td
    if len(slim.bags) == 1:
        bags = list(slim.bags.values())
    else:
        spine = tree_path_decomposition(slim.tree)
        bags = [frozenset().union(*(slim.bags[u] for u in group)) for group in spine.bags]
    pd = PathDecomposition(g, bags)
    if not validate(g, pd).valid:
        raise InconsistencyError("tree_to_path produced an invalid decomposition")
    return pd
