"""Immutable simple undirected graphs over integer vertex ids.

Vertex ids are arbitrary non-negative integers; they need not be contiguous.
Edges are stored as sorted pairs, loops are rejected, parallel edges cannot
be represented.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, Mapping

from .errors import CapabilityError, ParameterError

ISO_MAX_VERTICES = 10
# .gr headers and generator arguments are checked against these before any
# graph is built, so no untrusted count sizes an allocation
GRAPH_MAX_VERTICES = 100_000
GRAPH_MAX_EDGES = 1_000_000


class Graph:
    """A finite simple undirected graph."""

    __slots__ = ("_vertices", "_edges", "_adj")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        vs = frozenset(map(int, vertices))
        if vs and min(vs) < 0:
            v = next(v for v in vs if v < 0)
            raise ParameterError(f"negative vertex id {v}")
        es = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ParameterError(f"loop at vertex {u}")
            if u not in vs or v not in vs:
                raise ParameterError(f"edge ({u}, {v}) uses an unknown vertex")
            es.add((u, v) if u < v else (v, u))
        self._vertices = vs
        self._edges = frozenset(es)
        self._adj: dict[int, frozenset[int]] | None = None

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return self._edges

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

    def vertices_sorted(self) -> list[int]:
        return sorted(self._vertices)

    def edges_sorted(self) -> list[tuple[int, int]]:
        return sorted(self._edges)

    def has_vertex(self, v: int) -> bool:
        return v in self._vertices

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edges

    def adjacency(self) -> dict[int, frozenset[int]]:
        if self._adj is None:
            nbrs: dict[int, set[int]] = {v: set() for v in self._vertices}
            for u, v in self._edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            self._adj = {v: frozenset(s) for v, s in nbrs.items()}
        return self._adj

    def neighbors(self, v: int) -> frozenset[int]:
        if v not in self._vertices:
            raise ParameterError(f"vertex {v} not in graph")
        return self.adjacency()[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def masks(self) -> list[int]:
        """Adjacency bitmasks over the sorted vertex order: bit j of entry i
        is set when the i-th and j-th smallest vertices are adjacent."""
        pos = {v: i for i, v in enumerate(self.vertices_sorted())}
        masks = [0] * self.n
        for u, v in self._edges:
            masks[pos[u]] |= 1 << pos[v]
            masks[pos[v]] |= 1 << pos[u]
        return masks

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._vertices, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def max_degree(g: Graph) -> int:
    """Largest vertex degree; 0 for graphs without edges."""
    if g.n == 0:
        return 0
    return max(len(s) for s in g.adjacency().values())


def components_within(
    vertices: AbstractSet[int], adj: Mapping[int, Iterable[int]]
) -> list[frozenset[int]]:
    """Components of the subgraph that vertices induce under adj, ordered
    by their smallest vertex id."""
    seen: set[int] = set()
    comps = []
    for start in sorted(vertices):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in vertices and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Components ordered by their smallest vertex id."""
    return components_within(g.vertices, g.adjacency())


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) <= 1


def is_forest(g: Graph) -> bool:
    """True when g has no cycle."""
    return g.m == g.n - len(connected_components(g))


def is_tree(g: Graph) -> bool:
    """True when g is connected, acyclic and nonempty."""
    return g.n > 0 and g.m == g.n - 1 and is_connected(g)


def fresh_id(g: Graph) -> int:
    """Smallest id guaranteed unused: max existing id plus one."""
    return max(g.vertices) + 1 if g.n else 0


def induced_subgraph(g: Graph, vertices) -> Graph:
    keep = frozenset(vertices)
    if not keep <= g.vertices:
        raise ParameterError("induced subgraph needs existing vertices")
    return Graph(keep, [e for e in g.edges if e[0] in keep and e[1] in keep])


def biconnected_components(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of the biconnected components (each spans >= 2 vertices),
    ordered by smallest member; isolated vertices belong to none."""
    import networkx as nx

    comps = [frozenset(c) for c in nx.biconnected_components(to_networkx(g))]
    return sorted(comps, key=min)


def guard_size(n: int, m: int) -> None:
    """CapabilityError when a graph of n vertices and m edges is too big."""
    if n > GRAPH_MAX_VERTICES:
        raise CapabilityError(
            f"graphs support at most {GRAPH_MAX_VERTICES} vertices, got {n}"
        )
    if m > GRAPH_MAX_EDGES:
        raise CapabilityError(f"graphs support at most {GRAPH_MAX_EDGES} edges, got {m}")


# --- generators ---------------------------------------------------------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ParameterError("path needs n >= 1")
    guard_size(n, n - 1)
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterError("cycle needs n >= 3")
    guard_size(n, n)
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ParameterError("complete graph needs n >= 1")
    guard_size(n, n * (n - 1) // 2)
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves} with the center at id 0."""
    if leaves < 1:
        raise ParameterError("star needs at least one leaf")
    guard_size(leaves + 1, leaves)
    return Graph(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    """K_{a,b}: side ids 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise ParameterError("complete bipartite graph needs both sides nonempty")
    guard_size(a + b, a * b)
    return Graph(range(a + b), [(i, a + j) for i in range(a) for j in range(b)])


def grid_graph(rows: int, cols: int) -> Graph:
    """rows x cols grid, vertex (r, c) at id r * cols + c."""
    if rows < 1 or cols < 1:
        raise ParameterError("grid needs rows, cols >= 1")
    guard_size(rows * cols, rows * (cols - 1) + cols * (rows - 1))
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(range(rows * cols), edges)


def isolated_graph(n: int) -> Graph:
    if n < 1:
        raise ParameterError("isolated graph needs n >= 1")
    guard_size(n, 0)
    return Graph(range(n))


def empty_graph() -> Graph:
    return Graph()


def caterpillar_example() -> Graph:
    """Six-vertex caterpillar: path 0-1-2-3-4 with leaf 5 on vertex 2."""
    return Graph(range(6), [(0, 1), (1, 2), (2, 5), (2, 3), (3, 4)])


def incidence_star_example() -> Graph:
    """The caterpillar above with the 2-5 edge subdivided by vertex 6.

    Isomorphic to the incidence graph of K_{1,3}; smallest tree of
    path-width 2.
    """
    return Graph(range(7), [(0, 1), (1, 2), (2, 5), (5, 6), (2, 3), (3, 4)])


_GENERATORS: dict[str, tuple[int, object]] = {
    "path": (1, path_graph),
    "cycle": (1, cycle_graph),
    "complete": (1, complete_graph),
    "star": (1, star_graph),
    "biclique": (2, complete_bipartite_graph),
    "grid": (2, grid_graph),
    "isolated": (1, isolated_graph),
    "empty": (0, empty_graph),
    "caterpillar": (0, caterpillar_example),
    "ik13": (0, incidence_star_example),
}


def generator_names() -> list[str]:
    return sorted(_GENERATORS)


def generate(kind: str, *params: int) -> Graph:
    """Build a named graph; see generator_names() for the kinds."""
    if kind not in _GENERATORS:
        raise ParameterError(f"unknown graph kind {kind!r}")
    arity, fn = _GENERATORS[kind]
    if len(params) != arity:
        raise ParameterError(f"graph kind {kind!r} takes {arity} parameter(s), got {len(params)}")
    return fn(*params)


# --- interop and isomorphism --------------------------------------------


def to_networkx(g: Graph):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(g.vertices_sorted())
    h.add_edges_from(g.edges_sorted())
    return h


def from_networkx(h) -> Graph:
    return Graph(h.nodes(), h.edges())


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test, guarded to at most 10 vertices per side."""
    if g1.n > ISO_MAX_VERTICES or g2.n > ISO_MAX_VERTICES:
        raise CapabilityError(f"isomorphism test supports at most {ISO_MAX_VERTICES} vertices")
    if g1.n != g2.n or g1.m != g2.m:
        return False
    deg1 = sorted(len(s) for s in g1.adjacency().values())
    deg2 = sorted(len(s) for s in g2.adjacency().values())
    if deg1 != deg2:
        return False
    import networkx as nx

    return nx.is_isomorphic(to_networkx(g1), to_networkx(g2))
