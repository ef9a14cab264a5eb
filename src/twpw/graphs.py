"""Immutable simple undirected graphs over integer vertex ids.

Vertex ids are arbitrary non-negative integers; they need not be contiguous.
Edges are stored as sorted pairs, loops are rejected, parallel edges cannot
be represented.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Mapping

from .errors import CapabilityError, ParameterError

# .gr headers and generator arguments are checked against these before any
# graph is built, so no untrusted count sizes an allocation
GRAPH_MAX_VERTICES = 100_000
GRAPH_MAX_EDGES = 1_000_000


class Graph:
    """A finite simple undirected graph."""

    __slots__ = ("_vertices", "_edges", "_adj", "_masks")

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
        self._masks: tuple[int, ...] | None = None

    @classmethod
    def _trusted(cls, vertices: frozenset[int], edges: frozenset[tuple[int, int]],
                 adj: dict[int, frozenset[int]] | None = None) -> Graph:
        """The graph with these parts, built from a valid graph's parts:
        ids, sorted pairs over them and, when given, the matching adjacency
        (else it is built on first use).  Nothing is checked, so no pass
        over the edges is made."""
        g = cls.__new__(cls)
        g._vertices, g._edges, g._adj, g._masks = vertices, edges, adj, None
        return g

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
        is set when the i-th and j-th smallest vertices are adjacent.

        They are computed once per graph; each call returns a fresh list,
        which the caller may change in place."""
        if self._masks is None:
            pos = {v: i for i, v in enumerate(self.vertices_sorted())}
            masks = [0] * self.n
            for u, v in self._edges:
                masks[pos[u]] |= 1 << pos[v]
                masks[pos[v]] |= 1 << pos[u]
            self._masks = tuple(masks)
        return list(self._masks)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
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


def guard_size(n: int, m: int) -> None:
    """CapabilityError when a graph of n vertices and m edges is too big."""
    if n > GRAPH_MAX_VERTICES:
        raise CapabilityError(
            f"graphs support at most {GRAPH_MAX_VERTICES} vertices, got {n}"
        )
    if m > GRAPH_MAX_EDGES:
        raise CapabilityError(f"graphs support at most {GRAPH_MAX_EDGES} edges, got {m}")


# --- minor steps ----------------------------------------------------------
#
# Each step edits a neighbor map (vertex -> set of neighbors) in place,
# and the matching set of sorted edge pairs with it, unless that is None.
# It edits only the neighbor sets it touches, each by one augmented
# assignment: a frozenset is replaced by a new one, so a map that shares a
# graph's frozensets leaves the graph alone, while a mutable set is changed
# in place, which spares a new set per neighbor.  `edited` applies one step
# to copies of a graph's parts.


def _require_vertex(adj: Mapping[int, frozenset[int]], v: int) -> None:
    if v not in adj:
        raise ParameterError(f"vertex {v} not in graph")


def _require_edge(adj: Mapping[int, frozenset[int]], u: int, v: int) -> None:
    if u not in adj or v not in adj[u]:
        raise ParameterError(f"edge ({u}, {v}) not in graph")


def drop_vertex(adj: dict[int, frozenset[int]], edges: set[tuple[int, int]] | None,
                v: int) -> None:
    """Delete v and its edges."""
    _require_vertex(adj, v)
    nb = adj.pop(v)
    gone = frozenset((v,))
    for x in nb:
        adj[x] -= gone
    if edges is not None:
        edges.difference_update([(v, x) if v < x else (x, v) for x in nb])


def drop_edge(adj: dict[int, frozenset[int]], edges: set[tuple[int, int]] | None,
              u: int, v: int) -> None:
    """Delete the edge uv."""
    _require_edge(adj, u, v)
    adj[u] -= {v}
    adj[v] -= {u}
    if edges is not None:
        edges.remove((u, v) if u < v else (v, u))


def join_vertices(adj: dict[int, frozenset[int]], edges: set[tuple[int, int]] | None,
                  u: int, v: int) -> None:
    """Add the edge uv between two present, non-adjacent vertices."""
    _require_vertex(adj, u)
    _require_vertex(adj, v)
    if u == v:
        raise ParameterError("cannot add a loop")
    if v in adj[u]:
        raise ParameterError(f"edge ({u}, {v}) already present")
    u, v = int(u), int(v)
    adj[u] |= {v}
    adj[v] |= {u}
    if edges is not None:
        edges.add((u, v) if u < v else (v, u))


def new_vertex(adj: dict[int, frozenset[int]], edges: set[tuple[int, int]] | None,
               nb: frozenset[int]) -> int:
    """Add a vertex one above the largest id (0 in an empty map), as
    fresh_id names it, joined to the vertices of nb, which must be
    present; so each new edge is (x, v).  Returns v.  The new vertex takes
    its neighbors at once, since adding them one join at a time would
    build a new set per join."""
    v = max(adj, default=-1) + 1
    add = frozenset((v,))
    for x in nb:
        adj[x] |= add
    adj[v] = frozenset(nb)
    if edges is not None:
        edges.update([(x, v) for x in nb])
    return v


def fuse_vertices(adj: dict[int, frozenset[int]], edges: set[tuple[int, int]] | None,
                  v: int, w: int) -> int:
    """Replace v and w by one new vertex z adjacent to the neighbors of
    both; z is one above the largest id, so each new edge is (x, z).
    Returns z."""
    _require_vertex(adj, v)
    _require_vertex(adj, w)
    if v == w:
        raise ParameterError("identification needs two distinct vertices")
    return _fuse(adj, edges, v, w, max(adj) + 1)


def _fuse(adj: dict[int, frozenset[int]], edges: set[tuple[int, int]] | None,
          v: int, w: int, z: int) -> int:
    """fuse_vertices for two distinct present vertices, with the new id z,
    one above the largest id, found by the caller."""
    nv, nw = adj.pop(v), adj.pop(w)
    # one symmetric difference per neighbor swaps its v, w or both for z
    swap_v, swap_w, swap_both = frozenset((v, z)), frozenset((w, z)), frozenset((v, w, z))
    for x in nv:
        if x != w:
            adj[x] ^= swap_both if x in nw else swap_v
    for x in nw:
        if x != v and x not in nv:
            adj[x] ^= swap_w
    adj[z] = around = (nv | nw) - {v, w}
    if edges is not None:
        edges.difference_update([(v, x) if v < x else (x, v) for x in nv])
        edges.difference_update([(w, x) if w < x else (x, w) for x in nw])
        edges.update([(x, z) for x in around])
    return z


def edited(g: Graph, step, *args) -> tuple[Graph, int | None]:
    """g after step(adj, edges, *args) on copies of its neighbor map and
    edges, and what the step returned: the new vertex of a step that
    makes one, else None."""
    adj, edges = dict(g.adjacency()), set(g.edges)
    out = step(adj, edges, *args)
    return Graph._trusted(frozenset(adj), frozenset(edges), adj), out


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
