"""Text formats for graphs (.gr) and decompositions (.td).

A .gr file has one header line ``p tw <n> <m>`` followed by m edge lines
with 1-based endpoints.  A .td file has one header ``s td <r> <maxbagsize>
<n>``, r bag lines ``b <i> <v...>`` and r-1 tree edge lines, which must
form a tree with no loop and no repeated edge.  Lines starting with ``c``
are comments.  Writers normalize vertex ids to 1..n in sorted
order, so files written here parse back to graphs with ids 0..n-1.  A .gr
header announcing more than ``GRAPH_MAX_VERTICES`` vertices or
``GRAPH_MAX_EDGES`` edges (see graphs.py) raises CapabilityError before
anything is built.
"""

from __future__ import annotations

import os
from typing import Union

from .decomposition import Decomposition, PathDecomposition, TreeDecomposition
from .errors import FormatError, ParameterError
from .graphs import Graph, guard_size

PathLike = Union[str, os.PathLike]


def _content_lines(text: str) -> list[list[str]]:
    """The tokens of each line that is neither blank nor a comment.  A
    comment line is "c" alone or "c" followed by a space, after any
    leading whitespace."""
    out = []
    for raw in text.splitlines():
        tokens = raw.split()
        if tokens and not (tokens[0] == "c" and (len(tokens) == 1 or raw.lstrip()[1] == " ")):
            out.append(tokens)
    return out


def parse_gr(text: str) -> Graph:
    lines = _content_lines(text)
    if not lines or lines[0][:2] != ["p", "tw"] or len(lines[0]) != 4:
        raise FormatError("missing 'p tw <n> <m>' header")
    try:
        n, m = int(lines[0][2]), int(lines[0][3])
    except ValueError:
        raise FormatError("non-numeric header fields") from None
    if n < 0 or m < 0:
        raise FormatError("negative counts in header")
    guard_size(n, m)
    edges = set()
    for tokens in lines[1:]:
        if len(tokens) != 2:
            raise FormatError(f"bad edge line: {' '.join(tokens)!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise FormatError(f"non-numeric edge line: {' '.join(tokens)!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise FormatError(f"edge ({u}, {v}) out of range 1..{n}")
        if u == v:
            raise FormatError(f"loop at vertex {u}")
        e = (u - 1, v - 1) if u < v else (v - 1, u - 1)
        if e in edges:
            raise FormatError(f"duplicate edge ({u}, {v})")
        edges.add(e)
    if len(edges) != m:
        raise FormatError(f"header announces {m} edges, file has {len(edges)}")
    return Graph(range(n), edges)


def format_gr(g: Graph) -> str:
    index = {v: i + 1 for i, v in enumerate(g.vertices_sorted())}
    lines = [f"p tw {g.n} {g.m}"]
    for u, v in sorted((index[u], index[v]) for u, v in g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def _read_ascii(path: PathLike) -> str:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not ASCII text (byte {exc.start})") from None


def read_gr(path: PathLike) -> Graph:
    return parse_gr(_read_ascii(path))


def write_gr(g: Graph, path: PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_gr(g))


def parse_td(text: str, host: Graph, kind: str = "tree") -> Decomposition:
    """The decomposition of host that a .td text describes.

    Bag i of the file becomes tree node i - 1, and vertex i the i-th
    smallest vertex of host.  kind "path" asks for a path-shaped tree and
    returns its bags in order from the lowest-numbered end.  The text is
    read in one pass and the tree edges are checked in another, so the
    cost is linear in the length of the text.
    """
    if kind not in ("tree", "path"):
        raise FormatError(f"unknown decomposition kind {kind!r}")
    lines = _content_lines(text)
    if not lines or lines[0][:2] != ["s", "td"] or len(lines[0]) != 5:
        raise FormatError("missing 's td <bags> <maxbagsize> <n>' header")
    try:
        r, maxbag, n = (int(t) for t in lines[0][2:])
    except ValueError:
        raise FormatError("non-numeric header fields") from None
    if n != host.n:
        raise FormatError(f"header announces {n} vertices, graph has {host.n}")
    if r < 1:
        raise FormatError("decomposition needs at least one bag")
    # ranked[i] is the vertex numbered i in the file; ranked[0] is never read
    ranked = [-1, *host.vertices_sorted()]
    bags: dict[int, frozenset[int]] = {}
    tree_edges = []
    for tokens in lines[1:]:
        if tokens[0] == "b":
            if len(tokens) < 2:
                raise FormatError("bag line without an id")
            try:
                ident = int(tokens[1])
                members = list(map(int, tokens[2:]))
            except ValueError:
                raise FormatError(f"non-numeric bag line: {' '.join(tokens)!r}") from None
            if not 1 <= ident <= r:
                raise FormatError(f"bag id {ident} out of range 1..{r}")
            if ident in bags:
                raise FormatError(f"duplicate bag id {ident}")
            if members and (min(members) < 1 or max(members) > n):
                v = next(v for v in members if not 1 <= v <= n)
                raise FormatError(f"bag {ident} holds out-of-range vertex {v}")
            bags[ident] = frozenset(map(ranked.__getitem__, members))
        else:
            if len(tokens) != 2:
                raise FormatError(f"bad tree edge line: {' '.join(tokens)!r}")
            try:
                a, b = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise FormatError(f"non-numeric tree edge: {' '.join(tokens)!r}") from None
            if not (1 <= a <= r and 1 <= b <= r):
                raise FormatError(f"tree edge ({a}, {b}) out of range 1..{r}")
            tree_edges.append((a, b))
    if len(bags) != r:
        raise FormatError(f"header announces {r} bags, file has {len(bags)}")
    if len(tree_edges) != r - 1:
        raise FormatError(f"{r} bags need {r - 1} tree edges, file has {len(tree_edges)}")
    if maxbag != max(map(len, bags.values())):
        raise FormatError("header max bag size disagrees with the bags")
    _check_tree_edges(tree_edges)
    if kind == "tree":
        tree = Graph(range(r), [(a - 1, b - 1) for a, b in tree_edges])
        return TreeDecomposition(host, tree, {u - 1: bag for u, bag in bags.items()})
    return PathDecomposition(host, [bags[u] for u in _path_order(r, tree_edges)])


def _check_tree_edges(tree_edges: list[tuple[int, int]]) -> None:
    """FormatError for the first loop or repeated edge, in line order."""
    seen = set()
    for a, b in tree_edges:
        if a == b:
            raise FormatError(f"tree edge loop at bag {a}")
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise FormatError(f"duplicate tree edge ({a}, {b})")
        seen.add(e)


def _path_order(r: int, tree_edges: list[tuple[int, int]]) -> list[int]:
    """The nodes 1..r of a path-shaped tree, from its lowest-numbered end.

    tree_edges are r - 1 edges without loops or repeats, so they form a
    tree exactly when they connect the nodes."""
    adj: list[list[int]] = [[] for _ in range(r + 1)]
    for a, b in tree_edges:
        adj[a].append(b)
        adj[b].append(a)
    reached = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) != r:
        raise ParameterError("decomposition nodes must form a tree")
    if any(len(nb) > 2 for nb in adj):
        raise FormatError("decomposition tree is not path-shaped")
    # an end of the path, or the only node of a one-bag tree
    prev, u = 0, next(u for u in range(1, r + 1) if len(adj[u]) <= 1)
    seq = [u]
    for _ in range(r - 1):
        nb = adj[u]
        prev, u = u, nb[0] if nb[0] != prev else nb[-1]
        seq.append(u)
    return seq


def format_td(d: Decomposition) -> str:
    host = d.host
    index = {v: i + 1 for i, v in enumerate(host.vertices_sorted())}
    items = d.bag_items()
    node_rank = {u: i + 1 for i, (u, _) in enumerate(items)}
    # numerals[i] is str(i) for every bag and vertex number, made once each
    numerals = list(map(str, range(max(host.n, len(items)) + 1)))
    maxbag = max(len(bag) for _, bag in items)
    lines = [f"s td {len(items)} {maxbag} {host.n}"]
    for rank, (_, bag) in enumerate(items, 1):
        members = map(numerals.__getitem__, sorted(map(index.__getitem__, bag)))
        lines.append(" ".join(["b", numerals[rank], *members]))
    if isinstance(d, TreeDecomposition):
        edges = sorted(
            (min(node_rank[a], node_rank[b]), max(node_rank[a], node_rank[b]))
            for a, b in d.tree.edges
        )
    else:
        edges = [(i, i + 1) for i in range(1, len(items))]
    for a, b in edges:
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"


def read_td(path: PathLike, host: Graph, kind: str = "tree") -> Decomposition:
    return parse_td(_read_ascii(path), host, kind)


def write_td(d: Decomposition, path: PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_td(d))
