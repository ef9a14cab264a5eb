"""Text formats for graphs (.gr) and decompositions (.td).

A .gr file has one header line ``p tw <n> <m>`` followed by m edge lines
with 1-based endpoints.  A .td file has one header ``s td <r> <maxbagsize>
<n>``, r bag lines ``b <i> <v...>`` and r-1 tree edge lines.  Lines starting
with ``c`` are comments.  Writers normalize vertex ids to 1..n in sorted
order, so files written here parse back to graphs with ids 0..n-1.  A .gr
header announcing more than ``GRAPH_MAX_VERTICES`` vertices or
``GRAPH_MAX_EDGES`` edges (see graphs.py) raises CapabilityError before
anything is built.
"""

from __future__ import annotations

import os
from typing import Union

from .decomposition import Decomposition, PathDecomposition, TreeDecomposition
from .errors import FormatError
from .graphs import Graph, guard_size

PathLike = Union[str, os.PathLike]


def _content_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == "c" or line.startswith("c "):
            continue
        out.append(line.split())
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
    order = host.vertices_sorted()
    bags: dict[int, frozenset[int]] = {}
    tree_edges = []
    for tokens in lines[1:]:
        if tokens[0] == "b":
            if len(tokens) < 2:
                raise FormatError("bag line without an id")
            try:
                ident = int(tokens[1])
                members = [int(t) for t in tokens[2:]]
            except ValueError:
                raise FormatError(f"non-numeric bag line: {' '.join(tokens)!r}") from None
            if not 1 <= ident <= r:
                raise FormatError(f"bag id {ident} out of range 1..{r}")
            if ident in bags:
                raise FormatError(f"duplicate bag id {ident}")
            for v in members:
                if not 1 <= v <= n:
                    raise FormatError(f"bag {ident} holds out-of-range vertex {v}")
            bags[ident] = frozenset(order[v - 1] for v in members)
        else:
            if len(tokens) != 2:
                raise FormatError(f"bad tree edge line: {' '.join(tokens)!r}")
            try:
                a, b = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise FormatError(f"non-numeric tree edge: {' '.join(tokens)!r}") from None
            if not (1 <= a <= r and 1 <= b <= r):
                raise FormatError(f"tree edge ({a}, {b}) out of range 1..{r}")
            tree_edges.append((a - 1, b - 1))
    if len(bags) != r:
        raise FormatError(f"header announces {r} bags, file has {len(bags)}")
    if len(tree_edges) != r - 1:
        raise FormatError(f"{r} bags need {r - 1} tree edges, file has {len(tree_edges)}")
    if maxbag != max(len(b) for b in bags.values()):
        raise FormatError("header max bag size disagrees with the bags")
    bagmap = {ident - 1: bags[ident] for ident in bags}
    tree = Graph(range(r), tree_edges)
    td = TreeDecomposition(host, tree, bagmap)
    if kind == "tree":
        return td
    return _as_path(td)


def _as_path(td: TreeDecomposition) -> PathDecomposition:
    """Reorder a path-shaped tree into a bag sequence."""
    adj = td.tree.adjacency()
    if any(len(nb) > 2 for nb in adj.values()):
        raise FormatError("decomposition tree is not path-shaped")
    # an end of the path, or the only node of a one-bag tree
    start = min(u for u, nb in adj.items() if len(nb) <= 1)
    seq = [start]
    prev = None
    while len(seq) < td.tree.n:
        nxt = [w for w in adj[seq[-1]] if w != prev]
        prev = seq[-1]
        seq.append(nxt[0])
    return PathDecomposition(td.host, [td.bags[u] for u in seq])


def format_td(d: Decomposition) -> str:
    host = d.host
    index = {v: i + 1 for i, v in enumerate(host.vertices_sorted())}
    items = d.bag_items()
    node_rank = {u: i + 1 for i, (u, _) in enumerate(items)}
    maxbag = max(len(bag) for _, bag in items)
    lines = [f"s td {len(items)} {maxbag} {host.n}"]
    for u, bag in items:
        members = " ".join(str(x) for x in sorted(index[v] for v in bag))
        lines.append(f"b {node_rank[u]}" + (f" {members}" if members else ""))
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
