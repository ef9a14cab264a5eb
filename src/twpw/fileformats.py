"""Text formats for graphs (.gr) and decompositions (.td).

A .gr file has one header line ``p tw <n> <m>`` followed by m edge lines
with 1-based endpoints.  A .td file has one header ``s td <r> <maxbagsize>
<n>``, r bag lines ``b <i> <v...>`` and r-1 tree edge lines, which must
form a tree with no loop and no repeated edge.  Lines starting with ``c``
are comments.  Writers normalize vertex ids to 1..n in sorted
order, so files written here parse back to graphs with ids 0..n-1.  A .gr
header announcing more than ``GRAPH_MAX_VERTICES`` vertices or
``GRAPH_MAX_EDGES`` edges (see graphs.py) raises CapabilityError before
anything is built.  The readers check every line themselves, so they build
the graph, and the decomposition's rooting, from what they checked, without
a second pass over the edges.
"""

from __future__ import annotations

import os
from typing import Union

from .decomposition import Decomposition, PathDecomposition, TreeDecomposition, _tree_walk
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


def _numeral(token: str) -> int:
    """The value of a numeral: an optional "-" and ASCII digits.
    ValueError for anything else, such as "+3", "1_0" or "٣", which int()
    alone would read."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a numeral: {token!r}")
    return int(token)


def _canonical(count: int) -> list[str]:
    """The numerals "1".."count", the only ones the writers here produce."""
    return list(map(str, range(1, count + 1)))


def parse_gr(text: str) -> Graph:
    """The graph a .gr text describes; vertex i of the file becomes i - 1.

    Numerals are an optional "-" and ASCII digits.  The edge lines are
    read in one pass, each through a dict of the numerals "1".."n" that
    format_gr writes.  A line the dict cannot read (another numeral such
    as "03", or a bad line) is checked on its own: its length, its
    numerals, their range.  Then every line is checked for a loop and a
    repeated edge, so the first fault is raised in line order.  The
    checked edges are the graph's, so it is built without another pass.
    """
    lines = _content_lines(text)
    if not lines or lines[0][:2] != ["p", "tw"] or len(lines[0]) != 4:
        raise FormatError("missing 'p tw <n> <m>' header")
    try:
        n, m = map(_numeral, lines[0][2:])
    except ValueError:
        raise FormatError("non-numeric header fields") from None
    if n < 0 or m < 0:
        raise FormatError("negative counts in header")
    guard_size(n, m)
    vertex = dict(zip(_canonical(n), range(n)))
    edges: set[tuple[int, int]] = set()
    for tokens in lines[1:]:
        try:
            a, b = tokens
            u, v = vertex[a], vertex[b]
        except (KeyError, ValueError):
            a, b = _checked_pair(tokens, n, "edge", "non-numeric edge line")
            u, v = a - 1, b - 1
        if u == v:
            raise FormatError(f"loop at vertex {u + 1}")
        e = (u, v) if u < v else (v, u)
        if e in edges:
            raise FormatError(f"duplicate edge ({u + 1}, {v + 1})")
        edges.add(e)
    if len(edges) != m:
        raise FormatError(f"header announces {m} edges, file has {len(edges)}")
    return Graph._trusted(frozenset(range(n)), frozenset(edges))


def _checked_pair(tokens: list[str], top: int, name: str, unread: str) -> tuple[int, int]:
    """The two ends of an edge line the numeral dict could not read, checked
    in turn: the line's length, its numerals, their range 1..top."""
    if len(tokens) != 2:
        raise FormatError(f"bad {name} line: {' '.join(tokens)!r}")
    try:
        a, b = map(_numeral, tokens)
    except ValueError:
        raise FormatError(f"{unread}: {' '.join(tokens)!r}") from None
    if not (1 <= a <= top and 1 <= b <= top):
        raise FormatError(f"{name} ({a}, {b}) out of range 1..{top}")
    return a, b


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
    returns its bags in order from the lowest-numbered end.  Numerals are
    an optional "-" and ASCII digits.

    The body is read in one pass: bag ids and tree edge ends go through a
    dict of the numerals "1".."r" to the nodes 0..r-1, bag members through
    a dict from "1".."n" to the vertices of host, and each bag is frozen
    once, which the decomposition keeps without a copy.  A line those
    dicts cannot read (another numeral such as "03", an id or vertex out
    of range, a bad line) is checked on its own, so the first fault is
    raised in line order.  The counts and the tree edges are checked after
    the body, and one breadth-first walk checks that the nodes form a tree.
    A tree decomposition is its bags and its rooting: the walk from node 0
    roots it, and no tree Graph is built, so nothing is checked again.
    """
    if kind not in ("tree", "path"):
        raise FormatError(f"unknown decomposition kind {kind!r}")
    lines = _content_lines(text)
    if not lines or lines[0][:2] != ["s", "td"] or len(lines[0]) != 5:
        raise FormatError("missing 's td <bags> <maxbagsize> <n>' header")
    try:
        r, maxbag, n = map(_numeral, lines[0][2:])
    except ValueError:
        raise FormatError("non-numeric header fields") from None
    if n != host.n:
        raise FormatError(f"header announces {n} vertices, graph has {host.n}")
    if r < 1:
        raise FormatError("decomposition needs at least one bag")
    body = lines[1:]
    vertex = dict(zip(_canonical(n), host.vertices_sorted()))
    # a well-formed body has r bag lines, so no id beyond the line count
    node = dict(zip(_canonical(min(r, len(body))), range(r)))
    bags: dict[int, frozenset[int]] = {}
    tree_edges: list[tuple[int, int]] = []
    for tokens in body:
        if tokens[0] == "b":
            try:
                ident = node[tokens[1]]
                bag = frozenset(map(vertex.__getitem__, tokens[2:]))
            except (IndexError, KeyError):
                ident, bag = _checked_bag(tokens, r, vertex, bags)
            else:
                if ident in bags:
                    raise FormatError(f"duplicate bag id {ident + 1}")
            bags[ident] = bag
        else:
            try:
                a, b = tokens
                tree_edges.append((node[a], node[b]))
            except (KeyError, ValueError):
                a, b = _checked_pair(tokens, r, "tree edge", "non-numeric tree edge")
                tree_edges.append((a - 1, b - 1))
    if len(bags) != r:
        raise FormatError(f"header announces {r} bags, file has {len(bags)}")
    if len(tree_edges) != r - 1:
        raise FormatError(f"{r} bags need {r - 1} tree edges, file has {len(tree_edges)}")
    if maxbag != max(map(len, bags.values())):
        raise FormatError("header max bag size disagrees with the bags")
    adj = _tree_shape(r, tree_edges)
    if kind == "tree":
        return TreeDecomposition._rooted(host, bags, 0, _tree_walk(adj, 0))
    return PathDecomposition(host, [bags[u] for u in _path_order(adj)])


def _checked_bag(
    tokens: list[str], r: int, vertex: dict[str, int], bags: dict[int, frozenset[int]]
) -> tuple[int, frozenset[int]]:
    """The node and bag of a bag line the numeral dicts could not read,
    checked in turn: its id is present, its numerals, the id's range 1..r,
    a repeated id, then its members' range 1..n, n being the size of
    vertex.  Bag id i is node i - 1, the key bags holds it under."""
    if len(tokens) < 2:
        raise FormatError("bag line without an id")
    try:
        ident = _numeral(tokens[1])
        members = list(map(_numeral, tokens[2:]))
    except ValueError:
        raise FormatError(f"non-numeric bag line: {' '.join(tokens)!r}") from None
    if not 1 <= ident <= r:
        raise FormatError(f"bag id {ident} out of range 1..{r}")
    if ident - 1 in bags:
        raise FormatError(f"duplicate bag id {ident}")
    try:
        # str() of a member in 1..n is its canonical numeral
        return ident - 1, frozenset(vertex[str(v)] for v in members)
    except KeyError:
        v = next(v for v in members if not 1 <= v <= len(vertex))
        raise FormatError(f"bag {ident} holds out-of-range vertex {v}") from None


def _tree_shape(r: int, tree_edges: list[tuple[int, int]]) -> list[list[int]]:
    """Each node's neighbors along the tree edges over the nodes 0..r-1.
    FormatError for the first loop or repeated edge in line order, naming
    the bags 1-based."""
    adj: list[list[int]] = [[] for _ in range(r)]
    seen = set()
    for a, b in tree_edges:
        if a == b:
            raise FormatError(f"tree edge loop at bag {a + 1}")
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise FormatError(f"duplicate tree edge ({a + 1}, {b + 1})")
        seen.add(e)
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _path_order(adj: list[list[int]]) -> list[int]:
    """The nodes of a path-shaped tree, from its lowest-numbered end.

    Some node of a tree has at most one neighbor.  The walk from the
    lowest-numbered such node checks that the nodes form a tree
    (ParameterError) and, when no node has more than two neighbors (else
    FormatError), is the order."""
    start = next(u for u, nb in enumerate(adj) if len(nb) <= 1)
    order = [start, *_tree_walk(adj, start)]
    if any(len(nb) > 2 for nb in adj):
        raise FormatError("decomposition tree is not path-shaped")
    return order


def format_td(d: Decomposition) -> str:
    """The .td text of d; vertex v of the host is written as its rank in
    sorted order, and node u as its rank among the nodes.  Each bag is
    sorted by vertex id and mapped through one vertex -> numeral dict, so
    the work per bag member is done in C.  A tree's edges are read from
    its rooting, one per node but the root.  ParameterError names a bag
    vertex outside the host."""
    host = d.host
    numeral = dict(zip(host.vertices_sorted(), _canonical(host.n)))
    items = d.bag_items()
    maxbag = max(len(bag) for _, bag in items)
    lines = [f"s td {len(items)} {maxbag} {host.n}"]
    try:
        lines += [" ".join(["b", str(rank), *map(numeral.__getitem__, sorted(bag))])
                  for rank, (_, bag) in enumerate(items, 1)]
    except (KeyError, TypeError):
        # a foreign id: missing from the dict, or not comparable with ints
        v = next(v for _, bag in items for v in bag if v not in numeral)
        raise ParameterError(f"bag holds vertex {v}, which is not in the graph") from None
    if isinstance(d, TreeDecomposition):
        node_rank = {u: i for i, (u, _) in enumerate(items, 1)}
        ends = ((node_rank[u], node_rank[p]) for u, p in d._parent.items())
        edges = sorted((a, b) if a < b else (b, a) for a, b in ends)
    else:
        edges = [(i, i + 1) for i in range(1, len(items))]
    lines += [f"{a} {b}" for a, b in edges]
    return "\n".join(lines) + "\n"


def read_td(path: PathLike, host: Graph, kind: str = "tree") -> Decomposition:
    return parse_td(_read_ascii(path), host, kind)


def write_td(d: Decomposition, path: PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_td(d))
