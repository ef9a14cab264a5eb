"""The .gr and .td readers as they were with two passes, frozen as oracles.

Each reader first reads the body through dicts of the numerals "1".."n"
and, when that pass misses anywhere, reads the whole body again with every
line checked in turn.  The current readers must give the same value, or a
ToolError of the same type with the same message, on every input.  Nothing
here imports from twpw.fileformats, so a rewrite of its helpers cannot
change both sides of a differential test.
"""

from twpw.decomposition import PathDecomposition, TreeDecomposition
from twpw.errors import FormatError, ParameterError
from twpw.graphs import Graph, guard_size


def content_lines(text):
    """The tokens of each line that is neither blank nor a comment."""
    out = []
    for raw in text.splitlines():
        tokens = raw.split()
        if tokens and not (tokens[0] == "c" and (len(tokens) == 1 or raw.lstrip()[1] == " ")):
            out.append(tokens)
    return out


def numeral(token):
    """The value of an optional "-" and ASCII digits; ValueError otherwise."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a numeral: {token!r}")
    return int(token)


def canonical(count):
    return list(map(str, range(1, count + 1)))


def frozen_parse_gr(text):
    lines = content_lines(text)
    if not lines or lines[0][:2] != ["p", "tw"] or len(lines[0]) != 4:
        raise FormatError("missing 'p tw <n> <m>' header")
    try:
        n, m = map(numeral, lines[0][2:])
    except ValueError:
        raise FormatError("non-numeric header fields") from None
    if n < 0 or m < 0:
        raise FormatError("negative counts in header")
    guard_size(n, m)
    body = lines[1:]
    vertex = dict(zip(canonical(n), range(n)))
    try:
        edges = {(u, v) if u < v else (v, u) if v < u else None
                 for u, v in ((vertex[a], vertex[b]) for a, b in body)}
    except (KeyError, ValueError):
        edges = None
    if edges is None or None in edges or len(edges) != len(body):
        edges = checked_edges(body, n)
    if len(edges) != m:
        raise FormatError(f"header announces {m} edges, file has {len(edges)}")
    return Graph(range(n), edges)


def checked_edges(body, n):
    edges = set()
    for tokens in body:
        if len(tokens) != 2:
            raise FormatError(f"bad edge line: {' '.join(tokens)!r}")
        try:
            u, v = map(numeral, tokens)
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
    return edges


def frozen_two_pass_parse_td(text, host, kind="tree"):
    if kind not in ("tree", "path"):
        raise FormatError(f"unknown decomposition kind {kind!r}")
    lines = content_lines(text)
    if not lines or lines[0][:2] != ["s", "td"] or len(lines[0]) != 5:
        raise FormatError("missing 's td <bags> <maxbagsize> <n>' header")
    try:
        r, maxbag, n = map(numeral, lines[0][2:])
    except ValueError:
        raise FormatError("non-numeric header fields") from None
    if n != host.n:
        raise FormatError(f"header announces {n} vertices, graph has {host.n}")
    if r < 1:
        raise FormatError("decomposition needs at least one bag")
    body = lines[1:]
    vertex = dict(zip(canonical(n), host.vertices_sorted()))
    node = dict(zip(canonical(min(r, len(body))), range(1, r + 1)))
    bags = {}
    tree_edges = []
    try:
        for tokens in body:
            if tokens[0] == "b":
                bags[node[tokens[1]]] = frozenset(map(vertex.__getitem__, tokens[2:]))
            else:
                a, b = tokens
                tree_edges.append((node[a], node[b]))
        read = len(bags) + len(tree_edges) == len(body)
    except (IndexError, KeyError, ValueError):
        read = False
    if not read:
        bags, tree_edges = checked_td_body(body, r, host)
    if len(bags) != r:
        raise FormatError(f"header announces {r} bags, file has {len(bags)}")
    if len(tree_edges) != r - 1:
        raise FormatError(f"{r} bags need {r - 1} tree edges, file has {len(tree_edges)}")
    if maxbag != max(map(len, bags.values())):
        raise FormatError("header max bag size disagrees with the bags")
    frozen_check_tree_edges(tree_edges)
    if kind == "tree":
        tree = Graph(range(r), [(a - 1, b - 1) for a, b in tree_edges])
        return TreeDecomposition(host, tree, {u - 1: bag for u, bag in bags.items()})
    return PathDecomposition(host, [bags[u] for u in reachability_path_order(r, tree_edges)])


def checked_td_body(body, r, host):
    n = host.n
    ranked = [-1, *host.vertices_sorted()]
    bags = {}
    tree_edges = []
    for tokens in body:
        if tokens[0] == "b":
            if len(tokens) < 2:
                raise FormatError("bag line without an id")
            try:
                ident = numeral(tokens[1])
                members = list(map(numeral, tokens[2:]))
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
                a, b = map(numeral, tokens)
            except ValueError:
                raise FormatError(f"non-numeric tree edge: {' '.join(tokens)!r}") from None
            if not (1 <= a <= r and 1 <= b <= r):
                raise FormatError(f"tree edge ({a}, {b}) out of range 1..{r}")
            tree_edges.append((a, b))
    return bags, tree_edges


def frozen_check_tree_edges(tree_edges):
    """FormatError for the first loop or repeated tree edge, in line order."""
    seen = set()
    for a, b in tree_edges:
        if a == b:
            raise FormatError(f"tree edge loop at bag {a}")
        e = (a, b) if a < b else (b, a)
        if e in seen:
            raise FormatError(f"duplicate tree edge ({a}, {b})")
        seen.add(e)


def reachability_path_order(r, tree_edges):
    """_path_order as it was before the single walk: a reachability pass
    over every node, the degree check, then the walk.  Frozen here as the
    oracle for the current order and for which error comes first."""
    adj = [[] for _ in range(r + 1)]
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
    prev, u = 0, next(u for u in range(1, r + 1) if len(adj[u]) <= 1)
    seq = [u]
    for _ in range(r - 1):
        nb = adj[u]
        prev, u = u, nb[0] if nb[0] != prev else nb[-1]
        seq.append(u)
    return seq
