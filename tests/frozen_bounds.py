"""The tree-width solver layer's bounds and mask helpers as they were
before their per-vertex loops were made incremental, frozen as oracles.

These build a list of set bits for every loop and pick minima through
``min(key=...)``: min-fill recounts the fill of every vertex after each
elimination, and the others walk ``_members`` lists.  The current helpers
in ``twpw.exact`` must return exactly what these return, orders, steps
and tie-breaks included, since certificates and lower witnesses are built
from them.  ``_members`` and ``_is_simplicial`` are copied too, so a
rewrite of either cannot change both sides of a differential test.
``lbn_plus`` is LBN+ as its own loop, before it became minor-min-width's
loop run with k, with the incremental ``_improved`` it called.
``min_fill_by_recount`` is min-fill as it was before its keys were kept
by delta: after each elimination it counts again the fill of every
neighbor of the eliminated vertex and of their neighbors.
``peeled_clique`` is the tree-width peel's lower witness as it was found
before the peel recorded it: the eliminations are replayed, with
``_is_clique`` and ``_eliminate`` copied, up to the first simplicial
vertex of the peel's degree.
"""


def _members(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _is_simplicial(adj, v):
    nb = adj[v]
    rest = nb
    while rest:
        b = rest & -rest
        rest ^= b
        if nb & ~adj[b.bit_length() - 1] != b:
            return False
    return True


def peel_simplicial(adj):
    alive = (1 << len(adj)) - 1
    simplicial = 0
    for v in range(len(adj)):
        if _is_simplicial(adj, v):
            simplicial |= 1 << v
    removed, low = [], -1
    while simplicial:
        v = simplicial.bit_length() - 1
        simplicial ^= 1 << v
        alive ^= 1 << v
        removed.append(v)
        nb = adj[v]
        low = max(low, nb.bit_count())
        for u in _members(nb):
            adj[u] ^= 1 << v
            if _is_simplicial(adj, u):
                simplicial |= 1 << u
    return removed, low, alive


def components(adj, alive):
    comps = []
    while alive:
        comp = frontier = alive & -alive
        while frontier:
            grown = 0
            for u in _members(frontier):
                grown |= adj[u]
            frontier = grown & ~comp
            comp |= frontier
        comps.append(comp)
        alive ^= comp
    return comps[::-1]


def restrict(adj, members):
    index = {v: 1 << i for i, v in enumerate(members)}
    return [sum(index[u] for u in _members(adj[v])) for v in members]


def min_fill(adj):
    adj = list(adj)
    alive = (1 << len(adj)) - 1
    value, order = -1, []
    while alive:
        best = pick = None
        for v in _members(alive):
            nb = adj[v]
            missing = sum((nb & ~adj[u]).bit_count() - 1 for u in _members(nb))
            key = (missing, nb.bit_count())
            if best is None or key < best:
                best, pick = key, v
        nb = adj[pick]
        value = max(value, nb.bit_count())
        order.append(pick)
        alive ^= 1 << pick
        for u in _members(nb):
            adj[u] = (adj[u] | nb) & ~(1 << u | 1 << pick)
    return value, order


def min_fill_by_recount(adj):
    n = len(adj)
    adj = list(adj)
    bits = n.bit_length()
    index = (1 << bits) - 1
    key = [0] * n
    gone = n * n << 2 * bits
    value, order = -1, []
    alive = stale = (1 << n) - 1
    for left in range(n, 0, -1):
        while stale:
            b = stale & -stale
            stale ^= b
            v = b.bit_length() - 1
            nb = rest = adj[v]
            missing = -nb.bit_count()
            while rest:
                u = rest & -rest
                rest ^= u
                missing += (nb & ~adj[u.bit_length() - 1]).bit_count()
            key[v] = (missing << bits | nb.bit_count()) << bits | v
        best = min(key)
        if best >> bits == left - 1:
            order.extend(_members(alive))
            return max(value, left - 1), order
        pick = best & index
        key[pick] = gone
        alive ^= 1 << pick
        nb = rest = adj[pick]
        value = max(value, nb.bit_count())
        order.append(pick)
        stale = nb
        while rest:
            b = rest & -rest
            rest ^= b
            u = b.bit_length() - 1
            adj[u] = (adj[u] | nb) & ~(b | 1 << pick)
            stale |= adj[u]
    return value, order


def minor_min_width(adj):
    adj = list(adj)
    alive = (1 << len(adj)) - 1
    value, steps, reached = (0 if adj else -1), [], 0
    while alive & (alive - 1):
        v = min(_members(alive), key=lambda w: adj[w].bit_count())
        nb = adj[v]
        if nb.bit_count() > value:
            value, reached = nb.bit_count(), len(steps)
        alive ^= 1 << v
        if not nb:
            steps.append(("dv", v))
            continue
        u = min(_members(nb), key=lambda w: (adj[w] & nb).bit_count())
        steps.append(("c", v, u))
        for w in _members(nb):
            adj[w] ^= 1 << v
        merged = (adj[u] | nb) & ~(1 << u)
        for w in _members(merged & ~adj[u]):
            adj[w] |= 1 << u
        adj[u] = merged
    return value, steps[:reached]


def improved(adj, k):
    adj = list(adj)
    full = (1 << len(adj)) - 1
    steps = []
    joined = True
    while joined:
        joined = False
        for u in range(len(adj)):
            for v in _members(full & ~adj[u] & ~((2 << u) - 1)):
                if (adj[u] & adj[v]).bit_count() >= k:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    steps.append(("a", u, v))
                    joined = True
    return adj, steps


def lower_bound(adj, hi):
    lo, steps = minor_min_width(adj)
    while lo < hi:
        better, added = improved(adj, lo + 1)
        reached, contracted = minor_min_width(better)
        if reached <= lo:
            break
        lo, steps = lo + 1, added + contracted
    return lo, steps


def _improved(adj, k, touched=-1):
    adj = list(adj)
    full = (1 << len(adj)) - 1
    steps = []
    joined = True
    while joined:
        joined = False
        for u in range(len(adj)):
            rest = (full if touched >> u & 1 else touched) & ~adj[u] & ~((2 << u) - 1)
            while rest:
                b = rest & -rest
                rest ^= b
                v = b.bit_length() - 1
                if (adj[u] & adj[v]).bit_count() >= k:
                    adj[u] |= b
                    adj[v] |= 1 << u
                    touched |= b | 1 << u
                    steps.append(("a", u, v))
                    joined = True
    return adj, steps


def lbn_plus(adj, k):
    adj, steps = _improved(adj, k)
    bits = len(adj).bit_length()
    alive = (1 << len(adj)) - 1
    for _ in range(len(adj), k, -1):
        # (degree, v) packed into one int, so min picks
        best = min(adj[v].bit_count() << bits | v for v in _members(alive))
        if best >> bits >= k:
            return steps
        v = best & ((1 << bits) - 1)
        alive ^= 1 << v
        nb, adj[v] = adj[v], 0
        if not nb:
            steps.append(("dv", v))
            continue
        u, fewest, rest = -1, len(adj), nb
        while rest:
            b = rest & -rest
            rest ^= b
            w = b.bit_length() - 1
            adj[w] ^= 1 << v
            common = (adj[w] & nb).bit_count()
            if common < fewest:
                u, fewest = w, common
        steps.append(("c", v, u))
        fresh = rest = nb & ~adj[u] & ~(1 << u)
        while rest:
            b = rest & -rest
            rest ^= b
            adj[b.bit_length() - 1] |= 1 << u
        adj[u] |= fresh
        adj, added = _improved(adj, k, fresh | 1 << u)
        steps += added
    return None


def _is_clique(adj, mask):
    rest = mask
    while rest:
        b = rest & -rest
        rest ^= b
        if mask & ~adj[b.bit_length() - 1] != b:
            return False
    return True


def _eliminate(adj, v):
    nb = rest = adj[v]
    while rest:
        b = rest & -rest
        rest ^= b
        u = b.bit_length() - 1
        adj[u] = (adj[u] | nb) & ~(b | 1 << v)


def peeled_clique(masks, removed, degree):
    adj = list(masks)
    alive = (1 << len(adj)) - 1
    steps = []
    for v in removed:
        nb = adj[v]
        if not _is_clique(adj, nb):
            w = next(u for u in _members(nb) if _is_clique(adj, nb ^ 1 << u))
            steps.append(("c", v, w))
        elif nb.bit_count() == degree:
            clique = nb | 1 << v
            if not any(step[0] == "c" for step in steps):
                return _members(clique), []
            return list(range(len(adj))), steps + [("dv", u) for u in _members(alive & ~clique)]
        else:
            steps.append(("dv", v))
        _eliminate(adj, v)
        alive ^= 1 << v
    raise AssertionError(f"no peeled vertex had degree {degree}")
