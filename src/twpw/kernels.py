"""Subset dynamic programming kernels for exact tree-width and path-width.

Both kernels take a dense adjacency-mask list (bit j of masks[i] set when
vertices i and j are adjacent) and return the exact parameter value plus an
optimal vertex ordering as index lists.  The masks must describe a simple
graph on at most 16 vertices: no bit at or beyond len(masks), no loop, and
bit j of masks[i] set exactly when bit i of masks[j] is.  Anything else is
refused with ValueError before a table is allocated.  Among optimal
vertices each kernel picks the lowest index; certificates and golden
outputs depend on that order, so the tie-break is part of the contract.

The tree-width kernel fills one table entry per subset, a byte each in
one bytearray (64 KB at n = 16), and reads its order back from the
values alone.  The path-width kernel works on whole subset families
instead: a family of subsets of the n vertices is one Python int of 2^n
bits whose bit S is set when the subset with mask S belongs to it (at
most 8 KB at n = 16).  One big-int operation
then acts on all subsets at once: & and | intersect and unite families,
and shifting a family that avoids v left by 2^v adds v to each member.
It can start from a lower bound the caller knows, since the families
below the path-width only lead up to it; skipping them changes only the
layout's tie-breaks below that bound.  The solver layer passes the
minor-min-width bound, a tree-width bound, and tree-width is at most
path-width.
The one-subset-at-a-time loops of both recurrences are kept in
tests/test_kernels.py (per_vertex_treewidth_dp, loop_pathwidth_dp) as the
readable oracles both values and orders are checked against.
"""

from __future__ import annotations

import struct
import sys

MAX_VERTICES = 16


def backend() -> str:
    """Name of the kernel implementation: always 'python'."""
    return "python"


def load_backend(name: str):
    """The kernel module for a backend name.

    'python' is this module; no compiled kernel exists, so 'c' raises
    ImportError, and any other name raises ValueError.
    """
    if name == "python":
        return sys.modules[__name__]
    if name == "c":
        raise ImportError("no compiled kernel is built")
    raise ValueError(f"unknown kernel backend {name!r}")


def _transposes() -> tuple[tuple[int, int], ...]:
    """The delta swaps that transpose a 16 x 16 bit matrix packed into one
    int, entry (i, j) at bit 16 i + j: step k exchanges bit k of the row
    with bit k of the column, so it moves each entry whose bit k of j is
    set and bit k of i clear up by 15 * 2^k, to where the other entry of
    the pair moves down from."""
    swaps = []
    for k in range(4):
        low = sum(1 << p for p in range(256) if p >> k & 1 and not p >> (4 + k) & 1)
        swaps.append((15 << k, low))
    return tuple(swaps)


_TRANSPOSES = _transposes()
_DIAGONAL = sum(1 << 17 * i for i in range(MAX_VERTICES))


def _check_masks(masks: list[int]) -> int:
    """len(masks), once the masks are known to describe a simple graph on
    at most MAX_VERTICES vertices; checked before any table is sized.

    The masks are packed into one 16 x 16 bit matrix, row i holding
    masks[i], and checked whole: no bit on the diagonal, and equal to its
    own transpose.  The rows from n on are empty, so a bit in a column
    from n on is caught by the transpose.  Only when that fails (or a
    mask does not fit a row) are the masks scanned one by one, for the
    first fault and its message."""
    n = len(masks)
    if n > MAX_VERTICES:
        raise ValueError(f"kernel supports at most {MAX_VERTICES} vertices")
    try:
        matrix = int.from_bytes(struct.pack(f"<{n}H", *masks), "little")
    except struct.error:
        matrix = None
    if matrix is not None and not matrix & _DIAGONAL:
        transposed = matrix
        for shift, low in _TRANSPOSES:
            t = (transposed ^ transposed >> shift) & low
            transposed ^= t ^ t << shift
        if transposed == matrix:
            return n
    _first_fault(masks)
    return n


def _first_fault(masks: list[int]) -> None:
    """ValueError naming the first fault of the masks in vertex order: a
    neighbor outside the len(masks) vertices, a loop, an asymmetric pair."""
    n = len(masks)
    for v, mask in enumerate(masks):
        if mask >> n:
            raise ValueError(f"vertex {v} has a neighbor outside the {n} vertices")
        if mask >> v & 1:
            raise ValueError(f"loop at vertex {v}")
        rest = mask
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if not masks[u] >> v & 1:
                raise ValueError(f"asymmetric pair ({v}, {u})")


def treewidth_dp(masks: list[int]) -> tuple[int, list[int]]:
    """Exact tree-width via elimination orderings over vertex subsets.

    value[S] is the best possible maximum fill-degree when the vertices of
    S are eliminated first, minimized over orderings of S; the answer is
    value[V].  The recurrence is the one of Bodlaender, Fomin, Koster,
    Kratsch and Thilikos, "On exact algorithms for treewidth" (ESA 2006):

        value[S] = min over v in S of max(value[S - v], Q(S - v, v))

    where Q(S - v, v) counts the vertices outside S adjacent to the
    component C of v in G[S].  Q depends only on C, so G[S] is split into
    its components once per subset and Q is counted once per component;
    a component whose Q is at least the best value found is skipped.

    The table is one bytearray of 2^n entries (64 KB at n = 16): every
    value is at most n - 1.  value[{}] is stored as 0 rather than -1:
    Q >= 0, so max(value[{}], Q) is Q either way, and the read-back only
    asks whether value[{}] is at most some value >= 0.  No choice is
    stored.  The order is read back along the n subsets of the path down
    from V: at each S, the lowest-index v with max(value[S - v], Q(S - v,
    v)) = value[S] is eliminated last, then S - v is read.  Returns
    (tree-width, elimination order), (-1, []) for the empty graph.
    """
    n = _check_masks(masks)
    if n == 0:
        return -1, []
    full = (1 << n) - 1
    value = bytearray(full + 1)
    for s in range(1, full + 1):
        best = n
        left = s
        while left:
            low = left & -left
            # grow the component of low in G[s]; nb collects its neighbors
            comp = low
            nb = masks[low.bit_length() - 1]
            frontier = nb & s & ~comp
            while frontier:
                comp |= frontier
                while frontier:
                    fb = frontier & -frontier
                    nb |= masks[fb.bit_length() - 1]
                    frontier ^= fb
                frontier = nb & s & ~comp
            left ^= comp
            q = (nb & ~s).bit_count()
            if q >= best:
                continue
            while comp:
                b = comp & -comp
                comp ^= b
                cand = value[s ^ b]
                if cand < q:
                    cand = q
                if cand < best:
                    best = cand
        value[s] = best
    return value[full], _elimination_order(masks, value)


def _elimination_order(masks: list[int], value: bytearray) -> list[int]:
    """The elimination order read back from the tree-width table: from V,
    repeatedly remove the lowest-index v with max(value[S - v], Q(S - v,
    v)) = value[S], the vertex the recurrence's lowest-index tie-break
    picks.  value[S] is that maximum's minimum over v in S, so v
    qualifies exactly when value[S - v] and Q are both at most value[S]."""
    order = []
    s = len(value) - 1
    while s:
        k = value[s]
        v = next(v for v in range(len(masks)) if s >> v & 1
                 and value[s ^ 1 << v] <= k and _outside(masks, s, v) <= k)
        order.append(v)
        s ^= 1 << v
    order.reverse()
    return order


def _outside(masks: list[int], s: int, v: int) -> int:
    """Q(S - v, v): the vertices outside s adjacent to the component of v
    in G[s]."""
    comp = 1 << v
    nb = masks[v]
    frontier = nb & s & ~comp
    while frontier:
        comp |= frontier
        while frontier:
            fb = frontier & -frontier
            nb |= masks[fb.bit_length() - 1]
            frontier ^= fb
        frontier = nb & s & ~comp
    return (nb & ~s).bit_count()


def pathwidth_dp(masks: list[int], start: int = 0) -> tuple[int, list[int]]:
    """Exact path-width via the vertex separation number.

    value[S] = max(boundary(S), min over v in S of value[S - v]), with
    value[{}] = 0, where boundary(S) counts the vertices of S with a
    neighbor outside S; value[V] is the path-width.  Instead of filling
    value[] one subset at a time, the kernel works on subset families (see
    the module docstring) and builds F_k = {S : value[S] <= k} for
    k = 0, 1, ...: value[S] <= k exactly when S is in LE_k, the family of
    subsets with at most k boundary vertices, and S is empty or some S - v
    is in F_k.  So F_k is the closure of F_{k-1} (of {empty set} for k = 0)
    under

        F |= ((F & lacks[v]) << 2^v) & LE_k    for v = 0, 1, ..., n-1, 0, 1, ...

    where lacks[v] is the family of subsets without v.  The vertices are
    cycled through until every one of them has been applied to the current
    family without adding to it; the vertex that last added to it needs no
    second look, since every subset it added holds it.  The first k whose
    family holds V is the path-width.

    start, a lower bound on the path-width that the caller knows, skips
    the levels below it: F_start is built at once as the closure of {empty
    set} under LE_start, which is the same family, since every member of
    F_start is reached from the empty set through members of F_start.  A
    start outside 0..n-1 (other than 0 for the empty graph) is refused
    with ValueError before any table is sized.

    The layout is read back from the stored families: from V, repeatedly
    remove the lowest-index v minimising value[S - v], or, once that
    minimum is at most start, the lowest v with S - v in F_start.  That
    minimum never rises along the way: the next set S - v has value[S - v]
    equal to it, and value[S - v] is at least the next minimum by the
    recurrence.  So its level k is found by walking down from the last
    one: k drops while k > start and some S - v lies in F_{k-1}, and the
    removed v is the lowest one with S - v in F_k.  Every set on the way
    lies in the family of its level, so the layout's vertex separation is
    the path-width whatever start is; only its tie-breaks below start
    depend on it.

    A clique, a single edge included, is answered without the families:
    there boundary(S) = |S| for every S but V, so value[S] = |S| and
    value[V] = n - 1, every S - v ties, and the read-back removes 0, 1,
    ..., n - 1 in turn, so the layout places n - 1 first and 0 last.  The
    families are skipped whatever start is.
    Returns (path-width, placement order), (-1, []) for the empty graph.
    """
    n = _check_masks(masks)
    if not 0 <= start <= max(n - 1, 0):
        raise ValueError(f"start {start} is outside 0..{max(n - 1, 0)}")
    if n == 0:
        return -1, []
    full = (1 << n) - 1
    if all(mask | 1 << v == full for v, mask in enumerate(masks)):
        return n - 1, list(range(n - 1, -1, -1))
    everything = (1 << (full + 1)) - 1
    lacks = _lacking(n)
    # bit-sliced boundary counts: bit S of counter[i] is bit i of boundary(S)
    counter = [0] * n.bit_length()
    for v in range(n):
        # v counts in S when some neighbor is outside S
        outside = 0
        rest = masks[v]
        while rest:
            low = rest & -rest
            outside |= lacks[low.bit_length() - 1]
            rest ^= low
        carry = outside & ~lacks[v]
        for i, c in enumerate(counter):
            counter[i], carry = c ^ carry, c & carry
    at_most_k = 0
    family = 1
    families = []
    for k in range(n):
        exactly_k = everything
        for i, c in enumerate(counter):
            exactly_k &= c if k >> i & 1 else everything ^ c
        at_most_k |= exactly_k
        if k < start:
            continue
        stable = v = 0  # vertices applied in a row without adding a subset
        while stable < n:
            grown = family | ((family & lacks[v]) << (1 << v)) & at_most_k
            if grown != family:
                family = grown
                stable = 1
            else:
                stable += 1
            v = v + 1 if v + 1 < n else 0
        families.append(family.to_bytes((full >> 3) + 1, "little"))
        if family >> full:
            break
    order = []
    s = full
    k = len(families) - 1
    while s:
        while k and _first_removal(s, families[k - 1]):
            k -= 1
        low = _first_removal(s, families[k])
        if not low:
            raise AssertionError("a subset in F_k has no predecessor in it")
        order.append(low.bit_length() - 1)
        s ^= low
    order.reverse()
    return start + len(families) - 1, order


def _lacking(n: int) -> list[int]:
    """lacks[v] for v < n: the family of subsets of n vertices without v.

    Its bit pattern is 2^v set bits, then 2^v clear ones, repeated.  XOR
    with itself shifted left by 2^(v-1) splits each run of set bits into
    two runs of 2^(v-1), 2^(v-1) apart: the pattern for v - 1.  No run
    moves out of its period, so no bit spills past bit 2^n.
    """
    lacks = [0] * n
    family = (1 << (1 << n >> 1)) - 1  # the lower half: subsets without n - 1
    for v in range(n - 1, -1, -1):
        lacks[v] = family
        family ^= family << (1 << v >> 1)
    return lacks


def _first_removal(s: int, table: bytes) -> int:
    """The bit of the lowest-index v in s with s - v in the family table
    (little-endian bytes), or 0 when there is none."""
    t = s
    while t:
        low = t & -t
        rest = s ^ low
        if table[rest >> 3] >> (rest & 7) & 1:
            return low
        t ^= low
    return 0
