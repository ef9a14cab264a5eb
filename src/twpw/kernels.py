"""Subset dynamic programming kernels for exact tree-width and path-width.

Both kernels take a dense adjacency-mask list (bit j of masks[i] set when
vertices i and j are adjacent) and return the exact parameter value plus an
optimal vertex ordering as index lists.  The masks must describe a simple
graph on at most 16 vertices: no bit at or beyond len(masks), no loop, and
bit j of masks[i] set exactly when bit i of masks[j] is.  Anything else is
refused with ValueError before a table is allocated.  Among optimal
vertices each kernel picks the lowest index; certificates and golden
outputs depend on that order, so the tie-break is part of the contract.

The tree-width kernel fills one table entry per subset.  The path-width
kernel works on whole subset families instead: a family of subsets of the
n vertices is one Python int of 2^n bits whose bit S is set when the subset
with mask S belongs to it (at most 8 KB at n = 16).  One big-int operation
then acts on all subsets at once: & and | intersect and unite families,
and shifting a family that avoids v left by 2^v adds v to each member.
The one-subset-at-a-time loops of both recurrences are kept in
tests/test_kernels.py (per_vertex_treewidth_dp, loop_pathwidth_dp) as the
readable oracles both values and orders are checked against.
"""

from __future__ import annotations

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


def _check_masks(masks: list[int]) -> int:
    """len(masks), once the masks are known to describe a simple graph on
    at most MAX_VERTICES vertices; checked before any table is sized."""
    n = len(masks)
    if n > MAX_VERTICES:
        raise ValueError(f"kernel supports at most {MAX_VERTICES} vertices")
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
    return n


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
    a component whose Q already exceeds the best value found is skipped.
    Among minimizing vertices the lowest index is chosen.  Returns
    (tree-width, elimination order), (-1, []) for the empty graph.
    """
    n = _check_masks(masks)
    if n == 0:
        return -1, []
    full = (1 << n) - 1
    value = [0] * (full + 1)
    choice = [0] * (full + 1)
    value[0] = -1
    for s in range(1, full + 1):
        best = n
        bestbit = 0
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
            if q > best or (q == best and low > bestbit):
                continue
            while comp:
                b = comp & -comp
                comp ^= b
                cand = value[s ^ b]
                if cand < q:
                    cand = q
                if cand < best or (cand == best and b < bestbit):
                    best = cand
                    bestbit = b
        value[s] = best
        choice[s] = bestbit.bit_length() - 1
    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()
    return value[full], order


def pathwidth_dp(masks: list[int]) -> tuple[int, list[int]]:
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

    The layout is read back from the stored families: from V, repeatedly
    remove the lowest-index v minimising value[S - v].  That minimum never
    rises along the way: the next set S - v has value[S - v] equal to it,
    and value[S - v] is at least the next minimum by the recurrence.  So its
    level k is found by walking down from the last one: k drops while some
    S - v lies in F_{k-1}, and the removed v is the lowest one with S - v
    in F_k.

    A clique, a single edge included, is answered without the families:
    there boundary(S) = |S| for every S but V, so value[S] = |S| and
    value[V] = n - 1, every S - v ties, and the read-back removes 0, 1,
    ..., n - 1 in turn, so the layout places n - 1 first and 0 last.
    Returns (path-width, placement order), (-1, []) for the empty graph.
    """
    n = _check_masks(masks)
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
    return len(families) - 1, order


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
