"""Pure-Python subset dynamic programming kernels.

Both kernels take a dense adjacency-mask list (bit j of masks[i] set when
vertices i and j are adjacent) and return the exact parameter value plus an
optimal vertex ordering as index lists.  The compiled extension in
_speedups.pyx implements the same contract: for every input both backends
must return the same value and the same order.
"""

from __future__ import annotations


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
    Among minimizing vertices the lowest index is chosen, the choice the
    compiled kernel's ascending scan with strict < makes, so both backends
    return the same order.  masks must be symmetric.  Returns (tree-width,
    elimination order), (-1, []) for the empty graph.
    """
    n = len(masks)
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

    value[S] = max(boundary(S), min over v in S of value[S - v]) where
    boundary(S) counts vertices of S with a neighbor outside S; the vertex
    separation number value[V] equals the path-width.  Returns
    (path-width, placement order), (-1, []) for the empty graph.
    """
    n = len(masks)
    if n == 0:
        return -1, []
    full = (1 << n) - 1
    value = [0] * (full + 1)
    choice = [0] * (full + 1)
    for s in range(1, full + 1):
        boundary = 0
        best = n
        bestv = -1
        t = s
        while t:
            low = t & -t
            v = low.bit_length() - 1
            t ^= low
            if masks[v] & ~s:
                boundary += 1
            cand = value[s ^ low]
            if cand < best:
                best = cand
                bestv = v
        value[s] = boundary if boundary > best else best
        choice[s] = bestv
    order = []
    s = full
    while s:
        v = choice[s]
        order.append(v)
        s ^= 1 << v
    order.reverse()
    return value[full], order
