"""The validator as it was before it skipped the entry count, frozen as an
oracle.

This form counts every vertex's entry sets with a Counter, reads the bags
in node order and roots each tree at its lowest node by a breadth-first
walk of its own, where the current validator reads the rooting the
decomposition keeps, which need not start at the lowest node.  The two
must return equal ValidationReports on every decomposition.
"""

from collections import Counter
from itertools import chain

from twpw.decomposition import TreeDecomposition, ValidationReport, Violation


def _id_order(v):
    return (0, v) if isinstance(v, int) else (1, repr(v))


def _top_bags(bags, entries, vertices):
    tops = {v: [] for v in vertices}
    for bag, entry in zip(bags, entries):
        for v in entry & vertices:
            tops[v].append(bag)
    return tops


def _check_bags(g, items, tag, root, kids, parents):
    out = []
    hosted = g.vertices
    bag_of = dict(items)
    for u, bag in items:
        if not bag <= hosted:
            out.extend(Violation("bag", (u, v)) for v in sorted(bag - hosted, key=_id_order))
            bag_of[u] = bag & hosted
    bags = [bag_of[root], *map(bag_of.__getitem__, kids)]
    entries = [bags[0], *map(frozenset.__sub__, bags[1:], map(bag_of.__getitem__, parents))]
    entered = Counter(chain.from_iterable(entries))
    top = dict.fromkeys(hosted, frozenset())
    for bag, entry in zip(bags, entries):
        top.update(dict.fromkeys(entry, bag))
    split = {v for v, count in entered.items() if count > 1}
    tops = _top_bags(bags, entries, split) if split else {}
    uncovered = []
    for e in g.edges:
        u, v = e
        if v in top[u] or u in top[v]:
            continue
        if any(v in bag for bag in tops.get(u, ())) or any(u in bag for bag in tops.get(v, ())):
            continue
        uncovered.append(e)
    out.extend(Violation(f"{tag}-1", (v,)) for v in sorted(hosted.difference(entered)))
    out.extend(Violation(f"{tag}-2", e) for e in sorted(uncovered))
    if split:
        out.extend(Violation(f"{tag}-3", (v,)) for v in g.vertices_sorted() if v in split)
    return out


def _lowest_rooted(tree):
    """(root, parent of every other node) for the tree rooted at its lowest
    node, in breadth-first order."""
    adj = tree.adjacency()
    root = min(tree.vertices)
    parent = {root: root}
    walk = [root]
    for u in walk:
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                walk.append(w)
    del parent[root]
    return root, parent


def frozen_validate(g, d):
    items = [(u, d.bags[u]) for u in d.tree.vertices_sorted()] \
        if isinstance(d, TreeDecomposition) else list(enumerate(d.bags))
    if isinstance(d, TreeDecomposition):
        root, parent = _lowest_rooted(d.tree)
        violations = _check_bags(g, items, "tw", root, parent, parent.values())
    else:
        k = len(d.bags)
        violations = _check_bags(g, items, "pw", 0, range(1, k), range(k - 1))
    return ValidationReport(not violations, tuple(violations))
