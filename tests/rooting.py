"""Test helpers for the rooting a tree-decomposition keeps.

A `TreeDecomposition` stores its bags and its rooting alone, and derives its
tree from the rooting.  `TreeDecomposition._rooted` checks nothing, and
`validate` passes a valid decomposition whatever order its parent map lists
the nodes in, but the walks that read the rooting (`unary._steiner_nodes`,
`decomposition._contracted`) need every node after its parent."""

from twpw.decomposition import TreeDecomposition
from twpw.graphs import Graph


def assert_rooting(td):
    """The rooting td keeps is one of a tree over its nodes: every node but
    the root has a parent, listed after the parent's own entry."""
    parent, root = td._parent, td._root
    assert set(parent) == set(td.bags) - {root}
    placed = {root}
    for u, p in parent.items():
        assert p in placed
        placed.add(u)


def path_to_tree(d):
    """View a path-decomposition as a tree-decomposition over a path."""
    tree = Graph(range(len(d.bags)), [(i, i + 1) for i in range(len(d.bags) - 1)])
    return TreeDecomposition(d.host, tree, dict(enumerate(d.bags)))
