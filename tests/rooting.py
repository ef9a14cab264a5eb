"""The check that a tree-decomposition's kept rooting fits its tree.

`TreeDecomposition._rooted` checks nothing, and `validate` passes a valid
decomposition whatever order its parent map lists the nodes in, but the
walks that read the rooting (`unary._steiner_nodes`) need every node after
its parent."""


def assert_rooting(td):
    """The rooting td keeps is one of its tree: every node but the root has
    a parent across a tree edge, listed after the parent's own entry."""
    parent, root = td._parent, td._root
    assert set(parent) == td.tree.vertices - {root}
    assert {(u, p) if u < p else (p, u) for u, p in parent.items()} == td.tree.edges
    placed = {root}
    for u, p in parent.items():
        assert p in placed
        placed.add(u)
