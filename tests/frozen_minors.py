"""Minor-script replay as it was when each step built a whole Graph, frozen
as the oracle for the replay over one map of neighbor sets.  The current
replay must leave the same graph, or raise a ScriptError with the same
message and step, on every script.

The steps below are the whole-graph operations the replay once called,
with their checks and messages; a contraction fuses through
frozen_carriers._merge.  Nothing here imports from twpw.unary, twpw.minors
or the minor steps of twpw.graphs, so a rewrite of those cannot change
both sides of a differential test.
"""

from frozen_carriers import _merge
from twpw.errors import ParameterError, ScriptError
from twpw.graphs import Graph


def _require_vertex(g, v):
    if not g.has_vertex(v):
        raise ParameterError(f"vertex {v} not in graph")


def _require_edge(g, u, v):
    if not g.has_edge(u, v):
        raise ParameterError(f"edge ({u}, {v}) not in graph")


def frozen_delete_vertex(g, v):
    _require_vertex(g, v)
    return Graph(g.vertices - {v}, [e for e in g.edges if v not in e])


def frozen_delete_edge(g, u, v):
    _require_edge(g, u, v)
    return Graph(g.vertices, [e for e in g.edges if e != ((u, v) if u < v else (v, u))])


def frozen_contract_edge(g, u, v):
    _require_edge(g, u, v)
    return _merge(g, u, v)[0]


def frozen_improve(g, u, v, value):
    _require_vertex(g, u)
    _require_vertex(g, v)
    if u == v:
        raise ParameterError("cannot add a loop")
    if g.has_edge(u, v):
        raise ParameterError(f"edge ({u}, {v}) already present")
    common = len(g.neighbors(u) & g.neighbors(v))
    if common < value:
        raise ParameterError(
            f"vertices {u} and {v} have {common} common neighbors, fewer than {value}"
        )
    return Graph(g.vertices, [*g.edges, (u, v)])


def frozen_replay(g, script, value):
    """Replay script from g; edge additions are checked against value, and
    refused when value is None (apply_minor_script)."""
    cur = g
    for i, step in enumerate(script.steps, start=1):
        try:
            if step[0] == "a":
                if value is None:
                    raise ParameterError("an edge addition is not a minor step")
                cur = frozen_improve(cur, step[1], step[2], value)
            elif step[0] == "d":
                cur = frozen_delete_edge(cur, step[1], step[2])
            elif step[0] == "c":
                cur = frozen_contract_edge(cur, step[1], step[2])
            elif step[0] == "dv":
                cur = frozen_delete_vertex(cur, step[1])
            else:
                raise ParameterError(f"unknown minor step {step!r}")
        except ParameterError as exc:
            raise ScriptError(str(exc), step=i) from exc
    return cur
