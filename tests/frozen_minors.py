"""Minor-script replay as it was when each step built a whole Graph
through the unary operations, frozen as the oracle for the replay over one
map of neighbor sets.  The current replay must leave the same graph, or
raise a ScriptError with the same message and step, on every script.
Nothing here imports from twpw.minors, so a rewrite of its helpers cannot
change both sides of a differential test.
"""

from twpw import unary
from twpw.errors import ParameterError, ScriptError


def frozen_improve(g, u, v, value):
    improved = unary.add_edge(g, u, v).graph
    common = len(g.neighbors(u) & g.neighbors(v))
    if common < value:
        raise ParameterError(
            f"vertices {u} and {v} have {common} common neighbors, fewer than {value}"
        )
    return improved


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
                cur = unary.delete_edge(cur, step[1], step[2]).graph
            elif step[0] == "c":
                cur = unary.contract_edge(cur, step[1], step[2]).graph
            elif step[0] == "dv":
                cur = unary.delete_vertex(cur, step[1]).graph
            else:
                raise ParameterError(f"unknown minor step {step!r}")
        except ParameterError as exc:
            raise ScriptError(str(exc), step=i) from exc
    return cur
