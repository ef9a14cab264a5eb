"""The operation table: one record per graph operation.

A record says how operation scripts spell the operation, how to run it and
carry decompositions through it, how the sweep samples its inputs, and
which bounds on the tree-width and path-width of the result the sweep
checks.  The command line and the harness both read this table, so adding
an operation means adding its implementation to `unary` or `binary` and
one record here.

Records call operations as ``unary.<name>`` and ``binary.<name>``, looked up
on every call, so a wrapper installed on those modules later sees each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import binary, minors, unary
from .graphs import max_degree
from .results import Result


def _always(*args) -> bool:
    return True


def _no_args(rng, *graphs) -> tuple:
    return ()


@dataclass(frozen=True)
class Operation:
    """One graph operation.

    `args` names the script arguments: u and v are vertex ranks in the
    current graph, w a vertex rank in the second graph, d a count, <kind> a
    word and [v...] any number of vertex ranks (passed on as one list).

    `op(*graphs, *decompositions, *args)` takes the `arity` input graphs,
    then `decs` input decompositions (0: none, 1: the first graph's, 2: one
    per graph; all None or all of one kind), then the arguments, and
    returns a `Result`.  That result carries a decomposition when
    decompositions are given and `can_carry(*args)` holds; `carries` says
    whether the operation can carry for the given arguments.

    Sweep rows (`row` set) sample the first input with at least `min_n`
    vertices satisfying `predicate`; binary rows sample each input with at
    most `caps` vertices.  `pick(rng, *inputs)` then draws the arguments.
    `bound(param, *widths, *inputs, *args)` takes the exact widths of the
    inputs and returns the (upper, lower, relation) bound on the result's
    width for param "tw" or "pw", or None where the sweep claims nothing.
    `label`, formatted with the arguments, names a sample in witness
    transcripts.
    """

    opcode: str | None  # None: a sweep row that scripts cannot spell
    args: str
    op: Callable
    arity: int = 1
    decs: int = 1
    carries: Callable[..., bool] = _always
    row: str | None = None
    label: str = ""
    caps: tuple[int, int] = (8, 8)
    min_n: int = 1
    predicate: Callable | None = None
    pick: Callable = _no_args
    bound: Callable | None = None

    def can_carry(self, *args) -> bool:
        return self.decs > 0 and self.carries(*args)


# --- argument pickers and sample predicates --------------------------------


def _vertex(rng, g, *rest) -> tuple[int]:
    vs = g.vertices_sorted()
    return (vs[rng.next_below(len(vs))],)


def _edge(rng, g) -> tuple[int, int]:
    es = g.edges_sorted()
    return es[rng.next_below(len(es))]


def _distinct_pair(rng, g) -> tuple[int, int]:
    vs = g.vertices_sorted()
    i = rng.next_below(len(vs))
    j = rng.next_below(len(vs) - 1)
    if j >= i:
        j += 1
    return vs[i], vs[j]


def _nonedge(rng, g) -> tuple[int, int]:
    vs = g.vertices_sorted()
    gaps = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1:] if not g.has_edge(u, v)]
    return gaps[rng.next_below(len(gaps))]


def _vertex_subset(rng, g) -> tuple[list[int]]:
    return ([v for v in g.vertices_sorted() if rng.next_below(2) == 1],)


def _minor_steps(rng, g) -> tuple[list[tuple]]:
    """One to three random minor steps, each drawn on the graph so far."""
    steps = []
    h = g
    for _ in range(1 + rng.next_below(3)):
        if h.n <= 1:
            break
        kinds = ["dv"] + (["d", "c"] if h.m else [])
        kind = kinds[rng.next_below(len(kinds))]
        step = (kind, *(_vertex(rng, h) if kind == "dv" else _edge(rng, h)))
        steps.append(step)
        h = minors.apply_minor_script(h, minors.MinorScript((step,)))
    return (steps,)


def _live_vertex(rng, g, g2) -> tuple[int]:
    live = [v for v in g.vertices_sorted() if g.degree(v) > 0]
    return (live[rng.next_below(len(live))],)


def _has_edge(g) -> bool:
    return g.m >= 1


# --- bounds -----------------------------------------------------------------


def _le(upper: int, lower: int) -> tuple[int, int, str]:
    return upper, lower, "<="


def _eq(value: int) -> tuple[int, int, str]:
    return value, value, "=="


def _line_graph_bound(param, k, g):
    # the line graph holds a clique per vertex of positive degree, and a
    # decomposition of it doubles back into one of the base graph, hence
    # the lower bounds max(deg)-1, tw-1 and floor(pw/2)
    dmax = max_degree(g)
    return _le((k + 1) * dmax - 1, max(dmax - 1, k - 1 if param == "tw" else k // 2))


OPERATIONS = (
    # --- unary: vertex and edge surgery
    Operation(
        "delv", "v", lambda g, d, v: unary.delete_vertex(g, v, d),
        row="delete-vertex", label="delete vertex {0}", pick=_vertex,
        bound=lambda p, k, g, v: _le(k, k - 1)),
    Operation(
        "addv", "[v...]", lambda g, d, nbrs: unary.add_vertex(g, nbrs, d=d),
        row="add-vertex", label="add vertex adjacent to {0}", pick=_vertex_subset,
        # a pendant vertex keeps the treewidth at max(k, 1) exactly
        bound=lambda p, k, g, nbrs: (
            _eq(max(k, 1)) if p == "tw" and len(nbrs) == 1 else _le(k + 1, k))),
    Operation(
        "dele", "u v", lambda g, d, u, v: unary.delete_edge(g, u, v, d),
        row="delete-edge", label="delete edge {0} {1}", min_n=2,
        predicate=_has_edge, pick=_edge,
        bound=lambda p, k, g, u, v: _le(k, k - 1)),
    Operation(
        "adde", "u v", lambda g, d, u, v: unary.add_edge(g, u, v, d),
        row="add-edge", label="add edge {0} {1}", min_n=2,
        predicate=lambda h: h.m < h.n * (h.n - 1) // 2, pick=_nonedge,
        bound=lambda p, k, g, u, v: _le(k + 1, k)),
    # --- identification, contraction, subdivision
    Operation(
        "ident", "u v", lambda g, d, u, v: unary.identify_vertices(g, u, v, d),
        row="identify", label="identify {0} {1}", min_n=2, pick=_distinct_pair,
        bound=lambda p, k, g, u, v: _le(k + 1, k - 2)),
    Operation(
        "contract", "u v", lambda g, d, u, v: unary.contract_edge(g, u, v, d),
        row="contract", label="contract {0} {1}", min_n=2,
        predicate=_has_edge, pick=_edge,
        bound=lambda p, k, g, u, v: _le(k, k - 1)),
    Operation(
        "subdiv", "u v", lambda g, d, u, v: unary.subdivide_edge(g, u, v, d),
        row="subdivide", label="subdivide {0} {1}", min_n=2,
        predicate=_has_edge, pick=_edge,
        bound=lambda p, k, g, u, v: _eq(max(k, 1)) if p == "tw" else _le(k + 1, k)),
    # --- incidence graph, powers, line graph
    Operation(
        "inci", "", lambda g, d: unary.incidence_graph(g, d),
        row="incidence", label="incidence graph", min_n=2,
        predicate=lambda h: 1 <= h.m and h.n + h.m <= 16,
        bound=lambda p, k, g: _eq(max(k, 1)) if p == "tw" else _le(k + 1, k)),
    Operation(
        "power", "d", lambda g, d, r: unary.graph_power(g, r, d),
        row="power", label="power {0}", pick=lambda rng, g: (2 + rng.next_below(2),),
        bound=lambda p, k, g, r: _le(
            (k + 1) * (1 + unary.power_degree_bound(g, r)) - 1, k)),
    Operation(
        "linegraph", "", lambda g, d: unary.line_graph(g, d),
        row="linegraph", label="line graph", min_n=2,
        predicate=lambda h: 1 <= h.m <= 16, bound=_line_graph_bound),
    # --- the complement family: no bound in terms of the input width
    Operation("complement", "", lambda g: unary.edge_complement(g), decs=0),
    Operation("localcomp", "v", lambda g, v: unary.local_complement(g, v), decs=0),
    Operation("seidelcomp", "v", lambda g, v: unary.seidel_complement(g, v), decs=0),
    Operation(
        "switch", "v", lambda g, d, v: unary.seidel_switch(g, v, d),
        row="switch", label="switch at {0}", pick=_vertex,
        bound=lambda p, k, g, v: _le(k + 1, k - 1)),
    # --- minors never have larger width
    Operation(
        None, "", lambda g, steps: Result(minors.apply_minor_script(
            g, minors.MinorScript(tuple(steps)))),
        decs=0, row="minor", label="minor script {0!r}", min_n=2, pick=_minor_steps,
        bound=lambda p, k, g, steps: _le(k, -1)),
    # --- binary
    Operation(
        "dunion", "", lambda g1, g2, d1, d2: binary.disjoint_union(g1, g2, d1, d2),
        arity=2, decs=2, row="disjoint-union", label="disjoint union",
        bound=lambda p, k1, k2, g1, g2: _eq(max(k1, k2))),
    Operation(
        "join", "", lambda g1, g2, d1, d2: binary.join(g1, g2, d1, d2),
        arity=2, decs=2, row="join", label="join",
        bound=lambda p, k1, k2, g1, g2: _eq(min(k1 + g2.n, k2 + g1.n))),
    Operation(
        "union", "", lambda g1, g2: binary.union_same_vertices(g1, g2),
        arity=2, decs=0),
    Operation(
        "subst", "v", lambda g1, g2, d1, d2, v: binary.substitute(g1, v, g2, d1, d2),
        arity=2, decs=2, row="substitute", label="substitute at {0}",
        pick=_vertex,
        bound=lambda p, k1, k2, g1, g2, v: _le(
            min(k1 + g2.n, k2 + g1.n) - 1, max(k1 - 1, k2))),
    Operation(
        None, "v", lambda g1, g2, d1, d2, v: binary.substitute(
            g1, v, g2, d1, d2, combiner="neighbors"),
        arity=2, decs=2, row="substitute-neighbors",
        label="substitute (neighbor route) at {0}", min_n=2,
        predicate=_has_edge, pick=_live_vertex,
        # this combiner has no path-decomposition route
        bound=lambda p, k1, k2, g1, g2, v: _le(
            max(k1 - 1, k2) + g1.degree(v), max(k1 - 1, k2)) if p == "tw" else None),
    Operation(
        "prod", "<kind>", lambda g1, g2, d1, kind: binary.product(kind, g1, g2, d1),
        arity=2, carries=lambda kind: kind == "lexicographic",
        row="lexicographic", label="lexicographic product", caps=(4, 4),
        pick=lambda rng, g1, g2: ("lexicographic",),
        bound=lambda p, k1, k2, g1, g2, kind: _le((k1 + 1) * g2.n - 1, max(k1, k2))),
    Operation(
        "onesum", "v w", lambda g1, g2, d1, d2, v, w: binary.one_sum(g1, v, g2, w, d1, d2),
        arity=2, decs=2, row="one-sum", label="one-sum at {0}/{1}",
        pick=lambda rng, g1, g2: _vertex(rng, g1) + _vertex(rng, g2),
        bound=lambda p, k1, k2, g1, g2, v, w: (
            _eq(max(k1, k2)) if p == "tw" else _le(max(k1, k2) + 1, max(k1, k2)))),
    Operation(
        "corona", "", lambda g1, g2, d1, d2: binary.corona(g1, g2, d1, d2),
        arity=2, decs=2, row="corona", label="corona", caps=(3, 4),
        bound=lambda p, k1, k2, g1, g2: _le(
            max(k1, k2) + (1 if p == "tw" else g1.n), max(k1, k2))),
)

OPCODES = {op.opcode: op for op in OPERATIONS if op.opcode is not None}
UNARY_ROWS = tuple(op for op in OPERATIONS if op.row and op.arity == 1)
BINARY_ROWS = tuple(op for op in OPERATIONS if op.row and op.arity == 2)
