import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from twpw.binary import PRODUCT_KINDS
from twpw.decomposition import PathDecomposition, TreeDecomposition, validate
from twpw.errors import ParameterError
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.graphs import Graph, path_graph
from twpw.harness import SplitMix64, random_graph, sample_graph
from twpw.operations import OPCODES, OPERATIONS

README = Path(__file__).resolve().parent.parent / "README.md"


def _listed(paragraph: str) -> list[str]:
    return re.findall(r"`([^`]+)`", " ".join(paragraph.split()))


def test_readme_lists_every_opcode_with_its_arguments():
    text = README.read_text()
    unary = text.split("Unary: ", 1)[1].split("Binary (need", 1)[0]
    binary = text.split("Binary (need `--graph2`): ", 1)[1].split("Product kinds", 1)[0]
    usage = {
        arity: [f"{op.opcode} {op.args}".strip() for op in OPERATIONS
               if op.opcode is not None and op.arity == arity]
        for arity in (1, 2)
    }
    assert _listed(unary) == usage[1]
    assert _listed(binary) == usage[2]


def test_opcodes_and_rows_are_unique():
    opcodes = [op.opcode for op in OPERATIONS if op.opcode is not None]
    rows = [(op.arity, op.row) for op in OPERATIONS if op.row is not None]
    assert len(opcodes) == len(set(opcodes)) == 21
    assert len(rows) == len(set(rows))


def _certificate(g, kind):
    solve = exact_treewidth if kind is TreeDecomposition else exact_pathwidth
    return solve(g).certificate


def _inputs(op, rng):
    """Seeded inputs of a record and the argument tuples to run it with:
    the sweep's draw for sweep rows, every kind for the product, drawn
    vertices for the rest."""
    caps = [6] if op.arity == 1 else [min(6, cap) for cap in op.caps]
    graphs = [sample_graph(rng, caps[0], op.min_n, op.predicate)]
    if op.opcode == "union":
        graphs.append(random_graph(rng, graphs[0].n, 5))
    else:
        graphs += [sample_graph(rng, cap) for cap in caps[1:]]
    if op.opcode == "prod":
        return graphs, [(kind,) for kind in PRODUCT_KINDS]
    if op.row is not None:
        return graphs, [op.pick(rng, *graphs)]
    vs = graphs[0].vertices_sorted()
    return graphs, [tuple(vs[rng.next_below(len(vs))] for _ in op.args.split())]


KINDS = pytest.mark.parametrize("kind", [TreeDecomposition, PathDecomposition],
                                ids=["tree", "path"])


@pytest.mark.parametrize("op", OPERATIONS, ids=lambda op: op.row or op.opcode)
@KINDS
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_carried_decomposition_keeps_its_kind(op, kind, seed):
    """A decomposition comes back, of the kind given, exactly when the
    record says it can carry one."""
    graphs, arg_lists = _inputs(op, SplitMix64(seed))
    certs = [_certificate(g, kind) for g in graphs][: op.decs]
    for args in arg_lists:
        if op.row == "substitute-neighbors" and kind is PathDecomposition:
            with pytest.raises(ParameterError):
                op.op(*graphs, *certs, *args)
        elif op.can_carry(*args):
            res = op.op(*graphs, *certs, *args)
            assert type(res.decomposition) is kind
            assert validate(res.graph, res.decomposition).valid
        else:
            res = op.op(*graphs, *[None] * op.decs, *args)
            assert res.decomposition is None and res.claimed_bound is None
            if op.decs:
                with pytest.raises(ParameterError):
                    op.op(*graphs, *certs, *args)


EMPTY = Graph()
P3 = path_graph(3)


PAIRS = {"empty-empty": [EMPTY, EMPTY], "empty-P3": [EMPTY, P3], "P3-empty": [P3, EMPTY]}


@pytest.mark.parametrize("opcode, graphs, args", [
    pytest.param("addv", [EMPTY], ([],), id="addv"),
    pytest.param("inci", [EMPTY], (), id="inci"),
    pytest.param("power", [EMPTY], (2,), id="power"),
    pytest.param("linegraph", [EMPTY], (), id="linegraph"),
    *(pytest.param(opcode, pair, args, id=f"{opcode}-{name}")
      for opcode, args in (("dunion", ()), ("join", ()), ("prod", ("lexicographic",)))
      for name, pair in PAIRS.items()),
    pytest.param("corona", PAIRS["P3-empty"], (), id="corona-P3-empty"),
])
@KINDS
def test_empty_graph_carries_within_its_claim(opcode, graphs, args, kind):
    """The empty graph's certificate, width -1, goes through every carrying
    record that accepts it into a valid decomposition within the claim."""
    op = OPCODES[opcode]
    certs = [_certificate(g, kind) for g in graphs][: op.decs]
    res = op.op(*graphs, *certs, *args)
    assert validate(res.graph, res.decomposition).valid
    assert max(len(bag) for _, bag in res.decomposition.bag_items()) - 1 <= res.claimed_bound


@KINDS
def test_corona_refuses_an_empty_first_graph(kind):
    certs = [_certificate(g, kind) for g in (EMPTY, P3)]
    with pytest.raises(ParameterError, match="nonempty first graph"):
        OPCODES["corona"].op(EMPTY, P3, *certs)


HOUSE = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4)])


@pytest.mark.parametrize("op", [op for op in OPERATIONS if op.decs],
                         ids=lambda op: op.row or op.opcode)
@KINDS
def test_carrying_operation_rejects_a_foreign_decomposition(op, kind):
    graphs = [HOUSE, path_graph(3)][: op.arity]
    args = op.pick(SplitMix64(0), *graphs)
    certs = [_certificate(g, kind) for g in graphs][: op.decs]
    if op.row != "substitute-neighbors" or kind is TreeDecomposition:
        assert op.op(*graphs, *certs, *args).decomposition is not None
    for i, g in enumerate(graphs[: op.decs]):
        # a decomposition of the same vertices with one edge fewer
        foreign = list(certs)
        foreign[i] = _certificate(Graph(g.vertices, g.edges_sorted()[1:]), kind)
        with pytest.raises(ParameterError, match="must belong to the given graphs"):
            op.op(*graphs, *foreign, *args)
