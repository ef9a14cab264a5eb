import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from twpw.decomposition import PathDecomposition, TreeDecomposition, validate
from twpw.errors import ParameterError
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.harness import SplitMix64, sample_graph
from twpw.operations import OPERATIONS

README = Path(__file__).resolve().parent.parent / "README.md"


def _listed(paragraph: str) -> list[str]:
    return re.findall(r"`([^`]+)`", " ".join(paragraph.split()))


def test_readme_lists_every_opcode_with_its_arguments():
    text = README.read_text()
    unary = text.split("Unary: ", 1)[1].split("Binary (need", 1)[0]
    binary = text.split("Binary (need `--graph2`): ", 1)[1].split("Product kinds", 1)[0]
    usage = {
        kind: [f"{op.opcode} {op.args}".strip() for op in OPERATIONS
               if op.opcode is not None and op.binary == kind]
        for kind in (False, True)
    }
    assert _listed(unary) == usage[False]
    assert _listed(binary) == usage[True]


def test_opcodes_and_rows_are_unique():
    opcodes = [op.opcode for op in OPERATIONS if op.opcode is not None]
    rows = [(op.binary, op.row) for op in OPERATIONS if op.row is not None]
    assert len(opcodes) == len(set(opcodes)) == 21
    assert len(rows) == len(set(rows))


SWEPT = [op for op in OPERATIONS if op.row is not None]


def _certificate(g, kind):
    solve = exact_treewidth if kind is TreeDecomposition else exact_pathwidth
    return solve(g).certificate


@pytest.mark.parametrize("op", SWEPT, ids=lambda op: op.row)
@pytest.mark.parametrize("kind", [TreeDecomposition, PathDecomposition],
                         ids=["tree", "path"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_carried_decomposition_keeps_its_kind(op, kind, seed):
    rng = SplitMix64(seed)
    if not op.binary:
        g = sample_graph(rng, 6, op.min_n, op.predicate)
        args = op.pick(rng, g)
        if not op.can_carry(*args):
            return
        carried = op.transform(_certificate(g, kind), *args).decomposition
    else:
        g = sample_graph(rng, min(6, op.caps[0]), op.min_n, op.predicate)
        g2 = sample_graph(rng, min(6, op.caps[1]))
        args = op.pick(rng, g, g2)
        if not op.can_carry(*args):
            return
        d1, d2 = _certificate(g, kind), _certificate(g2, kind)
        if op.row == "substitute-neighbors" and kind is PathDecomposition:
            with pytest.raises(ParameterError):
                op.op(g, g2, d1, d2, *args)
            return
        carried = op.op(g, g2, d1, d2, *args).decomposition.decomposition
    assert type(carried) is kind
    assert validate(carried.host, carried).valid
