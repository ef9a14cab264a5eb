import re
from pathlib import Path

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
