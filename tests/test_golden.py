"""Golden outputs of the sweep and of every script opcode.

The values below were recorded from the per-operation code that preceded
the operation table, so any change to a bound, to the order of random
draws, to a written file or to an error message shows up here, even where
TAP would still read ``ok``.
"""

import hashlib

import pytest

from twpw.binary import PRODUCT_KINDS
from twpw.cli import main
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.fileformats import format_gr, format_td
from twpw.graphs import Graph, path_graph
from twpw.harness import SUITES, SweepConfig, run_suite

SWEEP_CHECKS_SHA256 = (
    "9ff157346714f0ff1e06a7359ff7edd40a5cce2e15fb4b290d59d2905beb6de3"
)
SWEEP_TAP_SHA256 = (
    "3aca313ede8c3923d3a9a024ba064c69e3d34e16eb52ee05607be6452035ee3b"
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_sweep_check_values(tmp_path):
    cfg = SweepConfig(max_n=8, samples=10, seed=1)
    lines = []
    for suite in SUITES:
        for c in run_suite(suite, cfg, tmp_path):
            lines.append(repr((c.name, c.lhs, c.rhs, c.relation, c.passed, c.detail)))
    assert _sha("\n".join(lines)) == SWEEP_CHECKS_SHA256


def test_sweep_tap(tmp_path, capsys):
    code = main(["harness", "run", "--suite", "all", "--max-n", "8",
                 "--samples", "10", "--seed", "1", "--witness-dir", str(tmp_path)])
    assert code == 0
    assert _sha(capsys.readouterr().out) == SWEEP_TAP_SHA256


# a 4-cycle 0-1-2-3 with a roof vertex 4 over the edge 2-3
HOUSE = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (3, 4)])
P3 = path_graph(3)
P5 = path_graph(5)

# script -> second graph; every opcode appears, prod with every kind
SCRIPTS = {
    "delv 2": None,
    "addv 1 3": None,
    "dele 1 2": None,
    "adde 1 3": None,
    "ident 1 3": None,
    "contract 1 2": None,
    "subdiv 1 2": None,
    "inci": None,
    "power 2": None,
    "linegraph": None,
    "complement": None,
    "localcomp 3": None,
    "seidelcomp 3": None,
    "switch 2": None,
    "dunion": P3,
    "join": P3,
    "union": P5,
    "subst 2": P3,
    **{f"prod {kind}": P3 for kind in PRODUCT_KINDS},
    "onesum 2 3": P3,
    "corona": P3,
}


def _run(tmp_path, capsys, script, g2, kind):
    """Exit code, stdout, stderr and digests of the written files, as one line."""
    for leftover in ("out.gr", "out.td"):
        (tmp_path / leftover).unlink(missing_ok=True)
    (tmp_path / "g.gr").write_text(format_gr(HOUSE))
    (tmp_path / "s.ops").write_text(script + "\n")
    argv = ["apply", str(tmp_path / "g.gr"), str(tmp_path / "s.ops"),
            str(tmp_path / "out.gr")]
    if g2 is not None:
        (tmp_path / "h.gr").write_text(format_gr(g2))
        argv += ["--graph2", str(tmp_path / "h.gr")]
    if kind is not None:
        solve = exact_treewidth if kind == "tree" else exact_pathwidth
        (tmp_path / "in.td").write_text(format_td(solve(HOUSE).certificate))
        argv += ["--carry", str(tmp_path / "in.td"), "--kind", kind,
                 "--carry-out", str(tmp_path / "out.td")]
    code = main(argv)
    out, err = capsys.readouterr()
    files = [
        _sha((tmp_path / name).read_text())[:16] if (tmp_path / name).exists() else "-"
        for name in ("out.gr", "out.td")
    ]
    return f"{code}|{out.strip()}|{err.strip()}|{files[0]}|{files[1]}"


EXPECTED = {
    'delv 2': [
        '0|||ec6525de3b669e63|-',
        '0|claimed 2||ec6525de3b669e63|5d35915ea2cb9691',
        '0|claimed 2||ec6525de3b669e63|30f2ac1e4b67b96c',
    ],
    'addv 1 3': [
        '0|||53d5f45b773913de|-',
        '0|claimed 3||53d5f45b773913de|39d7b45344ca5223',
        '0|claimed 3||53d5f45b773913de|a05473515d21f989',
    ],
    'dele 1 2': [
        '0|||e6705ef014d71a98|-',
        '0|claimed 2||e6705ef014d71a98|7ba595e72d90a92f',
        '0|claimed 2||e6705ef014d71a98|c7f087fddcf86b77',
    ],
    'adde 1 3': [
        '0|||c5d4b2cac9927293|-',
        '0|claimed 3||c5d4b2cac9927293|71053f2ec014dc22',
        '0|claimed 3||c5d4b2cac9927293|aabdea63322abf0b',
    ],
    'ident 1 3': [
        '0|||4d64de0079d59141|-',
        '0|claimed 3||4d64de0079d59141|f5b03e10f0da6a8d',
        '0|claimed 3||4d64de0079d59141|4b07b16ed3e79e67',
    ],
    'contract 1 2': [
        '0|||65c959f8c413e90a|-',
        '0|claimed 2||65c959f8c413e90a|c04b707f71e624a1',
        '0|claimed 2||65c959f8c413e90a|0aaef079aec61ee2',
    ],
    'subdiv 1 2': [
        '0|||e9c77de49f44d4bc|-',
        '0|claimed 2||e9c77de49f44d4bc|50b45c34698d661c',
        '0|claimed 3||e9c77de49f44d4bc|3406d36646ef5f56',
    ],
    'inci': [
        '0|||c38e5681f10cb8e7|-',
        '0|claimed 2||c38e5681f10cb8e7|4f1ba3e79ed4d196',
        '0|claimed 3||c38e5681f10cb8e7|08e151718fab7181',
    ],
    'power 2': [
        '0|||331f0ef41a2044f9|-',
        '0|claimed 29||331f0ef41a2044f9|00bee629ed949b26',
        '0|claimed 29||331f0ef41a2044f9|00bee629ed949b26',
    ],
    'linegraph': [
        '0|||2ed6cc6e51414472|-',
        '0|claimed 8||2ed6cc6e51414472|e4608673b718621b',
        '0|claimed 8||2ed6cc6e51414472|5183434d6bb4debb',
    ],
    'complement': [
        '0|||68977b33504ec298|-',
        '2||error: line 1: complement has no decomposition transformer; drop --carry or split the pipeline|-|-',
        '2||error: line 1: complement has no decomposition transformer; drop --carry or split the pipeline|-|-',
    ],
    'localcomp 3': [
        '0|||1ff035224b9b7b14|-',
        '2||error: line 1: localcomp has no decomposition transformer; drop --carry or split the pipeline|-|-',
        '2||error: line 1: localcomp has no decomposition transformer; drop --carry or split the pipeline|-|-',
    ],
    'seidelcomp 3': [
        '0|||bad4a73278e62ad4|-',
        '2||error: line 1: seidelcomp has no decomposition transformer; drop --carry or split the pipeline|-|-',
        '2||error: line 1: seidelcomp has no decomposition transformer; drop --carry or split the pipeline|-|-',
    ],
    'switch 2': [
        '0|||d7f9f3e0793c0b71|-',
        '0|claimed 3||d7f9f3e0793c0b71|1cecfa811cb3f20e',
        '0|claimed 3||d7f9f3e0793c0b71|773c1d73448ffa45',
    ],
    'dunion': [
        '0|||a9a8e632237d94b6|-',
        '0|claimed 2||a9a8e632237d94b6|41c7aca5cca82afb',
        '0|claimed 2||a9a8e632237d94b6|181942c568aba87a',
    ],
    'join': [
        '0|||5f44cae8521b1f86|-',
        '0|claimed 5||5f44cae8521b1f86|c6901ead6a128ce8',
        '0|claimed 5||5f44cae8521b1f86|5b9d746d541078f9',
    ],
    'union': [
        '0|||a1ddf449f8a4f66f|-',
        '2||error: line 1: union has no decomposition transformer; drop --carry or split the pipeline|-|-',
        '2||error: line 1: union has no decomposition transformer; drop --carry or split the pipeline|-|-',
    ],
    'subst 2': [
        '0|||7ad74b4bb49e51fa|-',
        '0|claimed 4||7ad74b4bb49e51fa|0faf8245e7b52bca',
        '0|claimed 4||7ad74b4bb49e51fa|88342295e3143739',
    ],
    'prod cartesian': [
        '0|||f0d211ac3217cd04|-',
        '2||error: line 1: prod cartesian has no decomposition transformer; drop --carry or split the pipeline|-|-',
        '2||error: line 1: prod cartesian has no decomposition transformer; drop --carry or split the pipeline|-|-',
    ],
    'prod categorical': [
        '0|||da7d876e5777f73f|-',
        '2||error: line 1: prod categorical has no decomposition transformer; drop --carry or split the pipeline|-|-',
        '2||error: line 1: prod categorical has no decomposition transformer; drop --carry or split the pipeline|-|-',
    ],
    'prod conormal': [
        '0|||2aac71d24792b0fc|-',
        '2||error: line 1: prod conormal has no decomposition transformer; drop --carry or split the pipeline|-|-',
        '2||error: line 1: prod conormal has no decomposition transformer; drop --carry or split the pipeline|-|-',
    ],
    'prod lexicographic': [
        '0|||ac003c6859c70ad8|-',
        '0|claimed 8||ac003c6859c70ad8|10ee00aec0e63c60',
        '0|claimed 8||ac003c6859c70ad8|523508c120d34205',
    ],
    'prod normal': [
        '0|||057331345d5fdf75|-',
        '2||error: line 1: prod normal has no decomposition transformer; drop --carry or split the pipeline|-|-',
        '2||error: line 1: prod normal has no decomposition transformer; drop --carry or split the pipeline|-|-',
    ],
    'prod symmetric-difference': [
        '0|||f6421e88a1046260|-',
        '2||error: line 1: prod symmetric-difference has no decomposition transformer; drop --carry or split the pipeline|-|-',
        '2||error: line 1: prod symmetric-difference has no decomposition transformer; drop --carry or split the pipeline|-|-',
    ],
    'prod rejection': [
        '0|||edb87537d829f13e|-',
        '2||error: line 1: prod rejection has no decomposition transformer; drop --carry or split the pipeline|-|-',
        '2||error: line 1: prod rejection has no decomposition transformer; drop --carry or split the pipeline|-|-',
    ],
    'onesum 2 3': [
        '0|||547e5fdd8e899359|-',
        '0|claimed 2||547e5fdd8e899359|36414e2a7e1043f2',
        '0|claimed 2||547e5fdd8e899359|79dfd057fcb1794f',
    ],
    'corona': [
        '0|||8568300f9bf3e992|-',
        '0|claimed 3||8568300f9bf3e992|7b58a78108783034',
        '0|claimed 7||8568300f9bf3e992|74250444e38d273e',
    ],
}


@pytest.mark.parametrize("script", list(SCRIPTS))
def test_apply_every_opcode(tmp_path, capsys, script):
    got = [_run(tmp_path, capsys, script, SCRIPTS[script], kind)
           for kind in (None, "tree", "path")]
    assert got == EXPECTED[script]


# script, second graph, carried kind -> the error the run ends in
ERRORS = [
    ("explode 3", None, None),
    ("subdiv 3", None, None),
    ("prod", P3, None),
    ("delv x1", None, None),
    ("delv 9", None, None),
    ("join", None, None),
    ("onesum 1 9", P3, "tree"),
    ("adde 1 2", None, None),
    ("power 0", None, "path"),
    ("localcomp 9", None, "tree"),
    ("prod foo", P3, None),
    ("prod foo", P3, "tree"),
    ("union", P3, None),
    ("subst 9", P3, "tree"),
]

ERROR_EXPECTED = {
    ('explode 3', None):
        "2||error: line 1: unknown operation 'explode'|-|-",
    ('subdiv 3', None):
        '2||error: line 1: subdiv takes 2 argument(s)|-|-',
    ('prod', None):
        '2||error: line 1: prod takes one argument|-|-',
    ('delv x1', None):
        "2||error: line 1: bad argument 'x1'|-|-",
    ('delv 9', None):
        '2||error: line 1: vertex rank 9 out of range 1..5|-|-',
    ('join', None):
        '2||error: line 1: join needs --graph2|-|-',
    ('onesum 1 9', 'tree'):
        '2||error: line 1: vertex rank 9 out of range 1..3|-|-',
    ('adde 1 2', None):
        '2||error: line 1: edge (0, 1) already present|-|-',
    ('power 0', 'path'):
        '2||error: line 1: power needs d >= 1|-|-',
    ('localcomp 9', 'tree'):
        '2||error: line 1: vertex rank 9 out of range 1..5|-|-',
    ('prod foo', None):
        "2||error: line 1: unknown product kind 'foo'|-|-",
    ('prod foo', 'tree'):
        '2||error: line 1: prod foo has no decomposition transformer; drop --carry or split the pipeline|-|-',
    ('union', None):
        '2||error: line 1: edge union needs identical vertex sets|-|-',
    ('subst 9', 'tree'):
        '2||error: line 1: vertex rank 9 out of range 1..5|-|-',
}


@pytest.mark.parametrize("case", ERRORS, ids=lambda c: f"{c[0]}-{c[2]}")
def test_script_errors(tmp_path, capsys, case):
    script, g2, kind = case
    assert _run(tmp_path, capsys, script, g2, kind) == ERROR_EXPECTED[case[0], kind]
