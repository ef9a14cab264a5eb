"""Golden outputs of the sweep and of every script opcode.

The values below were recorded from the per-operation code that preceded
the operation table, so any change to a bound, to the order of random
draws, to a written file or to an error message shows up here, even where
TAP would still read ``ok``.
"""

import hashlib

import pytest

from twpw import exact, kernels
from twpw.binary import PRODUCT_KINDS
from twpw.cli import main
from twpw.errors import ParameterError
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.fileformats import format_gr, format_td
from twpw.graphs import Graph, path_graph
from twpw.harness import (
    SUITES, SplitMix64, SweepConfig, random_graph, run_suite, sample_graph,
)
from twpw.minors import format_minor_script
from twpw.operations import OPERATIONS

# recorded with the power degree bound clamped at d = n - 1 for Delta = 2,
# which sets the claimed bound of unary/power/{tw,pw}/s008 (3 vertices,
# d = 3) to 9
SWEEP_CHECKS_SHA256 = (
    "8574d4f6b81eb94a25f204daeb5f6443a4055246a30b4b9c5fd9a45123c1c133"
)
SWEEP_TAP_SHA256 = (
    "3aca313ede8c3923d3a9a024ba064c69e3d34e16eb52ee05607be6452035ee3b"
)
# the full sweep, `harness run --suite all --max-n 8 --samples 200 --seed 1`
FULL_SWEEP_TAP_SHA256 = (
    "3d2927ee0bc6adb3bf87cb006928caa8587f77143ca1c536ade0bdfe783956b4"
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


# carried decompositions of every record that can carry: four seeded
# samples per record within its caps, min_n and predicate (products of
# every kind), with tree and with path certificates; recorded while each
# unary operation and its decomposition transformer were still two
# functions, and again when the certificate builders stopped writing bags
# nested in a neighbor's (every graph, claim and error unchanged, every
# carried decomposition valid; only .td text moved), and when the
# path-width kernel began at the minor-min-width bound (5 of 192 records
# changed, each only in the .td text of a decomposition carried from a
# path-width certificate, every one valid at its old width)
CARRIED_SHA256 = (
    "fc555e9abc8c19437f4232b39ec47c603efcb619e73c417a426c6ccc03066de6"
)


def _carry_cases(op, rng):
    caps = [6] if op.arity == 1 else [min(6, cap) for cap in op.caps]
    graphs = [sample_graph(rng, caps[0], op.min_n, op.predicate)]
    graphs += [sample_graph(rng, cap) for cap in caps[1:]]
    if op.opcode == "prod":
        return graphs, [(kind,) for kind in PRODUCT_KINDS]
    return graphs, [op.pick(rng, *graphs)]


def test_carried_decompositions():
    digest = hashlib.sha256()
    for index, op in enumerate(OPERATIONS):
        if op.decs == 0:
            continue
        rng = SplitMix64(index)
        for _ in range(4):
            graphs, arg_lists = _carry_cases(op, rng)
            for solve in (exact_treewidth, exact_pathwidth):
                certs = [solve(g).certificate for g in graphs][: op.decs]
                for args in arg_lists:
                    decs = certs if op.can_carry(*args) else [None] * op.decs
                    try:
                        res = op.op(*graphs, *decs, *args)
                    except ParameterError as exc:
                        digest.update(repr((index, solve.__name__, args, str(exc))).encode())
                        continue
                    dec = res.decomposition
                    digest.update(repr((
                        index, solve.__name__, args, format_gr(res.graph),
                        None if dec is None else format_td(dec), res.claimed_bound,
                    )).encode())
    assert digest.hexdigest() == CARRIED_SHA256


# both solvers at the sizes the solver layer bounds: per graph the tw value,
# its certificate, its lower witness (or "-"), the pw value and its
# certificate, over G(n, p) draws for n = 9..14, p = 0.2, 0.5, 0.8 and
# seeds 1..4; recorded before the bounds and the path-width kernel were
# rewritten for speed, and again when the lower bound began to improve the
# graph after every contraction (all 72 tw and pw values unchanged; one tw
# certificate and five witnesses changed, and 41 graphs carry a witness
# instead of 40), and when the certificate builders stopped writing bags
# nested in a neighbor's (every value and witness unchanged; every
# certificate smaller and valid), and when the peel began to shrink the
# components the bounds leave unsettled (all 72 tw and pw values
# unchanged; 13 witnesses added: 11 graphs the peel removes whole, 2 with
# a component it removes whole; 4 kernel-decided tw certificates changed,
# all valid; every other record unchanged), and when the path-width kernel
# began at the minor-min-width bound (38 of 72 records changed, each only
# in its pw certificate, whose layout breaks ties differently below that
# bound; every value, tw certificate and witness unchanged)
SOLVER_OUTPUTS_SHA256 = (
    "88ea90fd1ed499088179713739258ac10a6b3c78b6e97898dfe15a06839ec022"
)


def test_solver_outputs_at_solve_sizes():
    digest = hashlib.sha256()
    witnesses = 0
    for seed in range(1, 5):
        for n in range(9, 15):
            for p in (2, 5, 8):
                g = random_graph(SplitMix64(seed), n, p)
                tw, pw = exact_treewidth(g), exact_pathwidth(g)
                witness = "-"
                if tw.lower_witness is not None:
                    witness = format_minor_script(tw.lower_witness)
                    witnesses += 1
                digest.update(repr((
                    seed, n, p, tw.value, format_td(tw.certificate), witness,
                    pw.value, format_td(pw.certificate),
                )).encode())
    assert witnesses
    assert digest.hexdigest() == SOLVER_OUTPUTS_SHA256


def _sweep_tap_sha(tmp_path, capsys, samples):
    code = main(["harness", "run", "--suite", "all", "--max-n", "8",
                 "--samples", str(samples), "--seed", "1", "--witness-dir", str(tmp_path)])
    assert code == 0
    return _sha(capsys.readouterr().out)


def test_sweep_tap(tmp_path, capsys):
    assert _sweep_tap_sha(tmp_path, capsys, 10) == SWEEP_TAP_SHA256


def test_full_sweep_tap(tmp_path, capsys, monkeypatch):
    """The TAP, and the solver path it cannot show: how often min-fill and
    the tree-width kernel ran on components of at least 9 vertices.  The
    kernel count fell from 34 to 30 when the peel began to shrink the
    components the bounds leave unsettled: it removes four of them whole."""
    sizes = {"min-fill": [], "kernel": []}
    min_fill, treewidth_dp = exact._min_fill, kernels.treewidth_dp

    def spy_min_fill(masks):
        sizes["min-fill"].append(len(masks))
        return min_fill(masks)

    def spy_treewidth_dp(masks):
        sizes["kernel"].append(len(masks))
        return treewidth_dp(masks)

    monkeypatch.setattr(exact, "_min_fill", spy_min_fill)
    monkeypatch.setattr(kernels, "treewidth_dp", spy_treewidth_dp)
    assert _sweep_tap_sha(tmp_path, capsys, 200) == FULL_SWEEP_TAP_SHA256
    assert [sum(n >= 9 for n in sizes[name]) for name in ("min-fill", "kernel")] == [344, 30]


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


# the out.td digests of the 17 carrying scripts were re-recorded when the
# certificate builders stopped writing bags nested in a neighbor's; every
# exit code, stdout, stderr and out.gr digest stayed as recorded
EXPECTED = {
    'delv 2': [
        '0|||ec6525de3b669e63|-',
        '0|claimed 2||ec6525de3b669e63|c9b87d98b8499613',
        '0|claimed 2||ec6525de3b669e63|2224531f9172c0ce',
    ],
    'addv 1 3': [
        '0|||53d5f45b773913de|-',
        '0|claimed 3||53d5f45b773913de|e51d83b55cec40e6',
        '0|claimed 3||53d5f45b773913de|db3f00b00a94710d',
    ],
    'dele 1 2': [
        '0|||e6705ef014d71a98|-',
        '0|claimed 2||e6705ef014d71a98|d4d5d2d1af7f91c8',
        '0|claimed 2||e6705ef014d71a98|4a9cf35805098921',
    ],
    'adde 1 3': [
        '0|||c5d4b2cac9927293|-',
        '0|claimed 3||c5d4b2cac9927293|d4d5d2d1af7f91c8',
        '0|claimed 3||c5d4b2cac9927293|6d142459df2af8a8',
    ],
    'ident 1 3': [
        '0|||4d64de0079d59141|-',
        '0|claimed 3||4d64de0079d59141|ce367295b41387bc',
        '0|claimed 3||4d64de0079d59141|600162539e45df84',
    ],
    'contract 1 2': [
        '0|||65c959f8c413e90a|-',
        '0|claimed 2||65c959f8c413e90a|374710caf0521adb',
        '0|claimed 2||65c959f8c413e90a|2399a344f7b50592',
    ],
    'subdiv 1 2': [
        '0|||e9c77de49f44d4bc|-',
        '0|claimed 2||e9c77de49f44d4bc|415cf33ce1b1e7ef',
        '0|claimed 3||e9c77de49f44d4bc|246c650e7336c824',
    ],
    'inci': [
        '0|||c38e5681f10cb8e7|-',
        '0|claimed 2||c38e5681f10cb8e7|e2908c9ecb394f77',
        '0|claimed 3||c38e5681f10cb8e7|69a5ae2fe30579b8',
    ],
    'power 2': [
        '0|||331f0ef41a2044f9|-',
        '0|claimed 29||331f0ef41a2044f9|b97eb8d44cfac0a6',
        '0|claimed 29||331f0ef41a2044f9|b97eb8d44cfac0a6',
    ],
    'linegraph': [
        '0|||2ed6cc6e51414472|-',
        '0|claimed 8||2ed6cc6e51414472|4a3b384f36ff1196',
        '0|claimed 8||2ed6cc6e51414472|36adf569025811a8',
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
        '0|claimed 3||d7f9f3e0793c0b71|2536ddb88f296a4d',
        '0|claimed 3||d7f9f3e0793c0b71|0dcad86cefbc90f7',
    ],
    'dunion': [
        '0|||a9a8e632237d94b6|-',
        '0|claimed 2||a9a8e632237d94b6|11f60d7ebfc847c6',
        '0|claimed 2||a9a8e632237d94b6|c8a167420526bc3a',
    ],
    'join': [
        '0|||5f44cae8521b1f86|-',
        '0|claimed 5||5f44cae8521b1f86|275ddac9a32b6d99',
        '0|claimed 5||5f44cae8521b1f86|85b33cd3a76ba739',
    ],
    'union': [
        '0|||a1ddf449f8a4f66f|-',
        '2||error: line 1: union has no decomposition transformer; drop --carry or split the pipeline|-|-',
        '2||error: line 1: union has no decomposition transformer; drop --carry or split the pipeline|-|-',
    ],
    'subst 2': [
        '0|||7ad74b4bb49e51fa|-',
        '0|claimed 4||7ad74b4bb49e51fa|614cda65f4a5e4bc',
        '0|claimed 4||7ad74b4bb49e51fa|666b1e42c0db3a7a',
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
        '0|claimed 8||ac003c6859c70ad8|dd5788f343b2be75',
        '0|claimed 8||ac003c6859c70ad8|b65613172f988fa3',
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
        '0|claimed 2||547e5fdd8e899359|9144f81c46779f6e',
        '0|claimed 2||547e5fdd8e899359|a15436d4bf182971',
    ],
    'corona': [
        '0|||8568300f9bf3e992|-',
        '0|claimed 3||8568300f9bf3e992|6fd1713761c416a5',
        '0|claimed 7||8568300f9bf3e992|1932ec93c943b9da',
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
