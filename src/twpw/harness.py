"""Randomized sweeps that re-check every proven bound against the solvers.

Sampling is bit-reproducible: a splitmix64 generator drives every draw.
Graphs are Erdos-Renyi with n uniform in min_n..max_n, edge probability
uniform over {0.2, 0.5, 0.8} (an edge exists when the next 64-bit draw is
below floor(p * 2^64)), vertex pairs scanned in lexicographic order.  Each
table row draws from its own generator seeded with cfg.seed + its index
among the unary or the binary rows of the operation table, so rows can be
re-run independently of one another.

A failing check serializes its inputs and an operation transcript under the
witness directory; the TAP line points at the bundle.

Every graph a sweep checks is solved for both widths and both certificates
(`_solve`).  The suites of one run share a `SolveTable` of those results,
which `cli.cmd_harness` makes per `harness run` and drops when the run
returns; `run_suite` called without one makes its own.  Samples repeat:
the relations, ng and logbound suites draw the same stream, unary and
binary row 0 start from the same seed, and small graphs recur within a
row.  In the 200-sample run 55% of the solver calls repeat a graph already
solved, and 82% of the time those repeats take is on graphs of at most 5
vertices.  So the table keeps only graphs of at most TABLE_MAX_VERTICES
vertices, and at most TABLE_MAX_ENTRIES of them, the first ones met: its
size does not grow with the sample count.  A table of every graph raised
the 200-sample run's peak RSS from 25.5 to 77.8 MB and saved no wall
time.  An entry's certificates passed `validate` when they were first
built, and the solvers are functions of the graph, so every width,
certificate and TAP line is the one a fresh solve gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from . import unary
from .decomposition import tree_to_path, validate, width
from .errors import CapabilityError, ParameterError
from .exact import exact_pathwidth, exact_treewidth
from .fileformats import format_gr, format_td
from .graphs import Graph
from .invariants import graph_invariants
from .operations import BINARY_ROWS, UNARY_ROWS

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# the sweep ties together the exact solvers (guard 16) and the invariant
# routines (guard 12); every derived graph below stays within 16 vertices
# as long as the base samples stay within 12
SWEEP_MAX_N = 12


class SplitMix64:
    """splitmix64; fixed here so seeds mean the same thing on every platform."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_below(self, n: int) -> int:
        """Uniform draw from 0..n-1 by rejection, so no modulo bias."""
        if n <= 0:
            raise ParameterError("next_below needs a positive bound")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n


_EDGE_PROBS = (2, 5, 8)  # tenths


def random_graph(rng: SplitMix64, n: int, p_tenths: int) -> Graph:
    """Erdos-Renyi draw; pairs (i, j), i < j, scanned in lexicographic order."""
    threshold = (p_tenths << 64) // 10
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.next_u64() < threshold:
                edges.append((i, j))
    return Graph(range(n), edges)


def random_tree(rng: SplitMix64, n: int) -> Graph:
    """Uniform attachment: vertex i hangs off a uniform pick from 0..i-1."""
    if n < 1:
        raise ParameterError("a tree needs at least one vertex")
    edges = [(rng.next_below(i), i) for i in range(1, n)]
    return Graph(range(n), edges)


def sample_graph(rng, max_n, min_n=1, predicate=None) -> Graph:
    """One sweep sample: draw n, then a probability index, then the pairs.

    When a predicate is given, draws repeat until it holds; the retries
    consume generator state, which keeps the stream deterministic.
    """
    while True:
        n = min_n + rng.next_below(max_n - min_n + 1)
        p = _EDGE_PROBS[rng.next_below(3)]
        g = random_graph(rng, n, p)
        if predicate is None or predicate(g):
            return g


@dataclass(frozen=True)
class SweepConfig:
    max_n: int = 8
    samples: int = 200
    seed: int = 1


@dataclass
class BoundCheck:
    name: str
    lhs: int
    rhs: int
    relation: str  # "<=", ">=", "=="
    passed: bool
    detail: str = ""
    witness: tuple[str, ...] = field(default_factory=tuple)


def _check_cfg(cfg: SweepConfig) -> None:
    if cfg.max_n < 1 or cfg.samples < 0:
        raise ParameterError("sweep needs max_n >= 1 and samples >= 0")
    if cfg.max_n > SWEEP_MAX_N:
        raise CapabilityError(
            f"sweep supports max_n <= {SWEEP_MAX_N}, got {cfg.max_n}"
        )


def _check_rows(rows, cfg: SweepConfig) -> None:
    """ParameterError naming the first row whose first input needs more
    vertices than cfg.max_n."""
    for op in rows:
        if cfg.max_n < op.min_n:
            raise ParameterError(f"row {op.row} needs max_n >= {op.min_n}, got {cfg.max_n}")


def _solve(g: Graph):
    """((tw, tree certificate), (pw, path certificate)) of g."""
    twr = exact_treewidth(g)
    pwr = exact_pathwidth(g)
    return (twr.value, twr.certificate), (pwr.value, pwr.certificate)


# the graphs a SolveTable keeps: at most this many vertices, and at most
# this many graphs, the first ones met; an entry takes about 6 KB
TABLE_MAX_VERTICES = 5
TABLE_MAX_ENTRIES = 512


class SolveTable:
    """`_solve` results of the small graphs one run has solved, so each is
    solved once.  A graph above TABLE_MAX_VERTICES, or one met once the
    table holds TABLE_MAX_ENTRIES graphs, is solved every time."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: dict[Graph, tuple] = {}

    def solve(self, g: Graph):
        if g.n > TABLE_MAX_VERTICES:
            return _solve(g)
        solved = self.entries.get(g)
        if solved is None:
            solved = _solve(g)
            if len(self.entries) < TABLE_MAX_ENTRIES:
                self.entries[g] = solved
        return solved


def _write_witness(witness_dir, name, graphs, decs, transcript) -> tuple[str, ...]:
    if witness_dir is None:
        return ()
    bundle = Path(witness_dir) / name.replace("/", "-")
    bundle.mkdir(parents=True, exist_ok=True)
    for fname, g in graphs.items():
        (bundle / f"{fname}.gr").write_text(format_gr(g))
    for fname, dec in decs.items():
        (bundle / f"{fname}.td").write_text(format_td(dec))
    (bundle / "transcript.txt").write_text("".join(line + "\n" for line in transcript))
    return (str(bundle),)


def _solver(solved: SolveTable | None):
    """solved's solve, or a fresh table's when none is given."""
    return (SolveTable() if solved is None else solved).solve


# ---------------------------------------------------------------------------
# relations between width and the classical invariants


def run_relation_suite(cfg: SweepConfig, witness_dir=None,
                       solved: SolveTable | None = None) -> list[BoundCheck]:
    _check_cfg(cfg)
    solve = _solver(solved)
    rng = SplitMix64(cfg.seed)
    checks: list[BoundCheck] = []
    for s in range(cfg.samples):
        g = sample_graph(rng, cfg.max_n)
        (tw, _), (pw, _) = solve(g)
        inv = graph_invariants(g)
        n, m = g.n, g.m
        # every relation reads lhs <= rhs
        rows = [
            ("tw-le-pw", tw, pw),
            ("clique-tw", inv.clique_number - 1, tw),
            ("chrom-tw", inv.chromatic_number, tw + 1),
            ("chrom-pw", inv.chromatic_number, pw + 1),
            ("indep-tw", inv.independence_number + tw, n),
            ("indep-pw", inv.independence_number + pw, n),
            ("conn-tw", inv.vertex_connectivity, tw),
            ("conn-pw", inv.vertex_connectivity, pw),
            ("edges-tw", m, tw * n - tw * (tw + 1) // 2),
            ("edges-pw", m, pw * n - pw * (pw + 1) // 2),
        ]
        # edge-density width bound m/5.769 + O(log n): the additive term is
        # unspecified, so report it in the detail and never assert it
        advisory = f"advisory width <= m/5.769 = {m / 5.769:.2f} + O(log n)"
        for rule, lhs, rhs in rows:
            passed = lhs <= rhs
            name = f"relations/{rule}/s{s:03d}"
            detail = advisory if rule.startswith("edges-") else ""
            witness = ()
            if not passed:
                witness = _write_witness(
                    witness_dir, name, {"input": g}, {},
                    [f"{rule}: {lhs} <= {rhs} failed",
                     f"tw={tw} pw={pw} {inv}", advisory],
                )
            checks.append(
                BoundCheck(name, lhs, rhs, "<=", passed, detail=detail, witness=witness)
            )
    checks.sort(key=lambda c: c.name)
    return checks


# ---------------------------------------------------------------------------
# operation table rows


def _eval_param(res, carried, table, lower, exactw, relation, kind):
    """Sub-assertions behind one table cell; returns (passed, why)."""
    if carried is not None:
        report = validate(res, carried.decomposition)
        if not report.valid:
            return False, f"{kind} carried decomposition invalid: {report.violations[:3]}"
        got = width(carried.decomposition)
        if got > carried.claimed_bound:
            return False, f"{kind} carried width {got} exceeds claim {carried.claimed_bound}"
        if carried.claimed_bound > table:
            return False, f"{kind} claim {carried.claimed_bound} exceeds table bound {table}"
    if relation == "==":
        if exactw != table:
            return False, f"{kind} exact {exactw} != {table}"
    elif exactw > table:
        return False, f"{kind} exact {exactw} exceeds table bound {table}"
    if exactw < lower:
        return False, f"{kind} exact {exactw} below lower bound {lower}"
    return True, ""


def _sample(op, rng, max_n, solve):
    """One sample of a row: its first input, the result graph, a (param,
    carried result or None, bound) cell per parameter and a transcript
    maker.

    The first input has at least min_n vertices and satisfies the
    predicate; a unary row draws up to max_n vertices, a binary row caps
    each input at its caps.  The result is built once per parameter that
    carries a decomposition, or once when none does."""
    caps = [max_n] if op.arity == 1 else [min(max_n, cap) for cap in op.caps]
    graphs = [sample_graph(rng, caps[0], op.min_n, op.predicate)]
    graphs += [sample_graph(rng, cap) for cap in caps[1:]]
    solved = [solve(g) for g in graphs]
    args = op.pick(rng, *graphs)
    result, cells = None, []
    for param, per_input in zip(("tw", "pw"), zip(*solved)):
        bound = op.bound(param, *(k for k, _ in per_input), *graphs, *args)
        carried = None
        if bound is not None and op.can_carry(*args):
            decs = [d for _, d in per_input][: op.decs]
            carried = op.op(*graphs, *decs, *args)
            if result is None:
                result = carried.graph
        cells.append((param, carried, bound))
    if result is None:
        result = op.op(*graphs, *[None] * op.decs, *args).graph
    return graphs[0], result, cells, lambda: ["".join(
        [op.label.format(*args)]
        + [f", second input:\n{format_gr(h)}" for h in graphs[1:]])]


def _run_rows(prefix, rows, cfg, witness_dir, solved=None) -> list[BoundCheck]:
    """Each row draws from SplitMix64(cfg.seed + its index in rows)."""
    _check_cfg(cfg)
    _check_rows(rows, cfg)
    solve = _solver(solved)
    checks: list[BoundCheck] = []
    for index, op in enumerate(rows):
        rng = SplitMix64(cfg.seed + index)
        for s in range(cfg.samples):
            g, result, cells, transcript = _sample(op, rng, cfg.max_n, solve)
            exact = {param: w for param, (w, _) in zip(("tw", "pw"), solve(result))}
            for param, carried, bound in cells:
                # no bound: the sweep claims nothing beyond the exact width
                table, lower, rel = bound or (exact[param], -1, "<=")
                passed, why = _eval_param(
                    result, carried, table, lower, exact[param], rel, param
                )
                name = f"{prefix}/{op.row}/{param}/s{s:03d}"
                witness = ()
                if not passed:
                    decs = {} if carried is None else {"carried": carried.decomposition}
                    witness = _write_witness(
                        witness_dir, name, {"input": g, "result": result}, decs,
                        transcript() + [why],
                    )
                checks.append(BoundCheck(name, exact[param], table, rel, passed,
                                         detail=why, witness=witness))
    checks.sort(key=lambda c: c.name)
    return checks


def run_unary_table(cfg: SweepConfig, witness_dir=None,
                    solved: SolveTable | None = None) -> list[BoundCheck]:
    return _run_rows("unary", UNARY_ROWS, cfg, witness_dir, solved)


def run_binary_table(cfg: SweepConfig, witness_dir=None,
                     solved: SolveTable | None = None) -> list[BoundCheck]:
    return _run_rows("binary", BINARY_ROWS, cfg, witness_dir, solved)


# ---------------------------------------------------------------------------
# aggregated suites


def run_nordhaus_gaddum(cfg: SweepConfig, witness_dir=None,
                        solved: SolveTable | None = None) -> BoundCheck:
    """Width of a graph plus width of its complement is at least n - 2."""
    _check_cfg(cfg)
    solve = _solver(solved)
    rng = SplitMix64(cfg.seed)
    worst = None
    for s in range(cfg.samples):
        g = sample_graph(rng, cfg.max_n)
        co = unary.edge_complement(g).graph
        for kind, (w, _), (wco, _) in zip(("tw", "pw"), solve(g), solve(co)):
            total = w + wco
            margin = total - (g.n - 2)
            if worst is None or margin < worst[0]:
                worst = (margin, total, g.n - 2, kind, g, s)
    if worst is None:
        return BoundCheck("nordhaus-gaddum", 0, 0, ">=", True, detail="no samples")
    margin, total, floor_, kind, g, s = worst
    passed = margin >= 0
    witness = ()
    if not passed:
        witness = _write_witness(
            witness_dir, "nordhaus-gaddum", {"input": g}, {},
            [f"sample {s}: {kind} sum {total} below n-2 = {floor_}"],
        )
    return BoundCheck("nordhaus-gaddum", total, floor_, ">=", passed,
                      detail=f"worst case: {kind} sum on sample {s}",
                      witness=witness)


_LOG_SLACK = 1e-9


def log_path_bound(tw: int, n: int) -> float:
    """(tw + 1) * (log3(2n + 1) + 1) - 1."""
    return (tw + 1) * (math.log(2 * n + 1, 3) + 1) - 1


def run_logbound(cfg: SweepConfig, witness_dir=None,
                 solved: SolveTable | None = None) -> BoundCheck:
    """Pathwidth stays within the logarithmic factor of treewidth, and the
    tree-to-path rewrite of an optimal certificate stays within it too."""
    _check_cfg(cfg)
    solve = _solver(solved)
    rng = SplitMix64(cfg.seed)
    worst = None
    failures = []
    for s in range(cfg.samples):
        g = sample_graph(rng, cfg.max_n)
        (tw, tree), (pw, _) = solve(g)
        bound = log_path_bound(tw, g.n)
        rw = width(tree_to_path(g, tree))
        for kind, got in (("exact", pw), ("rewritten", rw)):
            margin = bound - got
            if worst is None or margin < worst[0]:
                worst = (margin, got, bound, kind, g, s)
            if got > bound + _LOG_SLACK:
                failures.append((kind, got, bound, g, s))
    if worst is None:
        return BoundCheck("logbound", 0, 0, "<=", True, detail="no samples")
    margin, got, bound, kind, g, s = worst
    passed = not failures
    witness = ()
    if failures:
        kind, got, bound, g, s = failures[0]
        witness = _write_witness(
            witness_dir, "logbound", {"input": g}, {},
            [f"sample {s}: {kind} pathwidth {got} above bound {bound!r}"],
        )
    return BoundCheck("logbound", got, math.floor(bound + _LOG_SLACK), "<=",
                      passed, detail=f"tightest: {kind} on sample {s}",
                      witness=witness)


SUITES = ("relations", "unary", "binary", "ng", "logbound")


def check_suites(names, cfg: SweepConfig) -> None:
    """The errors run_suite would raise on cfg for any of the named suites,
    raised before any of them draws."""
    _check_cfg(cfg)
    for name in names:
        _check_rows({"unary": UNARY_ROWS, "binary": BINARY_ROWS}.get(name, ()), cfg)


def run_suite(name: str, cfg: SweepConfig, witness_dir=None,
              solved: SolveTable | None = None) -> list[BoundCheck]:
    """The named suite's checks; suites given the same SolveTable solve
    each small graph once between them."""
    if name == "relations":
        return run_relation_suite(cfg, witness_dir, solved)
    if name == "unary":
        return run_unary_table(cfg, witness_dir, solved)
    if name == "binary":
        return run_binary_table(cfg, witness_dir, solved)
    if name == "ng":
        return [run_nordhaus_gaddum(cfg, witness_dir, solved)]
    if name == "logbound":
        return [run_logbound(cfg, witness_dir, solved)]
    raise ParameterError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")


def render_tap(checks: list[BoundCheck]) -> str:
    lines = [f"1..{len(checks)}"]
    for c in checks:
        if c.passed:
            lines.append(f"ok {c.name}")
        else:
            suffix = f" witness={c.witness[0]}" if c.witness else ""
            lines.append(f"not ok {c.name}{suffix}")
    return "".join(line + "\n" for line in lines)
