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
    ops: tuple[str, ...] | None = None  # None = every table row


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


def _widths(g: Graph) -> tuple[int, int]:
    tw = exact_treewidth(g).value
    pw = exact_pathwidth(g).value
    return (-1 if tw is None else tw), (-1 if pw is None else pw)


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


# ---------------------------------------------------------------------------
# relations between width and the classical invariants


def run_relation_suite(cfg: SweepConfig, witness_dir=None) -> list[BoundCheck]:
    _check_cfg(cfg)
    rng = SplitMix64(cfg.seed)
    checks: list[BoundCheck] = []
    for s in range(cfg.samples):
        g = sample_graph(rng, cfg.max_n)
        tw, pw = _widths(g)
        inv = graph_invariants(g)
        n, m = g.n, g.m
        rows = [
            ("tw-le-pw", tw, pw, "<="),
            ("clique-tw", inv.clique_number - 1, tw, "<="),
            ("chrom-tw", inv.chromatic_number, tw + 1, "<="),
            ("chrom-pw", inv.chromatic_number, pw + 1, "<="),
            ("indep-tw", inv.independence_number + tw, n, "<="),
            ("indep-pw", inv.independence_number + pw, n, "<="),
            ("conn-tw", inv.vertex_connectivity, tw, "<="),
            ("conn-pw", inv.vertex_connectivity, pw, "<="),
            ("edges-tw", m, tw * n - tw * (tw + 1) // 2, "<="),
            ("edges-pw", m, pw * n - pw * (pw + 1) // 2, "<="),
        ]
        # edge-density width bound m/5.769 + O(log n): the additive term is
        # unspecified, so report it in the detail and never assert it
        advisory = f"advisory width <= m/5.769 = {m / 5.769:.2f} + O(log n)"
        for rule, lhs, rhs, rel in rows:
            passed = lhs <= rhs if rel == "<=" else lhs == rhs
            name = f"relations/{rule}/s{s:03d}"
            detail = advisory if rule.startswith("edges-") else ""
            witness = ()
            if not passed:
                witness = _write_witness(
                    witness_dir, name, {"input": g}, {},
                    [f"{rule}: {lhs} {rel} {rhs} failed",
                     f"tw={tw} pw={pw} {inv}", advisory],
                )
            checks.append(
                BoundCheck(name, lhs, rhs, rel, passed, detail=detail, witness=witness)
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
        w = width(carried.decomposition)
        got = -1 if w is None else w
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


def _certificates(g: Graph):
    """((tw, tree certificate), (pw, path certificate)) of g."""
    twr = exact_treewidth(g)
    pwr = exact_pathwidth(g)
    return (twr.value, twr.certificate), (pwr.value, pwr.certificate)


def _unary_sample(op, rng, max_n):
    g = sample_graph(rng, max_n, op.min_n, op.predicate)
    solved = _certificates(g)
    args = op.pick(rng, g)
    result = op.op(g, *args)
    cells = [
        (param, None if op.transform is None else op.transform(d, *args),
         op.bound(param, k, g, *args))
        for param, (k, d) in zip(("tw", "pw"), solved)
    ]
    return g, result, cells, lambda: [op.label.format(*args)]


def _binary_sample(op, rng, max_n):
    g1 = sample_graph(rng, min(max_n, op.caps[0]), op.min_n, op.predicate)
    g2 = sample_graph(rng, min(max_n, op.caps[1]))
    solved = zip(("tw", "pw"), _certificates(g1), _certificates(g2))
    args = op.pick(rng, g1, g2)
    result, cells = None, []
    for param, (k1, d1), (k2, d2) in solved:
        bound = op.bound(param, k1, k2, g1, g2, *args)
        carried = None
        if bound is not None:
            res = op.op(g1, g2, d1, d2, *args)
            result = res.graph if result is None else result
            carried = res.decomposition
        cells.append((param, carried, bound))
    return g1, result, cells, lambda: [
        f"{op.label.format(*args)}, second input:\n{format_gr(g2)}"
    ]


def _run_rows(prefix, rows, sample, cfg, witness_dir) -> list[BoundCheck]:
    """Each row draws from SplitMix64(cfg.seed + its index in rows)."""
    _check_cfg(cfg)
    if cfg.ops is not None:
        missing = [name for name in cfg.ops if name not in {op.row for op in rows}]
        if missing:
            raise ParameterError(f"unknown table rows: {', '.join(missing)}")
    checks: list[BoundCheck] = []
    for index, op in enumerate(rows):
        if cfg.ops is not None and op.row not in cfg.ops:
            continue
        rng = SplitMix64(cfg.seed + index)
        for s in range(cfg.samples):
            g, result, cells, transcript = sample(op, rng, cfg.max_n)
            exact = dict(zip(("tw", "pw"), _widths(result)))
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


def run_unary_table(cfg: SweepConfig, witness_dir=None) -> list[BoundCheck]:
    return _run_rows("unary", UNARY_ROWS, _unary_sample, cfg, witness_dir)


def run_binary_table(cfg: SweepConfig, witness_dir=None) -> list[BoundCheck]:
    return _run_rows("binary", BINARY_ROWS, _binary_sample, cfg, witness_dir)


# ---------------------------------------------------------------------------
# aggregated suites


def run_nordhaus_gaddum(cfg: SweepConfig, witness_dir=None) -> BoundCheck:
    """Width of a graph plus width of its complement is at least n - 2."""
    _check_cfg(cfg)
    rng = SplitMix64(cfg.seed)
    worst = None
    for s in range(cfg.samples):
        g = sample_graph(rng, cfg.max_n)
        co = unary.edge_complement(g).graph
        for kind, solve in (("tw", exact_treewidth), ("pw", exact_pathwidth)):
            total = solve(g).value + solve(co).value
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


def run_logbound(cfg: SweepConfig, witness_dir=None) -> BoundCheck:
    """Pathwidth stays within the logarithmic factor of treewidth, and the
    tree-to-path rewrite of an optimal certificate stays within it too."""
    _check_cfg(cfg)
    rng = SplitMix64(cfg.seed)
    worst = None
    failures = []
    for s in range(cfg.samples):
        g = sample_graph(rng, cfg.max_n)
        twr = exact_treewidth(g)
        pw = exact_pathwidth(g).value
        bound = log_path_bound(twr.value, g.n)
        rewritten = tree_to_path(g, twr.certificate)
        rw = width(rewritten)
        rw = -1 if rw is None else rw
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


def run_suite(name: str, cfg: SweepConfig, witness_dir=None) -> list[BoundCheck]:
    if name == "relations":
        return run_relation_suite(cfg, witness_dir)
    if name == "unary":
        return run_unary_table(cfg, witness_dir)
    if name == "binary":
        return run_binary_table(cfg, witness_dir)
    if name == "ng":
        return [run_nordhaus_gaddum(cfg, witness_dir)]
    if name == "logbound":
        return [run_logbound(cfg, witness_dir)]
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
