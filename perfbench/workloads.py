"""The three workloads: sweep, solve and certify.

Each workload yields an endless, seed-determined stream of items, runs one
item by calling the twpw package through its public modules, and checks the
output with the benchmark's own code.  Program calls are looked up as module
attributes at call time, so a traced run sees them.

* sweep  -- `twpw harness run --suite all --max-n 8` driven in process, one
  sample per call.  Calls use harness seeds 1, 101, 201, ... whatever the
  benchmark seed: a sweep's cost is dominated by its rare 14-16 vertex
  kernel calls, so 30 s of seed-drawn sweeps varies by about +-25% in
  checks per second, while a fixed sequence repeats within a few percent.
  TAP names checks but not graphs, so every passing call prints the same
  TAP, which is checked byte for byte.
* solve  -- exact tw and pw of seeded G(n, p) graphs, n = 10..14,
  p = 0.2/0.5/0.8, in rounds holding one graph of each (n, p).
* certify -- certificate building, .gr/.td round trip and validation on
  40-240 vertex graphs with a precomputed min-degree order; one item per
  round carries corrupted bags whose violations are known in advance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import statistics
import time
from dataclasses import dataclass

from twpw import cli, decomposition, exact, fileformats, graphs, harness, kernels
from twpw.harness import SplitMix64

clock = time.perf_counter

DEFAULT_SEED = 1


@dataclass
class Outcome:
    """One item's result: work done, program time spent, and the output."""

    count: int
    seconds: float
    output: object


# ---------------------------------------------------------------------------
# graph helpers of the benchmark's own


def masks_of(g) -> list[int]:
    pos = {v: i for i, v in enumerate(g.vertices_sorted())}
    masks = [0] * g.n
    for u, v in g.edges:
        masks[pos[u]] |= 1 << pos[v]
        masks[pos[v]] |= 1 << pos[u]
    return masks


def degeneracy(g) -> int:
    """Largest minimum degree over subgraphs: a lower bound on treewidth."""
    adj = {v: set(nb) for v, nb in g.adjacency().items()}
    best = 0
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        best = max(best, len(adj[v]))
        for a in adj.pop(v):
            adj[a].discard(v)
    return best


def min_degree_order(g) -> list[int]:
    """Greedy elimination order: always eliminate a vertex of least degree."""
    adj = {v: set(nb) for v, nb in g.adjacency().items()}
    order = []
    while adj:
        v = min(adj, key=lambda x: (len(adj[x]), x))
        nb = adj.pop(v)
        for a in nb:
            adj[a].discard(v)
            adj[a].update(nb - {a})
        order.append(v)
    return order


def violations_of(g, bags, tree_edges=None) -> list[tuple[str, tuple]]:
    """Decomposition axioms checked independently of twpw's validator.

    `bags` is a list of vertex sets, node i holding bags[i]; `tree_edges`
    joins nodes for a tree-decomposition, None means a path of bags.
    Returns (tag, witness) pairs with twpw's tags and witness conventions.
    """
    prefix = "pw" if tree_edges is None else "tw"
    if tree_edges is None:
        tree_edges = [(i, i + 1) for i in range(len(bags) - 1)]
    out = [("bag", (i, v)) for i, bag in enumerate(bags) for v in sorted(bag - g.vertices)]
    holders = {v: set() for v in g.vertices}
    for i, bag in enumerate(bags):
        for v in bag & g.vertices:
            holders[v].add(i)
    out += [(f"{prefix}-1", (v,)) for v in sorted(g.vertices) if not holders[v]]
    out += [(f"{prefix}-2", (u, v)) for u, v in g.edges_sorted()
            if not holders[u] & holders[v]]
    adj = {i: set() for i in range(len(bags))}
    for a, b in tree_edges:
        adj[a].add(b)
        adj[b].add(a)
    for v in sorted(g.vertices):
        nodes = holders[v]
        if len(nodes) > 1:
            start = min(nodes)
            seen, stack = {start}, [start]
            while stack:
                for y in adj[stack.pop()] & nodes:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if seen != nodes:
                out.append((f"{prefix}-3", (v,)))
    return out


def tree_parts(td) -> tuple[list[frozenset], list[tuple[int, int]]]:
    """Bags in node-id order and tree edges over their ranks."""
    items = td.bag_items()
    rank = {u: i for i, (u, _) in enumerate(items)}
    edges = sorted(tuple(sorted((rank[a], rank[b]))) for a, b in td.tree.edges)
    return [bag for _, bag in items], edges


def shuffled(rng: SplitMix64, seq) -> list:
    out = list(seq)
    for i in range(len(out) - 1, 0, -1):
        j = rng.next_below(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


# ---------------------------------------------------------------------------
# sweep


class Sweep:
    name = "sweep"
    SEED_STEP = 100  # harness rows draw from seed + row index; keep calls apart
    WARM_UP_SEED = 51

    def __init__(self, seed: int, expected: dict, scratch):
        self.digest = expected["sweep"]["tap_sha256"]
        self.witness_dir = str(scratch / "witnesses")

    def argv(self, harness_seed: int) -> list[str]:
        return ["harness", "run", "--suite", "all", "--max-n", "8",
                "--samples", "1", "--seed", str(harness_seed),
                "--witness-dir", self.witness_dir]

    def call(self, harness_seed: int) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(self.argv(harness_seed))
        return rc, out.getvalue()

    def prepare(self) -> None:
        self.call(self.WARM_UP_SEED)  # outputs are checked on the timed calls

    def items(self):
        return itertools.count()

    def run(self, index: int) -> Outcome:
        start = clock()
        rc, tap = self.call(1 + self.SEED_STEP * index)
        seconds = clock() - start
        return Outcome(planned_checks(tap), seconds, (rc, tap))

    def errors(self, index: int, output) -> int:
        """How many of the call's checks count as failed."""
        rc, tap = output
        planned = planned_checks(tap)
        lines = tap.splitlines()[1:]
        wellformed = len(lines) == planned and all(
            line.startswith(("ok ", "not ok ")) for line in lines)
        if not wellformed:
            return planned
        bad = sum(1 for line in lines if line.startswith("not ok "))
        if bad:
            return bad
        return planned if rc != 0 or tap_digest(tap) != self.digest else 0

    def verify(self) -> list[str]:
        return []

    def input_graphs(self, item):
        return None


def tap_digest(tap: str) -> str:
    return hashlib.sha256(tap.encode()).hexdigest()


def planned_checks(tap: str) -> int:
    """The N of a TAP plan line `1..N`; 1 when the plan is missing."""
    head = tap.split("\n", 1)[0]
    if head.startswith("1..") and head[3:].isdigit():
        return max(1, int(head[3:]))
    return 1


# ---------------------------------------------------------------------------
# solve


@dataclass(frozen=True)
class SolveItem:
    n: int
    p_tenths: int
    graph: object


class Solve:
    name = "solve"
    # five sizes, so the median item falls inside the n = 12 items rather
    # than on the gap between two sizes
    STRATA = tuple((n, p) for n in (10, 11, 12, 13, 14) for p in (2, 5, 8))

    def __init__(self, seed: int, expected: dict, scratch):
        self.seed = seed
        self.expected_digest = expected["solve"]["round_sha256"]

    def prepare(self) -> None:
        warm = harness.random_graph(SplitMix64(self.seed ^ 0xA5A5), 9, 5)
        exact.exact_treewidth(warm)
        exact.exact_pathwidth(warm)

    @classmethod
    def rounds(cls, seed: int):
        rng = SplitMix64(seed)
        while True:
            for n, p in shuffled(rng, cls.STRATA):
                yield SolveItem(n, p, harness.random_graph(rng, n, p))

    def items(self):
        return self.rounds(self.seed)

    def run(self, item: SolveItem) -> Outcome:
        start = clock()
        tw = exact.exact_treewidth(item.graph)
        pw = exact.exact_pathwidth(item.graph)
        return Outcome(1, clock() - start, (tw, pw))

    def errors(self, item: SolveItem, output) -> int:
        return 0 if solve_output_ok(item.graph, *output) else 1

    def verify(self) -> list[str]:
        """Digest of the default seed's first round; backend agreement."""
        problems = []
        if default_round_digest() != self.expected_digest:
            problems.append("solve: widths of the default seed's first round changed")
        if len(available_backends()) == 1:
            return problems
        own = itertools.islice(self.items(), len(self.STRATA))
        _, per_backend = kernel_rows([it.graph for it in own])
        if len(set(map(tuple, per_backend.values()))) > 1:
            problems.append(f"solve: kernel backends disagree: {per_backend}")
        return problems

    def input_graphs(self, item: SolveItem):
        return [item.graph]


def solve_output_ok(g, tw, pw) -> bool:
    """Certificates valid and as wide as claimed; degeneracy <= tw <= pw."""
    if tw.value is None or pw.value is None:
        return False
    tw_bags, tw_edges = tree_parts(tw.certificate)
    pw_bags = list(pw.certificate.bags)
    return (
        tw.certificate.host == g and pw.certificate.host == g
        and max(map(len, tw_bags)) - 1 == tw.value
        and max(map(len, pw_bags)) - 1 == pw.value
        and not violations_of(g, tw_bags, tw_edges)
        and not violations_of(g, pw_bags)
        and degeneracy(g) <= tw.value <= pw.value
    )


def solve_digest(items, values) -> str:
    text = "".join(f"{it.n} {it.p_tenths} {tw} {pw}\n" for it, (tw, pw) in zip(items, values))
    return hashlib.sha256(text.encode()).hexdigest()


def default_round_digest() -> str:
    """Digest of the exact widths of the default seed's first solve round."""
    first = list(itertools.islice(Solve.rounds(DEFAULT_SEED), len(Solve.STRATA)))
    values = [(exact.exact_treewidth(it.graph).value, exact.exact_pathwidth(it.graph).value)
              for it in first]
    return solve_digest(first, values)


def available_backends() -> dict:
    out = {"python": kernels.load_backend("python")}
    try:
        out["c"] = kernels.load_backend("c")
    except ImportError:
        pass
    return out


def kernel_rows(graph_list):
    """Per-backend kernel times by n, and each backend's (tw, pw) values.

    Times are the median over the graphs of each n, in milliseconds, keyed
    `kernels.<backend>.<tw|pw>_ms.n<k>`.
    """
    rows, values = {}, {}
    masks = [masks_of(g) for g in graph_list]
    for name, module in available_backends().items():
        got = []
        for kernel, fn in (("tw", module.treewidth_dp), ("pw", module.pathwidth_dp)):
            by_n: dict[int, list[float]] = {}
            for m in masks:
                start = clock()
                got.append(fn(m)[0])
                by_n.setdefault(len(m), []).append((clock() - start) * 1000.0)
            for n, ms in sorted(by_n.items()):
                rows[f"kernels.{name}.{kernel}_ms.n{n}"] = statistics.median(ms)
        values[name] = got
    return rows, values


# ---------------------------------------------------------------------------
# certify


@dataclass(frozen=True)
class CertifyItem:
    family: str
    graph: object
    order: list
    corrupt_seed: int | None  # None: leave the certificates intact


def gnp(rng: SplitMix64, n: int, p: float):
    threshold = int(p * (1 << 64))
    return graphs.Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)
                                   if rng.next_u64() < threshold])


def caterpillar(rng: SplitMix64, spine: int):
    edges = [(i, i + 1) for i in range(spine - 1)]
    n = spine
    for i in range(spine):
        for _ in range(rng.next_below(4)):
            edges.append((i, n))
            n += 1
    return graphs.Graph(range(n), edges)


def family_graph(rng: SplitMix64, family: str):
    if family == "gnp-dense":
        return gnp(rng, 40 + rng.next_below(61), 0.2)
    if family == "gnp-sparse":
        n = 100 + rng.next_below(101)
        return gnp(rng, n, 3.0 / n)
    if family == "grid":
        rows = 3 + rng.next_below(4)
        low, high = -(-40 // rows), 200 // rows
        return graphs.grid_graph(rows, low + rng.next_below(high - low + 1))
    if family == "tree":
        return harness.random_tree(rng, 40 + rng.next_below(161))
    if family == "caterpillar":
        return caterpillar(rng, 20 + rng.next_below(41))
    raise ValueError(family)


def corrupt(rng: SplitMix64, td, pd):
    """Corrupt both decompositions in ways whose verdicts are known in advance.

    Tree: add a vertex v to a bag not adjacent to any node holding v, which
    breaks only v's subtree: exactly [("tw-3", (v,))].  Path: drop a vertex w
    from every bag, which uncovers w and each of its edges.
    """
    g = td.host
    bags, edges = tree_parts(td)
    adj = {i: set() for i in range(len(bags))}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    for v in shuffled(rng, g.vertices_sorted()):
        holding = {i for i, bag in enumerate(bags) if v in bag}
        near = holding.union(*(adj[i] for i in holding))
        far = [i for i in range(len(bags)) if i not in near]
        if far:
            x = far[rng.next_below(len(far))]
            break
    else:
        raise RuntimeError("no bag far enough from any vertex to corrupt")
    nodes = [u for u, _ in td.bag_items()]
    new_bags = dict(td.bags)
    new_bags[nodes[x]] = new_bags[nodes[x]] | {v}
    bad_td = decomposition.TreeDecomposition(g, td.tree, new_bags)
    w = g.vertices_sorted()[rng.next_below(g.n)]
    bad_pd = decomposition.PathDecomposition(g, [bag - {w} for bag in pd.bags])
    expect_td = [("tw-3", (v,))]
    expect_pd = [("pw-1", (w,))] + [("pw-2", e) for e in g.edges_sorted() if w in e]
    return bad_td, bad_pd, expect_td, expect_pd


class Certify:
    name = "certify"
    FAMILIES = ("gnp-dense", "gnp-sparse", "grid", "tree", "caterpillar")

    def __init__(self, seed: int, expected: dict, scratch):
        self.seed = seed

    def prepare(self) -> None:
        rng = SplitMix64(self.seed ^ 0xA5A5)
        warm = gnp(rng, 30, 0.2)
        self.run(CertifyItem("warm-up", warm, min_degree_order(warm), None))

    def items(self):
        rng = SplitMix64(self.seed)
        while True:
            families = shuffled(rng, self.FAMILIES)
            bad = rng.next_below(len(families))
            for i, family in enumerate(families):
                g = family_graph(rng, family)
                yield CertifyItem(family, g, min_degree_order(g),
                                  rng.next_u64() if i == bad else None)

    def run(self, item: CertifyItem) -> Outcome:
        g = item.graph
        start = clock()
        td = exact.elimination_decomposition(g, item.order)
        pd = exact.layout_decomposition(g, item.order)
        spent = clock() - start
        expected = None
        if item.corrupt_seed is not None:
            td, pd, *expected = corrupt(SplitMix64(item.corrupt_seed), td, pd)
        start = clock()
        texts = (fileformats.format_gr(g), fileformats.format_td(td),
                 fileformats.format_td(pd))
        g2 = fileformats.parse_gr(texts[0])
        td2 = fileformats.parse_td(texts[1], g2)
        pd2 = fileformats.parse_td(texts[2], g2, "path")
        reports = (decomposition.validate(g2, td2), decomposition.validate(g2, pd2))
        spent += clock() - start
        return Outcome(1, spent, (td, pd, g2, td2, pd2, reports, expected))

    def errors(self, item: CertifyItem, output) -> int:
        return 0 if certify_output_ok(item.graph, *output) else 1

    def verify(self) -> list[str]:
        return []

    def input_graphs(self, item: CertifyItem):
        return [item.graph]


def certify_output_ok(g, td, pd, g2, td2, pd2, reports, expected) -> bool:
    """Exact round trip, and the verdict the construction predicts."""
    if g2 != g or tree_parts(td2) != tree_parts(td) or pd2.bags != pd.bags:
        return False
    found = [[(v.tag, v.witness) for v in r.violations] for r in reports]
    if expected is None:
        bags, edges = tree_parts(td)
        return (all(r.valid for r in reports) and not violations_of(g, bags, edges)
                and not violations_of(g, list(pd.bags)))
    return not any(r.valid for r in reports) and found == list(expected)


WORKLOADS = {w.name: w for w in (Sweep, Solve, Certify)}
