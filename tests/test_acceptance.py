"""Acceptance sweep: eight end-to-end checks, one test (and one report
line) per criterion.  Time limits are asserted, so a pathological slowdown
fails loudly instead of silently eating the suite budget."""

import time

from twpw import binary, unary
from twpw.decomposition import (
    PathDecomposition,
    TreeDecomposition,
    is_valid,
    tree_path_decomposition,
    tree_to_path,
    width,
)
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.graphs import (
    Graph,
    caterpillar_example,
    complete_graph,
    cycle_graph,
    grid_graph,
    incidence_star_example,
    path_graph,
)
from twpw.harness import (
    SplitMix64,
    SweepConfig,
    log_path_bound,
    random_graph,
    random_tree,
    run_suite,
    sample_graph,
)
from twpw.invariants import graph_invariants
from twpw.minors import (
    apply_minor_script,
    classify_pathwidth_le_1,
    classify_treewidth_le,
    is_minor,
)

from smallgraphs import (
    all_graphs_up_to,
    biconnected_components,
    induced_subgraph,
    is_isomorphic,
)

_SLACK = 1e-9


def _report(num, label, failures, elapsed, limit=None):
    ok = not failures
    timing = f"{elapsed:.2f}s" + (f" (limit {limit:.0f}s)" if limit else "")
    print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'} in {timing}")
    for f in failures[:10]:
        print(f"  {f}")
    assert ok, f"criterion {num}: {len(failures)} failure(s), first: {failures[0]}"
    if limit is not None:
        assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, limit {limit}s"


def _ceil_log3(x: int) -> int:
    t, p = 0, 1
    while p < x:
        p *= 3
        t += 1
    return t


def test_criterion_1_spider_widths_and_decompositions():
    t0 = time.perf_counter()
    failures = []
    g = incidence_star_example()
    if exact_treewidth(g).value != 1:
        failures.append("spider treewidth is not 1")
    if exact_pathwidth(g).value != 2:
        failures.append("spider pathwidth is not 2")
    td = TreeDecomposition(
        g,
        Graph(range(6), [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]),
        {
            0: frozenset({0, 1}),
            1: frozenset({1, 2}),
            2: frozenset({2, 5}),
            3: frozenset({5, 6}),
            4: frozenset({2, 3}),
            5: frozenset({3, 4}),
        },
    )
    if not is_valid(g, td) or width(td) != 1:
        failures.append("width-1 tree-decomposition rejected")
    pd = PathDecomposition(
        g, [frozenset({0, 1, 2}), frozenset({2, 5, 6}), frozenset({2, 3, 4})]
    )
    if not is_valid(g, pd) or width(pd) != 2:
        failures.append("width-2 path-decomposition rejected")
    _report(1, "spider example", failures, time.perf_counter() - t0, limit=1.0)


def test_criterion_2_closed_form_families():
    t0 = time.perf_counter()
    failures = []
    for n in range(1, 9):
        for tag, solve in (("tw", exact_treewidth), ("pw", exact_pathwidth)):
            got = solve(complete_graph(n)).value
            if got != n - 1:
                failures.append(f"{tag}(K_{n}) = {got}, want {n - 1}")
    for r in range(1, 5):
        for c in range(1, 5):
            want = 0 if r == c == 1 else min(r, c)
            for tag, solve in (("tw", exact_treewidth), ("pw", exact_pathwidth)):
                got = solve(grid_graph(r, c)).value
                if got != want:
                    failures.append(f"{tag}(grid {r}x{c}) = {got}, want {want}")
    for n, want in ((3, 2), (4, 4), (5, 7)):
        lg = unary.line_graph(complete_graph(n)).graph
        got = exact_treewidth(lg).value
        if got != want:
            failures.append(f"tw(L(K_{n})) = {got}, want {want}")
    for n in range(2, 5):
        for m in range(1, 4):
            g = binary.corona(complete_graph(n), complete_graph(m)).graph
            want = n + max(0, m - n // 2) - 1
            got = exact_pathwidth(g).value
            if got != want:
                failures.append(f"pw(corona K_{n} K_{m}) = {got}, want {want}")
    for g in (path_graph(3), cycle_graph(4)):
        k = exact_treewidth(g).value
        prod = binary.product("lexicographic", g, complete_graph(2)).graph
        got = exact_treewidth(prod).value
        if got != (k + 1) * 2 - 1:
            failures.append(f"tw of lexicographic blowup = {got}, want {(k + 1) * 2 - 1}")
    _report(2, "closed forms", failures, time.perf_counter() - t0, limit=120.0)


def test_criterion_3_invariant_relations_exhaustive():
    t0 = time.perf_counter()
    failures = []
    for g in all_graphs_up_to(6):
        if g.n == 0:
            continue
        tw = exact_treewidth(g).value
        pw = exact_pathwidth(g).value
        inv = graph_invariants(g)
        co = unary.edge_complement(g).graph
        co_tw = exact_treewidth(co).value
        co_pw = exact_pathwidth(co).value
        n, m = g.n, g.m
        rules = [
            ("tw <= pw", tw <= pw),
            ("clique", inv.clique_number - 1 <= tw),
            ("chromatic tw", inv.chromatic_number <= tw + 1),
            ("chromatic pw", inv.chromatic_number <= pw + 1),
            ("independence tw", inv.independence_number + tw <= n),
            ("independence pw", inv.independence_number + pw <= n),
            ("connectivity tw", inv.vertex_connectivity <= tw),
            ("connectivity pw", inv.vertex_connectivity <= pw),
            ("edges tw", m <= tw * n - tw * (tw + 1) // 2),
            ("edges pw", m <= pw * n - pw * (pw + 1) // 2),
            ("complement sum tw", tw + co_tw >= n - 2),
            ("complement sum pw", pw + co_pw >= n - 2),
        ]
        for rule, holds in rules:
            if not holds:
                failures.append(f"{rule} fails on n={n} edges={g.edges_sorted()}")
    _report(3, "invariant relations, all graphs to 6", failures,
            time.perf_counter() - t0, limit=600.0)


def test_criterion_4_transformer_sweep():
    t0 = time.perf_counter()
    cfg = SweepConfig(max_n=8, samples=200, seed=1)
    checks = run_suite("unary", cfg) + run_suite("binary", cfg)
    failures = [f"{c.name}: {c.lhs} {c.relation} {c.rhs} ({c.detail})"
                for c in checks if not c.passed]
    assert len(checks) > 7000
    _report(4, f"carried bounds, {len(checks)} checks", failures,
            time.perf_counter() - t0, limit=900.0)


def test_criterion_5_obstruction_classifiers():
    t0 = time.perf_counter()
    failures = []
    for g in all_graphs_up_to(6):
        tw = exact_treewidth(g).value
        pw = exact_pathwidth(g).value
        for k in (1, 2):
            answer, script = classify_treewidth_le(g, k)
            if answer != (tw <= k):
                failures.append(f"tw<={k} wrong on edges={g.edges_sorted()}")
            if not answer and script is None:
                failures.append(f"tw<={k} refusal without witness")
        answer, script = classify_pathwidth_le_1(g)
        if answer != (pw <= 1):
            failures.append(f"pw<=1 wrong on edges={g.edges_sorted()}")
        if not answer and script is None:
            failures.append("pw<=1 refusal without witness")
    _report(5, "classifiers vs solvers, all graphs to 6", failures,
            time.perf_counter() - t0)


def test_criterion_6_bounds_are_tight():
    t0 = time.perf_counter()
    failures = []

    res = unary.identify_vertices(path_graph(4), 0, 3)
    if not is_isomorphic(res.graph, cycle_graph(3)):
        failures.append("identifying the ends of a 4-path is not a triangle")
    if exact_treewidth(res.graph).value != 2:
        failures.append("identification +1 not attained")

    res = unary.subdivide_edge(caterpillar_example(), 2, 5)
    if exact_pathwidth(res.graph).value != 2:
        failures.append("subdivision pathwidth +1 not attained")

    switched = unary.seidel_switch(path_graph(5), 0).graph
    if exact_treewidth(switched).value != 2:
        failures.append("switching +1 not attained")
    found, script = is_minor(complete_graph(3), switched)
    if not found:
        failures.append("switched path has no triangle minor")
    elif not is_isomorphic(apply_minor_script(switched, script), complete_graph(3)):
        failures.append("triangle minor witness does not replay")

    p4 = path_graph(4)
    co = unary.edge_complement(p4).graph
    if not is_isomorphic(co, p4):
        failures.append("4-path is not self-complementary")
    if exact_pathwidth(p4).value + exact_pathwidth(co).value != p4.n - 2:
        failures.append("complement sum floor not attained on the 4-path")

    pend = unary.add_vertex(caterpillar_example(), [5]).graph
    if not is_isomorphic(pend, incidence_star_example()):
        failures.append("pendant on the caterpillar is not the spider")
    if (exact_pathwidth(caterpillar_example()).value, exact_pathwidth(pend).value) != (1, 2):
        failures.append("pendant vertex pathwidth +1 not attained")

    spider = incidence_star_example()
    comps = biconnected_components(spider)
    comp_pw = max(
        exact_pathwidth(induced_subgraph(spider, c)).value for c in comps
    )
    comp_tw = max(
        exact_treewidth(induced_subgraph(spider, c)).value for c in comps
    )
    if comp_pw != 1 or exact_pathwidth(spider).value != 2:
        failures.append("pathwidth localizes to biconnected components on the spider")
    if comp_tw != exact_treewidth(spider).value:
        failures.append("treewidth fails to localize to biconnected components")

    _report(6, "tight examples", failures, time.perf_counter() - t0)


def test_criterion_7_product_identities():
    t0 = time.perf_counter()
    failures = []
    rng = SplitMix64(77)
    for s in range(50):
        g1 = random_graph(rng, 1 + rng.next_below(4), rng.next_below(11))
        g2 = random_graph(rng, 1 + rng.next_below(4), rng.next_below(11))
        c1 = unary.edge_complement(g1).graph
        c2 = unary.edge_complement(g2).graph
        if binary.product("rejection", g1, g2).graph != binary.product("normal", c1, c2).graph:
            failures.append(f"rejection identity fails on sample {s}")
        inner = binary.product("conormal", c1, c2).graph
        if binary.product("normal", g1, g2).graph != unary.edge_complement(inner).graph:
            failures.append(f"normal identity fails on sample {s}")
        acc = binary.product("cartesian", g1, g2).graph
        acc = binary.union_same_vertices(
            acc, binary.product("categorical", g1, c2).graph
        ).graph
        acc = binary.union_same_vertices(
            acc, binary.product("categorical", c1, g2).graph
        ).graph
        if binary.product("symmetric-difference", g1, g2).graph != acc:
            failures.append(f"symmetric-difference identity fails on sample {s}")
    _report(7, "product identities, 50 pairs", failures, time.perf_counter() - t0)


def test_criterion_8_path_decompositions_within_log_bound():
    t0 = time.perf_counter()
    failures = []
    rng = SplitMix64(88)
    for s in range(100):
        g = sample_graph(rng, 10)
        report = exact_treewidth(g)
        pd = tree_to_path(g, report.certificate)
        if not is_valid(g, pd):
            failures.append(f"tree_to_path invalid on sample {s}")
            continue
        w = width(pd)
        if w > log_path_bound(report.value, g.n) + _SLACK:
            failures.append(
                f"sample {s}: width {w} above bound "
                f"{log_path_bound(report.value, g.n):.3f} (n={g.n})"
            )
    rng = SplitMix64(89)
    for s in range(100):
        n = 1 + rng.next_below(30)
        t = random_tree(rng, n)
        pd = tree_path_decomposition(t)
        if not is_valid(t, pd):
            failures.append(f"tree sample {s}: invalid decomposition")
            continue
        if width(pd) > _ceil_log3(2 * n + 1):
            failures.append(
                f"tree sample {s}: width {width(pd)} above log bound (n={n})"
            )
    _report(8, "logarithmic path bounds", failures, time.perf_counter() - t0)
