import contextlib
import dataclasses
import gc
import io
import re
import weakref
from pathlib import Path

import pytest

from twpw import cli, harness, unary
from twpw.decomposition import is_valid
from twpw.errors import CapabilityError, ParameterError
from twpw.fileformats import format_td, parse_gr, parse_td
from twpw.graphs import Graph, complete_graph, is_connected, path_graph
from twpw.operations import OPCODES
from twpw.results import Result
from twpw.harness import (
    BoundCheck,
    SplitMix64,
    SweepConfig,
    log_path_bound,
    random_graph,
    random_tree,
    render_tap,
    run_suite,
    sample_graph,
)


class TestSplitMix64:
    def test_reference_stream(self):
        r = SplitMix64(0)
        assert [r.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_seeds_diverge(self):
        assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()

    def test_next_below_range_and_reach(self):
        r = SplitMix64(5)
        draws = [r.next_below(7) for _ in range(200)]
        assert all(0 <= d < 7 for d in draws)
        assert set(draws) == set(range(7))

    def test_next_below_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            SplitMix64(1).next_below(0)


class TestSampling:
    def test_random_graph_respects_density_extremes(self):
        assert random_graph(SplitMix64(1), 5, 0).m == 0
        assert random_graph(SplitMix64(1), 5, 10).m == 10

    def test_random_tree_is_tree(self):
        for seed in range(10):
            t = random_tree(SplitMix64(seed), 1 + seed)
            assert t.m == t.n - 1
            assert is_connected(t)

    def test_sample_graph_bounds(self):
        rng = SplitMix64(9)
        for _ in range(50):
            g = sample_graph(rng, 6, min_n=2)
            assert 2 <= g.n <= 6

    def test_sample_graph_predicate(self):
        rng = SplitMix64(9)
        for _ in range(20):
            g = sample_graph(rng, 6, predicate=lambda g: g.m >= 2)
            assert g.m >= 2

    def test_streams_are_deterministic(self):
        a = [random_graph(SplitMix64(3), 6, 5) for _ in range(1)]
        b = [random_graph(SplitMix64(3), 6, 5) for _ in range(1)]
        assert a == b


class TestSuites:
    def test_suite_names(self):
        assert harness.SUITES == ("relations", "unary", "binary", "ng", "logbound")

    def test_unknown_suite(self):
        with pytest.raises(ParameterError):
            run_suite("everything", SweepConfig())

    def test_max_n_guard(self):
        with pytest.raises(CapabilityError):
            run_suite("relations", SweepConfig(max_n=13, samples=1))
        with pytest.raises(ParameterError):
            run_suite("relations", SweepConfig(max_n=0, samples=1))

    @pytest.mark.parametrize("suite, row", [("unary", "delete-edge"),
                                            ("binary", "substitute-neighbors")])
    def test_rows_refuse_max_n_below_their_min_n(self, suite, row):
        cfg = SweepConfig(max_n=1, samples=1)
        for check in (lambda: run_suite(suite, cfg), lambda: harness.check_suites([suite], cfg)):
            with pytest.raises(ParameterError, match=f"^row {row} needs max_n >= 2, got 1$"):
                check()
        harness.check_suites(["relations", "ng", "logbound"], cfg)

    def test_relations_pass_and_are_deterministic(self):
        cfg = SweepConfig(max_n=5, samples=8, seed=4)
        first = run_suite("relations", cfg)
        second = run_suite("relations", cfg)
        assert first == second
        assert len(first) == 8 * 10
        assert all(c.passed for c in first)

    def test_binary_small_sweep_passes(self):
        cfg = SweepConfig(max_n=4, samples=2, seed=3)
        checks = run_suite("binary", cfg)
        assert checks and all(c.passed for c in checks)

    def test_aggregate_suites_return_single_check(self):
        cfg = SweepConfig(max_n=5, samples=5, seed=6)
        (ng,) = run_suite("ng", cfg)
        (lb,) = run_suite("logbound", cfg)
        assert ng.passed and lb.passed
        assert ng.relation == ">=" and lb.relation == "<="

    def test_check_names_are_unique(self):
        cfg = SweepConfig(max_n=4, samples=4, seed=7)
        for suite in harness.SUITES:
            names = [c.name for c in run_suite(suite, cfg)]
            assert len(names) == len(set(names))


def all_checks(cfg, table=None):
    """Every suite's checks on cfg, the suites sharing table when given and
    each making its own otherwise."""
    return [c for suite in harness.SUITES for c in run_suite(suite, cfg, None, table)]


class TestSolveTable:
    def test_small_graphs_are_solved_once(self, monkeypatch):
        calls = []
        solve = harness._solve
        monkeypatch.setattr(harness, "_solve", lambda g: calls.append(g) or solve(g))
        table = harness.SolveTable()
        small, large = path_graph(harness.TABLE_MAX_VERTICES), complete_graph(6)
        first = table.solve(small)
        assert table.solve(Graph(small.vertices, small.edges)) is first
        table.solve(large)
        table.solve(large)
        assert calls == [small, large, large]
        assert list(table.entries) == [small]

    def test_table_stops_at_its_entry_limit(self, monkeypatch):
        monkeypatch.setattr(harness, "TABLE_MAX_ENTRIES", 20)
        cfg = SweepConfig(max_n=8, samples=12, seed=3)
        table = harness.SolveTable()
        assert all_checks(cfg, table) == all_checks(cfg)
        assert len(table.entries) == 20

    def test_entries_are_small_bounded_and_match_fresh_solves(self):
        table = harness.SolveTable()
        all_checks(SweepConfig(max_n=8, samples=20, seed=2), table)
        assert 0 < len(table.entries) <= harness.TABLE_MAX_ENTRIES
        for g, solved in table.entries.items():
            assert g.n <= harness.TABLE_MAX_VERTICES
            for (w, d), (w2, d2) in zip(solved, harness._solve(g)):
                assert (w, format_td(d)) == (w2, format_td(d2))

    def test_run_shares_one_table_and_drops_it(self, tmp_path, monkeypatch):
        # the samples are drawn as a Graph subclass that takes weak
        # references, and so is the run's table
        graphs, tables, hits = [], [], []

        class Tracked(Graph):
            __slots__ = ("__weakref__",)

            def __init__(self, *args):
                super().__init__(*args)
                graphs.append(weakref.ref(self))

        class Counted(harness.SolveTable):
            __slots__ = ("__weakref__",)

            def __init__(self):
                super().__init__()
                tables.append(weakref.ref(self))

            def solve(self, g):
                hits.append(g in self.entries)
                return super().solve(g)

        monkeypatch.setattr(harness, "Graph", Tracked)
        monkeypatch.setattr(cli, "SolveTable", Counted)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["harness", "run", "--max-n", "6", "--samples", "5",
                             "--witness-dir", str(tmp_path)]) == 0
        gc.collect()
        assert len(tables) == 1 and tables[0]() is None
        assert graphs and all(ref() is None for ref in graphs)
        assert any(hits)


class TestLogBound:
    def test_monotone_in_both_arguments(self):
        assert log_path_bound(1, 7) == pytest.approx(5.9299470414)
        assert log_path_bound(0, 1) == pytest.approx(1.0)
        assert log_path_bound(2, 5) > log_path_bound(1, 5)
        assert log_path_bound(1, 50) > log_path_bound(1, 5)


class TestTapAndWitnesses:
    def test_render_tap_format(self):
        checks = [
            BoundCheck("a/first", 1, 2, "<=", True),
            BoundCheck("b/second", 3, 2, "<=", False, witness=("w/b-second",)),
            BoundCheck("c/third", 5, 5, "==", False),
        ]
        assert render_tap(checks) == (
            "1..3\n"
            "ok a/first\n"
            "not ok b/second witness=w/b-second\n"
            "not ok c/third\n"
        )

    def test_witness_bundle_round_trips(self, tmp_path):
        g = Graph(range(3), [(0, 1), (1, 2)])
        from twpw.exact import exact_treewidth

        dec = exact_treewidth(g).certificate
        (bundle,) = harness._write_witness(
            tmp_path, "unary/contract/s007", {"input": g}, {"input-tw": dec},
            ["lhs=3", "rhs=2"],
        )
        assert bundle.endswith("unary-contract-s007")
        from pathlib import Path

        root = Path(bundle)
        assert parse_gr((root / "input.gr").read_text()) == g
        parsed = parse_td((root / "input-tw.td").read_text(), g)
        assert is_valid(g, parsed)
        assert (root / "transcript.txt").read_text() == "lhs=3\nrhs=2\n"

    @pytest.mark.parametrize("opcode", ["delv", "join"])
    def test_failing_row_writes_carried_witness(self, tmp_path, opcode):
        # a bound one below the claim makes every tree-width cell fail
        op = OPCODES[opcode]
        tight = dataclasses.replace(
            op, bound=lambda p, *a: (-2, -2, "<=") if p == "tw" else op.bound(p, *a)
        )
        checks = harness._run_rows("t", (tight,), SweepConfig(max_n=4, samples=2, seed=5),
                                   tmp_path)
        failed = [c for c in checks if not c.passed]
        assert [c.name for c in failed] == [f"t/{op.row}/tw/s000", f"t/{op.row}/tw/s001"]
        from pathlib import Path

        root = Path(failed[0].witness[0])
        assert sorted(p.name for p in root.iterdir()) == [
            "carried.td", "input.gr", "result.gr", "transcript.txt"]
        result = parse_gr((root / "result.gr").read_text())
        assert is_valid(result, parse_td((root / "carried.td").read_text(), result))
        transcript = (root / "transcript.txt").read_text()
        assert transcript.startswith(op.label.split(" {")[0])
        assert transcript.endswith(f"{failed[0].detail}\n")

    def test_no_witness_dir_means_no_paths(self):
        assert harness._write_witness(None, "x", {}, {}, []) == ()


# one record per way a table cell can fail, each a replacement of the
# delete-edge record: (fields to replace, whether the cell carries, reason)
_DELE = OPCODES["dele"]
_BROKEN_CARRIERS = {
    "invalid": (
        {"op": lambda g, d, u, v: (lambda res: dataclasses.replace(
            res, decomposition=res.decomposition.rebag(res.graph, lambda bag: ())))(
            unary.delete_edge(g, u, v, d))},
        True, r"(tw|pw) carried decomposition invalid: \(Violation\(tag='\1-1'.*"),
    "under-claimed": (
        {"op": lambda g, d, u, v: (lambda res: dataclasses.replace(
            res, claimed_bound=res.claimed_bound - 1))(unary.delete_edge(g, u, v, d))},
        True, r"(tw|pw) carried width \d+ exceeds claim \d+"),
    "not-equal": (
        {"bound": lambda p, k, *rest: (k + 1, -1, "==")},
        True, r"(tw|pw) exact -?\d+ != -?\d+"),
    "above-table": (
        {"carries": lambda *args: False, "bound": lambda p, *rest: (-2, -2, "<=")},
        False, r"(tw|pw) exact -?\d+ exceeds table bound -2"),
    "below-lower": (
        {"bound": lambda p, *rest: (100, 100, "<=")},
        True, r"(tw|pw) exact -?\d+ below lower bound 100"),
}


class TestEveryFailureWritesItsWitness:
    @pytest.mark.parametrize("case", _BROKEN_CARRIERS)
    def test_table_cell(self, tmp_path, case):
        fields, carried, reason = _BROKEN_CARRIERS[case]
        broken = dataclasses.replace(_DELE, **fields)
        checks = harness._run_rows("t", (broken,), SweepConfig(max_n=4, samples=2, seed=5),
                                   tmp_path)
        assert [c.name for c in checks if not c.passed] == [
            f"t/{_DELE.row}/{p}/s00{s}" for p in ("pw", "tw") for s in (0, 1)]
        tap = render_tap(checks)
        for c in checks:
            assert re.fullmatch(reason, c.detail)
            assert f"not ok {c.name} witness={c.witness[0]}\n" in tap
            root = Path(c.witness[0])
            files = ["input.gr", "result.gr", "transcript.txt"]
            assert sorted(p.name for p in root.iterdir()) == sorted(
                files + ["carried.td"] * carried)
            transcript = (root / "transcript.txt").read_text()
            assert transcript.startswith("delete edge ")
            assert transcript.endswith(f"\n{c.detail}\n")

    def test_relation(self, tmp_path, monkeypatch):
        real = harness.graph_invariants
        monkeypatch.setattr(harness, "graph_invariants", lambda g: dataclasses.replace(
            real(g), clique_number=g.n + 2))
        checks = run_suite("relations", SweepConfig(max_n=4, samples=2, seed=5), tmp_path)
        failed = [c for c in checks if not c.passed]
        assert [c.name for c in failed] == ["relations/clique-tw/s000",
                                            "relations/clique-tw/s001"]
        tap = render_tap(checks)
        for c in failed:
            assert f"not ok {c.name} witness={c.witness[0]}\n" in tap
            root = Path(c.witness[0])
            assert sorted(p.name for p in root.iterdir()) == ["input.gr", "transcript.txt"]
            first, _, last = (root / "transcript.txt").read_text().splitlines()
            assert first == f"clique-tw: {c.lhs} <= {c.rhs} failed"
            assert last.startswith("advisory width <= m/5.769")

    def test_nordhaus_gaddum(self, tmp_path, monkeypatch):
        # an empty complement has width -1, so only a clique keeps n - 2
        monkeypatch.setattr(unary, "edge_complement", lambda g: Result(Graph()))
        (check,) = run_suite("ng", SweepConfig(max_n=6, samples=4, seed=2), tmp_path)
        assert not check.passed and check.lhs < check.rhs
        assert render_tap([check]) == f"1..1\nnot ok nordhaus-gaddum witness={check.witness[0]}\n"
        root = Path(check.witness[0])
        assert sorted(p.name for p in root.iterdir()) == ["input.gr", "transcript.txt"]
        assert re.fullmatch(
            rf"sample \d+: (tw|pw) sum {check.lhs} below n-2 = {check.rhs}\n",
            (root / "transcript.txt").read_text())

    def test_logbound(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "log_path_bound", lambda tw, n: -1.0)
        (check,) = run_suite("logbound", SweepConfig(max_n=5, samples=3, seed=2), tmp_path)
        assert not check.passed
        assert render_tap([check]) == f"1..1\nnot ok logbound witness={check.witness[0]}\n"
        root = Path(check.witness[0])
        assert sorted(p.name for p in root.iterdir()) == ["input.gr", "transcript.txt"]
        assert re.fullmatch(r"sample 0: exact pathwidth -?\d+ above bound -1\.0\n",
                            (root / "transcript.txt").read_text())

    @pytest.mark.parametrize("suite, name, relation", [
        ("ng", "nordhaus-gaddum", ">="), ("logbound", "logbound", "<=")])
    def test_no_samples(self, suite, name, relation):
        assert run_suite(suite, SweepConfig(samples=0)) == [
            BoundCheck(name, 0, 0, relation, True, detail="no samples")]
