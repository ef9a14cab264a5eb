import dataclasses

import pytest

from twpw import harness
from twpw.decomposition import is_valid
from twpw.errors import CapabilityError, ParameterError
from twpw.fileformats import parse_gr, parse_td
from twpw.graphs import Graph, is_connected
from twpw.operations import OPCODES
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

    def test_unknown_table_row(self):
        cfg = SweepConfig(max_n=4, samples=1, ops=("delete-vortex",))
        with pytest.raises(ParameterError):
            run_suite("unary", cfg)

    def test_max_n_guard(self):
        with pytest.raises(CapabilityError):
            run_suite("relations", SweepConfig(max_n=13, samples=1))
        with pytest.raises(ParameterError):
            run_suite("relations", SweepConfig(max_n=0, samples=1))

    def test_relations_pass_and_are_deterministic(self):
        cfg = SweepConfig(max_n=5, samples=8, seed=4)
        first = run_suite("relations", cfg)
        second = run_suite("relations", cfg)
        assert first == second
        assert len(first) == 8 * 10
        assert all(c.passed for c in first)

    def test_unary_rows_selectable(self):
        cfg = SweepConfig(max_n=5, samples=3, seed=2, ops=("delete-vertex", "contract"))
        checks = run_suite("unary", cfg)
        assert all(c.name.split("/")[1] in ("delete-vertex", "contract") for c in checks)
        assert {c.name.split("/")[2] for c in checks} == {"tw", "pw"}
        assert all(c.passed for c in checks)

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
        sample = harness._binary_sample if op.binary else harness._unary_sample
        checks = harness._run_rows("t", (tight,), sample,
                                   SweepConfig(max_n=4, samples=2, seed=5), tmp_path)
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
