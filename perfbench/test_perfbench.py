"""Tests of the benchmark's own logic.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from twpw import cli, decomposition, exact, graphs, harness  # noqa: E402
from twpw.harness import SplitMix64  # noqa: E402


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_child_coverage():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 6.5, 0),
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 3 - 1.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),   # overlaps a: together they cover 1..6
        ("c", 9.0, 12.0, 0),  # runs past its parent: only 9..10 counts
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10 - 5 - 1)


def test_layer_self_times_add_up_to_the_outermost_span():
    tr = tracer.Tracer()
    tr.install()
    try:
        exact.exact_treewidth(graphs.cycle_graph(7))
    finally:
        tr.restore()
    metrics = tr.layer_metrics()
    assert metrics["kernels.calls"] == 1
    assert metrics["exact.calls"] == 1
    assert metrics["exact.cert_calls"] == 1
    assert metrics["decomposition.validate_calls"] == 1
    assert metrics["kernels.subsets"] == 1 << 7
    total = tr.spans[0][2] - tr.spans[0][1]
    layer_self = sum(v for k, v in metrics.items() if k.endswith("self_s"))
    assert layer_self == pytest.approx(total)


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (decomposition.validate, exact.validate, harness.validate, cli.validate)
    assert len(set(map(id, originals))) == 1
    tr = tracer.Tracer()
    tr.install()
    try:
        wrapped = (decomposition.validate, exact.validate, harness.validate, cli.validate)
        assert all(w is not originals[0] for w in wrapped)
        assert len(set(map(id, wrapped))) == 1
    finally:
        tr.restore()
    assert (decomposition.validate, exact.validate, harness.validate, cli.validate) == originals


def test_kernel_repeats_are_counted_per_input():
    tr = tracer.Tracer()
    tr.install()
    try:
        for _ in range(3):
            exact.exact_pathwidth(graphs.path_graph(5))
    finally:
        tr.restore()
    metrics = tr.layer_metrics()
    assert metrics["kernels.calls"] == 3
    assert metrics["kernels.repeat_ratio"] == pytest.approx(2 / 3)


# -- percentiles -------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 95) == 95
    assert stats.percentile([7.0], 99) == 7.0


@pytest.mark.parametrize("count, expected", [
    (10000, 99.9), (1000, 99.0), (999, 98.0), (200, 95.0), (199, 90.0),
    (100, 90.0), (40, 75.0), (20, 50.0), (19, None),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(count, expected):
    samples = [float(i) for i in range(count)]
    got = stats.tail_percentile(samples)
    if expected is None:
        assert got is None
    else:
        assert got[0] == expected
        assert sum(1 for s in samples if s > got[1]) >= stats.MIN_BEYOND


def test_host_factors_use_the_median_probe_of_a_window():
    ref = stats.PROBE_REFERENCE_S
    probes = [ref, ref, 2 * ref, ref, ref, 2 * ref, 2 * ref, 2 * ref]
    factors = stats.host_factors(probes, window=3)
    assert factors == pytest.approx([1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5])


# -- perturbed outputs are caught ---------------------------------------------


def make_sweep(tap: str, tmp_path) -> workloads.Sweep:
    expected = {"sweep": {"tap_sha256": workloads.tap_digest(tap)}}
    return workloads.Sweep(1, expected, tmp_path)


def test_sweep_check_catches_a_changed_tap(tmp_path):
    tap = "1..3\nok relations/a\nok unary/b\nok logbound\n"
    sweep = make_sweep(tap, tmp_path)
    assert sweep.errors(0, (0, tap)) == 0
    assert sweep.errors(0, (1, tap.replace("ok unary/b", "not ok unary/b"))) == 1
    assert sweep.errors(0, (0, tap.replace("unary/b", "unary/c"))) == 3
    assert sweep.errors(0, (0, tap[:-len("ok logbound\n")])) == 3
    assert sweep.errors(0, (2, "")) == 1


RECORDED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


def test_sweep_call_matches_the_recorded_tap(tmp_path):
    sweep = workloads.Sweep(1, RECORDED, tmp_path)
    outcome = sweep.run(0)
    assert outcome.count > 1
    assert sweep.errors(0, outcome.output) == 0


def solved(g):
    return exact.exact_treewidth(g), exact.exact_pathwidth(g)


def test_solve_check_accepts_true_widths_and_catches_perturbed_ones():
    g = harness.random_graph(SplitMix64(4), 9, 5)
    tw, pw = solved(g)
    assert workloads.solve_output_ok(g, tw, pw)
    assert not workloads.solve_output_ok(g, replace(tw, value=tw.value + 1), pw)
    assert not workloads.solve_output_ok(g, tw, replace(pw, value=pw.value - 1))
    bags = list(pw.certificate.bags)
    v = min(bags[0])
    broken = decomposition.PathDecomposition(g, [b - {v} for b in bags])
    assert not workloads.solve_output_ok(g, tw, replace(pw, certificate=broken))


def test_solve_default_seed_digest_catches_a_changed_width():
    assert workloads.default_round_digest() == RECORDED["solve"]["round_sha256"]
    first = list(itertools.islice(workloads.Solve.rounds(workloads.DEFAULT_SEED),
                                  len(workloads.Solve.STRATA)))
    values = [(tw.value, pw.value) for tw, pw in map(solved, (it.graph for it in first))]
    values[5] = (values[5][0] + 1, values[5][1])
    assert workloads.solve_digest(first, values) != RECORDED["solve"]["round_sha256"]


def certify_item(corrupt: bool, family="gnp-dense", seed=3):
    rng = SplitMix64(seed)
    g = workloads.family_graph(rng, family)
    return workloads.CertifyItem(family, g, workloads.min_degree_order(g),
                                 rng.next_u64() if corrupt else None)


@pytest.mark.parametrize("family", workloads.Certify.FAMILIES)
@pytest.mark.parametrize("corrupt", [False, True])
def test_certify_outputs_pass_their_check(family, corrupt):
    wl = workloads.Certify(1, {}, None)
    item = certify_item(corrupt, family)
    outcome = wl.run(item)
    assert wl.errors(item, outcome.output) == 0


def test_certify_check_catches_wrong_verdicts_and_round_trips():
    wl = workloads.Certify(1, {}, None)
    good = certify_item(False)
    td, pd, g2, td2, pd2, reports, expected = wl.run(good).output
    invalid = decomposition.ValidationReport(False, (decomposition.Violation("tw-3", (0,)),))
    assert wl.errors(good, (td, pd, g2, td2, pd2, (invalid, reports[1]), expected)) == 1
    shifted = decomposition.PathDecomposition(g2, pd2.bags[1:] + pd2.bags[:1])
    assert wl.errors(good, (td, pd, g2, td2, shifted, reports, expected)) == 1
    bad = certify_item(True)
    td, pd, g2, td2, pd2, reports, expected = wl.run(bad).output
    valid = decomposition.ValidationReport(True, ())
    assert wl.errors(bad, (td, pd, g2, td2, pd2, (valid, reports[1]), expected)) == 1
    wrong_tag = [("tw-2", (0, 1))], expected[1]
    assert wl.errors(bad, (td, pd, g2, td2, pd2, reports, wrong_tag)) == 1


def test_corruption_verdict_agrees_with_both_validators():
    item = certify_item(False, "grid")
    td = exact.elimination_decomposition(item.graph, item.order)
    pd = exact.layout_decomposition(item.graph, item.order)
    bad_td, bad_pd, expect_td, expect_pd = workloads.corrupt(SplitMix64(9), td, pd)
    for dec, expect in ((bad_td, expect_td), (bad_pd, expect_pd)):
        report = decomposition.validate(item.graph, dec)
        assert [(v.tag, v.witness) for v in report.violations] == expect
    bags, edges = workloads.tree_parts(bad_td)
    assert workloads.violations_of(item.graph, bags, edges) == expect_td
    assert workloads.violations_of(item.graph, list(bad_pd.bags)) == expect_pd


def test_workload_inputs_repeat_for_a_seed_and_differ_across_seeds():
    def first(seed):
        wl = workloads.Certify(seed, {}, None)
        return [(it.family, it.graph, it.corrupt_seed)
                for _, it in zip(range(10), wl.items())]
    assert first(5) == first(5)
    assert first(5) != first(6)
    size = len(workloads.Solve.STRATA)
    solve = [it.graph for _, it in zip(range(size), workloads.Solve.rounds(5))]
    assert solve == [it.graph for _, it in zip(range(size), workloads.Solve.rounds(5))]
    assert sorted((g.n for g in solve)) == sorted(n for n, _ in workloads.Solve.STRATA)
