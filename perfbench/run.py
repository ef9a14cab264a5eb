"""twpw benchmark: one workload per run, end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sweep,solve,certify} --seed N \
        --seconds S --trace {0,1}

The program under test is the twpw package in ``src/``.  Before anything is
timed, ``setup.py build_ext --inplace`` runs whenever the build inputs
changed since the last run, so the kernel backend is the package's own
automatic choice, as after an install.  Everything the run leaves behind
goes to ``.bench_build/``.

With ``--trace 0`` the run is a closed loop, one single-threaded caller
issuing the next item when the previous one returns, for ``--seconds``
seconds of item time at a reference host speed (see stats.py); it prints the end-to-end metrics of BENCHMARK.json and keeps
the per-item (count, seconds, failed) rows in ``.bench_build/items-*.json``.  With
``--trace 1`` it runs a fixed list of items twice, untraced and traced
in turn, prints the per-layer metrics, and writes the spans to
``.bench_build/traces/``.  Either way every output is checked, and the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402
import tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build"
BUILD_INPUTS = ("setup.py", "pyproject.toml", "src/twpw/*.c", "src/twpw/*.pyx")
SETUP_REPEATS = 3
PROBE_EVERY_S = 0.05
WALL_LIMIT = 2.0
# fixed items of a traced run, so its counts repeat exactly
TRACE_ITEMS = {"sweep": 8, "solve": 30, "certify": 40}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build() -> float:
    """Build the extension in place when its inputs changed; returns seconds."""
    start = time.perf_counter()
    digest = hashlib.sha256()
    for pattern in BUILD_INPUTS:
        for path in sorted(ROOT.glob(pattern)):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    stamp = SCRATCH / "build.stamp"
    if stamp.exists() and stamp.read_text() == digest.hexdigest():
        return time.perf_counter() - start
    done = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace",
         "--build-temp", str(SCRATCH / "temp")],
        cwd=ROOT, capture_output=True, text=True, timeout=800,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        fail("building the extension failed")
    stamp.write_text(digest.hexdigest())
    return time.perf_counter() - start


def run_item(workload, item):
    """(count, seconds, failed) for one item; an exception fails the item."""
    try:
        outcome = workload.run(item)
    except Exception:
        traceback.print_exc()
        return 1, 0.0, 1
    return outcome.count, outcome.seconds, workload.errors(item, outcome.output)


def measure(workload, seconds: float):
    """Closed loop for `seconds` of item time at the reference host speed.

    A probe follows every PROBE_EVERY_S of item time, and the loop stops
    once the item time, rescaled by the latest probes, reaches `seconds`,
    so host drift does not change which items a run covers; a slow host is
    cut off at WALL_LIMIT times `seconds` of wall time.  Returns per-item
    (count, seconds, failed, probe index) rows and the probe times.
    """
    rows, probes = [], []
    since_probe = scaled = 0.0
    wall_deadline = time.perf_counter() + WALL_LIMIT * seconds
    for item in workload.items():
        count, spent, failed = run_item(workload, item)
        since_probe += spent
        if since_probe >= PROBE_EVERY_S or not probes:
            probes.append(stats.speed_probe(time.perf_counter))
            since_probe = 0.0
        rows.append((count, spent, failed, len(probes) - 1))
        scaled += spent * stats.host_factors(probes[-stats.PROBE_WINDOW:])[-1]
        if scaled >= seconds or time.perf_counter() >= wall_deadline:
            return rows, probes


def end_to_end(rows, probes, setup_s: float, setup_probes):
    """End-to-end metrics, times rescaled to the reference host speed.

    Set-up time is rescaled by the probes taken right after set-up.
    """
    factors = stats.host_factors(probes)
    counts = sum(r[0] for r in rows)
    # an item that raised counts as done in no time; keep the ratios finite
    busy = sum(r[1] * factors[r[3]] for r in rows) or 1e-9
    raw_busy = sum(r[1] for r in rows) or 1e-9
    per_item_ms = [1000.0 * r[1] * factors[r[3]] / r[0] for r in rows]
    tail = stats.tail_percentile(per_item_ms)
    metrics = {
        "items_per_s": counts / busy,
        "item_p50_ms": stats.percentile(per_item_ms, 50.0),
        "item_p95_ms": stats.percentile(per_item_ms, 95.0),
        "item_tail_ms": tail[1] if tail else float("nan"),
        "setup_s": setup_s * stats.host_factors(setup_probes)[len(setup_probes) // 2],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "items_per_s": f"{counts} items in {busy:.3f} s; unscaled {counts / raw_busy:.6g}/s "
                       f"in {raw_busy:.3f} s",
        "item_p50_ms": f"{len(per_item_ms)} samples",
        "item_p95_ms": f"{stats.beyond(len(per_item_ms), 95.0)} samples beyond",
        "item_tail_ms": "fewer than ten samples beyond p50" if tail is None
        else f"p{tail[0]:g}, {stats.beyond(len(per_item_ms), tail[0])} samples beyond",
        "setup_s": f"unscaled {setup_s:.6g} s",
        "host_speed": f"{len(probes)} probes, median {statistics.median(probes) * 1000:.4g} ms, "
                      f"reference {stats.PROBE_REFERENCE_S * 1000:g} ms",
    }
    metrics["host_speed"] = stats.PROBE_REFERENCE_S / statistics.median(probes)
    return metrics, notes


def input_metrics(workload, items, tracer_metrics, counts) -> dict:
    graphs = [g for item in items for g in (workload.input_graphs(item) or ())]
    if not graphs:  # sweep: the graphs the program generated reach the kernels
        calls = tracer_metrics["kernels.calls"]
        return {
            "input.items": tracer_metrics["harness.checks"],
            "input.disconnected_share": counts["kernels.disconnected"] / calls if calls else 0.0,
            "input.repeat_share": tracer_metrics["kernels.repeat_ratio"],
        }
    seen, repeats = set(), 0
    for g in graphs:
        repeats += g in seen
        seen.add(g)
    return {
        "input.items": len(items),
        "input.disconnected_share": sum(
            not tracer.is_connected_masks(workloads.masks_of(g)) for g in graphs) / len(graphs),
        "input.repeat_share": repeats / len(graphs),
    }


def traced(workload, name: str, seed: int):
    """Per-layer metrics from a fixed item list, each item run untraced and traced.

    The two runs of an item use separately generated copies, so neither
    sees objects the other has already used, and they alternate which goes
    first, so warm-up and host drift fall on both sides alike.
    """
    def fresh_items():
        return list(itertools.islice(workload.items(), TRACE_ITEMS[name]))

    tr = tracer.Tracer()
    rows, seconds = [], {False: 0.0, True: 0.0}
    items = fresh_items()
    for i, pair in enumerate(zip(fresh_items(), items)):
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_now:
                tr.install()
            try:
                rows.append(run_item(workload, pair[traced_now]))
            finally:
                tr.restore()
            seconds[traced_now] += rows[-1][1]
    plain_s, traced_s = seconds[False], seconds[True]
    metrics = tr.layer_metrics()
    metrics.update(input_metrics(workload, items, metrics, tr.counts))
    metrics["trace.overhead_ratio"] = traced_s / plain_s - 1.0
    solve_inputs = itertools.islice(workloads.Solve.rounds(seed), len(workloads.Solve.STRATA))
    rows_by_n, values = workloads.kernel_rows([it.graph for it in solve_inputs])
    metrics.update(rows_by_n)
    problems = []
    if len(set(map(tuple, values.values()))) > 1:
        problems.append(f"kernel backends disagree: {values}")
    (SCRATCH / "traces").mkdir(parents=True, exist_ok=True)
    tr.write(SCRATCH / "traces" / f"{name}-seed{seed}.jsonl")
    return rows, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "solve", "certify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "twpw" / "__init__.py").is_file():
        fail(f"no twpw sources under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(exist_ok=True)
    build_s = build()

    global workloads  # imports twpw, so only once the build is done
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from twpw import kernels

    import_s = time.perf_counter() - PROCESS_START - build_s
    expected = json.loads((HERE / "expected.json").read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed, expected, SCRATCH)
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.prepare()
        prepare_s.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(prepare_s)
    setup_probes = [stats.speed_probe(time.perf_counter) for _ in range(stats.PROBE_WINDOW)]

    if args.trace:
        rows, metrics, problems = traced(workload, args.workload, args.seed)
        notes = {}
        wanted = spec["per_layer"]
    else:
        rows, probes = measure(workload, args.seconds)
        (SCRATCH / f"items-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"rows": rows, "probes": probes}))
        metrics, notes = end_to_end(rows, probes, setup_s, setup_probes)
        problems = []
        wanted = spec["end_to_end"]
    problems += workload.verify()
    attempted = sum(r[0] for r in rows)
    failed = sum(r[2] for r in rows) + len(problems)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {kernels.backend()}  python {platform.python_version()}  "
          f"nproc {os.cpu_count()}")
    for problem in problems:
        print(f"check failed: {problem}")
    units = {m["name"]: m["unit"] for m in wanted}
    for key in sorted(metrics):
        unit = units.get(key, "ms" if key.endswith("_ms") or "_ms." in key else "")
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{key:40s} {metrics[key]:.6g} {unit}{note}")
    print(f"{'error_ratio':40s} {failed / attempted:.6g}  ({failed} of {attempted} failed)")
    missing = sorted(set(units) - set(metrics))
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
