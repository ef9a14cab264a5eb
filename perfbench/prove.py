"""Check that the benchmark is steady: run it over several seeds.

Usage (from the repository root):

    python3 perfbench/prove.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Runs perfbench/run.py once per seed, one run at a time, for each workload
of BENCHMARK.json (or those named), and prints for every end-to-end metric
the median, the quartiles, and their distance as a share of the median,
next to a third of the metric's bound, the spread the benchmark aims for.
The raw results go to .bench_build/prove-<workload>.json and the summary,
with the backend, Python version and CPU count the runs reported, to
.bench_build/prove-summary.json; perfbench/baseline.json is such a summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    steady = True
    summary = {"runs": args.runs, "first_seed": args.first_seed,
               "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                print(f"{name} seed {seed}: exit {done.returncode}")
                return 1
            lines = done.stdout.strip().splitlines()
            words = lines[0].split()
            summary.update(zip(words[6::2], words[7::2]))  # backend, python, nproc
            results.append(json.loads(lines[-1]))
        (ROOT / ".bench_build" / f"prove-{name}.json").write_text(json.dumps(results))
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            aim = metric["bound"] / 3
            ok = spread <= aim or metric["name"] == "setup_s"
            steady &= ok
            summary["workloads"].setdefault(name, {})[metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"{name:8s} {metric['name']:12s} median {med:10.4f} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.3f} "
                  f"aim {aim:5.3f} {'ok' if ok else 'WIDE'}", flush=True)
    (ROOT / ".bench_build" / "prove-summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
