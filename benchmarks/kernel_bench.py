"""Time the subset-DP kernels, pure Python against the compiled extension.

Usage: python benchmarks/kernel_bench.py [--max-n 13] [--samples 5] [--seed 1]

Each row solves the same batch of random graphs with both backends and
reports the per-backend wall time plus the speedup.  Results must agree
exactly; a mismatch aborts the run.
"""

import argparse
import sys
import time

from twpw.harness import SplitMix64, random_graph
from twpw.kernels import load_backend


def time_backend(module, batches):
    start = time.perf_counter()
    out = []
    for masks in batches:
        out.append((module.treewidth_dp(masks)[0], module.pathwidth_dp(masks)[0]))
    return time.perf_counter() - start, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-n", type=int, default=13)
    parser.add_argument("--min-n", type=int, default=10)
    parser.add_argument("--samples", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not 1 <= args.min_n <= args.max_n <= 16:
        print("need 1 <= min-n <= max-n <= 16", file=sys.stderr)
        return 2

    pure = load_backend("python")
    try:
        compiled = load_backend("c")
    except ImportError:
        print("compiled extension not built; nothing to compare", file=sys.stderr)
        return 1

    rng = SplitMix64(args.seed)
    print(f"{'n':>3} {'pure (s)':>10} {'compiled (s)':>13} {'speedup':>8}")
    for n in range(args.min_n, args.max_n + 1):
        batches = [random_graph(rng, n, 5).masks() for _ in range(args.samples)]
        t_pure, r_pure = time_backend(pure, batches)
        t_c, r_c = time_backend(compiled, batches)
        if r_pure != r_c:
            print(f"backend disagreement at n={n}: {r_pure} vs {r_c}", file=sys.stderr)
            return 1
        ratio = t_pure / t_c if t_c > 0 else float("inf")
        print(f"{n:>3} {t_pure:>10.3f} {t_c:>13.3f} {ratio:>7.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
