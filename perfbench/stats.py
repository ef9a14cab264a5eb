"""Order statistics for per-item timings.

Percentiles use the nearest-rank rule, so every reported value is one that
was measured.  A tail percentile is trusted only when enough samples lie
beyond it: with ten or more, one outlier cannot move it by itself.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

TAIL_CANDIDATES = (99.9, 99.0, 98.0, 97.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def rank(count: int, pct: float) -> int:
    """1-based nearest rank of a percentile, computed without rounding error."""
    return max(1, math.ceil(Fraction(str(pct)) * count / 100))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[rank(len(ordered), pct) - 1]


def beyond(count: int, pct: float) -> int:
    """How many of `count` samples lie above the nearest-rank percentile."""
    return count - rank(count, pct)


def tail_percentile(samples, candidates=TAIL_CANDIDATES, min_beyond=MIN_BEYOND):
    """Highest candidate percentile with at least `min_beyond` samples above it.

    Returns (pct, value), or None when even the lowest candidate has too few
    samples beyond it.
    """
    for pct in sorted(candidates, reverse=True):
        if beyond(len(samples), pct) >= min_beyond:
            return pct, percentile(samples, pct)
    return None


# ---------------------------------------------------------------------------
# host speed
#
# The benchmark shares its host with other jobs, and the host's speed drifts:
# the same pure-Python loop has been measured at 31-77 ms from one second to
# the next, and 30 s runs of identical work at 97-154 items/s within ten
# minutes.  A fixed probe of the benchmark's own code, timed between items,
# tracks that drift, and item times are rescaled to the speed at which the
# probe takes PROBE_REFERENCE_S.  The program cannot change the probe, so
# every change to the program still shows in full.

PROBE_REFERENCE_S = 0.002
PROBE_WINDOW = 5
_PROBE_TABLE = [(i * 0x9E3779B1) & 0xFFFF for i in range(1024)]


def speed_probe(clock) -> float:
    """Seconds taken by a fixed loop of integer, list and dict work."""
    start = clock()
    acc, seen = 0, {}
    for i in range(10000):
        x = _PROBE_TABLE[i & 1023]
        acc ^= (x & -x).bit_length() + (x >> 3)
        if i & 7 == 0:
            seen[x] = seen.get(x, 0) + 1
    return clock() - start


def host_factors(probes, window=PROBE_WINDOW) -> list[float]:
    """Per probe, PROBE_REFERENCE_S over the median of the probes around it."""
    half = window // 2
    return [PROBE_REFERENCE_S / statistics.median(probes[max(0, i - half):i + half + 1])
            for i in range(len(probes))]
