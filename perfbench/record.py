"""Record the reference outputs that perfbench/run.py checks against.

Usage (from the repository root): python3 perfbench/record.py

Writes perfbench/expected.json: the sha256 of a passing sweep call's TAP,
the same for every call because TAP names checks but not graphs, and the
digest of the default seed's first solve round.  Record only from a commit whose
outputs are known to be right; the harness TAP must stay byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    empty = {"sweep": {"tap_sha256": ""}, "solve": {"round_sha256": ""}}
    sweep = workloads.Sweep(workloads.DEFAULT_SEED, empty, HERE.parent / ".bench_build")
    rc, tap = sweep.call(1)
    if rc != 0 or "not ok" in tap:
        print("the first sweep call failed; not recording", file=sys.stderr)
        return 1
    out = {
        "sweep": {"tap_sha256": workloads.tap_digest(tap)},
        "solve": {"seed": workloads.DEFAULT_SEED,
                  "round_sha256": workloads.default_round_digest()},
    }
    (HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
