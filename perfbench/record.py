"""Regenerate `expected.json`, the output digests the benchmark checks.

    python3 perfbench/record.py

Runs every workload once on the default seed, untraced, and records the
digest of each case's canonical output.  A case whose cross-route check
fails is not recorded: the script stops instead.  Re-record only when a
change is meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from worker import run_pass  # noqa: E402


def main() -> int:
    digests = {}
    for name in workloads.WORKLOADS:
        setup = workloads.build(name, workloads.DEFAULT_SEED, pinned=False)
        record = run_pass(setup, "plain")
        if record["failed"]:
            print(f"{name}: failing cases {record['failed'][:10]}", file=sys.stderr)
            return 1
        digests[name] = {c.key: d for c, d in zip(setup.cases, record["digests"])}
        print(f"{name}: {len(setup.cases)} cases in {record['wall_s']:.2f} s")
    with open(workloads.EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"seed": workloads.DEFAULT_SEED, "digests": digests}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
