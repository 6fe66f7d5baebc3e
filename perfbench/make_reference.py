"""Regenerate reference.json: the outcome of one run per workload and size.

    python3 perfbench/make_reference.py

The stored outcomes are what `workloads.check` compares later runs
with.  Run it only on a commit whose outputs are the accepted ones; a
change that is meant to keep outputs the same must not regenerate it.
"""

from __future__ import annotations

import json
import sys

from run import DEADLINE_S, HERE, run_once, scratch_dir
import workloads

SEED = 0


def main() -> int:
    ref = {}
    with scratch_dir() as tmp:
        for name in workloads.WORKLOADS:
            for size in ("full", "smoke"):
                rec = run_once(name, SEED, 0, size, tmp, DEADLINE_S, None)
                if rec["problems"]:
                    print(f"{name}/{size}: {rec['problems']}", file=sys.stderr)
                    return 1
                ref.setdefault(name, {})[size] = rec["outcome"]
                print(f"{name}/{size}: {rec['outcome']}")
    with open(HERE / "reference.json", "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
