#!/usr/bin/env python3
"""The exact-count ledger: every count a wvbench smoke run reports for the
simulated workloads, held to the unit against results/wvbench_counts.json.

    benchmark/ci.sh                                                    # writes benchmark/out/smoke.json
    python3 scripts/wvbench_counts.py check benchmark/out/smoke.json   # exit 1 if any count moved
    python3 scripts/wvbench_counts.py bless benchmark/out/smoke.json   # rewrite the ledger

The smoke run is seed 11 at 1/50 of the work, and its counts are a pure
function of the code. A change that moves a count re-blesses the ledger,
and the ledger's diff is that change's before -> after. Run from the
repository root.
"""

import json
import sys

LEDGER = "results/wvbench_counts.json"
WORKLOADS = ("sim-read", "sim-write", "sim-hot", "sim-churn")


def smoke_counts(path):
    workloads = json.load(open(path))["runs"][0]["workloads"]
    return {w: {k: int(v) for k, v in workloads[w]["counts"].items()} for w in WORKLOADS}


def main(mode, smoke):
    fresh = smoke_counts(smoke)
    if mode == "bless":
        with open(LEDGER, "w") as out:
            json.dump(fresh, out, indent=1, sort_keys=True)
            out.write("\n")
        return 0
    ledger = json.load(open(LEDGER))
    moved = []
    for w in WORKLOADS:
        old, new = ledger.get(w, {}), fresh[w]
        for name in sorted(old.keys() | new.keys()):
            if old.get(name) != new.get(name):
                moved.append(f"{w} {name}: {old.get(name)} -> {new.get(name)}")
    total = sum(len(fresh[w]) for w in WORKLOADS)
    print(f"{len(moved)} of {total} counts moved")
    for line in moved:
        print("  " + line)
    return 1 if moved else 0


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("check", "bless"):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
