#!/usr/bin/env python3
"""Self-test: two traced runs of the same workload and seed give identical exact counts.

Run from the repository root (about three minutes for all workloads):

    python3 benchmark/selftest.py

Later changes may cite the count metrics (calls and Newton iterations per
task) as exact counts, so they must not depend on timing or on the host.
Exits with code 1 if any count differs or a run fails.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("study-dr", "study-kh", "estimate-1m")
SEED = 7


def traced_counts(workload: str) -> dict:
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
                           "--seconds", "6", "--trace", "1"], capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: run.py exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: run reported incorrect output")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> int:
    ok = True
    for workload in WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        differ = sorted(k for k in first if first[k] != second.get(k))
        ok = ok and not differ and bool(first)
        print(f"{'PASS' if not differ else 'FAIL'} {workload}: {len(first)} counts"
              + (f", differing: {differ}" if differ else ""))
        print("     " + json.dumps(first, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
