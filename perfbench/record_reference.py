"""Record the reference outputs that seed-42 runs are checked against.

Runs each workload once at the reference seed, with the benchmark's own
environment, and writes ``reference/seed42.json``.  Run it from the
repository root at the commit whose outputs are the reference:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import checks
from run import BUDGET_S, REFERENCE, WORK, Bench, build
from workloads import REFERENCE_SEED, WORKLOADS


def main() -> int:
    error = build()
    if error:
        print(f"record_reference: {error}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    reference = {}
    for name, workload in WORKLOADS.items():
        tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
        try:
            bench = Bench(workload, tmp, time.monotonic() + BUDGET_S)
            record, run_dir, error = bench.spawn("run", REFERENCE_SEED)
            if error or record["exit_codes"] != [0] * len(workload.steps):
                print(f"record_reference: {name} failed: {error or record}", file=sys.stderr)
                return 1
            outputs = checks.read_outputs(workload, run_dir)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        problems = checks.invariants(workload, outputs)
        if problems:
            print(f"record_reference: {name} breaks its invariants: {problems}",
                  file=sys.stderr)
            return 1
        reference[name] = outputs
        print(f"{name}: {len(outputs['table']['rows'])} rows, wall {record['wall_s']:.2f} s")
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
