#!/usr/bin/env python3
"""Record reference CSV digests for the benchmark's workloads.

Run from the root of the checkout whose output is the reference::

    python3 perfbench/record_digests.py 42 0 1 2

Runs every workload once per seed, exactly as ``run.py`` does, checks the
CSVs, and merges their sha256 digests into ``reference_digests.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import run


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [42]
    root = Path.cwd()
    work = root / run.WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    env = run.child_env(root)
    table = (json.loads(run.REFERENCE_DIGESTS.read_text())
             if run.REFERENCE_DIGESTS.exists() else {})
    for name, workload in run.WORKLOADS.items():
        for seed in seeds:
            result = run.run_pass(root, work, env, workload, seed, "record",
                                  time.perf_counter() + run.RUN_BUDGET_S)
            if result.failures:
                print(f"error: {name} seed {seed}: {result.failures}",
                      file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = result.digests
            print(f"{name} seed {seed}: {result.wall_s:.1f} s", flush=True)
            run.REFERENCE_DIGESTS.write_text(
                json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
