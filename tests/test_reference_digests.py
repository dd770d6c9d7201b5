"""The benchmark's full-size runs reproduce the reference digests.

The blocked kernels (nearest-centre scores, SIC's stages and the noiseless
products of ``core.noisy_levels``) must give the bits of whole products, and
``harness.sample_dmin``'s two cursors the stream of whole draw blocks (the
``ccdf`` run has seven, the last one partial), at the sizes the benchmark
runs, which the tiny runs of ``perfbench/test_smoke.py`` do not reach.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload", ["detectors-and-analysis", "full-search-k4096", "sic-split"])
def test_benchmark_workload_matches_reference_digests(workload, tmp_path):
    # one pass of the workload's CLI runs at seed 42 in a copy of the
    # checkout, so the benchmark's work directory in the checkout is left
    # alone; every CSV's sha256 must equal perfbench/reference_digests.json
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_work")
    for part in ("src", "configs", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=ignore)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "42", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
