"""Smoke test of the benchmark: every workload path at a tiny size.

Run from the root of the checkout::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-workload config overrides that shrink every CLI run to a second or two.
TINY = {
    "detectors-and-analysis": {"channel_count": "2", "vectors_per_channel": "20"},
    "full-search-k4096": {"n_t": "3", "n_r": "8", "channel_count": "1"},
    "sic-split": {"channel_count": "1", "vectors_per_channel": "20"},
}


def tiny_workload(name: str, directory: Path) -> run.Workload:
    workload = run.WORKLOADS[name]
    runs = []
    for i, (command, config) in enumerate(workload.runs):
        lines = []
        for line in (ROOT / config).read_text().splitlines():
            key = line.split("=", 1)[0].strip()
            if "=" in line and key in TINY[name]:
                line = f"{key} = {TINY[name][key]}"
            lines.append(line)
        path = directory / f"{name}-{i}.cfg"
        path.write_text("\n".join(lines) + "\n")
        runs.append((command, str(path)))
    return run.Workload(runs=tuple(runs), expected=workload.expected)


def _measure(name, tmp_path, trace, references=None):
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    return run.measure(ROOT, work, name, tiny_workload(name, tmp_path), seed=3,
                       seconds=0, trace=trace, references=references or {},
                       setup_rounds=1)


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_reports_every_declared_metric(name, tmp_path):
    assert name in {w["name"] for w in BENCHMARK["workloads"]}
    plain, _ = _measure(name, tmp_path, trace=False)
    traced, details = _measure(name, tmp_path, trace=True)
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == _declared(kind)
    assert plain["metrics"]["wall_s"]["value"] > 0
    assert plain["metrics"]["setup_s"]["value"] > 0

    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    self_times = [layer[f"{f}.self_s"] for f in tracer.TRACED]
    assert min(self_times) >= -1e-9
    assert layer["harness.self_s"] > 0
    assert math.isclose(sum(self_times) + layer["harness.self_s"],
                        details["traced_wall_s"], rel_tol=1e-9)
    for f in run.WORKLOADS[name].expected:
        assert layer[f"{f}.calls"] > 0, f


def test_digest_mismatch_counts_as_failure(tmp_path):
    name = "sic-split"
    wrong = {name: {"3": ["0" * 64]}}
    result, details = _measure(name, tmp_path, trace=False, references=wrong)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert details["failed_share"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sic-split",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
