#!/usr/bin/env python3
"""Benchmark of the quantmimo CLI, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sic-split --seed 7 --seconds 20 --trace 0

Every CLI run is a fresh ``python3 -m quantmimo.cli`` process with
``--threads 1`` and BLAS pinned to one thread, fed the workload's config with
``--seed`` overriding the config seed. Each CSV it writes is checked for the
schema invariants and against the reference sha256 recorded for that
workload and seed (``reference_digests.json``); for a seed without a
reference, every run of it must give the same digest.

``--trace 0`` reports the end-to-end metrics, untraced. ``--trace 1`` runs
the workload once untraced and once under ``tracer.py`` and reports the
per-layer metrics derived from the spans. The last line of standard output
is the result object; the line before it holds the details (environment,
samples, digests).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
REFERENCE_DIGESTS = HERE / "reference_digests.json"
WORK_DIR = ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 3
RUN_BUDGET_S = 170.0  # a run must end within 180 s; children share this budget
CSV_HEADER = "snr_db,detector,framework,errors,trials,ser,svep,bound"

# What the untraced set-up measurement does: a fresh interpreter imports the
# CLI, then loads and validates the config as ``quantmimo.cli.main`` does.
# The last line reports the library versions for the environment record; it
# costs microseconds and imports nothing more.
SETUP_CODE = """\
import sys
from dataclasses import replace
import quantmimo.cli
from quantmimo import harness
import numpy, scipy
cfg = replace(harness.load_config(sys.argv[1]), seed=int(sys.argv[2]), threads=1)
cfg.validate()
blas = getattr(numpy.__config__, "CONFIG", {}).get(
    "Build Dependencies", {}).get("blas", {})
print(sys.version.split()[0], numpy.__version__, scipy.__version__,
      blas.get("name", "unknown"), blas.get("version", ""))
"""


@dataclass(frozen=True)
class Workload:
    """CLI runs making up one workload, and the layer functions it must call."""

    runs: tuple[tuple[str, str], ...]  # (subcommand, config path)
    expected: tuple[str, ...]


_CORE = ("core.transmit_batch", "core.quantize_levels", "core.sample_channel",
         "core.enumerate_symbols")

WORKLOADS = {
    # The one-bit analysis runs (bound, ccdf) ride along here rather than
    # forming a workload of their own: set-up is half of their wall time, and
    # alone they spread by 19-33 % across runs on a 2-core shared host.
    "detectors-and-analysis": Workload(
        runs=(("ser", "configs/detector_comparison.cfg"),
              ("bound", "configs/bound_validation.cfg"),
              ("ccdf", "configs/dmin_ccdf.cfg")),
        expected=_CORE + (
            "core.vectors_from_levels", "training.learn_implicit",
            "detection.centroids", "detection.detect_emld_batch",
            "detection.detect_mmd_batch", "detection.detect_mcd_batch",
            "baselines.detect_mld_batch", "analysis.geometry",
            "analysis.build_codebook", "analysis.svep_upper_bound",
            "harness.sample_dmin")),
    "full-search-k4096": Workload(
        runs=(("ser", "perfbench/configs/full_search_k4096.cfg"),),
        expected=_CORE + (
            "core.vectors_from_levels", "training.learn_explicit",
            "detection.centroids", "detection.detect_mcd_batch")),
    "sic-split": Workload(
        runs=(("ser", "configs/sic_tradeoff_nt1_5.cfg"),),
        expected=_CORE + (
            "sic.build_plan", "sic.learn_first_stage", "sic.detect_sic_batch")),
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "vectors_per_s": "1/s",
    "peak_rss_mb": "MB",
}

CANDIDATE_EVALS = {
    "emld": "detection.detect_emld_batch",
    "mmd": "detection.detect_mmd_batch",
    "mcd": "detection.detect_mcd_batch",
    "mld": "baselines.detect_mld_batch",
    "sic": "sic.detect_sic_batch",
}
COMPUTED_BYTES = ("detection.detect_emld_batch", "baselines.detect_mld_batch")


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for name in tracer.TRACED:
        units.update({f"{name}.calls": "count", f"{name}.self_s": "s",
                      f"{name}.total_s": "s"})
    units.update({"training.samples": "count", "training.support_rows": "count"})
    units.update({f"{det}.candidate_evals": "count" for det in CANDIDATE_EVALS})
    units.update({f"{name}.computed_bytes": "bytes" for name in COMPUTED_BYTES})
    units.update({"analysis.geometry.kept_ratio": "ratio",
                  "harness.self_s": "s", "trace.overhead_s": "s"})
    return units


# ---------------------------------------------------------------------------
# processes


@dataclass
class ChildResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int | None  # exit code, None on timeout


def spawn(argv: list[str], env: dict, log: Path, deadline: float) -> ChildResult:
    """Run one child; wall time from spawn to exit, peak RSS of that child.

    The child is killed if it is still running at ``deadline``
    (a ``time.perf_counter`` value).
    """
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=out)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                exited = select.select(
                    [fd], [], [], max(0.0, deadline - started))[0]
            finally:
                os.close(fd)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0,
                       proc.returncode if exited else None)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + path if path else "")
    env.update({name: "1" for name in BLAS_THREAD_VARS})
    return env


# ---------------------------------------------------------------------------
# output checks


def read_config(path: Path) -> dict[str, str]:
    raw = {}
    for line in path.read_text().splitlines():
        key, sep, value = line.split("#", 1)[0].partition("=")
        if sep:
            raw[key.strip().lower()] = value.strip()
    return raw


def _items(value: str) -> list[str]:
    return value.replace(",", " ").split()


def check_csv(text: str, command: str, cfg: dict[str, str]) -> int:
    """Symbol vectors (channels for ccdf) behind a CSV; raises on a bad CSV."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unexpected CSV header")
    rows = [line.split(",") for line in lines[1:]]
    channels = int(cfg["channel_count"])
    n_t, n_r = int(cfg["n_t"]), int(cfg["n_r"])
    if command == "ccdf":
        expected_rows, trials = n_r + 2, channels
    else:
        detectors = len(_items(cfg.get("detectors", "mcd")))
        expected_rows = len(_items(cfg["snr_grid_db"])) * (
            detectors if command == "ser" else 1)
        trials = channels * int(cfg["vectors_per_channel"]) * n_t
    if len(rows) != expected_rows:
        raise ValueError(f"{len(rows)} CSV rows, expected {expected_rows}")
    counts = []
    for row in rows:
        errors, row_trials, ser = int(row[3]), int(row[4]), float(row[5])
        if row_trials != trials or not 0 <= errors <= trials:
            raise ValueError(f"row {row}: counts out of range")
        if not math.isclose(ser, errors / trials, rel_tol=1e-9, abs_tol=1e-15):
            raise ValueError(f"row {row}: ser != errors / trials")
        counts.append(errors)
    if command == "ccdf":
        if counts[0] != channels or counts != sorted(counts, reverse=True):
            raise ValueError("Monte Carlo CCDF is not a non-increasing count")
        return channels
    return len(rows) * trials // n_t


# ---------------------------------------------------------------------------
# one pass over a workload


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    rss_mb: float
    vectors: int
    digests: list[str]
    failures: dict[int, str]  # run index -> first reason it failed
    spans: list[list]


def run_pass(root: Path, work: Path, env: dict, workload: Workload, seed: int,
             label: str, deadline: float, traced: bool = False) -> Pass:
    """Every CLI run of the workload once, in order."""
    result = Pass(0.0, 0.0, 0.0, 0, [], {}, [])
    for i, (command, config) in enumerate(workload.runs):
        stem = work / f"{label}-{i}-{command}"
        csv_path, spans_path = stem.with_suffix(".csv"), stem.with_suffix(".spans")
        cli_args = [command, "--config", str(root / config), "--seed", str(seed),
                    "--threads", "1", "--out", str(csv_path)]
        entry = [str(HERE / "tracer.py"), str(spans_path)] if traced else [
            "-m", "quantmimo.cli"]
        child = spawn([sys.executable, *entry, *cli_args], env,
                      stem.with_suffix(".log"), deadline)
        result.wall_s += child.wall_s
        result.cpu_s += child.cpu_s
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        if child.status != 0:
            reason = "timed out" if child.status is None else f"exit {child.status}"
            result.failures[i] = f"{command} {config}: {reason}"
            result.digests.append("")
            continue
        data = csv_path.read_bytes()
        result.digests.append(hashlib.sha256(data).hexdigest())
        try:
            result.vectors += check_csv(
                data.decode(), command, read_config(root / config))
        except (ValueError, KeyError, IndexError) as exc:
            result.failures[i] = f"{command} {config}: {exc}"
        if traced:
            result.spans.append(json.loads(spans_path.read_text()))
    return result


def check_digests(passes: list[Pass], reference: list[str] | None) -> None:
    """Mark every run whose CSV digest differs from the reference.

    Without a reference, the first pass's digests stand in for it.
    """
    expected = reference or passes[0].digests
    for p in passes:
        for i, (got, want) in enumerate(zip(p.digests, expected)):
            if got and want and got != want:
                p.failures.setdefault(
                    i, f"run {i}: CSV digest {got[:12]} != {want[:12]}")


# ---------------------------------------------------------------------------
# metrics


def layer_metrics(spans_per_process: list[list], traced_wall: float,
                  untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics from the spans of every traced process."""
    calls = dict.fromkeys(tracer.TRACED, 0)
    total = dict.fromkeys(tracer.TRACED, 0.0)
    self_s = dict.fromkeys(tracer.TRACED, 0.0)
    counts: dict[tuple[str, str], list] = {}
    roots = 0.0
    for spans in spans_per_process:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is None:
                roots += end - start
            else:
                child_time[parent] += end - start
        for (name, start, end, _, span_counts), inner in zip(spans, child_time):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - inner
            for key, value in (span_counts or {}).items():
                counts.setdefault((name, key), []).append(value)

    def summed(name, key):
        return sum(counts.get((name, key), ()))

    metrics: dict[str, float] = {}
    for name in tracer.TRACED:
        metrics.update({f"{name}.calls": calls[name], f"{name}.self_s": self_s[name],
                        f"{name}.total_s": total[name]})
    training = ("training.learn_implicit", "training.learn_explicit")
    metrics["training.samples"] = sum(summed(n, "samples") for n in training)
    metrics["training.support_rows"] = sum(
        summed(n, "support_rows") for n in training)
    for det, name in CANDIDATE_EVALS.items():
        metrics[f"{det}.candidate_evals"] = summed(name, "candidate_evals")
    for name in COMPUTED_BYTES:
        # the largest single temporary, from array shapes
        metrics[f"{name}.computed_bytes"] = max(
            counts.get((name, "computed_bytes"), [0]))
    drawn = calls["analysis.geometry"]
    metrics["analysis.geometry.kept_ratio"] = (
        summed("analysis.geometry", "kept") / drawn if drawn else 0.0)
    metrics["harness.self_s"] = traced_wall - roots
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics


def environment(setup_log: Path) -> dict:
    """Host facts plus the versions a set-up child printed as its last line."""
    python, numpy, scipy, *blas = setup_log.read_text().split()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": python,
        "numpy": numpy,
        "scipy": scipy,
        "blas": " ".join(blas),
        "blas_threads": {name: "1" for name in BLAS_THREAD_VARS},
        "cli_threads": 1,
        "note": "--threads scaling beyond 2 workers cannot be measured on a "
                "2-core host; every run uses --threads 1",
    }


def measure(root: Path, work: Path, name: str, workload: Workload, seed: int,
            seconds: float, trace: bool, references: dict,
            setup_rounds: int = SETUP_ROUNDS) -> tuple[dict, dict]:
    """Run the workload; returns (result object, details)."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    env = child_env(root)
    details: dict = {"workload": name, "seed": seed, "trace": int(trace)}
    setup: list[float] = []
    passes: list[Pass] = []

    def setup_round() -> None:
        r = len(setup)
        setup.append(sum(
            spawn([sys.executable, "-c", SETUP_CODE, str(root / config),
                   str(seed)], env, work / f"setup-{r}-{i}.log", deadline).wall_s
            for i, (_, config) in enumerate(workload.runs)))

    if trace:
        setup_round()
        passes = [run_pass(root, work, env, workload, seed, "untraced", deadline),
                  run_pass(root, work, env, workload, seed, "traced", deadline,
                           traced=True)]
    else:
        for _ in range(setup_rounds):
            setup_round()
        started = time.perf_counter()
        while not passes or time.perf_counter() - started < seconds:
            passes.append(run_pass(root, work, env, workload, seed,
                                   f"pass{len(passes)}", deadline))
    reference = references.get(name, {}).get(str(seed))
    check_digests(passes, reference)
    failures = [f for p in passes for f in p.failures.values()]
    attempted = len(passes) * len(workload.runs)
    failed = len(failures)
    details.update({
        "passes": len(passes),
        "digests": passes[0].digests,
        "digest_check": "reference" if reference else "self-consistency",
        "failed_share": failed / attempted,
        "failures": failures,
        "samples": {"wall_s": [p.wall_s for p in passes],
                    "cpu_s": [p.cpu_s for p in passes],
                    "setup_s": setup,
                    "peak_rss_mb": [p.rss_mb for p in passes]},
    })
    if trace:
        untraced, traced = passes
        metrics = layer_metrics(traced.spans, traced.wall_s, untraced.wall_s)
        missing = [f for f in workload.expected if metrics[f"{f}.calls"] == 0]
        if missing and not failures:
            raise RuntimeError(
                f"traced run of {name} never called {', '.join(missing)}")
        details["traced_wall_s"] = traced.wall_s
        units = per_layer_units()
    else:
        wall_s = statistics.median(p.wall_s for p in passes)
        metrics = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup),
            # per second of wall time: subtracting set-up, about half the wall
            # time of the bound and ccdf runs, leaves a difference too noisy
            # to bound
            "vectors_per_s": passes[0].vectors / wall_s,
            "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        }
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated benchmark still stops and reaps the child it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    workload = WORKLOADS[args.workload]
    needed = [root / "src" / "quantmimo" / "cli.py"] + [
        root / config for _, config in workload.runs]
    absent = [str(p) for p in needed if not p.is_file()]
    if absent:
        print(f"error: run from a quantmimo checkout; missing {', '.join(absent)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    work = root / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    references = json.loads(REFERENCE_DIGESTS.read_text())
    try:
        result, details = measure(root, work, args.workload, workload, args.seed,
                                  args.seconds, bool(args.trace), references)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    details["environment"] = environment(work / "setup-0-0.log")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
