"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them). Tolerances and runtime
budgets are fixed here, not tuned elsewhere."""

import time
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from quantmimo import analysis, core, detection, harness, sic, training
from quantmimo.core import QuantizerConfig
from quantmimo.harness import ExperimentConfig


class _Budget:
    """Context timer asserting the criterion's stated runtime budget."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.started
        if exc == (None, None, None):
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.1f}s exceeded budget {self.limit}s")
        return False


def _passed(name, detail=""):
    print(f"[PASS] {name}" + (f" ({detail})" if detail else ""))


def test_motivating_example_golden():
    with _Budget(1.0) as budget:
        # the real 2x2 toy channel [[0.5, 1], [1, 0]] as one complex antenna
        h = np.array([[0.5 + 1j, 1.0]])
        cfg = QuantizerConfig(bits=1, step=2.0)
        book = core.enumerate_symbols(core.bpsk(), 2)
        codebook = analysis.build_codebook(h, book, cfg)
        values = {tuple(row) for row in core.level_values(codebook, cfg)}
        assert values == {(1, 1), (-1, 1), (1, -1), (-1, -1)}
        pilots = training.build_implicit_pilots(book, 1)
        levels = core.transmit_batch(h, pilots, 0.0, cfg)
        model = training.learn_implicit(levels, book, 1, cfg)
        y = np.array([[1, 0]])  # values (1, -1)
        results = (
            detection.detect_emld_batch(y, model)[0],
            detection.detect_mmd_batch(y, model)[0],
            detection.detect_mcd_batch(
                core.level_values(y, cfg),
                detection.centroids(model.level_sums(), 1, cfg))[0],
        )
        assert results == (2, 2, 2)  # 0-based index of the third symbol
        assert np.array_equal(book.vectors[2], [-1, 1])
    _passed("motivating example golden test", f"{budget.elapsed:.2f}s")


def test_quantizer_alphabet():
    with _Budget(1.0) as budget:
        for bits in (1, 2, 3):
            cfg = QuantizerConfig(bits=bits, step=0.5)
            sweep = np.concatenate(
                [np.linspace(-3.0, 3.0, 60001), [-1e9, 1e9]])
            outputs = set(
                core.level_values(core.quantize_levels(sweep, cfg), cfg))
            assert outputs == set(cfg.output_values())
            assert len(outputs) == 2**bits
    _passed("quantizer output alphabet", f"{budget.elapsed:.2f}s")


def test_sign_match_probability_exactness():
    assert abs(analysis.sign_match_probability(2, 1) - 0.5) <= 1e-12
    assert abs(analysis.sign_match_probability(4, 1) - 2.0 / 3.0) <= 1e-12
    _passed("pairwise sign-match probability closed form")


def test_exact_ccdf_vs_monte_carlo():
    with _Budget(60.0) as budget:
        cfg = ExperimentConfig(
            n_t=2, n_r=2, bits=1, modulation="bpsk", snr_grid_db=(0.0,),
            channel_count=100_000, vectors_per_channel=1, seed=42,
            detectors=("mcd",))
        records = {r.detector: r for r in harness.run_ccdf_experiment(cfg)}
        assert records["dmin>=1"].bound == pytest.approx(0.875)
        assert records["dmin>=2"].bound == pytest.approx(0.375)
        for n in (1, 2):
            r = records[f"dmin>={n}"]
            assert abs(r.ser - r.bound) <= 0.01
    _passed("exact minimum-distance CCDF vs Monte Carlo",
            f"{budget.elapsed:.1f}s")


def test_approximate_ccdf_vs_monte_carlo():
    with _Budget(300.0) as budget:
        cfg = ExperimentConfig(
            n_t=4, n_r=4, bits=1, modulation="bpsk", snr_grid_db=(0.0,),
            channel_count=100_000, vectors_per_channel=1, seed=42,
            detectors=("mcd",))
        records = harness.run_ccdf_experiment(cfg)
        gap = max(abs(r.ser - r.bound) for r in records)
        assert gap <= 0.05
    _passed("approximate minimum-distance CCDF vs Monte Carlo",
            f"max gap {gap:.4f}, {budget.elapsed:.1f}s")


def test_error_bound_dominance_and_ratio_trend():
    """The bound dominates simulation and its SNR decay follows the
    simulated decay from below.

    For a fixed channel with flip budget D and smallest component g, the
    bound is c / 2**D * exp(-D s g**2 / n_t), so
    d ln(bound) / d ln s = -D s g**2 / n_t. Each of the D flips has
    probability Q(x) with x**2 = 2 s g**2 / n_t, and
    ln Q(x) = -x**2 / 2 - ln x + O(1), so
    d ln(svep) / d ln s -> -D (s g**2 / n_t + 1/2). Their quotient,
    2 s g**2 / (2 s g**2 + n_t), rises toward 1 from below. The
    bound/simulated ratio therefore grows until s g**2 / n_t dominates,
    for any bound of this form; on this grid it grows from about 19 to
    95. The per-channel form above is derived; that the channel-averaged
    records follow it is measured (quotients 0.08, 0.16, 0.29, 0.50 at
    seed 42, rising by at least 0.079 per step at seeds 0-9).

    Asserted: (a) the bound strictly falls from each grid point to the
    next; (b) the per-step rate quotient
    Delta ln(bound) / Delta ln(svep) does not decrease along the grid,
    within the Monte Carlo error of the binomial standard errors that
    the dominance check uses.
    """
    with _Budget(600.0) as budget:
        cfg = ExperimentConfig(
            n_t=2, n_r=2, bits=1, modulation="bpsk",
            snr_grid_db=(0.0, 5.0, 10.0, 15.0, 20.0), channel_count=100,
            vectors_per_channel=10_000, seed=42, detectors=("mcd",))
        records = harness.run_bound_validation(cfg)
        trials = cfg.channel_count * cfg.vectors_per_channel
        ratios = {}
        rel_se = []  # standard error of ln(svep) at each grid point
        for r in records:
            se = np.sqrt(max(r.svep * (1 - r.svep), 1e-12) / trials)
            assert r.svep <= r.bound + 1.96 * se, (
                f"simulated vector-error rate exceeds the bound at "
                f"{r.snr_db} dB")
            ratios[r.snr_db] = r.bound / r.svep
            rel_se.append(se / r.svep)
        elapsed = time.perf_counter() - budget.started
        print(f"[INFO] bound dominance holds at every grid point "
              f"({elapsed:.1f}s); bound/simulated ratios: "
              + ", ".join(f"{k:.0f} dB: {v:.1f}" for k, v in ratios.items()))
        for lo, hi in zip(records, records[1:]):
            assert hi.bound < lo.bound, (
                f"bound does not fall from {lo.snr_db} dB to {hi.snr_db} dB: "
                f"{lo.bound:.4f} -> {hi.bound:.4f}")
        quotients, quotient_se = [], []
        for k, (lo, hi) in enumerate(zip(records, records[1:])):
            d_bound = np.log(hi.bound / lo.bound)
            d_svep = np.log(hi.svep / lo.svep)
            quotients.append(d_bound / d_svep)
            quotient_se.append(abs(d_bound / d_svep**2)
                               * np.hypot(rel_se[k], rel_se[k + 1]))
        for k in range(len(quotients) - 1):
            tol = 1.96 * np.hypot(quotient_se[k], quotient_se[k + 1])
            assert quotients[k + 1] >= quotients[k] - tol, (
                "bound decay rate fell behind the simulated rate: "
                "rate quotients "
                + ", ".join(f"{q:.3f}" for q in quotients))
    _passed("error-bound dominance and ratio trend",
            "rate quotients " + ", ".join(f"{q:.2f}" for q in quotients))


def test_detector_hierarchy():
    with _Budget(600.0) as budget:
        cfg = ExperimentConfig(
            n_t=2, n_r=4, bits=1, modulation="qpsk", snr_grid_db=(20.0,),
            channel_count=200, vectors_per_channel=500, seed=42,
            repetitions=5, detectors=("emld", "mmd", "mcd", "mld"),
            training="implicit", csir="perfect")
        records = {r.detector: r for r in harness.run_ser_experiment(cfg)}
        reference = records["mld"].ser
        for det in ("emld", "mmd", "mcd"):
            assert reference <= records[det].ser, (
                f"{det} beat the optimal reference")
            assert records[det].ser <= 3.0 * reference, (
                f"{det} more than 3x worse than the optimal reference")
    _passed(
        "detector hierarchy at 20 dB",
        f"mld {reference:.4f}; "
        + ", ".join(f"{d} {records[d].ser:.4f}" for d in ("emld", "mmd", "mcd"))
        + f"; {budget.elapsed:.1f}s")


def test_multibit_gain_and_zf_floor():
    with _Budget(900.0) as budget:
        base = dict(
            n_t=4, n_r=6, modulation="qpsk", channel_count=100,
            vectors_per_channel=500, seed=42, training="explicit",
            csir="ls", artificial_count=8, t_t=100)
        ser = {}
        for bits in (1, 2, 3):
            cfg = ExperimentConfig(
                **base, bits=bits, snr_grid_db=(20.0,), detectors=("mcd",))
            ser[bits] = harness.run_ser_experiment(cfg)[0].ser
        assert ser[3] < ser[2] < ser[1], f"resolution ordering violated: {ser}"
        zf_cfg = ExperimentConfig(
            **base, bits=1, snr_grid_db=(20.0, 30.0), detectors=("zf",))
        zf = {r.snr_db: r.ser for r in harness.run_ser_experiment(zf_cfg)}
        assert zf[30.0] >= 0.5 * zf[20.0], f"no zero-forcing floor: {zf}"
    _passed(
        "multi-bit gain and zero-forcing floor",
        f"mcd B=1/2/3: {ser[1]:.4f}/{ser[2]:.4f}/{ser[3]:.4f}; "
        f"zf 20/30 dB: {zf[20.0]:.4f}/{zf[30.0]:.4f}; {budget.elapsed:.1f}s")


def test_sic_tradeoff():
    with _Budget(900.0) as budget:
        base = dict(
            n_t=6, n_r=32, bits=2, modulation="qpsk", snr_grid_db=(10.0,),
            channel_count=50, vectors_per_channel=200, seed=42,
            training="explicit", csir="perfect", artificial_count=16,
            detectors=("mcd",))
        # candidate-evaluation accounting per detected vector: stage one
        # scores centroids in nearest_center, stage two its candidates in
        # _candidate_sqdist
        rng = np.random.default_rng(0)
        qcfg = QuantizerConfig(2, 0.5)
        c = core.qpsk()
        h = core.sample_channel(32, 6, rng)
        for n_t1 in (5, 4):
            plan = sic.build_plan(h, n_t1)
            book1 = core.enumerate_symbols(c, n_t1)
            book2 = core.enumerate_symbols(c, 6 - n_t1)
            model = sic.learn_first_stage(
                plan, 0.6, 1, book1, book2, qcfg)
            x = core.enumerate_symbols(c, 6).vectors[[123, 7, 4000]]
            values = core.level_values(
                core.transmit_batch(h, x, 0.6, qcfg, rng), qcfg)
            with mock.patch.object(
                sic, "nearest_center", wraps=sic.nearest_center
            ) as first, mock.patch.object(
                sic, "_candidate_sqdist", wraps=sic._candidate_sqdist
            ) as second:
                sic.detect_sic_batch(values, plan, model, book1, book2)
            evaluated = sum(
                call.args[0].shape[0] * call.args[1].shape[0]
                for call in first.call_args_list) + sum(
                call.args[0].shape[0] * call.args[0].shape[1]
                for call in second.call_args_list)
            assert evaluated == 3 * (4**n_t1 + 4 ** (6 - n_t1))
        # error-rate ordering at 10 dB
        full = harness.run_ser_experiment(ExperimentConfig(**base))[0]
        sic5 = harness.run_ser_experiment(ExperimentConfig(
            **base, framework="sic", n_t1=5, first_stage_count=1))[0]
        sic4 = harness.run_ser_experiment(ExperimentConfig(
            **base, framework="sic", n_t1=4, first_stage_count=1))[0]
        assert full.ser <= sic5.ser, "joint detection lost to the split"
        se = np.sqrt(
            sic5.ser * (1 - sic5.ser) / sic5.trials
            + sic4.ser * (1 - sic4.ser) / sic4.trials)
        assert sic5.ser <= sic4.ser + 2.0 * se, (
            "error rate did not degrade as the first group shrank")
    _passed(
        "low-complexity tradeoff",
        f"full {full.ser:.5f} <= sic5 {sic5.ser:.5f} <= sic4 "
        f"{sic4.ser:.5f} + 2se; {budget.elapsed:.0f}s")


def test_property_suites(tmp_path):
    with _Budget(120.0) as budget:
        rng = np.random.default_rng(7)
        # PMF normalization and negation symmetry on a noisy implicit model
        qcfg = QuantizerConfig(bits=1, step=0.5)
        book = core.enumerate_symbols(core.qpsk(), 2)
        h = core.sample_channel(3, 2, rng)
        pilots = training.build_implicit_pilots(book, 50)
        levels = core.transmit_batch(h, pilots, 0.4, qcfg, rng)
        model = training.learn_implicit(levels, book, 50, qcfg)
        counts = [Counter(map(tuple, rows)) for rows in model.levels.tolist()]
        for k in range(book.size):
            assert sum(counts[k].values()) == 50
            pmf = [c / model.samples_per_symbol for c in counts[k].values()]
            assert abs(sum(pmf) - 1.0) <= 1e-12
            mirror = book.size - 1 - k
            for y, count in counts[k].items():
                # the negated observation, level by level
                assert counts[mirror][tuple(1 - v for v in y)] == count
        # one-bit Hamming/Euclidean argmin equivalence, 10^4 random cases
        centers = rng.choice([-1.0, 1.0], size=(8, 8))
        cb = detection.CentroidBook(centers=centers)
        obs_levels = rng.integers(0, 2, size=(10_000, 8))
        obs_values = core.level_values(obs_levels, QuantizerConfig(1, 2.0))
        euclid = detection.detect_mcd_batch(obs_values, cb)
        hamming = np.argmin(
            (obs_values[:, None, :] != centers[None, :, :]).sum(axis=2),
            axis=1)
        assert np.array_equal(euclid, hamming)
        # projection annihilation
        for _ in range(20):
            h2 = core.sample_channel(6, 2, rng)
            w1 = sic.projection_matrix(h2)
            assert np.abs(w1 @ sic.real_expand(h2)).max() <= 1e-9
        # seed reproducibility: byte-identical CSV files
        cfg = ExperimentConfig(
            n_t=2, n_r=4, bits=1, modulation="qpsk",
            snr_grid_db=(0.0, 10.0), channel_count=10,
            vectors_per_channel=50, seed=3, repetitions=5,
            detectors=("emld", "mmd", "mcd"), training="implicit")
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.write_csv(harness.run_ser_experiment(cfg), path_a)
        harness.write_csv(harness.run_ser_experiment(cfg), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
    _passed("property suites", f"{budget.elapsed:.1f}s")
