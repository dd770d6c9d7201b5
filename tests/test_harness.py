import dataclasses
import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quantmimo import analysis, baselines, core, detection, harness, sic, training
from quantmimo.cli import main
from quantmimo.harness import ConfigError, ExperimentConfig


def _cfg(**overrides):
    base = dict(
        n_t=2, n_r=4, bits=1, modulation="qpsk",
        snr_grid_db=(0.0, 10.0, 20.0), channel_count=8,
        vectors_per_channel=40, seed=5, repetitions=5,
        detectors=("emld", "mmd", "mcd", "mld"),
        training="implicit", csir="perfect")
    base.update(overrides)
    return ExperimentConfig(**base)


CONFIG_TEXT = """
# detector comparison, desk scale
n_t = 2
n_r = 4
b = 1
delta = 0.5
modulation = qpsk
snr_grid_db = 0, 10, 20
l = 5
t_t = 40
detectors = emld, mmd, mcd, mld
framework = full
training = implicit
csir = perfect
channel_count = 8
vectors_per_channel = 50
seed = 9
"""


# ---------------------------------------------------------------------------
# config parsing and validation


def test_parse_config_roundtrip():
    cfg = harness.parse_config(CONFIG_TEXT)
    assert cfg.n_t == 2 and cfg.n_r == 4 and cfg.bits == 1
    assert cfg.step == 0.5
    assert cfg.snr_grid_db == (0.0, 10.0, 20.0)
    assert cfg.detectors == ("emld", "mmd", "mcd", "mld")
    assert cfg.repetitions == 5 and cfg.t_t == 40
    cfg.validate_for_ser()


@pytest.mark.parametrize("line,fragment", [
    ("nonsense", "expected 'key = value'"),
    ("bogus_key = 3", "unknown key"),
    # the total frame length T = T_t + N is derived, not configured
    ("t = 90", "unknown key 't'"),
    ("threads = moose", "cannot parse"),
])
def test_parse_config_precise_errors(line, fragment):
    with pytest.raises(ConfigError, match=fragment):
        harness.parse_config(CONFIG_TEXT + "\n" + line)


def test_parse_config_missing_keys():
    with pytest.raises(ConfigError, match="missing required keys"):
        harness.parse_config("n_t = 2")


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        harness.parse_config(CONFIG_TEXT + "\nn_t = 2")


_KNOWN_KEYS = (
    "b", "channel_count", "csir", "delta", "detectors", "framework", "l",
    "l_a", "l_a1", "modulation", "n_r", "n_t", "n_t1", "seed", "snr_grid_db",
    "t_t", "threads", "training", "vectors_per_channel")


def test_config_schema_is_the_dataclass():
    fields = dataclasses.fields(ExperimentConfig)
    # every field has a value parser and its own key
    assert all(f.type in harness._PARSERS for f in fields)
    assert len(harness._SCHEMA) == len(fields)
    assert tuple(sorted(harness._SCHEMA)) == _KNOWN_KEYS
    with pytest.raises(ConfigError) as unknown:
        harness.parse_config("bogus = 1")
    assert str(unknown.value) == (
        f"line 1: unknown key 'bogus'; known keys: {', '.join(_KNOWN_KEYS)}")
    with pytest.raises(ConfigError) as missing:
        harness.parse_config("delta = 0.5")
    assert str(missing.value) == (
        "missing required keys: n_t, n_r, b, modulation, snr_grid_db, "
        "channel_count, vectors_per_channel, seed")


@pytest.mark.parametrize("key, good, bad, expected", [
    ("modulation", "qpsk", "8psk", "bpsk or qpsk"),
    ("framework", "full", "x", "full or sic"),
    ("training", "implicit", "batch", "implicit or explicit"),
    ("csir", "perfect", "blind", "perfect or ls"),
])
def test_config_choice_errors(key, good, bad, expected):
    line = f"{key} = {good}"
    assert getattr(harness.parse_config(CONFIG_TEXT.replace(
        line, line.upper())), key) == good
    with pytest.raises(ConfigError) as error:
        harness.parse_config(CONFIG_TEXT.replace(line, f"{key} = {bad}"))
    assert str(error.value) == f"unknown {key} {bad!r} (expected {expected})"


def test_validate_catches_inconsistencies():
    with pytest.raises(ConfigError, match="modulation"):
        _cfg(modulation="8psk").validate()
    with pytest.raises(ConfigError, match="unknown detectors"):
        _cfg(detectors=("mcd", "sphere")).validate()
    with pytest.raises(ConfigError, match="n_t1"):
        _cfg(framework="sic", detectors=("mcd",)).validate_for_ser()
    with pytest.raises(ConfigError, match="only the mcd"):
        _cfg(framework="sic", n_t1=1,
             detectors=("mcd", "mld")).validate_for_ser()
    with pytest.raises(ConfigError, match="implicit training needs"):
        _cfg(repetitions=None).validate_for_ser()
    with pytest.raises(ConfigError, match="l_a"):
        _cfg(training="explicit", artificial_count=None).validate_for_ser()
    with pytest.raises(ConfigError, match="contradicts"):
        _cfg(t_t=10).validate_for_ser()
    with pytest.raises(ConfigError, match="pilot slots"):
        _cfg(training="explicit", artificial_count=4,
             csir="ls", t_t=1).validate_for_ser()


def test_validate_rejects_duplicate_detectors():
    with pytest.raises(ConfigError, match="twice"):
        harness.parse_config(CONFIG_TEXT.replace(
            "detectors = emld, mmd, mcd, mld", "detectors = mcd, MCD"))


def _full_search(**overrides):
    # the K = 4096, n_r = 32 full search of the benchmark at one SNR point
    base = dict(
        n_t=6, n_r=32, bits=2, modulation="qpsk", snr_grid_db=(10.0,),
        channel_count=3, vectors_per_channel=200, seed=42,
        training="explicit", artificial_count=16, detectors=("mcd",))
    base.update(overrides)
    return ExperimentConfig(**base)


def test_peak_bytes_estimate_and_budget():
    full_search = _full_search()
    book = 16 * 4096 * 6 + harness._SMALL_BYTES
    # up to a few thousand data vectors the training peak is the larger
    # one: besides the 4096 x 6 complex symbol book and the small-object
    # allowance, the draw: the 4096 x 16 x 64 uint8 levels of explicit
    # training next to one noise chunk of 128 symbols (its 512 KiB float
    # buffer and levels, their 128 x 32 complex noiseless points and the
    # quantizer's 16 384-value float scratch). That is more than the levels
    # with their 4096 x 64 uint8 level sums, and more than those sums with
    # the 4096 x 64 float64 centroids made from them once the levels are
    # let go.
    levels, sums, centroids = 4096 * 16 * 64, 4096 * 64, 8 * 4096 * 64
    draw = 9 * 128 * 16 * 32 + 16 * 128 * 32 + 8 * 16_384
    assert levels + draw > max(levels + sums, sums + centroids)
    training = book + levels + draw
    for n in (1, 200, 2_000):
        assert _full_search(vectors_per_channel=n).peak_bytes() == training

    def batch(n):
        # n data rows, all distinct: their uint8 levels and three intp ids,
        # and the distinct rows' uint8 levels and float64 values
        return n * (64 + 24) + n * 9 * 64

    # from 20 000 data vectors the data phase holds more: the centroids,
    # the batch and MCD's decision (the center norms, n decisions and one
    # 32-row block of distances with its rows scaled by -2, its row norms
    # and the ufunc buffer of their addition), more than the error count's
    # n intp differences
    # and more than the batch's transmission: the n rows' uint8 levels and
    # data indices, their n x 6 complex symbols and a noise chunk of 2 000
    # rows (float buffer, levels, complex noiseless points and the
    # quantizer's scratch)
    for n in (20_000, 40_000):
        decide = 8 * (4096 + n + 32 * (4096 + 64 + 1) + np.getbufsize())
        transmit = n * (64 + 8 + 16 * 6) + (
            9 * 2_000 * 32 + 16 * 2_000 * 32 + 8 * 16_384)
        assert decide > 16 * n and batch(n) + decide > transmit
        assert _full_search(vectors_per_channel=n).peak_bytes() == (
            book + 8 * 4096 * 64 + batch(n) + decide)
    assert full_search.peak_bytes() < 100 * 2**20
    full_search.validate_for_ser()
    # 40 000 data vectors fit (about 29 MiB, most of it the batch); up to
    # about 1.6 M vectors do, and 2 000 000 take 1.3 GiB
    assert _full_search(vectors_per_channel=40_000).peak_bytes() < 40 * 2**20
    _full_search(vectors_per_channel=40_000).validate_for_ser()
    with pytest.raises(ConfigError, match="MiB per channel"):
        _full_search(vectors_per_channel=2_000_000).validate_for_ser()
    mld = _cfg(vectors_per_channel=500)
    # implicit: training (a 16*5/2-slot pilot frame) holds less than the
    # data phase: the 16 x 8 float64 MCD centroids, the model (16 x 5 x 8
    # uint8 levels) with what it caches (the intp ids of its 80 rows and
    # of at most 80 distinct ones, and those rows' float64 levels and
    # 80 x 16 float64 count matrix), the 500 rows' uint8 levels and three
    # intp ids, and the at most 2**8 = 256 distinct rows' uint8 levels and
    # float64 values; then the largest decision, as the detectors run one
    # after another: eMLD's 256 x 80 float64 distances with their bool and
    # float64 neighbor masks and its 256 x 16 scores; that is more than
    # MLD's 16 x 4 complex sums and 16 x 8 real form with its 16 x 8 x 2
    # float64 likelihood table and, more than the CDF block that builds
    # the table, its 256 x 8 intp table columns, the 16 x 256 x 8 float64
    # gather and their 16 x 256 sums, more than MCD's center norms, 256
    # decisions and one 256 x 16 block of distances with its rows scaled by
    # -2, its row norms and their addition's 4 096-value ufunc buffer, and
    # more than the transmission
    emld_decide = 17 * 256 * 80 + 8 * 256 * 16
    assert emld_decide > max(
        16 * 16 * 8 + 8 * 16 * 8 * 2 + 8 * 256 * 8 + 8 * 256 * 16 * 8
        + 8 * 256 * 16,
        8 * (16 + 256 + 256 * (16 + 8 + 1) + 256 * 16))
    assert mld.peak_bytes() == (
        16 * 16 * 2 + harness._SMALL_BYTES
        + 8 * 16 * 8 + 80 * 8 + 8 * (80 + 80) + 8 * 80 * (8 + 16)
        + 500 * (8 + 24) + 256 * 9 * 8 + emld_decide)
    for n_t in (12, 40):
        with pytest.raises(ConfigError, match=f"n_t={n_t}"):
            _cfg(n_t=n_t).validate_for_ser()
    sic_split = dataclasses.replace(
        full_search, framework="sic", n_t1=5, first_stage_count=1)
    # what first-stage training leaves: the 1024 x 5 and 4 x 1 subvector
    # books, the 4096 x 64 uint8 table and the 1024 x 62 float64 centroids
    held = 16 * (1024 * 5 + 4 * 1) + 4096 * 64 + 8 * 1024 * 62
    # at one data vector its training is the peak: what it leaves but the
    # centroids, the 1024 x 32 and 4 x 32 complex products of the books
    # with their channels, and the centroids' build: their 1024 x 64
    # float64 level sums with the 1024 x 62 product, more than a block of
    # 256 first-stage candidates' 1024 pairs' float64 sums of both parts
    # with their levels and the quantizer's scratch
    assert 8 * 1024 * (64 + 62) > 9 * 1024 * 64 + 8 * 16_384
    assert dataclasses.replace(sic_split, vectors_per_channel=1).peak_bytes() \
        == book + held + 16 * (1024 + 4) * 32 + 8 * 1024 * 64
    # from 200 the data phase is: what training leaves, the batch, the
    # stage-one decisions and stage one, one block of all n x 62
    # projections with a nearest_center call on them (the center norms,
    # n decisions and one block of 128 x 1024 scores, the largest that up
    # to n distinct rows make, with its rows scaled by -2, its row norms
    # and the ufunc buffer of their addition), more than stage two's
    # decisions and one block of observations' gather against K2 = 4
    # candidates, and more than the transmission
    for n in (200, 2_000):
        assert dataclasses.replace(
            sic_split, vectors_per_channel=n).peak_bytes() == (
            book + held + batch(n) + 8 * n + 8 * n * 62
            + 8 * (1024 + n + 128 * (1024 + 62 + 1) + np.getbufsize()))
    # K2 = 1024 at 1 000 data vectors: the gather takes blocks of two
    # observations of 512 KiB of float64 values each, or one of three when
    # three distinct rows are left, with their uint8 levels, 1024 squared
    # distances and the ufunc buffer of the subtraction that makes their
    # differences, more than the transmission
    assert dataclasses.replace(
        sic_split, n_t1=1, vectors_per_channel=1_000).peak_bytes() == (
        book + 16 * (4 * 1 + 1024 * 5) + 4096 * 64 + 8 * 4 * 54
        + batch(1_000) + 2 * 8 * 1_000 + 3 * 1024 * (9 * 64 + 8)
        + 8 * np.getbufsize())


def _traced_channel_peak(cfg):
    """tracemalloc peak of one channel of a SER sweep: symbol books,
    channel, training, then the data phase."""
    child = np.random.SeedSequence(3).spawn(1)[0]
    tracemalloc.start()
    try:
        harness._ser_channel_counts(cfg, child)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("training_kind, repetitions, vectors", [
    ("explicit", 16, 200), ("implicit", 16, 200), ("explicit", 16, 2_000),
    ("implicit", 1, 1), ("explicit", 16, 40_000),
], ids=["explicit", "implicit", "explicit-2000", "implicit-l1",
        "explicit-40000"])
def test_peak_bytes_bounds_traced_training_peak(
        training_kind, repetitions, vectors):
    # one SNR point of the full search, trained explicitly with l_a = 16 as
    # in the benchmark, or implicitly from a 4096*16/2-slot pilot frame; with
    # one repetition and one data vector the centroids summed next to the
    # model and the pilot frame are the peak, and at 40 000 data vectors the
    # batch makes the data phase the peak, where MCD scores one block of
    # rows at a time
    cfg = _full_search(
        channel_count=1, training=training_kind, repetitions=repetitions,
        vectors_per_channel=vectors)
    peak = _traced_channel_peak(cfg)
    assert peak <= cfg.peak_bytes() <= 1.25 * peak


@pytest.mark.parametrize("first_stage_count, vectors", [
    (1, 200), (4, 200), (8, 200), (1, 2_000),
], ids=["1", "4", "8", "1-2000"])
def test_peak_bytes_bounds_traced_sic_peak(first_stage_count, vectors):
    # the 5/1 split of the full search; l_a1 > 1 trains on noisy samples,
    # and at 2 000 data vectors the data phase is the peak
    cfg = _full_search(channel_count=1, framework="sic", n_t1=5,
                       first_stage_count=first_stage_count,
                       vectors_per_channel=vectors)
    peak = _traced_channel_peak(cfg)
    assert peak <= cfg.peak_bytes() <= 1.25 * peak


@pytest.mark.parametrize("bits", [2, 8])
def test_peak_bytes_bounds_traced_mld_peak(bits):
    # MLD alone on 64 QPSK candidates and n_r = 32: the 64 x 64 x 2**b
    # float64 likelihood table, 8 MiB at b = 8, is built in place, so at
    # both sizes the gather of 200 observations from the table is the peak
    cfg = _full_search(n_t=3, bits=bits, detectors=("mld",),
                       training="implicit", channel_count=1)
    peak = _traced_channel_peak(cfg)
    assert peak <= cfg.peak_bytes() <= 1.25 * peak


def test_peak_bytes_bounds_traced_emld_mmd_peak():
    # eMLD and MMD on 256 QPSK candidates, n_r = 8 and l_a = 16: the data
    # phase holds 4 096 distinct trained rows, and both score products read
    # their 4 096 x 256 float64 count matrix
    cfg = _full_search(n_t=4, n_r=8, detectors=("emld", "mmd"),
                       channel_count=1)
    peak = _traced_channel_peak(cfg)
    assert peak <= cfg.peak_bytes() <= 1.25 * peak


def test_peak_bytes_bounds_traced_support_build_peak():
    # eMLD on 4 096 BPSK candidates over n_r = 2 one-bit antennas with
    # l_a = 16 and one data vector: the 65 536 trained rows fall on at most
    # 16 distinct ones, so building the count matrix (its intp cells and
    # the float64 ones it sums) outweighs every product on the support
    cfg = _full_search(n_t=12, n_r=2, bits=1, modulation="bpsk",
                       detectors=("emld",), channel_count=1,
                       vectors_per_channel=1)
    peak = _traced_channel_peak(cfg)
    assert peak <= cfg.peak_bytes() <= 1.25 * peak


@pytest.mark.parametrize("cfg", [
    # QPSK n_t = 4 over n_r = 6 two-bit antennas: the 20 000 data rows
    # repeat, so fewer than U are distinct
    ExperimentConfig(n_t=4, n_r=6, bits=2, modulation="qpsk",
                     snr_grid_db=(10.0,), channel_count=1,
                     vectors_per_channel=20_000, seed=42, detectors=("zf",)),
    # at n_r = 32 every row is distinct
    _full_search(n_t=4, detectors=("zf",), vectors_per_channel=20_000,
                 channel_count=1),
    # one row against K = 65 536: building the symbol book is the peak
    _full_search(n_t=8, detectors=("zf",), channel_count=1,
                 vectors_per_channel=1),
    # BPSK n_t = 1 over n_r = 16 two-bit antennas: the reassembled complex
    # rows outweigh the rest of the decision, and the broadcast
    # subtraction's ufunc buffers outweigh the distances' magnitudes
    ExperimentConfig(n_t=1, n_r=16, bits=2, modulation="bpsk",
                     snr_grid_db=(10.0,), channel_count=1,
                     vectors_per_channel=1_000, seed=42, detectors=("zf",),
                     training="explicit", artificial_count=2),
], ids=["4x6", "4x32", "book", "1x16"])
def test_peak_bytes_bounds_traced_zf_peak(cfg):
    # ZF alone with perfect CSIR trains nothing; it decides on the
    # reassembled complex rows, their soft estimates and their distances
    # to every constellation point
    peak = _traced_channel_peak(cfg)
    assert peak <= cfg.peak_bytes() <= 1.25 * peak


@pytest.mark.parametrize("cfg", [
    # the shipped config at one channel
    dataclasses.replace(harness.load_config(
        Path(__file__).parents[1] / "configs/multibit_downlink_b2.cfg"),
        channel_count=1),
    # 256 candidates over n_r = 32 antennas, 2 000 distinct data rows
    _full_search(n_t=4, detectors=("mcd", "zf"), vectors_per_channel=2_000,
                 channel_count=1),
], ids=["multibit", "4x32"])
def test_peak_bytes_bounds_traced_multi_detector_peak(cfg):
    # MCD and ZF decide one after another, each freeing its temporaries
    # before the next, so the estimate takes the larger decision, not both
    peak = _traced_channel_peak(cfg)
    assert peak <= cfg.peak_bytes() <= 1.25 * peak


@pytest.mark.parametrize("snr_db", [-20.0, 5.0])
@pytest.mark.parametrize("n_t, modulation", [
    (4, "qpsk"), (2, "bpsk"), (1, "bpsk"),
], ids=["qpsk-4x2", "bpsk-2x2", "bpsk-1x2"])
def test_peak_bytes_bounds_traced_data_phase_peak(n_t, modulation, snr_db):
    # one-bit MCD over n_r = 2 with 200 000 data vectors, trained from a
    # short implicit frame: the batch holds at most 16 distinct rows, so
    # its transmission (the symbols and a noise chunk) is the peak at
    # n_t >= 2, and the error count (its intp XOR and antenna digits) at
    # n_t = 1, whether most decisions are wrong (-20 dB) or few (5 dB)
    cfg = ExperimentConfig(
        n_t=n_t, n_r=2, bits=1, modulation=modulation, snr_grid_db=(snr_db,),
        channel_count=1, vectors_per_channel=200_000, seed=42, repetitions=5)
    peak = _traced_channel_peak(cfg)
    assert peak <= cfg.peak_bytes() <= 1.25 * peak


_LS_MULTIBIT = dict(
    n_t=4, n_r=6, bits=2, modulation="qpsk", snr_grid_db=(10.0,),
    channel_count=1, vectors_per_channel=500, seed=42, csir="ls")


@pytest.mark.parametrize("overrides", [
    dict(detectors=("mcd", "zf"), training="explicit", artificial_count=8,
         t_t=200_000),
    dict(detectors=("mcd",), framework="sic", n_t1=2, t_t=200_000),
    # the implicit schedule of 256 * 200 / 2 slots is the pilot frame
    dict(detectors=("mcd", "zf"), repetitions=200),
], ids=["explicit", "sic", "implicit"])
def test_peak_bytes_bounds_traced_ls_pilot_peak(overrides):
    # a long pilot frame makes the least-squares estimate the peak: the
    # pilots, their levels, the float64 output values and the complex rows
    # reassembled from them
    cfg = ExperimentConfig(**_LS_MULTIBIT, **overrides)
    peak = _traced_channel_peak(cfg)
    assert peak <= cfg.peak_bytes() <= 1.25 * peak


@pytest.mark.parametrize("vectors", [5_000, 20_000])
@pytest.mark.parametrize("detectors", [("emld", "mmd"), ("mcd",), ("mld",)],
                         ids=["emld-mmd", "mcd", "mld"])
def test_peak_bytes_counts_distinct_rows(detectors, vectors):
    # QPSK n_t = 3 over n_r = 2 two-bit antennas with l_a = 8: a batch
    # holds at most 2**(2*4) = 256 distinct rows, all the detectors see,
    # while the batch's levels and ids span every row
    cfg = _full_search(n_t=3, n_r=2, artificial_count=8, channel_count=1,
                       detectors=detectors, vectors_per_channel=vectors)
    peak = _traced_channel_peak(cfg)
    assert peak <= cfg.peak_bytes() <= 2 * peak


def _random_config(rng):
    """One config over n_t <= 4, n_r <= 16, b <= 3, both modulations,
    frameworks, training kinds and CSIR kinds, and 1-3 detectors. ZF gets
    n_r >= n_t and a SIC split n_r >= n_t - n_t1, without which every
    channel estimate is rank deficient."""
    n_t = int(rng.integers(1, 5))
    n_t1 = int(rng.integers(1, n_t + 1))
    framework = str(rng.choice(["full", "sic"]))
    detectors = ("mcd",) if framework == "sic" else tuple(rng.choice(
        harness.KNOWN_DETECTORS, size=int(rng.integers(1, 4)), replace=False))
    least = (n_t - n_t1 if framework == "sic"
             else n_t if "zf" in detectors else 1)
    csir = str(rng.choice(["perfect", "ls"]))
    return ExperimentConfig(
        n_t=n_t, n_r=int(rng.integers(max(least, 1), 17)),
        bits=int(rng.integers(1, 4)),
        modulation=str(rng.choice(["bpsk", "qpsk"])),
        snr_grid_db=(float(rng.choice([-5.0, 10.0, 25.0])),),
        channel_count=1,
        vectors_per_channel=int(rng.choice([1, 200, 1_000, 3_000, 20_000])),
        seed=int(rng.integers(0, 1_000)), detectors=detectors,
        framework=framework, n_t1=n_t1,
        training=str(rng.choice(["implicit", "explicit"])), csir=csir,
        repetitions=int(rng.integers(1, 9)),
        artificial_count=int(rng.integers(1, 9)),
        first_stage_count=int(rng.integers(1, 5)),
        t_t=int(rng.integers(n_t, 400)) if csir == "ls" else None)


def test_peak_bytes_bounds_traced_peak_of_random_configs():
    # the estimate is an upper bound on every valid config, not only on the
    # pinned shapes above; it assumes every data row distinct, so it may be
    # far above the peak, and no upper ratio is asserted. A csir = ls
    # channel whose random pilots or estimate are rank deficient aborts the
    # run: such a config is counted, not checked.
    rng = np.random.default_rng(2024)
    checked, aborted = 0, []
    while checked < 500:
        cfg = _random_config(rng)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cfg.validate_for_ser()
        except ConfigError:
            continue
        if cfg.peak_bytes() > 64 << 20:
            continue
        try:
            peak = _traced_channel_peak(cfg)
        except ValueError as error:
            assert cfg.csir == "ls" and "rank deficient" in str(error), cfg
            aborted.append(cfg)
            continue
        assert peak <= cfg.peak_bytes(), cfg
        checked += 1
    assert len(aborted) < checked // 20


def test_mcd_only_channel_lets_the_model_go_before_its_centroids():
    # the full search's channel with MCD alone: the 4 MiB model and the
    # 2 MiB float64 centroids are never held together, so the channel,
    # symbol book included, peaks below their sum
    cfg = _full_search(channel_count=1)
    model, centroids = 4096 * 16 * 64, 8 * 4096 * 64
    assert _traced_channel_peak(cfg) < model + centroids


@pytest.mark.parametrize("detectors, keeps", [
    (("mcd",), False), (("mcd", "zf"), False), (("emld", "mcd"), True),
    (("mcd", "emld"), True), (("mmd", "mcd"), True),
], ids=["mcd", "mcd-zf", "emld-mcd", "mcd-emld", "mmd-mcd"])
def test_centroids_keep_the_model_only_for_its_readers(detectors, keeps):
    # binding reads MCD's centroids from the model's level sums; the model
    # stays for eMLD and MMD, whichever order the detectors are listed in,
    # and every receiver decides as on a model trained alone
    cfg = _cfg(n_t=2, n_r=3, bits=2, training="explicit", artificial_count=7,
               detectors=detectors)
    qcfg = core.QuantizerConfig(cfg.bits, cfg.step)
    book = core.enumerate_symbols(core.qpsk(), 2)
    h = core.sample_channel(3, 2, np.random.default_rng(1))
    sigma2 = core.snr_db_to_sigma2(5.0, 2)
    trained = harness._Trained(
        cfg, qcfg, book, h, sigma2, np.random.default_rng(2), None)
    model = training.learn_explicit(
        h, sigma2, 7, book, qcfg, np.random.default_rng(2))
    # the centroids' definition, from float64 level sums
    off = (1 << (cfg.bits - 1)) - 0.5
    want = ((model.levels.sum(axis=1, dtype=np.float64) - 7 * off)
            * cfg.step) / 7
    for name in detectors:
        getattr(trained, harness._RECEIVERS[name].reads)
    assert trained.centroids.centers.tobytes() == want.tobytes()
    assert (trained.model is not None) == keeps
    decide = harness._receivers(
        cfg, qcfg, book, h, sigma2, np.random.default_rng(2), None)
    rows = core.transmit_batch(
        h, book.vectors, sigma2, qcfg, np.random.default_rng(3))
    values = core.level_values(rows, qcfg)
    direct = {
        "emld": lambda: detection.detect_emld_batch(rows, model),
        "mmd": lambda: detection.detect_mmd_batch(rows, model),
        "mcd": lambda: detection.detect_mcd_batch(
            values, detection.CentroidBook(want)),
        "zf": lambda: baselines.detect_zf_batch(values, h, core.qpsk()),
    }
    for name, d in zip(detectors, decide):
        assert np.array_equal(d(rows, values), direct[name]()), name


def test_downlink_guard_warns():
    cfg = _cfg(n_t=3, n_r=1, modulation="qpsk", detectors=("mcd",))
    with pytest.warns(UserWarning, match="irreducible detection error"):
        cfg.validate_for_ser()


_DOWNLINK_TEXT = """\
n_t = 3
n_r = 1
b = 1
modulation = {modulation}
snr_grid_db = 0, 10
l = 2
detectors = mcd
channel_count = 2
vectors_per_channel = 10
seed = 0
"""


@pytest.mark.parametrize("command, modulation, expected", [
    # 4**3 QPSK candidates against 2**2 one-bit outputs
    ("ser", "qpsk", 1),
    # 2**3 BPSK candidates: the d_min distribution runs no detection
    ("ccdf", "bpsk", 0),
])
def test_downlink_warning_only_in_ser_runs(
        tmp_path, command, modulation, expected):
    cfg_path = tmp_path / "downlink.cfg"
    cfg_path.write_text(_DOWNLINK_TEXT.format(modulation=modulation))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", str(cfg_path)]) == 0
    assert sum("irreducible detection error" in str(w.message)
               for w in caught) == expected


# ---------------------------------------------------------------------------
# SER sweeps


def test_noiseless_limit_gives_zero_errors():
    # 200 dB SNR stands in for sigma^2 = 0; restrict to BPSK where the
    # sampled channels are verifiably free of one-bit ambiguity
    cfg = _cfg(modulation="bpsk", snr_grid_db=(200.0,), channel_count=5,
               detectors=("emld", "mmd", "mcd"))
    qcfg = core.QuantizerConfig(cfg.bits, cfg.step)
    book = core.enumerate_symbols(core.constellation(cfg.modulation), cfg.n_t)
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.channel_count):
        h = core.sample_channel(cfg.n_r, cfg.n_t, np.random.default_rng(child))
        assert analysis.geometry(h, book, qcfg).d_min > 0
    for r in harness.run_ser_experiment(cfg):
        assert r.errors == 0 and r.ser == 0.0 and r.svep == 0.0


def test_records_canonical_order_and_accounting():
    cfg = _cfg()
    records = harness.run_ser_experiment(cfg)
    keys = [(r.snr_db, r.detector) for r in records]
    assert keys == sorted(keys)
    for r in records:
        assert r.trials == cfg.channel_count * cfg.vectors_per_channel * cfg.n_t
        assert r.ser == r.errors / r.trials
        # a vector error needs at least one symbol error and at most n_t
        assert r.ser <= r.svep <= cfg.n_t * r.ser + 1e-12


def test_mcd_ser_monotone_in_snr():
    cfg = _cfg(channel_count=30, vectors_per_channel=200,
               detectors=("mcd",))
    records = harness.run_ser_experiment(cfg)
    sers = [r.ser for r in records]
    trials = records[0].trials
    for lo, hi in zip(sers[1:], sers[:-1]):
        sigma = np.sqrt(max(hi * (1 - hi), 1e-12) / trials)
        assert lo <= hi + 2 * sigma


def test_seed_reproducibility_byte_identical():
    cfg = _cfg()
    a = harness.render_csv(harness.run_ser_experiment(cfg))
    b = harness.render_csv(harness.run_ser_experiment(cfg))
    assert a == b
    c = harness.render_csv(
        harness.run_ser_experiment(dataclasses.replace(cfg, seed=6)))
    assert c != a


def test_worker_count_does_not_change_results():
    cfg = _cfg(channel_count=6, vectors_per_channel=30)
    serial = harness.render_csv(harness.run_ser_experiment(cfg))
    parallel = harness.render_csv(
        harness.run_ser_experiment(dataclasses.replace(cfg, threads=3)))
    assert serial == parallel


def test_sic_framework_runs_and_degrades_gracefully():
    base = dict(
        n_t=4, n_r=16, bits=2, modulation="bpsk",
        snr_grid_db=(5.0,), channel_count=10, vectors_per_channel=100,
        seed=3, training="explicit", csir="perfect", artificial_count=2,
        detectors=("mcd",))
    full = harness.run_ser_experiment(ExperimentConfig(**base))
    split = harness.run_ser_experiment(ExperimentConfig(
        **base, framework="sic", n_t1=2, first_stage_count=2))
    assert split[0].framework == "sic[n_t1=2]"
    assert full[0].ser <= split[0].ser + 0.05


def test_ls_csir_with_explicit_training_runs():
    cfg = ExperimentConfig(
        n_t=2, n_r=6, bits=2, modulation="qpsk",
        snr_grid_db=(15.0,), channel_count=10, vectors_per_channel=100,
        seed=11, training="explicit", csir="ls", artificial_count=5,
        t_t=40, detectors=("mcd", "zf"))
    records = harness.run_ser_experiment(cfg)
    assert {r.detector for r in records} == {"mcd", "zf"}
    for r in records:
        assert 0.0 <= r.ser <= 1.0


def test_ls_csir_reuses_implicit_schedule_for_baseline_only_runs():
    # baselines alone still get a channel estimate: the implicit pilot
    # frame is transmitted and fitted even though no PMF model is needed
    cfg = ExperimentConfig(
        n_t=2, n_r=4, bits=1, modulation="bpsk",
        snr_grid_db=(10.0,), channel_count=5, vectors_per_channel=50,
        seed=2, training="implicit", csir="ls", repetitions=5,
        detectors=("mld",))
    record = harness.run_ser_experiment(cfg)[0]
    assert 0.0 <= record.ser <= 1.0


def test_mld_with_perfect_csir_is_never_beaten():
    cfg = _cfg(channel_count=40, vectors_per_channel=250)
    records = harness.run_ser_experiment(cfg)
    by_snr = {}
    for r in records:
        by_snr.setdefault(r.snr_db, {})[r.detector] = r
    for snr_db, dets in by_snr.items():
        mld = dets["mld"]
        for name, r in dets.items():
            sigma = np.sqrt(
                mld.ser * (1 - mld.ser) / mld.trials
                + r.ser * (1 - r.ser) / r.trials)
            assert mld.ser <= r.ser + 3 * sigma, (
                f"{name} beat mld at {snr_db} dB beyond Monte Carlo noise")


# ---------------------------------------------------------------------------
# bound validation


def test_bound_validation_dominance_and_difference_shrink():
    cfg = ExperimentConfig(
        n_t=2, n_r=2, bits=1, modulation="bpsk",
        snr_grid_db=(5.0, 10.0, 15.0), channel_count=40,
        vectors_per_channel=4000, seed=3, detectors=("mcd",))
    records = harness.run_bound_validation(cfg)
    gaps = []
    for r in records:
        se = np.sqrt(max(r.svep * (1 - r.svep), 1e-12)
                     / (cfg.channel_count * cfg.vectors_per_channel))
        assert r.svep <= r.bound + 1.96 * se
        gaps.append(r.bound - r.svep)
    # the absolute gap between bound and simulation closes with SNR
    assert gaps[0] >= gaps[1] >= gaps[2]


def test_bound_validation_trained_centroids_close_to_exact():
    base = dict(
        n_t=2, n_r=2, bits=1, modulation="bpsk",
        snr_grid_db=(5.0, 10.0), channel_count=40,
        vectors_per_channel=4000, seed=3, detectors=("mcd",))
    exact = harness.run_bound_validation(ExperimentConfig(**base))
    trained = harness.run_bound_validation(
        ExperimentConfig(**base, repetitions=5), use_trained_centroids=True)
    for r_exact, r_trained in zip(exact, trained):
        assert r_trained.svep == pytest.approx(r_exact.svep, rel=0.5)


@settings(max_examples=60, deadline=None)
@given(n_t=st.integers(1, 4), n_r=st.integers(1, 4),
       modulation=st.sampled_from(["bpsk", "qpsk"]),
       seed=st.integers(0, 2**32 - 1))
def test_noise_free_one_sample_centroids_are_the_codewords(
        n_t, n_r, modulation, seed):
    # bound-exact's centroids: noise-free explicit training with one sample
    # per symbol gives the noiseless one-bit codewords, bit for bit
    qcfg = core.QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.constellation(modulation), n_t)
    h = core.sample_channel(n_r, n_t, np.random.default_rng(seed))
    centers = detection.centroids(
        training.learn_explicit(h, 0.0, 1, book, qcfg).level_sums(), 1,
        qcfg).centers
    codewords = core.level_values(analysis.build_codebook(h, book, qcfg), qcfg)
    assert centers.dtype == codewords.dtype
    assert centers.shape == codewords.shape
    assert centers.tobytes() == codewords.tobytes()


def test_bound_exact_trains_once_per_kept_channel(monkeypatch):
    cfg = ExperimentConfig(
        n_t=2, n_r=2, bits=1, modulation="bpsk",
        snr_grid_db=(0.0, 10.0, 20.0), channel_count=4,
        vectors_per_channel=50, seed=3, detectors=("mcd",))
    spy = mock.Mock(wraps=training.learn_explicit)
    monkeypatch.setattr(training, "learn_explicit", spy)
    harness.run_bound_validation(cfg)
    assert spy.call_count == cfg.channel_count
    for call in spy.call_args_list:
        _, sigma2, artificial_count, *_ = call.args
        assert sigma2 == 0.0 and artificial_count == 1


@pytest.mark.parametrize("n_t, n_r", [(10, 5), (10, 8), (11, 6)])
def test_bound_budget_covers_traced_geometry_peak(monkeypatch, n_t, n_r):
    # the estimate that run_bound_validation checks before its search
    # against the tracemalloc peak of one analysis.geometry call
    class Searched(Exception):
        pass

    def stop(*args, **kwargs):
        raise Searched

    estimates = []
    monkeypatch.setattr(harness, "_require_budget",
                        lambda cfg, peak, scope: estimates.append(peak))
    monkeypatch.setattr(harness, "sample_channel", stop)
    cfg = ExperimentConfig(
        n_t=n_t, n_r=n_r, bits=1, modulation="bpsk", snr_grid_db=(10.0,),
        channel_count=1, vectors_per_channel=10, seed=0, detectors=("mcd",))
    with pytest.raises(Searched):
        harness.run_bound_validation(cfg)
    qcfg = core.QuantizerConfig(bits=1, step=cfg.step)
    book = core.enumerate_symbols(core.bpsk(), n_t)
    h = core.sample_channel(n_r, n_t, np.random.default_rng(n_r))
    tracemalloc.start()
    try:
        analysis.geometry(h, book, qcfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimates[-1] <= 1.25 * peak


@pytest.mark.parametrize("n_t, admitted", [(13, True), (14, False)])
def test_bound_geometry_budget_is_one_float64_distance_matrix(
        monkeypatch, n_t, admitted):
    # analysis.geometry's K x K float64 distances, 8 K**2 bytes: at n_r = 7
    # the estimate is about 517 MiB at n_t = 13, which reaches the channel
    # search, and 2 058 MiB at n_t = 14, past the budget
    class Searched(Exception):
        pass

    def stop(*args, **kwargs):
        raise Searched

    monkeypatch.setattr(harness, "sample_channel", stop)
    cfg = ExperimentConfig(
        n_t=n_t, n_r=7, bits=1, modulation="bpsk", snr_grid_db=(10.0,),
        channel_count=1, vectors_per_channel=10, seed=0, detectors=("mcd",))
    if admitted:
        with pytest.raises(Searched):
            harness.run_bound_validation(cfg)
    else:
        with pytest.raises(ConfigError, match="about 2058 MiB per channel"):
            harness.run_bound_validation(cfg)


@pytest.mark.parametrize("n_t, n_r", [(10, 2), (11, 4)])
def test_bound_rejects_more_codewords_than_outputs_before_drawing(
        monkeypatch, n_t, n_r):
    # 2**n_t BPSK codewords against 2**(2 n_r) one-bit outputs: every
    # channel has d_min = 0, so the search could never keep one
    def forbidden(*args, **kwargs):
        raise AssertionError("a channel was drawn for an infeasible search")

    monkeypatch.setattr(harness, "sample_channel", forbidden)
    monkeypatch.setattr(analysis, "geometry", forbidden)
    cfg = ExperimentConfig(
        n_t=n_t, n_r=n_r, bits=1, modulation="bpsk", snr_grid_db=(10.0,),
        channel_count=1, vectors_per_channel=10, seed=0, detectors=("mcd",))
    with pytest.raises(ConfigError, match=f"n_t={n_t} > 2 n_r with n_r={n_r}"):
        harness.run_bound_validation(cfg)


def test_bound_validation_vanishing_noise():
    cfg = ExperimentConfig(
        n_t=2, n_r=2, bits=1, modulation="bpsk",
        snr_grid_db=(60.0,), channel_count=5,
        vectors_per_channel=2000, seed=12, detectors=("mcd",))
    record = harness.run_bound_validation(cfg)[0]
    assert record.svep == 0.0


def test_bound_validation_requires_one_bit_bpsk():
    with pytest.raises(ConfigError, match="one-bit"):
        harness.run_bound_validation(_cfg(detectors=("mcd",)))


def test_bound_validation_reports_exhausted_search():
    # with 24 receive antennas a unit flip budget is essentially impossible,
    # so the channel search must give up with a clear error
    cfg = ExperimentConfig(
        n_t=2, n_r=24, bits=1, modulation="bpsk",
        snr_grid_db=(10.0,), channel_count=1,
        vectors_per_channel=10, seed=0, detectors=("mcd",))
    with pytest.raises(RuntimeError, match="within 200 draws"):
        harness.run_bound_validation(cfg)


# ---------------------------------------------------------------------------
# minimum-distance distribution


def test_sample_dmin_matches_codebook_geometry():
    # the sign-based sampler and the quantizer-based codebook agree channel
    # by channel
    rng = np.random.default_rng(2)
    qcfg = core.QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 3)
    for _ in range(25):
        state = rng.bit_generator.state
        d_sampled = int(harness.sample_dmin(3, 4, 1, rng)[0])
        rng.bit_generator.state = state
        h = (rng.standard_normal((1, 4, 3))
             + 1j * rng.standard_normal((1, 4, 3)))[0] / np.sqrt(2.0)
        geom = analysis.geometry(h, book, qcfg)
        assert d_sampled == geom.d_min


def _sample_dmin_full_distances(n_t, n_r, count, rng, chunk):
    """The m x K x K integer distance formulation sample_dmin replaced."""
    book = core.enumerate_symbols(core.bpsk(), n_t)
    x = book.vectors.real.T
    k = book.size
    out = np.empty(count, dtype=np.int64)
    done = 0
    while done < count:
        m = min(chunk, count - done)
        h = (rng.standard_normal((m, n_r, n_t))
             + 1j * rng.standard_normal((m, n_r, n_t))) / np.sqrt(2.0)
        clean = h @ x
        g = np.concatenate([clean.real, clean.imag], axis=1)
        signs = np.where(g >= 0.0, 1.0, -1.0).astype(np.float32)
        gram = signs.transpose(0, 2, 1) @ signs
        dist = np.rint((2 * n_r - gram) / 2.0).astype(np.int64)
        dist[:, np.arange(k), np.arange(k)] = 2 * n_r + 1
        out[done:done + m] = dist.reshape(m, -1).min(axis=1)
        done += m
    return out


@pytest.mark.parametrize("n_t", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n_r", [1, 2, 4, 8, 16])
def test_sample_dmin_matches_full_distance_matrix(monkeypatch, n_t, n_r):
    # 300 channels in chunks of 128: two full chunks and a partial one
    monkeypatch.setattr(harness, "_DMIN_CHUNK", 128)
    got_rng = np.random.default_rng(n_t * 100 + n_r)
    ref_rng = np.random.default_rng(n_t * 100 + n_r)
    got = harness.sample_dmin(n_t, n_r, 300, got_rng)
    ref = _sample_dmin_full_distances(n_t, n_r, 300, ref_rng, chunk=128)
    assert got.dtype == np.int64
    assert np.array_equal(got, ref)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("tile", [1, 3, 1 << 20])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n_t=st.integers(1, 4), n_r=st.integers(1, 5),
       count=st.integers(1, 40), chunk=st.integers(1, 16),
       seed=st.integers(0, 2**32 - 1))
# three blocks of 8 channels, the last cut mid-tile
@example(n_t=3, n_r=2, count=17, chunk=8, seed=0)
def test_sample_dmin_tiles_match_full_distance_matrix(
        monkeypatch, tile, n_t, n_r, count, chunk, seed):
    # tiles of 1 and 3 channels, and one tile larger than any block
    monkeypatch.setattr(harness, "_DMIN_TILE", tile)
    monkeypatch.setattr(harness, "_DMIN_CHUNK", chunk)
    got_rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    got = harness.sample_dmin(n_t, n_r, count, got_rng)
    ref = _sample_dmin_full_distances(n_t, n_r, count, ref_rng, chunk)
    assert np.array_equal(got, ref)
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


def test_sample_dmin_peak_is_one_tile_not_one_block():
    # dmin_ccdf.cfg's shape: a whole 16 384-channel block of sums, signs
    # and Gram matrices takes about 50 MB, and the block's real draws
    # 2 MiB; only the 800 000 B of results, one 512-channel tile's arrays
    # (real and imaginary draws, channels, sums, signs and Gram matrices)
    # and a small allowance are held
    rng = np.random.default_rng(0)
    tile = 512 * (32 * 4 * 4 + 16 * (26 * 4 + 4 * 16) + 12)
    tracemalloc.start()
    try:
        harness.sample_dmin(4, 4, 100_000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 100_000 + tile + (256 << 10)


@pytest.mark.parametrize("n_t, n_r, count", [(4, 4, 20_000), (6, 4, 5000),
                                             (3, 16, 2000)])
def test_ccdf_budget_covers_traced_sample_dmin_peak(
        monkeypatch, n_t, n_r, count):
    # the estimate that run_ccdf_experiment checks before sampling against
    # the tracemalloc peak of the sample_dmin call it guards; 20 000
    # channels of dmin_ccdf.cfg's shape take one full block and a partial one
    estimates = []
    monkeypatch.setattr(harness, "_require_budget",
                        lambda cfg, peak, scope: estimates.append(peak))
    monkeypatch.setattr(harness, "sample_dmin",
                        lambda *args: np.zeros(count, dtype=np.int64))
    cfg = ExperimentConfig(
        n_t=n_t, n_r=n_r, bits=1, modulation="bpsk", snr_grid_db=(0.0,),
        channel_count=count, vectors_per_channel=1, seed=0,
        detectors=("mcd",))
    harness.run_ccdf_experiment(cfg)
    monkeypatch.undo()
    tracemalloc.start()
    try:
        harness.sample_dmin(n_t, n_r, count, np.random.default_rng(n_r))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimates[-1] <= 1.25 * peak


def test_ccdf_records_structure():
    cfg = ExperimentConfig(
        n_t=2, n_r=3, bits=1, modulation="bpsk",
        snr_grid_db=(0.0,), channel_count=4000,
        vectors_per_channel=1, seed=21, detectors=("mcd",))
    records = harness.run_ccdf_experiment(cfg)
    assert [r.detector for r in records] == [
        f"dmin>={n}" for n in range(cfg.n_r + 2)]
    beyond = records[-1]
    assert beyond.ser == 0.0 and beyond.bound == 0.0
    for r in records:
        assert r.ser == r.errors / r.trials
        assert abs(r.ser - r.bound) < 0.05


def test_ccdf_gap_shrinks_with_channel_count():
    # for two transmit antennas the analytic CCDF is exact, so the Monte
    # Carlo gap is pure sampling noise and must fall as channels grow
    def worst_gap(count):
        cfg = ExperimentConfig(
            n_t=2, n_r=2, bits=1, modulation="bpsk",
            snr_grid_db=(0.0,), channel_count=count,
            vectors_per_channel=1, seed=31, detectors=("mcd",))
        return max(
            abs(r.ser - r.bound) for r in harness.run_ccdf_experiment(cfg))

    assert worst_gap(100_000) < worst_gap(1_000)


def test_ccdf_requires_one_bit_bpsk():
    with pytest.raises(ConfigError, match="one-bit"):
        harness.run_ccdf_experiment(_cfg())


# ---------------------------------------------------------------------------
# CSV and CLI


def test_csv_schema(tmp_path):
    cfg = _cfg(channel_count=2, vectors_per_channel=10,
               snr_grid_db=(10.0,), detectors=("mcd",))
    records = harness.run_ser_experiment(cfg)
    out = tmp_path / "r.csv"
    harness.write_csv(records, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "snr_db,detector,framework,errors,trials,ser,svep,bound"
    assert len(lines) == 1 + len(records)
    assert lines[1].endswith(",")  # bound column empty for plain sweeps


def test_cli_ser_roundtrip(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CONFIG_TEXT)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["ser", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["ser", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cli_seed_override_changes_output(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(CONFIG_TEXT)
    assert main(["ser", "--config", str(cfg_path)]) == 0
    first = capsys.readouterr().out
    assert main(["ser", "--config", str(cfg_path), "--seed", "123"]) == 0
    second = capsys.readouterr().out
    assert first != second
    assert first.splitlines()[0] == "snr_db,detector,framework,errors,trials,ser,svep,bound"


def test_cli_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_t = 2\n")
    assert main(["ser", "--config", str(bad)]) == 2
    assert "missing required keys" in capsys.readouterr().err
    assert main(["ser", "--config", str(tmp_path / "absent.cfg")]) == 2


@pytest.mark.parametrize("key, value", [
    ("delta", "nan"), ("snr_grid_db", "nan"), ("snr_grid_db", "inf")])
def test_cli_rejects_non_finite_values(tmp_path, capsys, key, value):
    lines = [
        f"{key} = {value}" if line.startswith(f"{key} =") else line
        for line in CONFIG_TEXT.splitlines()]
    bad = tmp_path / "bad.cfg"
    bad.write_text("\n".join(lines))
    assert main(["ser", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize("snr", ["4000", "-4000"])
@pytest.mark.parametrize("command, config", [
    ("ser", "detector_comparison.cfg"), ("bound", "bound_validation.cfg")])
def test_cli_rejects_snr_out_of_float_range(
        tmp_path, capsys, monkeypatch, command, config, snr):
    # 10**400 overflows a float and 10**-400 underflows to 0: the config
    # check names the value before any channel is drawn
    def no_channel(*args):
        raise AssertionError("a channel was drawn")

    monkeypatch.setattr(core, "sample_channel", no_channel)
    monkeypatch.setattr(harness, "sample_channel", no_channel)
    shipped = Path(__file__).parents[1] / "configs" / config
    bad = tmp_path / config
    bad.write_text("\n".join(
        f"snr_grid_db = 0, {snr}" if line.startswith("snr_grid_db =") else line
        for line in shipped.read_text().splitlines()))
    assert main([command, "--config", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: snr_grid_db values must be finite and give a finite positive "
        f"SNR and noise variance, not {float(snr)!r} dB\n")


@pytest.mark.parametrize("bits", [32, 33, 65])
def test_cli_accepts_at_most_32_bits(tmp_path, capsys, bits):
    # from 54 bits the float quantizer merges cells, and from 65 the levels
    # have no integer dtype
    text = CONFIG_TEXT.replace("b = 1", f"b = {bits}").replace(
        "emld, mmd, mcd, mld", "mcd")
    cfg_path = tmp_path / "bits.cfg"
    cfg_path.write_text(text)
    status = main(["ser", "--config", str(cfg_path)])
    out, err = capsys.readouterr()
    if bits <= 32:
        assert status == 0 and err == "" and out.startswith("snr_db,")
    else:
        assert status == 2 and err == "error: b must be at most 32\n"


def test_cli_rejects_inexact_level_distances_before_drawing(
        tmp_path, capsys, monkeypatch):
    # at b = 30 core.sqdist rounds, and eMLD and MMD ranked wrong distances:
    # this file ran to SER 0.5 for both, against 0 for MCD
    def forbidden(*args, **kwargs):
        raise AssertionError("a channel was drawn past validation")

    text = "\n".join((
        "n_t = 1", "n_r = 1", "b = 30", "modulation = bpsk",
        "snr_grid_db = 10", "l = 4", "detectors = emld, mcd, mmd",
        "channel_count = 2", "vectors_per_channel = 50", "seed = 0"))
    cfg_path = tmp_path / "b30.cfg"
    cfg_path.write_text(text)
    for module in (core, harness):
        monkeypatch.setattr(module, "sample_channel", forbidden)
    assert main(["ser", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == (
        "error: emld and mmd: exact level distances need "
        "2 d (2**b - 1)**2 <= 2**53, not b=30, d=2\n")
    harness.parse_config(text.replace("emld, mcd, mmd", "mcd")).validate_for_ser()


@pytest.mark.parametrize("bits", [23, 24])
def test_exact_level_distance_limit_at_32_receive_antennas(bits):
    # d = 64: 2 d (2**23 - 1)**2 is below 2**53 and 2 d (2**24 - 1)**2 above
    cfg = _cfg(n_r=32, bits=bits, detectors=("mmd",), channel_count=1)
    if bits == 23:
        cfg.validate_for_ser()
    else:
        with pytest.raises(ConfigError, match="^mmd: .* not b=24, d=64$"):
            cfg.validate_for_ser()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_cli_rejects_first_stage_count_below_one(tmp_path, capsys, value):
    config = Path(__file__).parents[1] / "configs/sic_tradeoff_nt1_5.cfg"
    bad = tmp_path / "sic.cfg"
    bad.write_text(config.read_text().replace("l_a1 = 1", f"l_a1 = {value}"))
    assert main(["ser", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == "error: l_a1 must be at least 1\n"


_LS_TEXT = """\
n_t = 2
n_r = {n_r}
b = 1
modulation = bpsk
snr_grid_db = 0, 10, 20
t_t = {t_t}
l_a = 4
detectors = {detector}
training = explicit
csir = ls
channel_count = 20
vectors_per_channel = 10
seed = 0
"""


@pytest.mark.parametrize("n_r, t_t, detector, seed, message", [
    # two random BPSK pilot slots for two antennas: singular for some channel
    (4, 2, "mcd", "1", "pilot matrix is rank deficient"),
    # one-bit LS estimates from two receive antennas can be rank deficient
    (2, 8, "zf", "2", "channel estimate is rank deficient"),
], ids=["pilots", "estimate"])
def test_cli_reports_rank_deficient_ls_estimates(
        tmp_path, capsys, n_r, t_t, detector, seed, message):
    # valid configs whose draws make the LS estimate unusable exit with an
    # error line and status 2, not a traceback
    cfg_path = tmp_path / "ls.cfg"
    cfg_path.write_text(_LS_TEXT.format(n_r=n_r, t_t=t_t, detector=detector))
    harness.load_config(cfg_path).validate()
    assert main(["ser", "--config", str(cfg_path), "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("head, n_r, message", [
    # a perfect estimate of one receive antenna has rank 1 < n_t = 2
    ("n_t = 2\ndetectors = zf\n", 1,
     "zf needs n_t <= n_r: a channel estimate has rank at most n_r"),
    # the three interferers of a 1/3 split span more than two receive antennas
    ("n_t = 4\nframework = sic\nn_t1 = 1\n", 2,
     "framework sic needs n_t - n_t1 <= n_r: a channel estimate has rank at "
     "most n_r, too few to project the rest out"),
], ids=["zf", "sic"])
def test_cli_rejects_rank_deficient_channels_before_drawing(
        tmp_path, capsys, monkeypatch, head, n_r, message):
    # whatever csir, such a config aborts on every channel, so it is
    # rejected before the first one is drawn; one more antenna passes
    def forbidden(*args, **kwargs):
        raise AssertionError("a channel was drawn for a config that aborts")

    def text(n_r):
        return head + (
            f"n_r = {n_r}\nb = 1\nmodulation = bpsk\nsnr_grid_db = 10\n"
            "channel_count = 3\nvectors_per_channel = 10\nseed = 0\n")

    for module in (core, harness):
        monkeypatch.setattr(module, "sample_channel", forbidden)
    cfg_path = tmp_path / "rank.cfg"
    cfg_path.write_text(text(n_r))
    assert main(["ser", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    harness.parse_config(text(n_r + 1)).validate_for_ser()


@pytest.mark.parametrize("command, modulation", [
    ("ser", "qpsk"), ("bound", "bpsk"), ("ccdf", "bpsk")])
def test_cli_rejects_huge_symbol_book_without_building_it(
        tmp_path, capsys, monkeypatch, command, modulation):
    def forbidden(*args, **kwargs):
        raise AssertionError("enumerate_symbols reached past validation")

    for module in (core, harness):
        monkeypatch.setattr(module, "enumerate_symbols", forbidden)
    lines = [
        "n_t = 40" if line.startswith("n_t =")
        else f"modulation = {modulation}" if line.startswith("modulation =")
        else line
        for line in CONFIG_TEXT.splitlines()]
    bad = tmp_path / "big.cfg"
    bad.write_text("\n".join(lines))
    start = time.perf_counter()
    assert main([command, "--config", str(bad)]) == 2
    assert time.perf_counter() - start < 5.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n_t=40" in err


def test_cli_rejects_huge_trained_support_before_drawing_a_channel(
        tmp_path, capsys, monkeypatch):
    # K = 4096 with l_a = 16: eMLD and MMD would hold a 65 536 x 4096 count
    # matrix and 200 x 65 536 distances, about 2.2 GiB
    def forbidden(*args, **kwargs):
        raise AssertionError("a channel was drawn past validation")

    for module in (core, harness):
        monkeypatch.setattr(module, "sample_channel", forbidden)
    text = "\n".join((
        "n_t = 6", "n_r = 32", "b = 2", "modulation = qpsk",
        "snr_grid_db = 10", "l_a = 16", "detectors = emld, mmd",
        "training = explicit", "channel_count = 3",
        "vectors_per_channel = 200", "seed = 42"))
    bad = tmp_path / "support.cfg"
    bad.write_text(text)
    assert main(["ser", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MiB per channel" in err
    # the same search with MCD alone trains in a few MiB and is accepted
    harness.parse_config(text.replace("emld, mmd", "mcd")).validate_for_ser()


def test_cli_rejects_huge_data_batch_before_drawing_a_channel(
        tmp_path, capsys, monkeypatch):
    # 2 000 000 data vectors against K = 4096 centroids: their batch needs
    # about 1.4 GiB, though training fits in a few MiB
    def forbidden(*args, **kwargs):
        raise AssertionError("a channel was drawn past validation")

    for module in (core, harness):
        monkeypatch.setattr(module, "sample_channel", forbidden)
    config = Path(__file__).parents[1] / "perfbench/configs/full_search_k4096.cfg"
    bad = tmp_path / "batch.cfg"
    bad.write_text(config.read_text().replace(
        "vectors_per_channel = 200", "vectors_per_channel = 2000000"))
    assert main(["ser", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MiB per channel" in err


def test_cli_rejects_huge_pilot_frame_before_drawing_a_channel(
        tmp_path, capsys, monkeypatch):
    # 10**8 random pilot slots for the least-squares estimate: its arrays
    # would take about 25 GiB, though the data batch is small
    def forbidden(*args, **kwargs):
        raise AssertionError("a channel was drawn past validation")

    for module in (core, harness):
        monkeypatch.setattr(module, "sample_channel", forbidden)
    shipped = Path(__file__).parents[1] / "configs/multibit_downlink_b2.cfg"
    bad = tmp_path / "pilots.cfg"
    bad.write_text(shipped.read_text().replace(
        "t_t = 100", "t_t = 100000000"))
    assert main(["ser", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "MiB per channel" in err


def test_ccdf_is_admitted_by_its_own_budget_not_a_ser_batch(
        tmp_path, capsys, monkeypatch):
    # ccdf draws no data vector, so the 4 000 000 per channel that a SER
    # sweep of this file would decide (about 1.8 GiB) do not reject it
    shipped = Path(__file__).parents[1] / "configs/dmin_ccdf.cfg"
    cfg_path = tmp_path / "ccdf.cfg"
    cfg_path.write_text(
        shipped.read_text().replace("n_t = 4", "n_t = 9")
        .replace("n_r = 4", "n_r = 16")
        .replace("channel_count = 100000", "channel_count = 100")
        .replace("vectors_per_channel = 1", "vectors_per_channel = 4000000"))
    assert main(["ser", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n_t=9 ") and "MiB per channel" in err
    # the sampled distances are stubbed, and counted
    sampled = []
    monkeypatch.setattr(
        harness, "sample_dmin",
        lambda n_t, n_r, count, rng: sampled.append(count) or np.zeros(
            count, dtype=np.int64))
    assert main(["ccdf", "--config", str(cfg_path)]) == 0
    assert sampled == [100]


@pytest.mark.parametrize("command, config, n_t", [
    # sample_dmin's 16 384 x 1024 x 1024 float32 Gram matrix: 64 GiB
    ("ccdf", "dmin_ccdf.cfg", 10),
    # analysis.geometry's 16 384 x 16 384 float64 distances: 2 GiB
    ("bound", "bound_validation.cfg", 14),
])
def test_cli_rejects_huge_analysis_arrays_before_drawing(
        tmp_path, capsys, monkeypatch, command, config, n_t):
    def forbidden(*args, **kwargs):
        raise AssertionError("an analysis array was built past the budget")

    for module in (core, harness):
        monkeypatch.setattr(module, "enumerate_symbols", forbidden)
        monkeypatch.setattr(module, "sample_channel", forbidden)
    monkeypatch.setattr(harness, "sample_dmin", forbidden)
    monkeypatch.setattr(analysis, "geometry", forbidden)
    shipped = Path(__file__).parents[1] / "configs" / config
    lines = [
        f"n_t = {n_t}" if line.startswith("n_t =")
        # a short batch, so that the SER-phase estimate stays small
        else "vectors_per_channel = 10" if line.startswith("vectors_per_channel")
        else line
        for line in shipped.read_text().splitlines()]
    bad = tmp_path / "big.cfg"
    bad.write_text("\n".join(lines))
    # the per-channel estimate of a SER sweep accepts the config, and a SER
    # sweep of it (which needs l) would warn of unavoidable errors
    cfg = harness.load_config(bad)
    with pytest.warns(UserWarning, match="irreducible"):
        dataclasses.replace(cfg, repetitions=5).validate_for_ser()
    assert main([command, "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"n_t={n_t}" in err


_BOUND_ZF_TEXT = """\
n_t = 12
n_r = 16
b = 1
modulation = bpsk
snr_grid_db = 10
detectors = {detector}
channel_count = 1
vectors_per_channel = 4000000
seed = 0
"""


def test_cli_bound_budgets_its_mcd_run_not_the_listed_detectors(
        tmp_path, capsys, monkeypatch):
    # bound runs MCD whatever the file lists, so both files are rejected
    # with MCD's estimate of 4 000 000 data vectors (2.0 GiB), not with
    # ZF's, which a SER sweep of the ZF file would give (5.1 GiB)
    def forbidden(*args, **kwargs):
        raise AssertionError("a channel was drawn past the budget")

    for module in (core, harness):
        monkeypatch.setattr(module, "sample_channel", forbidden)
    monkeypatch.setattr(analysis, "geometry", forbidden)
    errors = []
    for detector in ("zf", "mcd"):
        cfg_path = tmp_path / f"{detector}.cfg"
        cfg_path.write_text(_BOUND_ZF_TEXT.format(detector=detector))
        assert main(["bound", "--config", str(cfg_path)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: n_t=12 ")
    assert errors[0].endswith(" MiB per channel (limit 1024 MiB)\n")


@pytest.mark.parametrize("n_r", [2, 3, 64])
def test_cli_bound_rejects_one_antenna_over_several_before_drawing(
        tmp_path, capsys, monkeypatch, n_r):
    # at n_t = 1 the codewords x and -x differ in every one of the 2 n_r
    # one-bit outputs, so the flip budget is n_r on every channel, never one
    def forbidden(*args, **kwargs):
        raise AssertionError("a channel was drawn for an infeasible search")

    for module in (core, harness):
        monkeypatch.setattr(module, "sample_channel", forbidden)
    monkeypatch.setattr(analysis, "geometry", forbidden)
    cfg_path = tmp_path / "one.cfg"
    cfg_path.write_text(
        f"n_t = 1\nn_r = {n_r}\nb = 1\nmodulation = bpsk\n"
        "snr_grid_db = 10\ndetectors = mcd\nchannel_count = 5\n"
        "vectors_per_channel = 10\nseed = 1\n")
    assert main(["bound", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: n_t=1 with n_r={n_r}: the two codewords are always "
        f"2 n_r = {2 * n_r} outputs apart, so every channel has a flip "
        f"budget of {n_r} and none is kept\n")


def test_cli_bound_runs_one_antenna_over_one(tmp_path, capsys):
    # n_t = n_r = 1: the two codewords are 2 outputs apart, a unit budget
    cfg_path = tmp_path / "one.cfg"
    cfg_path.write_text(
        "n_t = 1\nn_r = 1\nb = 1\nmodulation = bpsk\nsnr_grid_db = 10\n"
        "detectors = mcd\nchannel_count = 2\nvectors_per_channel = 10\n"
        "seed = 1\n")
    assert main(["bound", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().err == ""


def _run_script(script, *args):
    """Run ``script`` in a fresh interpreter that imports this checkout's
    quantmimo; a failed assertion in it fails the call."""
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-c", script, *args],
                   env=env, check=True, timeout=120)


_NO_POOL = """
import sys
from quantmimo.cli import main
assert "concurrent.futures.process" not in sys.modules
assert main(["ser", "--config", sys.argv[1], "--out", sys.argv[1] + ".csv"]) == 0
assert "concurrent.futures.process" not in sys.modules
"""


def test_cli_import_skips_process_pool(tmp_path):
    # only a multi-worker run imports the process pool
    cfg = tmp_path / "one_worker.cfg"
    cfg.write_text(CONFIG_TEXT.replace("channel_count = 8", "channel_count = 2"))
    _run_script(_NO_POOL, str(cfg))


_NO_SCIPY = """
import sys


class _Blocker:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, _Blocker())
from quantmimo import analysis
from quantmimo.cli import main
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded(), loaded()
for command, path in zip(sys.argv[1::2], sys.argv[2::2]):
    assert main([command, "--config", path, "--out", path + ".csv"]) == 0
    assert not loaded(), (command, path, loaded())
assert main(["demo"]) == 0
assert 0.0 < analysis.flip_probability(1.0, 2.0, 2) < 0.5
assert not loaded(), loaded()
"""


def test_cli_import_skips_scipy_stats(tmp_path):
    # numpy is the only runtime dependency: with every scipy import made to
    # fail, ser runs with and without mld and with a sic split, a bound run,
    # a ccdf run past the exact binomial band (2 n_r > 64), the demo and
    # the one-bit flip probability all complete
    full = tmp_path / "full.cfg"
    full.write_text(CONFIG_TEXT.replace(
        "detectors = emld, mmd, mcd, mld", "detectors = emld, mmd, mcd, zf"))
    mld = tmp_path / "mld.cfg"
    mld.write_text(CONFIG_TEXT)
    split = tmp_path / "split.cfg"
    split.write_text("\n".join((
        "n_t = 3", "n_r = 4", "b = 2", "modulation = qpsk",
        "snr_grid_db = 5", "detectors = mcd", "framework = sic", "n_t1 = 2",
        "csir = ls", "t_t = 8", "channel_count = 1",
        "vectors_per_channel = 10", "seed = 1")))
    one_bit = tmp_path / "bound.cfg"
    one_bit.write_text("\n".join((
        "n_t = 2", "n_r = 2", "b = 1", "modulation = bpsk",
        "snr_grid_db = 0, 10", "detectors = mcd", "l = 2",
        "channel_count = 2", "vectors_per_channel = 20", "seed = 5")))
    wide = tmp_path / "ccdf.cfg"
    wide.write_text("\n".join((
        "n_t = 3", "n_r = 33", "b = 1", "modulation = bpsk",
        "snr_grid_db = 0", "channel_count = 50", "vectors_per_channel = 1",
        "seed = 3")))
    _run_script(_NO_SCIPY, "ser", str(full), "ser", str(mld), "ser",
                str(split), "bound", str(one_bit), "ccdf", str(wide))


_NO_FRACTIONS = """
import sys
from quantmimo.cli import main
def loaded():
    return sorted(m for m in ("fractions", "decimal") if m in sys.modules)
assert not loaded(), loaded()
for command, path in zip(sys.argv[1::2], sys.argv[2::2]):
    assert main([command, "--config", path, "--out", path + ".csv"]) == 0
    assert not loaded(), (command, path, loaded())
"""


def test_cli_runs_skip_fractions_and_decimal(tmp_path):
    # no ser, bound or ccdf run imports fractions, which imports decimal:
    # the exact two-antenna CCDF is a correctly rounded int / int division
    ser = tmp_path / "ser.cfg"
    ser.write_text(CONFIG_TEXT)
    args = ["ser", str(ser)]
    for n_t in (2, 3):  # the exact and the approximate analytic CCDF
        one_bit = tmp_path / f"bpsk{n_t}.cfg"
        one_bit.write_text("\n".join((
            f"n_t = {n_t}", "n_r = 3", "b = 1", "modulation = bpsk",
            "snr_grid_db = 0, 10", "detectors = mcd", "l = 2",
            "channel_count = 3", "vectors_per_channel = 20", "seed = 5")))
        args += ["bound", str(one_bit), "ccdf", str(one_bit)]
    _run_script(_NO_FRACTIONS, *args)


_DEMO_OUT = """\
channel:
[[0.5 1. ]
 [1.  0. ]]
trained pairs (symbol vector -> one-bit observation):
  x1 = [1. 1.] -> y = [1. 1.]
  x2 = [ 1. -1.] -> y = [-1.  1.]
  x3 = [-1.  1.] -> y = [ 1. -1.]
  x4 = [-1. -1.] -> y = [-1. -1.]
detecting y = [ 1. -1.]:
  emld: index 3 (symbol vector [-1.  1.])
  mmd: index 3 (symbol vector [-1.  1.])
  mcd: index 3 (symbol vector [-1.  1.])
"""


def test_cli_demo_prints_worked_example(capsys):
    assert main(["demo"]) == 0
    assert capsys.readouterr().out == _DEMO_OUT


def test_sic_books_built_once_per_channel(monkeypatch):
    cfg = ExperimentConfig(
        n_t=3, n_r=8, bits=2, modulation="qpsk",
        snr_grid_db=(0.0, 5.0, 10.0), channel_count=1, vectors_per_channel=20,
        seed=4, training="explicit", csir="perfect", detectors=("mcd",),
        framework="sic", n_t1=2)
    child = np.random.SeedSequence(cfg.seed).spawn(1)[0]
    expected = harness._ser_channel_counts(cfg, child)
    calls = []

    def counting(c, n_t):
        calls.append(n_t)
        return core.enumerate_symbols(c, n_t)

    monkeypatch.setattr(harness, "enumerate_symbols", counting)
    assert np.array_equal(harness._ser_channel_counts(cfg, child), expected)
    assert sorted(calls) == [1, 2, 3]


# ---------------------------------------------------------------------------
# trained detection without the per-vector object layer


def test_trained_detection_never_builds_quantized_vectors(monkeypatch):
    configs = (
        _cfg(snr_grid_db=(5.0,), detectors=("emld", "mmd", "mcd", "mld")),
        # least-squares estimation from random pilots, then explicit training
        _cfg(snr_grid_db=(5.0,), detectors=("mcd", "zf"), csir="ls",
             training="explicit", artificial_count=8, t_t=12),
    )
    child = np.random.SeedSequence(5).spawn(1)[0]
    one_bit = dict(n_r=2, bits=1, modulation="bpsk", detectors=("mcd",))
    bound_cfg = ExperimentConfig(
        **one_bit, n_t=2, snr_grid_db=(0.0, 10.0), channel_count=3,
        vectors_per_channel=200, seed=3, repetitions=5)
    ccdf_cfg = ExperimentConfig(
        **one_bit, n_t=3, snr_grid_db=(0.0,), channel_count=500,
        vectors_per_channel=1, seed=21)

    def analysis_csvs():
        # bound searches channels by their codebook; ccdf samples d_min
        return [harness.render_csv(records) for records in (
            harness.run_bound_validation(bound_cfg),
            harness.run_bound_validation(
                bound_cfg, use_trained_centroids=True),
            harness.run_ccdf_experiment(ccdf_cfg))]

    expected = [harness._ser_channel_counts(cfg, child) for cfg in configs]
    expected_csvs = analysis_csvs()

    def forbidden(*args):
        raise AssertionError("level tuples were built on a hot path")

    for module in (core, training):
        monkeypatch.setattr(module, "vectors_from_levels", forbidden)
    qcfg = core.QuantizerConfig(bits=2, step=0.5)
    book = core.enumerate_symbols(core.qpsk(), 2)
    h = core.sample_channel(4, 2, np.random.default_rng(3))
    model = training.learn_explicit(
        h, 0.2, 16, book, qcfg, np.random.default_rng(4))
    levels = core.transmit_batch(
        h, book.vectors, 0.2, qcfg, np.random.default_rng(6))
    detected = detection.detect_mcd_batch(
        core.level_values(levels, qcfg),
        detection.centroids(model.level_sums(), 16, qcfg))
    assert detected.shape == (book.size,)
    for cfg, counts in zip(configs, expected):
        assert np.array_equal(harness._ser_channel_counts(cfg, child), counts)
    assert analysis_csvs() == expected_csvs


def _sic_split_cfg(**overrides):
    base = dict(
        n_t=3, n_r=5, bits=2, modulation="qpsk",
        snr_grid_db=(0.0, 5.0, 10.0), channel_count=2, vectors_per_channel=50,
        seed=19, training="explicit", csir="perfect", detectors=("mcd",),
        framework="sic", n_t1=2, first_stage_count=1)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.mark.parametrize("overrides,per_channel", [
    ({}, 1),
    ({"first_stage_count": 2}, 3),
    ({"csir": "ls", "t_t": 12}, 3),
])
def test_sic_model_built_once_per_channel_when_snr_free(
        monkeypatch, overrides, per_channel):
    # perfect CSIR with l_a1 = 1 trains on the noiseless true channel, so
    # the plan and first-stage model cannot change across the SNR grid
    cfg = _sic_split_cfg(**overrides)
    spies = {}
    for name in ("build_plan", "learn_first_stage"):
        spies[name] = mock.Mock(wraps=getattr(sic, name))
        monkeypatch.setattr(sic, name, spies[name])
    harness.run_ser_experiment(cfg)
    for spy in spies.values():
        assert spy.call_count == per_channel * cfg.channel_count


@pytest.mark.parametrize("first_stage_count,expected", [
    (1, [[[41, 150, 32, 50], [18, 150, 15, 50], [5, 150, 5, 50]],
         [[56, 150, 35, 50], [31, 150, 21, 50], [17, 150, 11, 50]]]),
    (2, [[[57, 150, 37, 50], [20, 150, 16, 50], [6, 150, 6, 50]],
         [[65, 150, 42, 50], [44, 150, 32, 50], [11, 150, 9, 50]]]),
])
def test_sic_channel_counts_match_recorded(first_stage_count, expected):
    # recorded with the per-SNR build and the per-decision stage-two loop
    cfg = _sic_split_cfg(first_stage_count=first_stage_count)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.channel_count)
    for child, counts in zip(children, expected):
        got = harness._ser_channel_counts(cfg, child)
        assert got.shape == (3, 1, 4)
        assert got[:, 0].tolist() == counts


# ---------------------------------------------------------------------------
# each distinct observation detected once


_DEDUPE_CONFIGS = (
    _cfg(snr_grid_db=(0.0, 10.0, 25.0), vectors_per_channel=120),
    _cfg(snr_grid_db=(0.0, 25.0), detectors=("mcd", "zf"), csir="ls",
         training="explicit", artificial_count=8, t_t=12, n_r=3, bits=2),
    _cfg(snr_grid_db=(0.0, 25.0), detectors=("emld", "mld"), csir="ls",
         modulation="bpsk", n_t=1, n_r=2),
    _sic_split_cfg(),
    _sic_split_cfg(first_stage_count=2, modulation="bpsk", snr_grid_db=(20.0,)),
    _sic_split_cfg(csir="ls", t_t=12),
)


def _ser_counts(cfg):
    children = np.random.SeedSequence(cfg.seed).spawn(2)
    return [harness._ser_channel_counts(cfg, c).tolist() for c in children]


_BOUND_CFG = ExperimentConfig(
    n_t=2, n_r=2, bits=1, modulation="bpsk", snr_grid_db=(0.0, 10.0, 20.0),
    channel_count=3, vectors_per_channel=400, seed=8, detectors=("mcd",),
    repetitions=5)


def _bound_csv(use_trained_centroids):
    return harness.render_csv(harness.run_bound_validation(
        _BOUND_CFG, use_trained_centroids=use_trained_centroids))


@pytest.mark.parametrize("run", [
    *(pytest.param(partial(_ser_counts, cfg), id=f"cfg{i}")
      for i, cfg in enumerate(_DEDUPE_CONFIGS)),
    pytest.param(partial(_bound_csv, False), id="bound-exact"),
    pytest.param(partial(_bound_csv, True), id="bound-trained"),
])
def test_channel_counts_equal_detecting_every_row(monkeypatch, run):
    deduped = run()

    def every_row(levels):
        rows = np.arange(len(levels))
        return rows, rows

    monkeypatch.setattr(harness, "distinct_rows", every_row)
    assert run() == deduped


def _vector_error_counts(x_det, x_true):
    """The count on decided and sent symbol vectors that the index-based
    one replaced."""
    mismatched = x_det != x_true
    return (int(mismatched.sum()), x_true.size,
            int(mismatched.any(axis=1).sum()), x_true.shape[0])


@settings(max_examples=40, deadline=None)
@given(modulation=st.sampled_from(["bpsk", "qpsk"]), n_t=st.integers(1, 6),
       bits=st.integers(1, 3), snr_db=st.floats(-5.0, 30.0),
       seed=st.integers(0, 2**32 - 1))
def test_index_error_counts_equal_vector_comparison(
        modulation, n_t, bits, snr_db, seed):
    # random, ZF and SIC decisions, up to the K = 4096 books of the full
    # search; the random ones pair the first and last indices 0 and K - 1
    # with themselves and with each other
    rng = np.random.default_rng(seed)
    c = core.constellation(modulation)
    book = core.enumerate_symbols(c, n_t)
    qcfg = core.QuantizerConfig(bits, 0.5)
    h = core.sample_channel(n_t + 1, n_t, rng)
    sigma2 = core.snr_db_to_sigma2(snr_db, n_t)
    last = book.size - 1
    sent = rng.integers(0, book.size, size=60)
    sent[:4] = 0, last, 0, last
    values = core.level_values(core.transmit_batch(
        h, book.vectors[sent], sigma2, qcfg, rng), qcfg)
    n_t1 = int(rng.integers(1, n_t + 1))
    books = core.enumerate_symbols(c, n_t1), core.enumerate_symbols(c, n_t - n_t1)
    plan = sic.build_plan(h, n_t1)
    first_stage = sic.learn_first_stage(plan, sigma2, 1, *books, qcfg)
    guessed = np.where(rng.random(60) < 0.5, sent,
                       rng.integers(0, book.size, size=60))
    guessed[:4] = 0, last, last, 0
    for decided in (guessed, baselines.detect_zf_batch(values, h, c),
                    sic.detect_sic_batch(values, plan, first_stage, *books)):
        assert harness._error_counts(decided, sent, c.size, n_t) == (
            _vector_error_counts(book.vectors[decided], book.vectors[sent]))


_BATCH_DETECTORS = (
    (detection, "detect_emld_batch"), (detection, "detect_mmd_batch"),
    (detection, "detect_mcd_batch"), (baselines, "detect_mld_batch"),
    (baselines, "detect_zf_batch"), (sic, "detect_sic_batch"))


@pytest.mark.parametrize("cfg", _DEDUPE_CONFIGS)
def test_detectors_receive_pairwise_distinct_rows(monkeypatch, cfg):
    batches = []

    def spy(fn):
        def wrapped(rows, *args):
            batches.append(len(rows))
            assert len(np.unique(rows, axis=0)) == len(rows)
            return fn(rows, *args)
        return wrapped

    for module, name in _BATCH_DETECTORS:
        monkeypatch.setattr(module, name, spy(getattr(module, name)))
    counts = harness._ser_channel_counts(
        cfg, np.random.SeedSequence(cfg.seed).spawn(1)[0])
    per_batch = len(cfg.snr_grid_db) * len(cfg.detectors)
    assert len(batches) == per_batch
    # every detector still scores all vectors, and some batch had repeats
    assert (counts[:, :, 3] == cfg.vectors_per_channel).all()
    assert min(batches) < cfg.vectors_per_channel


# sha256 of each shipped config's CSV at reduced size: (config, runner,
# channels, digest). The shipped configs were recorded at commit f39c63a,
# before the harness detected each distinct observation once; bound
# validation with trained centroids at commit 123c14e, before it ran through
# the SER sweeps' receiver pipeline, and it still matched before bound
# batches were deduplicated. The 20 000-channel ccdf run, which crosses a
# sample_dmin draw block, was recorded at commit a732127, before the blocks
# were computed in tiles.
_REDUCED_CSV_SHA256 = {
    "detector_comparison.cfg": (
        "detector_comparison.cfg", harness.run_ser_experiment, 5,
        "ff5d504adf997b67dba69ece86d4775a51d4a9550d37f085112202a31c5f1e1d"),
    "bound_validation.cfg": (
        "bound_validation.cfg", harness.run_bound_validation, 5,
        "cca32344cb86d3997db0ff286b0c0d2c883599028acf96f208242a7ad25ecc12"),
    "bound-trained": (
        "bound_validation.cfg",
        partial(harness.run_bound_validation, use_trained_centroids=True), 5,
        "67fe6d6761b5afa7b614c8cacc8933a9a8e4029ee8c660b46033d034f10e0fd5"),
    "dmin_ccdf.cfg": (
        "dmin_ccdf.cfg", harness.run_ccdf_experiment, 2000,
        "973117b125e7bb3a20c1610573e648c305d1aa3b54db235ce3d1b2ac4331719e"),
    "dmin_ccdf.cfg-blocks": (
        "dmin_ccdf.cfg", harness.run_ccdf_experiment, 20_000,
        "1097f34f709ca2bc4312753fdf0d23e6f65f27af2c50bbd98e370ca95642785e"),
    "multibit_downlink_b2.cfg": (
        "multibit_downlink_b2.cfg", harness.run_ser_experiment, 5,
        "cc0117cb76ea09e6ac046dc28e235abd8d1a0370a2b0254e00843a17705e7592"),
    "sic_tradeoff_nt1_5.cfg": (
        "sic_tradeoff_nt1_5.cfg", harness.run_ser_experiment, 5,
        "a8fa889f1df77efc2b087b206b43b3ababa35aca47ef232bd16c051234fed02e"),
    # explicit MCD on BPSK 2 x 2 with b = 3 and l_a = 10 000: its largest
    # level sum L (2**b - 1) = 70 000 needs uint32, past the uint16 edge;
    # recorded at commit 84321d7, when the sums accumulated in float64
    "detector_comparison.cfg-uint32-sums": (
        "detector_comparison.cfg",
        lambda cfg: harness.run_ser_experiment(dataclasses.replace(
            cfg, n_t=2, n_r=2, bits=3, modulation="bpsk",
            training="explicit", artificial_count=10_000,
            detectors=("mcd",))), 5,
        "922be59a9cf7ff2fd9f4ddd803df8881f4123674354b88421fda132e79a14845"),
    # four noisy first-stage signals per pair instead of one
    "sic_tradeoff_nt1_5.cfg-l_a1-4": (
        "sic_tradeoff_nt1_5.cfg",
        lambda cfg: harness.run_ser_experiment(
            dataclasses.replace(cfg, first_stage_count=4)), 5,
        "1b61f4b6956f53959addf41b77fa492339794342e8efc416f6418f40ac345906"),
}


@pytest.mark.parametrize("name", sorted(_REDUCED_CSV_SHA256))
def test_shipped_config_csv_is_byte_identical_at_reduced_size(name):
    config, runner, channels, digest = _REDUCED_CSV_SHA256[name]
    cfg = dataclasses.replace(
        harness.load_config(Path(__file__).parents[1] / "configs" / config),
        channel_count=channels)
    csv_text = harness.render_csv(runner(cfg))
    assert hashlib.sha256(csv_text.encode()).hexdigest() == digest
