"""Experiment harness: seeded Monte Carlo sweeps over block-fading channels.

Every experiment is driven by an :class:`ExperimentConfig` (parseable from a
flat key-value text file) and emits :class:`ResultRecord` rows with a fixed
CSV schema. Channels are re-trained independently per realization; all
randomness derives from per-channel seed-sequence children of the configured
seed, so results are byte-identical for a given (config, seed) regardless of
how many worker processes are used.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from . import analysis, baselines, detection, sic, training
from .core import (
    QuantizerConfig,
    constellation,
    distinct_rows,
    enumerate_symbols,
    level_values,
    noise_chunk,
    quantize_scratch,
    sample_channel,
    snr_db_to_sigma2,
    transmit_batch,
)

KNOWN_DETECTORS = ("emld", "mmd", "mcd", "mld", "zf")
_MODEL_DETECTORS = {"emld", "mmd", "mcd"}

CSV_COLUMNS = (
    "snr_db", "detector", "framework", "errors", "trials", "ser", "svep", "bound")

# Largest accepted array estimate of one channel (ExperimentConfig.peak_bytes),
# of bound's code geometry or of sample_dmin's block draws and tile. The
# K = 4**6 full search, a 4096 x 16 x 64 level model (l_a = 16, n_r = 32)
# and 200 data vectors, estimates 9.0 MiB with MCD (0.63 GiB at 20 000 data
# vectors), and 4.2 GiB with eMLD and MMD, whose count matrix, its float64
# cast and distances span all 65 536 distinct trained rows.
_PEAK_BYTES_BUDGET = 1 << 30
# Allowance in that estimate for the channel, the small arrays and the Python
# objects of one channel realization.
_SMALL_BYTES = 1 << 17


class ConfigError(ValueError):
    """Raised for malformed or infeasible experiment configurations."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one Monte Carlo experiment.

    The fields are the config-file schema, each key declared once. A key is
    its field's name unless ``key`` metadata gives the paper's notation:
    ``b`` (bits), ``delta`` (step Δ), ``t`` (total slots T), ``l``
    (repetitions L), ``l_a`` (artificial signals L_a) and ``l_a1``
    (first-stage signals per pair). A key is required exactly when its
    field has no default, ``_PARSERS`` parses its value by the field's
    annotation, and ``choices`` metadata lists the values a field accepts,
    in any case.
    """

    n_t: int
    n_r: int
    bits: int = field(metadata={"key": "b"})
    modulation: str = field(metadata={"choices": ("bpsk", "qpsk")})
    snr_grid_db: tuple[float, ...]
    channel_count: int
    vectors_per_channel: int
    seed: int
    step: float = field(default=0.5, metadata={"key": "delta"})
    t_t: int | None = None
    total_slots: int | None = field(default=None, metadata={"key": "t"})
    detectors: tuple[str, ...] = ("mcd",)
    framework: str = field(default="full", metadata={"choices": ("full", "sic")})
    n_t1: int | None = None
    training: str = field(
        default="implicit", metadata={"choices": ("implicit", "explicit")})
    csir: str = field(default="perfect", metadata={"choices": ("perfect", "ls")})
    repetitions: int | None = field(default=None, metadata={"key": "l"})
    artificial_count: int | None = field(
        default=None, metadata={"key": "l_a"})
    first_stage_count: int = field(default=1, metadata={"key": "l_a1"})
    threads: int = 1

    def __post_init__(self) -> None:
        for f in fields(self):
            if "choices" in f.metadata:
                object.__setattr__(self, f.name, getattr(self, f.name).lower())
        object.__setattr__(
            self, "detectors", tuple(d.lower() for d in self.detectors))
        self.validate()

    @property
    def symbol_count(self) -> int:
        return constellation(self.modulation).size ** self.n_t

    def peak_bytes(self) -> int:
        """Integer estimate of one channel's largest arrays, in bytes.

        With K = M**n_t, d = 2 n_r, N data vectors, L trained samples per
        symbol and levels of ``QuantizerConfig.level_dtype`` it counts the
        K x n_t complex symbol book, ``_SMALL_BYTES`` and the larger of two
        peaks. Builds none of the arrays.

        Training: one noise chunk of ``core.noisy_levels`` holds its float
        buffer, their levels and the quantizer's float scratch of
        ``core.quantize_scratch`` values. Explicit training holds the K x n_r
        complex noiseless sums and the model, a K x L x d level array, while
        it draws. Implicit training holds the K*L/2 x n_t complex pilot
        symbols and their levels with, while it transmits, their complex
        noiseless sums, and afterwards the mirrored levels and the model.
        MCD sums its centroids next to the model into one K x d float64
        array. SIC, with K1 = M**n_t1, K2 = K / K1, l = l_a1 and
        d1 = d - 2 (n_t - n_t1) projected dimensions, holds its two
        subvector books, the K x d level table and the K1 x d1 float64
        centroids, the K1 x n_r and K2 x n_r complex products of the books
        with their channels and, for l > 1, the K*l x d noisy levels, drawn
        next to the K x n_r complex noiseless sums and one noise chunk. One
        block of first-stage candidates at a time, as many as one noise
        chunk holds, adds the larger of its complex sums with the
        quantizer's scratch and half-levels, and its float64 values with
        their d1-dimensional projections.

        Data phase: what training leaves (MCD's K x d centroids; for eMLD
        and MMD the model and the S x K int64 count matrix of its
        S = min(K*L, 2**(b*d)) distinct trained rows; SIC's books, table
        and centroids) and the batch: N x d levels and three intp arrays of
        N ids (the distinct-row codes, each row's distinct id and its
        decided copy), with the larger of the transmission (N x n_t complex
        symbols, N x n_r complex sums and one noise chunk) and the
        detectors. These see only the U = min(N, 2**(b*d)) distinct rows
        (``_channel_counts``): their U x d levels and float64 values, and
        each detector's own terms. MCD a U x K float64 product, which
        becomes the distances in place (``detection.nearest_center``), and
        the values' doubled copy; eMLD and MMD the larger of the
        level-distance kernel (U x d and S x d float64 operands, U x S
        float64 distances and their int64 cast) and eMLD's U x S bool and
        float64 neighbor masks next to the distances, with the float64 cast
        of the count matrix that its product (and MMD's) reads and its
        U x K scores; MLD its K x n_r complex noiseless sums and their real
        form and its K x d x 2**b float64 likelihood table with the larger
        of the table's build (one block of ``baselines.cdf_chunk`` rows of
        CDF arguments as a float64 copy, a list of Python floats and the
        float64 results) and its gather (K x d int32 cell offsets, the
        U x K x d int32 flat index and float64 likelihoods, and their U x K
        sums); SIC the larger of stage one (the U x d1 projections, their
        doubled copy and the U x K1 product turned distances) and one chunk
        of its U x K2 x d stage-two gather (``sic.stage_two_chunk``) as
        levels and float64 values with their squared distances.
        """
        k, d, n = self.symbol_count, 2 * self.n_r, self.vectors_per_channel
        level = QuantizerConfig(self.bits, self.step).level_dtype.itemsize
        detectors = set(self.detectors)
        u = min(n, 2 ** (self.bits * d))

        def noise(rows: int, row_values: int) -> int:
            chunk = min(rows, noise_chunk(row_values)) * row_values
            return (8 + level) * chunk + 8 * quantize_scratch(chunk)

        # the symbols, their sums and the noise chunk are freed before the
        # batch is deduplicated and decided
        transmit = 16 * n * (self.n_t + self.n_r) + noise(n, self.n_r)
        batch, detect = n * (level * d + 24) + u * (level + 8) * d, 0
        if self.framework == "sic":
            # validate_for_ser rejects an n_t1 outside [1, n_t]
            n_t1 = min(max(self.n_t1 or 1, 1), self.n_t)
            k1 = constellation(self.modulation).size ** n_t1
            k2, samples = k // k1, self.first_stage_count
            d1 = d - 2 * (self.n_t - n_t1)
            held = (16 * (k1 * n_t1 + k2 * (self.n_t - n_t1))
                    + level * k * d + 8 * k1 * d1)
            block = min(k1, noise_chunk(k2 * samples * d)) * k2
            stage = max(
                (16 + level) * block * self.n_r
                + 8 * quantize_scratch(block * self.n_r),
                8 * block * samples * (d + d1))
            if samples > 1:
                stage = level * k * samples * d + max(
                    stage, 16 * k * self.n_r
                    + noise(k1, k2 * samples * self.n_r))
            training = held + 16 * (k1 + k2) * self.n_r + stage
            detect = max(8 * u * (k1 + 2 * d1), ((level + 8) * d + 8) * k2
                         * min(u, sic.stage_two_chunk(8 * d * k2)))
        else:
            implicit = self.training == "implicit"
            samples = (self.repetitions if implicit
                       else self.artificial_count) or 0
            model = level * k * samples * d
            build = model + 8 * k * d if "mcd" in detectors else 0
            if implicit:
                slots = k * samples // 2
                pilots = (16 * self.n_t + level * d) * slots
                training = pilots + max(
                    16 * slots * self.n_r + noise(slots, self.n_r),
                    model + level * slots * d, build)
            else:
                drawing = (16 * k * self.n_r + level * k * samples * d
                           + noise(k, samples * self.n_r))
                training = max(drawing, build)
            held = 0
            if "mcd" in detectors:
                held += 8 * k * d
                detect += 8 * u * (k + d)
            if {"emld", "mmd"} & detectors:
                s = min(k * samples, 2 ** (self.bits * d))
                held += model + 8 * s * k
                detect += max(8 * (u + s) * d + 16 * u * s,
                              17 * u * s + 8 * s * k + 8 * u * k)
            if "mld" in detectors:
                edges = 2 ** self.bits - 1
                block = edges * min(k * d, baselines.cdf_chunk(edges))
                detect += 16 * k * d + 8 * k * d * (edges + 1) + max(
                    40 * block, 4 * k * d + 12 * u * k * d + 8 * u * k)
        data = batch + max(transmit, detect)
        return 16 * k * self.n_t + _SMALL_BYTES + max(training, held + data)

    def pilot_slots(self) -> int:
        """Effective T_t: the implicit schedule length, or the configured value."""
        if self.training == "implicit" and self.framework == "full":
            return self.symbol_count * (self.repetitions or 0) // 2
        return self.t_t or 0

    def validate(self) -> None:
        """Field checks and the per-channel budget, run by every construction."""
        for name in ("n_t", "n_r", "bits", "channel_count",
                     "vectors_per_channel"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ConfigError("delta must be a positive finite number")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must list at least one SNR point")
        if not all(math.isfinite(v) for v in self.snr_grid_db):
            raise ConfigError("snr_grid_db values must be finite")
        for f in fields(self):
            choices = f.metadata.get("choices", ())
            value = getattr(self, f.name)
            if choices and value not in choices:
                raise ConfigError(
                    f"unknown {f.name} {value!r} "
                    f"(expected {' or '.join(choices)})")
        unknown = [d for d in self.detectors if d not in KNOWN_DETECTORS]
        if unknown:
            raise ConfigError(
                f"unknown detectors {unknown}; known: {', '.join(KNOWN_DETECTORS)}")
        if not self.detectors:
            raise ConfigError("detectors must list at least one detector")
        if len(set(self.detectors)) < len(self.detectors):
            raise ConfigError(
                f"detectors lists one twice: {', '.join(self.detectors)}")
        _require_budget(self, self.peak_bytes(), "per channel")

    def validate_for_ser(self) -> None:
        """Further checks of an SNR sweep, which warns of unavoidable errors."""
        if self.framework == "sic":
            if self.n_t1 is None or not 1 <= self.n_t1 <= self.n_t:
                raise ConfigError("framework sic needs n_t1 in [1, n_t]")
            if set(self.detectors) != {"mcd"}:
                raise ConfigError("framework sic supports only the mcd detector")
            if self.first_stage_count < 1:
                raise ConfigError("l_a1 must be at least 1")
        elif self.training == "implicit":
            if _MODEL_DETECTORS & set(self.detectors):
                if self.repetitions is None or self.repetitions < 1:
                    raise ConfigError("implicit training needs l >= 1")
                if self.t_t is not None and self.t_t != self.pilot_slots():
                    raise ConfigError(
                        f"t_t={self.t_t} contradicts the implicit schedule "
                        f"length K*l/2={self.pilot_slots()}")
        elif _MODEL_DETECTORS & set(self.detectors):
            if self.artificial_count is None or self.artificial_count < 1:
                raise ConfigError("explicit training needs l_a >= 1")
        if self.csir == "ls":
            if self.pilot_slots() < self.n_t:
                raise ConfigError(
                    "ls channel estimation needs t_t >= n_t pilot slots")
        if self.total_slots is not None:
            expected = self.pilot_slots() + self.vectors_per_channel
            if self.total_slots != expected:
                raise ConfigError(
                    f"t={self.total_slots} must equal t_t + vectors_per_channel"
                    f"={expected}")
        if self.symbol_count > 2 ** (2 * self.bits * self.n_r):
            warnings.warn(
                "more candidate symbol vectors than distinguishable receiver "
                f"outputs ({self.symbol_count} > 2**{2 * self.bits * self.n_r}); "
                "an irreducible detection error is unavoidable",
                stacklevel=2)


def _require_budget(cfg: ExperimentConfig, peak: int, scope: str) -> None:
    """Reject a run whose array estimate exceeds ``_PEAK_BYTES_BUDGET``."""
    if peak > _PEAK_BYTES_BUDGET:
        raise ConfigError(
            f"n_t={cfg.n_t} with {cfg.modulation} gives "
            f"{cfg.symbol_count} candidate symbol vectors, needing about "
            f"{peak >> 20} MiB {scope} (limit {_PEAK_BYTES_BUDGET >> 20} MiB)")


def _words(value: str) -> tuple[str, ...]:
    return tuple(value.replace(",", " ").split())


# Config-file value parser of each field annotation.
_PARSERS = {
    "int": int,
    "int | None": int,
    "float": float,
    "str": str,
    "tuple[float, ...]": lambda value: tuple(map(float, _words(value))),
    "tuple[str, ...]": _words,
}

# The config-file schema: each key's field, in field order.
_SCHEMA = {f.metadata.get("key", f.name): f for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse `key = value` lines (# comments allowed) into a validated config."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        key = key.lower()
        if key not in _SCHEMA:
            raise ConfigError(
                f"line {lineno}: unknown key {key!r}; known keys: "
                f"{', '.join(sorted(_SCHEMA))}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    missing = [key for key, f in _SCHEMA.items()
               if f.default is MISSING and key not in raw]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")
    kwargs: dict[str, object] = {}
    for key, value in raw.items():
        f = _SCHEMA[key]
        try:
            kwargs[f.name] = _PARSERS[f.type](value)
        except ValueError:
            raise ConfigError(
                f"key {key!r}: cannot parse value {value!r}") from None
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


@dataclass(frozen=True)
class ResultRecord:
    """One aggregated measurement; ``ser = errors / trials`` always holds."""

    snr_db: float | None
    detector: str
    framework: str
    errors: int
    trials: int
    ser: float
    svep: float | None = None
    bound: float | None = None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def render_csv(records) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in records:
        lines.append(",".join(_fmt(getattr(r, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(records, path) -> None:
    Path(path).write_text(render_csv(records))


# ---------------------------------------------------------------------------
# SER sweeps


def _receivers(cfg, qcfg, book, h, sigma2, rng, books=None):
    """Train one SNR point in frame order; one decision function
    ``(distinct levels, their values) -> symbol indices`` per detector.

    The pilot frame comes first: the implicit schedule when a trained
    detector or the least-squares estimate reads it, else random pilots for
    the estimate alone. Explicit training, or first-stage training for a
    SIC split (``books`` holds its two subvector books, and its detector is
    the one entry), then runs on the estimate. Detectors are looked up in
    their modules when they run.
    """
    trained = cfg.framework == "full" and bool(
        _MODEL_DETECTORS & set(cfg.detectors))
    model = pilots = None
    if (cfg.framework == "full" and cfg.training == "implicit"
            and (trained or cfg.csir == "ls")):
        # the repetition schedule is the pilot frame; the least-squares
        # estimate (when requested) reuses the same observations
        frame = training.build_implicit_pilots(book, cfg.repetitions)
        pilot_levels = transmit_batch(h, frame, sigma2, qcfg, rng)
        pilots = frame.T, pilot_levels
        if trained:
            model = training.learn_implicit(
                pilot_levels, book, cfg.repetitions, qcfg)
    h_hat = h
    if cfg.csir == "ls":
        if pilots is None:
            x = baselines.random_pilots(book.constellation, cfg.n_t, cfg.t_t, rng)
            pilots = x, transmit_batch(h, x.T, sigma2, qcfg, rng)
        h_hat = baselines.estimate_channel_ls(*pilots, qcfg)
    if cfg.framework == "sic":
        plan = sic.build_plan(h_hat, cfg.n_t1)
        first_stage = sic.learn_first_stage(
            plan, sigma2, cfg.first_stage_count, *books, qcfg, rng)
        return [lambda _, values: sic.detect_sic_batch(
            values, plan, first_stage, *books)]
    if trained and cfg.training == "explicit":
        model = training.learn_explicit(
            h_hat, sigma2, cfg.artificial_count, book, qcfg, rng)
    centers = (detection.centroids(model)
               if trained and "mcd" in cfg.detectors else None)
    decide = {
        "emld": lambda levels, _: detection.detect_emld_batch(levels, model),
        "mmd": lambda levels, _: detection.detect_mmd_batch(levels, model),
        "mcd": lambda _, values: detection.detect_mcd_batch(values, centers),
        "mld": lambda levels, _: baselines.detect_mld_batch(
            levels, h_hat, sigma2, book, qcfg),
        "zf": lambda _, values: baselines.detect_zf_batch(
            values, h_hat, book.constellation),
    }
    return [decide[det] for det in cfg.detectors]


def _error_counts(decided: np.ndarray, sent: np.ndarray,
                  vectors: np.ndarray) -> tuple[int, ...]:
    """Symbol errors, symbol trials, vector errors and vector trials of the
    decided symbol indices against the sent ones; the antennas of the book
    ``vectors`` are compared on the wrongly decided rows only."""
    wrong = np.flatnonzero(decided != sent)
    mismatched = vectors[decided[wrong]] != vectors[sent[wrong]]
    return (int(np.count_nonzero(mismatched)), sent.size * vectors.shape[1],
            wrong.size, sent.size)


def _channel_counts(cfg, qcfg, book, h, rng, train, *,
                    noise_free=False) -> np.ndarray:
    """Error counts of one channel: (snr points, detectors, 4) symbol
    errors, symbol trials, vector errors and vector trials.

    Each SNR point trains (``train(sigma2)``, run once in all when
    ``noise_free`` training draws nothing), then draws, transmits and
    decides a data batch. A b-bit batch repeats observations often (a
    one-bit, n_r = 4 batch of 500 holds 26 to 184 distinct rows, and a
    one-bit, n_r = 2 batch of 10 000 at most 16), and every detector decides
    a row from that row alone. So the detectors see the distinct rows, in
    first-seen order, and each decided index is copied back to every repeat
    before errors are counted.
    """
    fixed = train(0.0) if noise_free else None
    out = []
    for snr_db in cfg.snr_grid_db:
        sigma2 = snr_db_to_sigma2(snr_db, cfg.n_t)
        decide = fixed or train(sigma2)
        data_idx = rng.integers(0, book.size, size=cfg.vectors_per_channel)
        levels = transmit_batch(
            h, np.take(book.vectors, data_idx, axis=0), sigma2, qcfg, rng)
        first, inverse = distinct_rows(levels)
        rows = levels[first]
        values = level_values(rows, qcfg)
        out.append([_error_counts(d(rows, values)[inverse], data_idx,
                                  book.vectors)
                    for d in decide])
        # the next point trains afresh; this one's training is let go first
        del decide
    return np.array(out, dtype=np.int64)


def _ser_channel_counts(cfg: ExperimentConfig, child) -> np.ndarray:
    """Error counts of one channel realization of a SER sweep, each batch
    deduplicated (:func:`_channel_counts`)."""
    rng = np.random.default_rng(child)
    qcfg = QuantizerConfig(cfg.bits, cfg.step)
    c = constellation(cfg.modulation)
    book = enumerate_symbols(c, cfg.n_t)
    books = None
    if cfg.framework == "sic":
        books = (enumerate_symbols(c, cfg.n_t1),
                 enumerate_symbols(c, cfg.n_t - cfg.n_t1))
    h = sample_channel(cfg.n_r, cfg.n_t, rng)
    # first-stage training with l_a1 = 1 on the true channel draws nothing
    noise_free = (cfg.framework == "sic" and cfg.csir == "perfect"
                  and cfg.first_stage_count == 1)
    return _channel_counts(
        cfg, qcfg, book, h, rng,
        partial(_receivers, cfg, qcfg, book, h, rng=rng, books=books),
        noise_free=noise_free)


def _map_channels(worker, cfg: ExperimentConfig, children):
    if cfg.threads <= 1:
        return [worker(cfg, child) for child in children]
    # imported here, not at module level: the pool loads multiprocessing,
    # which single-worker runs (and the CLI's import) never need
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=cfg.threads) as pool:
        return list(pool.map(worker, repeat(cfg), children, chunksize=4))


def _records(cfg, totals, framework, detectors, bounds=None):
    """Result rows of summed (snr points, detectors, 4) counts, in canonical
    (snr, detector) order; ``bounds`` holds one value per SNR point."""
    records = [
        ResultRecord(float(snr_db), det, framework, int(sym_err),
                     int(sym_trials), sym_err / sym_trials,
                     vec_err / vec_trials, bound)
        for snr_db, bound, per_detector in zip(
            cfg.snr_grid_db, bounds or repeat(None), totals)
        for det, (sym_err, sym_trials, vec_err, vec_trials)
        in zip(detectors, per_detector)]
    records.sort(key=lambda r: (r.snr_db, r.detector))
    return records


def run_ser_experiment(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Symbol-error-rate sweep over the configured SNR grid and detectors.

    Each channel realization is trained and detected independently with its
    own derived seed; counts are aggregated over channels per (SNR,
    detector) and emitted in canonical (snr, detector) order.
    """
    cfg.validate_for_ser()
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.channel_count)
    totals = sum(_map_channels(_ser_channel_counts, cfg, children))
    framework = (
        f"sic[n_t1={cfg.n_t1}]" if cfg.framework == "sic" else "full")
    return _records(cfg, totals, framework, cfg.detectors)


# ---------------------------------------------------------------------------
# error-bound validation


def run_bound_validation(
    cfg: ExperimentConfig, use_trained_centroids: bool = False
) -> list[ResultRecord]:
    """Simulated vector-error probability of MCD against its analytic bound.

    Channels are sampled until ``channel_count`` realizations with a flip
    budget of exactly one (d_min of 1 or 2) are found; the reported bound per
    SNR is the analytic value averaged over those channels. By default the
    detector uses the exact noiseless codewords as centroids, matching the
    regime the bound is derived for: noise-free explicit training with one
    sample per symbol, built once per channel. ``use_trained_centroids``
    switches to implicit training with ``repetitions`` pilot repetitions.
    Each data batch is decided on its distinct rows, as in a SER sweep
    (:func:`_channel_counts`).

    Over 0-20 dB the averaged bound of these channels stays above 1
    (7.4 -> 4.2 for the 2x2 acceptance run at seed 42), so the
    bound/simulated ratio there does not measure tightness; it grows with
    SNR while the bound's decay rate approaches the simulated rate from
    below (see ``analysis.svep_upper_bound``).
    """
    if cfg.bits != 1 or cfg.modulation != "bpsk":
        raise ConfigError("bound validation requires one-bit ADCs and BPSK")
    if use_trained_centroids and (cfg.repetitions or 0) < 1:
        raise ConfigError("trained-centroid validation needs l >= 1")
    # constructing the config of the MCD run admits it to the budget
    mcd_cfg = replace(
        cfg, framework="full", csir="perfect", detectors=("mcd",),
        training="implicit" if use_trained_centroids else "explicit",
        artificial_count=1)
    # analysis.geometry: the K x d uint8 codebook with the two K x d float64
    # operands of core.level_sqdist, its K x K float64 distances and their
    # int64 cast; before and after those, at most three arrays of 16 K n_r
    # bytes (the noiseless sums, their real form and its magnitudes)
    k, d = cfg.symbol_count, 2 * cfg.n_r
    _require_budget(
        cfg, 16 * k * k + 17 * k * d + 48 * k * cfg.n_r + _SMALL_BYTES,
        "per channel")
    if k > 2 ** d:
        raise ConfigError(
            f"n_t={cfg.n_t} > 2 n_r with n_r={cfg.n_r}: more codewords than "
            "one-bit outputs, so every channel has d_min = 0 and none is kept")
    qcfg = QuantizerConfig(cfg.bits, cfg.step)
    book = enumerate_symbols(constellation(cfg.modulation), cfg.n_t)
    root = np.random.SeedSequence(cfg.seed)
    search_child, *channel_children = root.spawn(cfg.channel_count + 1)
    search_rng = np.random.default_rng(search_child)
    kept = []
    budget = 200 * cfg.channel_count
    for _ in range(budget):
        h = sample_channel(cfg.n_r, cfg.n_t, search_rng)
        geom = analysis.geometry(h, book, qcfg)
        if geom.half_flips == 1:
            kept.append((h, geom))
            if len(kept) == cfg.channel_count:
                break
    else:
        raise RuntimeError(
            f"no {cfg.channel_count} channels with a unit flip budget found "
            f"within {budget} draws")
    rngs = map(np.random.default_rng, channel_children)
    totals = sum(
        _channel_counts(
            mcd_cfg, qcfg, book, h, rng,
            partial(_receivers, mcd_cfg, qcfg, book, h, rng=rng),
            noise_free=not use_trained_centroids)
        for (h, _), rng in zip(kept, rngs))
    bounds = [
        sum(analysis.svep_upper_bound(
                geom, 10.0 ** (snr_db / 10.0), cfg.n_t, cfg.n_r)
            for _, geom in kept) / cfg.channel_count
        for snr_db in cfg.snr_grid_db]
    framework = "bound-trained" if use_trained_centroids else "bound-exact"
    return _records(cfg, totals, framework, ("mcd",), bounds)


# ---------------------------------------------------------------------------
# minimum-distance distribution

# Channels per sample_dmin draw block: all of a block's real parts are drawn
# before its imaginary parts, and the real parts are held for the block.
_DMIN_CHUNK = 1 << 14
# Channels per sample_dmin tile: a block's channels, sums, signs and Gram
# matrices are computed one tile at a time in buffers of this many channels.
_DMIN_TILE = 1 << 9


def sample_dmin(
    n_t: int, n_r: int, count: int, rng: np.random.Generator,
    chunk: int = _DMIN_CHUNK,
) -> np.ndarray:
    """Monte Carlo minimum distances over Rayleigh channels (BPSK, one bit).

    Works directly on the signs of the stacked noiseless outputs, so it is
    an independent route from the codebook construction in :mod:`analysis`.
    Each block of ``chunk`` channels draws all its real parts, then its
    imaginary parts one tile of ``_DMIN_TILE`` channels at a time;
    consecutive fills of a generator give the stream of one fill, so the
    distances do not depend on the tile. Every tile is computed in one set
    of preallocated buffers, so only the block's real parts and one tile's
    arrays are held at a time.
    """
    book = enumerate_symbols(constellation("bpsk"), n_t)
    x = book.vectors.real.T
    k = book.size
    out = np.empty(count, dtype=np.int64)
    m, tile = min(chunk, count), min(_DMIN_TILE, chunk, count)
    real = np.empty((m, n_r, n_t))
    imag = np.empty((tile, n_r, n_t))
    h = np.empty((tile, n_r, n_t), dtype=complex)
    clean = np.empty((tile, n_r, k), dtype=complex)
    positive = np.empty((tile, 2 * n_r, k), dtype=bool)
    signs = np.empty((tile, 2 * n_r, k), dtype=np.float32)
    gram = np.empty((tile, k, k), dtype=np.float32)
    diagonal = gram.reshape(tile, k * k)[:, ::k + 1]
    for block in range(0, count, chunk):
        m = min(chunk, count - block)
        rng.standard_normal(out=real[:m])
        for start in range(0, m, tile):
            t = min(tile, m - start)
            rng.standard_normal(out=imag[:t])
            # h = (re + 1j * im) / sqrt(2), with the same complex division
            h.real[:t] = real[start:start + t]
            h.imag[:t] = imag[:t]
            np.divide(h[:t], math.sqrt(2.0), out=h[:t])
            np.matmul(h[:t], x, out=clean[:t])
            np.greater_equal(clean.real[:t], 0.0, out=positive[:t, :n_r])
            np.greater_equal(clean.imag[:t], 0.0, out=positive[:t, n_r:])
            # +1 where the output is non-negative, -1 elsewhere
            np.multiply(positive[:t], np.float32(2.0), out=signs[:t])
            signs[:t] -= 1.0
            np.matmul(signs[:t].transpose(0, 2, 1), signs[:t], out=gram[:t])
            # Hamming distance = (2 n_r - gram) / 2 is non-increasing in the
            # small-integer Gram entries, so the closest pair is the largest
            # off-diagonal entry; the diagonal is pushed below every entry
            diagonal[:t] = -2 * n_r - 1
            g_max = gram[:t].reshape(t, -1).max(axis=1)
            done = block + start
            out[done:done + t] = np.rint((2 * n_r - g_max) / 2.0)
    return out


def run_ccdf_experiment(cfg: ExperimentConfig) -> list[ResultRecord]:
    """Analytic vs Monte Carlo distribution of the codebook minimum distance.

    One record per threshold n in 0..n_r+1: ``errors``/``trials`` count the
    sampled channels with d_min >= n (so ``ser`` is the Monte Carlo CCDF) and
    ``bound`` carries the analytic CCDF value.
    """
    if cfg.bits != 1 or cfg.modulation != "bpsk":
        raise ConfigError(
            "the minimum-distance distribution requires one-bit ADCs and BPSK")
    # sample_dmin: the int64 results, the m x n_r x n_t float64 real draws
    # of one block of m channels, and one tile of t channels: their
    # t x n_r x n_t float64 imaginary draws and complex channels, the
    # t x n_r x K complex sums, the t x 2 n_r x K bool and float32 signs,
    # the t x K x K float32 Gram matrix and its row maxima with two float32
    # temporaries
    n, k = cfg.channel_count, cfg.symbol_count
    m, t = min(_DMIN_CHUNK, n), min(_DMIN_TILE, n)
    tile = 24 * cfg.n_r * cfg.n_t + k * (26 * cfg.n_r + 4 * k) + 12
    _require_budget(
        cfg, 8 * n + 8 * m * cfg.n_r * cfg.n_t + t * tile + _SMALL_BYTES,
        f"for {n} channels")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    samples = sample_dmin(cfg.n_t, cfg.n_r, cfg.channel_count, rng)
    book = enumerate_symbols(constellation("bpsk"), cfg.n_t)
    records = []
    for n in range(cfg.n_r + 2):
        if cfg.n_t == 2:
            analytic = analysis.dmin_ccdf_exact_2tx(cfg.n_r, n)
        else:
            analytic = analysis.dmin_ccdf_approx(cfg.n_t, cfg.n_r, n, book)
        hits = int((samples >= n).sum())
        records.append(ResultRecord(
            snr_db=None,
            detector=f"dmin>={n}",
            framework="ccdf",
            errors=hits,
            trials=cfg.channel_count,
            ser=hits / cfg.channel_count,
            svep=None,
            bound=analytic,
        ))
    return records
