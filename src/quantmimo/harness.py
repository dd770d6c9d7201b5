"""Experiment harness: seeded Monte Carlo sweeps over block-fading channels.

Every experiment is driven by an :class:`ExperimentConfig` (parseable from a
flat key-value text file) and emits :class:`ResultRecord` rows with a fixed
CSV schema. Channels are re-trained independently per realization; all
randomness derives from per-channel seed-sequence children of the configured
seed, so results are byte-identical for a given (config, seed) regardless of
how many worker processes are used.
"""

from __future__ import annotations

import copy
import math
import warnings
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property, partial
from itertools import repeat
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, baselines, detection, sic, training
from .core import (
    _NOISE_BYTES,
    QuantizerConfig,
    block_rows,
    constellation,
    distinct_rows,
    enumerate_symbols,
    level_values,
    noise_chunk,
    quantize_scratch,
    sample_channel,
    snr_db_to_sigma2,
    sqdist_exact,
    transmit_batch,
)

CSV_COLUMNS = (
    "snr_db", "detector", "framework", "errors", "trials", "ser", "svep", "bound")

# Largest accepted array estimate of one channel (ExperimentConfig.peak_bytes),
# of bound's code geometry or of sample_dmin's tile. The
# K = 4**6 full search, a 4096 x 16 x 64 level model (l_a = 16, n_r = 32)
# and 200 data vectors, estimates 6.5 MiB with MCD (29 MiB at 40 000 data
# vectors, most of it the batch; up to 1 575 177 are admitted), and 2.3 GiB
# with eMLD and MMD, whose count matrix and distances span all 65 536
# distinct trained rows.
_PEAK_BYTES_BUDGET = 1 << 30
# Allowance in that estimate for the channel, the small arrays and the Python
# objects of one channel realization.
_SMALL_BYTES = 1 << 17


class ConfigError(ValueError):
    """Raised for malformed or infeasible experiment configurations."""


# ---------------------------------------------------------------------------
# receivers and training routes: each one's code and memory terms


class _Sizes:
    """Sizes of one channel of a SER sweep, in which the memory terms count
    bytes: K = M**n_t candidates; d = 2 n_r level columns of w bytes; N data
    vectors, of which the receivers see the U = min(N, 2**(b d)) distinct
    ones; L trained samples per symbol (l or l_a), S = min(K L, 2**(b d)) of
    them distinct; T pilot slots; and for a SIC split K1 = M**n_t1,
    K2 = K / K1, d1 = d - 2 (n_t - n_t1) and l1 = l_a1 samples per pair."""

    def __init__(self, cfg: ExperimentConfig) -> None:
        self.m = constellation(cfg.modulation).size
        self.n_t, self.n_r, self.n = cfg.n_t, cfg.n_r, cfg.vectors_per_channel
        self.k, self.d, self.t = cfg.symbol_count, 2 * cfg.n_r, cfg.pilot_slots()
        self.w = QuantizerConfig(cfg.bits, cfg.step).level_dtype.itemsize
        self.edges, outputs = 2 ** cfg.bits - 1, 2 ** (cfg.bits * self.d)
        self.u = min(self.n, outputs)
        self.l = (cfg.repetitions if cfg.training == "implicit"
                  else cfg.artificial_count) or 0
        self.s = min(self.k * self.l, outputs)
        self.model = self.w * self.k * self.l * self.d
        # validate_for_ser rejects an n_t1 outside [1, n_t] after the budget
        self.n_t1 = min(max(cfg.n_t1 or 1, 1), cfg.n_t)
        self.k1, self.l1 = self.m ** self.n_t1, cfg.first_stage_count
        self.k2, self.d1 = self.k // self.k1, self.d - 2 * (cfg.n_t - self.n_t1)
        # the least-squares estimate beyond its pilots and levels: the T x d
        # float64 values with the T x n_r complex rows reassembled from them
        # and numpy's buffer casting values to complex, then those rows with
        # the pilots' complex conjugate
        rows = self.t * self.n_r
        self.estimate = 16 * rows + max(
            16 * (rows + min(rows, np.getbufsize())),
            16 * self.t * self.n_t) if cfg.csir == "ls" else 0

    def noise(self, rows: int, row_values: int, clean_values: int) -> int:
        """The largest ``core.noisy_levels`` chunk of ``rows`` rows of
        ``row_values`` noise values and ``clean_values`` complex noiseless
        values: its float64 buffer, the levels of one part, its complex
        noiseless part, which is held while both parts are quantized (the
        previous chunk's is let go before it is formed), and the quantizer's
        float scratch."""
        chunk_rows = noise_chunk(rows, row_values)
        chunk = chunk_rows * row_values
        return ((8 + self.w) * chunk + 16 * chunk_rows * clean_values
                + 8 * quantize_scratch(chunk))

    def nearest(self, rows: int, centers: int, cols: int) -> int:
        """One ``detection.nearest_center`` call on ``rows`` rows of
        ``cols`` values: the rows' decisions and one block's
        ``core.sqdist``: its rows scaled by -2 and its products, which
        become the distances in place, with the center and row norms and
        the ufunc buffer of the broadcast row-norm addition."""
        block = block_rows(rows, 8 * centers)
        return 8 * (centers + rows + block * (centers + cols + 1)
                    + min(block * centers, np.getbufsize()))


class _Receiver(NamedTuple):
    """A receiver: the :class:`_Trained` attribute it reads, its decision
    ``(read, distinct levels, their values) -> symbol indices``, and its
    bytes: ``held``, what training leaves for it, and ``work``, its
    decision's temporaries."""

    reads: str
    decide: Callable
    held: Callable[[_Sizes], int]
    work: Callable[[_Sizes], int]


def _support_held(s: _Sizes) -> int:
    # the model with what it caches: the S + K L intp ids of its distinct
    # rows, and those rows' S x d levels and S x K count matrix in float64
    return s.model + 8 * (s.s + s.k * s.l) + 8 * s.s * (s.d + s.k)


def _support_work(s: _Sizes) -> int:
    # the largest of the cached arrays' build (the K L intp cells and the
    # float64 ones summed into the count matrix), core.sqdist (U x d float64
    # operand and its -2 multiple, U x S distances) and eMLD's U x S bool
    # and float64 masks next to the distances, with the U x K scores of its
    # product (and MMD's)
    return max(16 * s.k * s.l, 16 * s.u * s.d + 8 * s.u * s.s,
               17 * s.u * s.s + 8 * s.u * s.k)


def _first_stage_held(s: _Sizes) -> int:
    # the two subvector books, the K x d level table, K1 x d1 float64 centroids
    return (16 * (s.k1 * s.n_t1 + s.k2 * (s.n_t - s.n_t1))
            + s.w * s.k * s.d + 8 * s.k1 * s.d1)


def _first_stage_work(s: _Sizes) -> int:
    # the U stage-one decisions with the larger of stage one (one block of
    # U x d1 projections and a nearest_center call on it) and stage two (the
    # U stage-two decisions and one block of the U x K2 x d gather as
    # levels, float64 values and distances, with the ufunc buffer of the
    # broadcast subtraction that makes the differences in place)
    projected = block_rows(s.u, 8 * s.d1)
    gathered = block_rows(s.u, 8 * s.d * s.k2) * s.k2
    return 8 * s.u + max(
        8 * projected * s.d1 + s.nearest(projected, s.k1, s.d1),
        8 * s.u + ((s.w + 8) * s.d + 8) * gathered
        + 8 * min(gathered * s.d, np.getbufsize()))


# Every receiver; the decisions look their detectors up in their modules when
# they run. eMLD and MMD read one model and share its terms, counted once.
_RECEIVERS = {
    "emld": _Receiver(
        "model", lambda model, rows, _: detection.detect_emld_batch(rows, model),
        _support_held, _support_work),
    "mmd": _Receiver(
        "model", lambda model, rows, _: detection.detect_mmd_batch(rows, model),
        _support_held, _support_work),
    # K x d float64 centroids; one call of detection.nearest_center
    "mcd": _Receiver(
        "centroids",
        lambda book, _, values: detection.detect_mcd_batch(values, book),
        lambda s: 8 * s.k * s.d, lambda s: s.nearest(s.u, s.k, s.d)),
    # the K x n_r complex sums with their real form and the K x d x 2**b
    # float64 table, with the larger of its build (one row block of
    # CDF arguments: their float64 array, a list of floats and the
    # results) and its gather (the U x d intp table columns, the K x U x d
    # float64 likelihoods and their K x U sums)
    "mld": _Receiver(
        "channel", lambda c, rows, _: baselines.detect_mld_batch(rows, *c),
        lambda s: 0, lambda s: 8 * s.k * s.d * (s.edges + 3) + max(
            40 * s.edges * block_rows(s.k * s.d, 8 * s.edges,
                                      8 * baselines._CDF_VALUES, least=1),
            8 * s.u * s.d + 8 * s.u * s.k * s.d + 8 * s.u * s.k)),
    # the U x n_r complex rows reassembled from the values, their U x n_t
    # soft estimates and U x n_t x M complex differences from the
    # constellation points with their float64 magnitudes
    "zf": _Receiver(
        "channel", lambda c, _, values: baselines.detect_zf_batch(
            values, c.h_hat, c.book.constellation),
        lambda s: 0,
        lambda s: 16 * s.u * (s.n_r + s.n_t) + 24 * s.u * s.n_t * s.m),
    # the SIC stage pair, which a SIC split lists as its one detector, mcd
    "sic": _Receiver(
        "first_stage",
        lambda first, _, values: sic.detect_sic_batch(values, *first),
        _first_stage_held, _first_stage_work),
}
KNOWN_DETECTORS = tuple(name for name in _RECEIVERS if name != "sic")
_MODEL_DETECTORS = {name for name, r in _RECEIVERS.items()
                    if r.reads in ("model", "centroids")}

# What MLD and ZF read: the channel estimate, noise variance, book, quantizer.
_Channel = namedtuple("_Channel", "h_hat sigma2 book qcfg")


class _Trained:
    """One SNR point's training: each of its routes (:func:`_routes`) runs
    in frame order, and the receivers read the attributes they leave."""

    def __init__(self, cfg, qcfg, book, h, sigma2, rng, books) -> None:
        self.cfg, self.qcfg, self.book, self.books = cfg, qcfg, book, books
        self.h, self.h_hat, self.sigma2, self.rng = h, h, sigma2, rng
        self.model = self.first_stage = None
        for route in _routes(cfg):
            _ROUTES[route].train(self)

    @property
    def channel(self) -> _Channel:
        return _Channel(self.h_hat, self.sigma2, self.book, self.qcfg)

    @cached_property
    def centroids(self) -> detection.CentroidBook:
        # summed from the model when first read, which is at binding
        return detection.centroids(self.model)

    def ls_pilots(self) -> None:
        x = baselines.random_pilots(
            self.book.constellation, self.cfg.n_t, self.cfg.t_t, self.rng)
        levels = transmit_batch(self.h, x.T, self.sigma2, self.qcfg, self.rng)
        self.h_hat = baselines.estimate_channel_ls(x, levels, self.qcfg)

    def implicit(self) -> None:
        frame = training.build_implicit_pilots(self.book, self.cfg.repetitions)
        levels = transmit_batch(self.h, frame, self.sigma2, self.qcfg, self.rng)
        if self.cfg.csir == "ls":
            self.h_hat = baselines.estimate_channel_ls(frame.T, levels, self.qcfg)
        if _MODEL_DETECTORS & set(self.cfg.detectors):
            self.model = training.learn_implicit(
                levels, self.book, self.cfg.repetitions, self.qcfg)

    def explicit(self) -> None:
        self.model = training.learn_explicit(
            self.h_hat, self.sigma2, self.cfg.artificial_count, self.book,
            self.qcfg, self.rng)

    def first_stage_split(self) -> None:
        plan = sic.build_plan(self.h_hat, self.cfg.n_t1)
        self.first_stage = (plan, sic.learn_first_stage(
            plan, self.sigma2, self.cfg.first_stage_count, *self.books,
            self.qcfg, self.rng), *self.books)


def _first_stage_bytes(s: _Sizes, held) -> int:
    # what it leaves but the centroids, and the K1 x n_r and K2 x n_r complex
    # products of the books with their channels, held throughout, with the
    # larger of the table's build and the centroids' own. The build holds
    # one block of first-stage candidates (those whose float64 sums fit a
    # noise chunk): its sums with their levels and the quantizer's scratch;
    # for l1 > 1 the K l1 x d noisy levels' draw (a noise chunk of K2 x n_r
    # complex sums per row) follows it, and those levels are held until the
    # centroids are made: the K1 x d float64 level sums and their K1 x d1
    # product.
    block = s.k2 * s.d * block_rows(
        s.k1, 8 * s.k2 * s.d, _NOISE_BYTES, least=1)
    stage = (8 + s.w) * block + 8 * quantize_scratch(block)
    noisy = 0
    if s.l1 > 1:
        noisy = s.w * s.k * s.l1 * s.d
        stage = max(stage, noisy + s.noise(
            s.k1, s.k2 * s.l1 * s.n_r, s.k2 * s.n_r))
    return (_first_stage_held(s) - 8 * s.k1 * s.d1
            + 16 * (s.k1 + s.k2) * s.n_r
            + max(stage, noisy + 8 * s.k1 * (s.d + s.d1)))


class _Route(NamedTuple):
    """A training route: the :class:`_Trained` method that runs it and its
    peak ``bytes(sizes, held)``, given the held bytes of each read."""

    train: Callable
    bytes: Callable


# Every training route. Binding sums MCD's centroids while the model is held.
_ROUTES = {
    # random n_t x T complex pilots, drawn as int64, with the larger of
    # their transmission (levels and a noise chunk) and the estimate on
    # their levels
    "ls": _Route(_Trained.ls_pilots, lambda s, held: 16 * s.n_t * s.t + max(
        8 * s.n_t * s.t, s.w * s.t * s.d + max(
            s.noise(s.t, s.n_r, s.n_r), s.estimate))),
    # the T = K L / 2 slots' complex symbols and levels, with the largest of
    # their transmission, the estimate, the model with its mirrored half and
    # the model with the centroids
    "implicit": _Route(_Trained.implicit, lambda s, held: (
        16 * s.n_t + s.w * s.d) * s.t + max(
            s.noise(s.t, s.n_r, s.n_r), s.estimate,
            s.model + s.w * s.t * s.d, s.model + held.get("centroids", 0))),
    # the model with the larger of its draw (a noise chunk of symbols) and
    # the centroids
    "explicit": _Route(_Trained.explicit, lambda s, held: s.model + max(
        s.noise(s.k, s.l * s.n_r, s.n_r), held.get("centroids", 0))),
    "sic": _Route(_Trained.first_stage_split, _first_stage_bytes),
}


def _configured(cfg: ExperimentConfig) -> list[_Receiver]:
    """The receivers a config runs: its detectors, or a SIC split's pair."""
    names = ("sic",) if cfg.framework == "sic" else cfg.detectors
    return [_RECEIVERS[name] for name in names]


def _routes(cfg: ExperimentConfig) -> tuple[str, ...]:
    """The training routes of one SNR point, in frame order: the implicit
    schedule when a trained detector or the least-squares estimate reads
    it, else random pilots for the estimate alone; then explicit or
    first-stage training on the estimate."""
    ls = ("ls",) if cfg.csir == "ls" else ()
    if cfg.framework == "sic":
        return ls + ("sic",)
    trained = bool(_MODEL_DETECTORS & set(cfg.detectors))
    if cfg.training == "implicit":
        return ("implicit",) if trained or ls else ()
    return ls + (("explicit",) if trained else ())


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat description of one Monte Carlo experiment.

    The fields are the config-file schema, each key declared once. A key is
    its field's name unless ``key`` metadata gives the paper's notation:
    ``b`` (bits), ``delta`` (step Δ), ``l`` (repetitions L), ``l_a``
    (artificial signals L_a) and ``l_a1`` (first-stage signals per pair).
    A key is required exactly when its field has no default, ``_PARSERS``
    parses its value by the field's annotation, and ``choices`` metadata
    lists the values a field accepts, in any case.
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
        """Integer estimate of one channel's largest arrays in a SER sweep,
        in bytes, in the sizes of :class:`_Sizes`; builds none of them.

        The K x n_t complex symbol book and ``_SMALL_BYTES``, with the
        largest of the book's build (its C-ordered K x n_t int64 digits;
        before the book exists, they and the index grid they are copied
        from take no more than it), training (the largest term of its
        routes, ``_ROUTES``) and the data phase: what training leaves for
        the receivers (``_RECEIVERS``' held terms, one per distinct read)
        with the largest of its steps: the batch's transmission, then the
        receivers' decisions on it, one after another, and their error
        counts.
        """
        s = _Sizes(self)
        receivers = _configured(self)
        held = {r.reads: r.held(s) for r in receivers}
        training = max(
            (_ROUTES[route].bytes(s, held) for route in _routes(self)),
            default=0)
        # the transmission: the batch's N x d levels and N data indices,
        # their N x n_t complex symbols and a noise chunk; then the batch
        # without the symbols: its levels and three intp arrays of N ids
        # (data indices, distinct ids, decided copy) and its U distinct rows
        # as levels and float64 values, with the larger of the largest
        # decision and the error count's N intp XOR and antenna digits
        levels = s.w * s.n * s.d
        transmit = (levels + 8 * s.n + 16 * s.n * s.n_t
                    + s.noise(s.n, s.n_r, s.n_r))
        batch = levels + 24 * s.n + s.u * (s.w + 8) * s.d
        decide = max(16 * s.n, *(r.work(s) for r in receivers))
        data = sum(held.values()) + max(transmit, batch + decide)
        return 16 * s.k * s.n_t + _SMALL_BYTES + max(
            8 * s.k * s.n_t, training, data)

    def pilot_slots(self) -> int:
        """Effective T_t: the implicit schedule length, or the configured value."""
        if self.training == "implicit" and self.framework == "full":
            return self.symbol_count * (self.repetitions or 0) // 2
        return self.t_t or 0

    def validate(self) -> None:
        """Field checks, run by every construction."""
        for name in ("n_t", "n_r", "bits", "channel_count",
                     "vectors_per_channel"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be a positive integer")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ConfigError("delta must be a positive finite number")
        try:
            QuantizerConfig(self.bits, self.step)
        except ValueError:
            raise ConfigError("b must be at most 32") from None
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")
        if not self.snr_grid_db:
            raise ConfigError("snr_grid_db must list at least one SNR point")
        for v in self.snr_grid_db:
            try:
                snr_db_to_sigma2(v, self.n_t)
            except ValueError:
                raise ConfigError(
                    f"snr_grid_db values must be finite and give a finite "
                    f"positive SNR and noise variance, not {v!r} dB") from None
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

    def validate_for_ser(self) -> None:
        """The per-channel budget of a SER batch and further checks of an
        SNR sweep, which warns of unavoidable errors."""
        _require_budget(self, self.peak_bytes(), "per channel")
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
        support = [d for d in self.detectors if _RECEIVERS[d].reads == "model"]
        if support and not sqdist_exact(self.bits, 2 * self.n_r):
            raise ConfigError(
                f"{' and '.join(support)}: exact level distances need 2 d "
                f"(2**b - 1)**2 <= 2**53, not b={self.bits}, d={2 * self.n_r}")
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


def _receivers(cfg, qcfg, book, h, sigma2, rng, books):
    """Train one SNR point (:class:`_Trained`) and bind each configured
    receiver to what it reads: one decision ``(distinct levels, their
    values) -> symbol indices`` per detector, or the one of a SIC split
    (``books`` holds its two subvector books)."""
    trained = _Trained(cfg, qcfg, book, h, sigma2, rng, books)
    return [partial(r.decide, getattr(trained, r.reads))
            for r in _configured(cfg)]


def _error_counts(decided: np.ndarray, sent: np.ndarray, m: int,
                  n_t: int) -> tuple[int, ...]:
    """Symbol errors, symbol trials, vector errors and vector trials of the
    decided symbol indices against the sent ones, in the book of n_t
    antennas with ``m`` points each, m a power of two (2 or 4). An index's
    base-m digits are its antennas' points
    (:func:`~quantmimo.core.enumerate_symbols`), so the point of place p is
    bits log2(m) p onward of the index, and two indices share it iff
    ``(diff >> log2(m) p) & (m - 1)`` is 0, with ``diff`` their XOR: one
    intp array per antenna next to the XOR, no division and no symbol
    vector."""
    diff = np.bitwise_xor(decided, sent)
    width = m.bit_length() - 1
    symbol_errors = 0
    for place in range(n_t):
        digit = diff >> (width * place)
        digit &= m - 1
        symbol_errors += int(np.count_nonzero(digit))
        del digit  # before the next antenna's digits are made
    return (symbol_errors, sent.size * n_t, int(np.count_nonzero(diff)),
            sent.size)


def _channel_counts(cfg, qcfg, book, h, rng, books=None, *,
                    noise_free=False) -> np.ndarray:
    """Error counts of one channel: (snr points, detectors, 4) symbol
    errors, symbol trials, vector errors and vector trials.

    Each SNR point trains (:func:`_receivers`, run once in all when
    ``noise_free`` training draws nothing), then draws, transmits and
    decides a data batch. A b-bit batch repeats observations often (a
    one-bit, n_r = 4 batch of 500 holds 26 to 184 distinct rows, and a
    one-bit, n_r = 2 batch of 10 000 at most 16), and every detector decides
    a row from that row alone. So the detectors see the distinct rows, in
    first-seen order, and each decided index is copied back to every repeat
    before errors are counted.
    """
    train = partial(_receivers, cfg, qcfg, book, h, rng=rng, books=books)
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
                                  book.constellation.size, book.n_t)
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
    return _channel_counts(cfg, qcfg, book, h, rng, books,
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
    mcd_cfg = replace(
        cfg, framework="full", csir="perfect", detectors=("mcd",),
        training="implicit" if use_trained_centroids else "explicit",
        artificial_count=1)
    _require_budget(mcd_cfg, mcd_cfg.peak_bytes(), "per channel")
    # analysis.geometry: the K x d uint8 codebook with the two K x d float64
    # operands of core.sqdist, the -2 multiple of one and its K x K float64
    # distances; before and after those, at most three arrays of 16 K n_r
    # bytes (the noiseless sums, their real form and its magnitudes)
    k, d = cfg.symbol_count, 2 * cfg.n_r
    _require_budget(
        cfg, 8 * k * k + 25 * k * d + 48 * k * cfg.n_r + _SMALL_BYTES,
        "per channel")
    if k > 2 ** d:
        raise ConfigError(
            f"n_t={cfg.n_t} > 2 n_r with n_r={cfg.n_r}: more codewords than "
            "one-bit outputs, so every channel has d_min = 0 and none is kept")
    if cfg.n_t == 1 and cfg.n_r > 1:
        raise ConfigError(
            f"n_t=1 with n_r={cfg.n_r}: the two codewords are always "
            f"2 n_r = {2 * cfg.n_r} outputs apart, so every channel has a "
            f"flip budget of {cfg.n_r} and none is kept")
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
        _channel_counts(mcd_cfg, qcfg, book, h, rng,
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

# Channels per sample_dmin draw block: the stream gives all of a block's real
# parts before its imaginary parts, an order the reference digests fix.
_DMIN_CHUNK = 1 << 14
# Channels per sample_dmin tile: a block's channels, sums, signs and Gram
# matrices are computed one tile at a time in buffers of this many channels.
_DMIN_TILE = 1 << 9


def sample_dmin(
    n_t: int, n_r: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte Carlo minimum distances over Rayleigh channels (BPSK, one bit).

    Works directly on the signs of the stacked noiseless outputs, so it is
    an independent route from the codebook construction in :mod:`analysis`.
    The stream gives each block of ``_DMIN_CHUNK`` channels all its real
    parts, then all its imaginary parts. Two cursors read it one tile of
    ``_DMIN_TILE`` channels at a time: ``rng`` the real parts, and a copy of
    it, moved past the block's real parts by drawing and dropping them, the
    imaginary parts; after the block ``rng`` takes the copy's state.
    Consecutive fills of a generator give the stream of one fill, so the
    distances and the final state do not depend on the tile, and every tile
    is computed in one set of preallocated buffers: only one tile's arrays
    are held, whatever the block.
    """
    book = enumerate_symbols(constellation("bpsk"), n_t)
    x = book.vectors.real.T
    k = book.size
    out = np.empty(count, dtype=np.int64)
    tile = min(_DMIN_TILE, _DMIN_CHUNK, count)
    real = np.empty((tile, n_r, n_t))
    imag = np.empty((tile, n_r, n_t))
    h = np.empty((tile, n_r, n_t), dtype=complex)
    clean = np.empty((tile, n_r, k), dtype=complex)
    positive = np.empty((tile, 2 * n_r, k), dtype=bool)
    signs = np.empty((tile, 2 * n_r, k), dtype=np.float32)
    gram = np.empty((tile, k, k), dtype=np.float32)
    diagonal = gram.reshape(tile, k * k)[:, ::k + 1]
    for block in range(0, count, _DMIN_CHUNK):
        m = min(_DMIN_CHUNK, count - block)
        tiles = [(start, min(tile, m - start)) for start in range(0, m, tile)]
        cursor = copy.deepcopy(rng)
        for _, t in tiles:
            cursor.standard_normal(out=real[:t])
        for start, t in tiles:
            rng.standard_normal(out=real[:t])
            cursor.standard_normal(out=imag[:t])
            # h = (re + 1j * im) / sqrt(2), with the same complex division
            h.real[:t] = real[:t]
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
        rng.bit_generator.state = cursor.bit_generator.state
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
    # sample_dmin: the int64 results and one tile of t channels, whatever
    # the draw block: their t x n_r x n_t float64 real and imaginary draws
    # and complex channels, the t x n_r x K complex sums, the t x 2 n_r x K
    # bool and float32 signs, the t x K x K float32 Gram matrix and its row
    # maxima with two float32 temporaries
    n, k = cfg.channel_count, cfg.symbol_count
    t = min(_DMIN_TILE, n)
    tile = 32 * cfg.n_r * cfg.n_t + k * (26 * cfg.n_r + 4 * k) + 12
    _require_budget(cfg, 8 * n + t * tile + _SMALL_BYTES, f"for {n} channels")
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    samples = sample_dmin(cfg.n_t, cfg.n_r, cfg.channel_count, rng)
    records = []
    for n in range(cfg.n_r + 2):
        if cfg.n_t == 2:
            analytic = analysis.dmin_ccdf_exact_2tx(cfg.n_r, n)
        else:
            analytic = analysis.dmin_ccdf_approx(cfg.n_t, cfg.n_r, n)
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
