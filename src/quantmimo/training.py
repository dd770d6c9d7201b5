"""Channel training: learn the empirical conditional PMF of the quantized
receive vector for every candidate symbol vector.

Two routes are provided. Implicit training observes repeated pilot
transmissions of the first half of the symbol book and mirrors the second
half through the odd symmetry of the quantizer (a pilot frame of K*L/2 slots
covers all K symbols). Explicit training synthesizes artificial received
signals from a channel estimate instead of transmitting anything.

Either route returns an :class:`EmpiricalModel` holding every trained sample
as one row of an integer level matrix; the detectors read its distinct rows
and their per-symbol counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    QuantizedVector,
    QuantizerConfig,
    SymbolBook,
    distinct_rows,
    noisy_levels,
    vectors_from_levels,
)


@dataclass(frozen=True, eq=False)
class PilotSchedule:
    """Pilot frame: L consecutive repetitions of each first-half symbol vector."""

    symbol_indices: np.ndarray
    book: SymbolBook
    repetitions: int

    @property
    def length(self) -> int:
        return int(self.symbol_indices.size)

    def matrix(self) -> np.ndarray:
        """Pilot symbols as an n_t x T_t matrix (one column per slot)."""
        return self.book.vectors[self.symbol_indices].T

    def rows(self) -> np.ndarray:
        """Pilot symbols as a T_t x n_t matrix (one row per slot)."""
        return self.book.vectors[self.symbol_indices]


def build_implicit_pilots(book: SymbolBook, repetitions: int) -> PilotSchedule:
    """Schedule of K*L/2 slots covering the first half of the symbol book."""
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    if book.size % 2 != 0:
        # unreachable for origin-symmetric constellations, guarded anyway
        raise ValueError("symbol book size must be even for implicit training")
    idx = np.repeat(np.arange(book.size // 2), repetitions)
    return PilotSchedule(symbol_indices=idx, book=book, repetitions=repetitions)


@dataclass(frozen=True, eq=False)
class EmpiricalModel:
    """Per-symbol empirical PMFs over quantized receive vectors.

    ``levels`` holds every trained sample as one integer level row, in
    symbol-major order: row i is a sample of symbol ``symbols[i]``. A trained
    model has exactly ``samples_per_symbol`` rows per symbol, so probabilities
    are the exact rationals count / samples_per_symbol.

    The distinct support and its count matrix are derived lazily, only when
    a detector reads them.
    """

    levels: np.ndarray
    symbols: np.ndarray
    size: int
    samples_per_symbol: int
    cfg: QuantizerConfig

    def __post_init__(self) -> None:
        if self.levels.ndim != 2 or self.symbols.shape != self.levels.shape[:1]:
            raise ValueError("need one symbol index per level row")
        in_range = self.symbols.size == 0 or (
            self.symbols[0] >= 0 and self.symbols[-1] < self.size)
        if not in_range or np.any(np.diff(self.symbols) < 0):
            raise ValueError("level rows must be symbol-major within [0, size)")

    @cached_property
    def _row_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """First row of each distinct level row, in first-seen order, and the
        distinct-row id of every row."""
        return distinct_rows(self.levels)

    @cached_property
    def support_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(levels, count matrix) over the distinct trained set.

        ``levels`` is S x d int64, in first-seen order over the trained rows,
        and ``count_matrix`` is S x K with the per-symbol multiplicities;
        column k divided by ``samples_per_symbol`` is the PMF of symbol k.
        """
        first, ids = self._row_ids
        if first.size == 0:
            raise ValueError("model has no trained vectors")
        levels = np.asarray(self.levels[first], dtype=np.int64)
        count_matrix = np.zeros((first.size, self.size), dtype=np.int64)
        np.add.at(count_matrix, (ids, self.symbols), 1)
        return levels, count_matrix

    @cached_property
    def counts(self) -> tuple[dict[QuantizedVector, int], ...]:
        """Per symbol, each trained vector (first-seen order) and its count.

        Only the benchmark's tracer (``perfbench/tracer.py``) reads this.
        """
        first, ids = self._row_ids
        trained = vectors_from_levels(self.levels[first], self.cfg)
        out: list[dict[QuantizedVector, int]] = [{} for _ in range(self.size)]
        for k, i in zip(self.symbols.tolist(), ids.tolist()):
            y = trained[i]
            out[k][y] = out[k].get(y, 0) + 1
        return tuple(out)


def learn_implicit(
    levels: np.ndarray,
    book: SymbolBook,
    repetitions: int,
    cfg: QuantizerConfig,
) -> EmpiricalModel:
    """Empirical PMFs from the pilot level matrix in schedule order.

    ``levels`` has one row per pilot slot, quantized with ``cfg``, and its
    dtype is kept. Block k of L rows feeds symbol k for k < K/2; the PMF of
    the mirrored symbol K-1-k is the same block with every vector negated
    (``top - levels``), which is valid because noise is sign-symmetric and
    the quantizer is odd.
    """
    schedule = build_implicit_pilots(book, repetitions)
    if len(levels) != schedule.length:
        raise ValueError(
            f"expected {schedule.length} observations, got {len(levels)}")
    half = book.size // 2
    d = levels.shape[1]
    top = cfg.n_levels - 1
    mirrored = top - levels.reshape(half, repetitions, d)[::-1]
    return EmpiricalModel(
        levels=np.concatenate([levels, mirrored.reshape(-1, d)]),
        symbols=np.repeat(np.arange(book.size), repetitions),
        size=book.size,
        samples_per_symbol=repetitions,
        cfg=cfg,
    )


def learn_explicit(
    h_hat: np.ndarray,
    sigma2: float,
    artificial_count: int,
    book: SymbolBook,
    cfg: QuantizerConfig,
    rng: np.random.Generator | None = None,
) -> EmpiricalModel:
    """Empirical PMFs from artificial received signals.

    For every symbol vector, ``artificial_count`` signals are synthesized by
    pushing the estimated noiseless receive point through fresh complex
    Gaussian noise and the quantizer. All K * artificial_count noise vectors
    are independent; the loop order is symbol-major. The signals are drawn
    and quantized in chunks of symbols (:func:`~quantmimo.core.noisy_levels`),
    so only their narrow levels are kept.
    """
    if artificial_count < 1:
        raise ValueError("artificial_count must be at least 1")
    h_hat = np.asarray(h_hat, dtype=complex)
    if h_hat.ndim != 2 or h_hat.shape[1] != book.n_t:
        raise ValueError(
            f"dimension mismatch: channel {h_hat.shape}, book n_t {book.n_t}")
    clean = book.vectors @ h_hat.T
    levels = noisy_levels(
        clean[:, None, :], (book.size, artificial_count, h_hat.shape[0]),
        sigma2, rng, cfg)
    return EmpiricalModel(
        levels=levels.reshape(book.size * artificial_count, -1),
        symbols=np.repeat(np.arange(book.size), artificial_count),
        size=book.size,
        samples_per_symbol=artificial_count,
        cfg=cfg,
    )
