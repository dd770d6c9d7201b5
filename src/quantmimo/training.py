"""Channel training: learn the empirical conditional PMF of the quantized
receive vector for every candidate symbol vector.

Two routes are provided. Implicit training observes repeated pilot
transmissions of the first half of the symbol book and mirrors the second
half through the odd symmetry of the quantizer (a pilot frame of K*L/2 slots
covers all K symbols). Explicit training synthesizes artificial received
signals from a channel estimate instead of transmitting anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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

    The distinct support, the per-symbol count dictionaries and the
    QuantizedVector views are derived lazily, only when a caller reads them.
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

    @classmethod
    def from_counts(
        cls,
        counts: Sequence[dict[QuantizedVector, int]],
        samples_per_symbol: int,
    ) -> "EmpiricalModel":
        """Model holding ``counts[k][y]`` copies of y for every symbol k.

        The levels are int64. A model with no vectors has a (0, 0) level
        matrix and a one-bit quantizer, since no sample constrains its shape.
        """
        vectors = [y for per_symbol in counts for y in per_symbol]
        shapes = {(y.bits, y.step) for y in vectors} or {(1, 1.0)}
        if len(shapes) != 1:
            raise ValueError("vectors come from different quantizers")
        (bits, step), = shapes
        levels = np.array(
            [y.levels for y in vectors] or np.zeros((0, 0)), dtype=np.int64)
        multiplicity = [c for per_symbol in counts for c in per_symbol.values()]
        symbols = np.repeat(np.arange(len(counts)), [len(d) for d in counts])
        return cls(
            levels=np.repeat(levels, multiplicity, axis=0),
            symbols=np.repeat(symbols, multiplicity),
            size=len(counts),
            samples_per_symbol=samples_per_symbol,
            cfg=QuantizerConfig(bits, step),
        )

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
    def trained_vectors(self) -> tuple[QuantizedVector, ...]:
        """Distinct trained vectors over all symbols, first-seen order."""
        first, _ = self._row_ids
        return tuple(vectors_from_levels(self.levels[first], self.cfg))

    @cached_property
    def counts(self) -> tuple[dict[QuantizedVector, int], ...]:
        """Per symbol, each trained vector (first-seen order) and its count."""
        trained = self.trained_vectors
        _, ids = self._row_ids
        out: list[dict[QuantizedVector, int]] = [{} for _ in range(self.size)]
        for k, i in zip(self.symbols.tolist(), ids.tolist()):
            y = trained[i]
            out[k][y] = out[k].get(y, 0) + 1
        return tuple(out)

    def support(self, k: int) -> list[QuantizedVector]:
        return list(self.counts[k].keys())

    def probability(self, k: int, y: QuantizedVector) -> float:
        return self.counts[k].get(y, 0) / self.samples_per_symbol

    def pmf(self, k: int) -> dict[QuantizedVector, float]:
        return {
            y: c / self.samples_per_symbol for y, c in self.counts[k].items()}


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


def total_variation(model_a: EmpiricalModel, model_b: EmpiricalModel, k: int) -> float:
    """Total variation distance between the two PMFs of symbol k."""
    support = set(model_a.counts[k]) | set(model_b.counts[k])
    return 0.5 * sum(
        abs(model_a.probability(k, y) - model_b.probability(k, y))
        for y in support
    )
