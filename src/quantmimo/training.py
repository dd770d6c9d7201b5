"""Channel training: learn the empirical conditional PMF of the quantized
receive vector for every candidate symbol vector.

Two routes are provided. Implicit training observes repeated pilot
transmissions of the first half of the symbol book and mirrors the second
half through the odd symmetry of the quantizer (a pilot frame of K*L/2 slots
covers all K symbols). Explicit training synthesizes artificial received
signals from a channel estimate instead of transmitting anything.

Either route returns an :class:`EmpiricalModel` holding the L trained level
rows of each of the K symbols as one K x L x d integer array; the detectors
read its distinct rows and their per-symbol counts.
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


def _piloted_symbols(book: SymbolBook, repetitions: int) -> int:
    """K/2, the number of symbols implicit training transmits."""
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    if book.size % 2 != 0:
        # unreachable for origin-symmetric constellations, guarded anyway
        raise ValueError("symbol book size must be even for implicit training")
    return book.size // 2


def build_implicit_pilots(book: SymbolBook, repetitions: int) -> np.ndarray:
    """Pilot frame as a T_t x n_t matrix, one row per slot: L consecutive
    repetitions of each first-half symbol vector (T_t = K*L/2 slots)."""
    half = _piloted_symbols(book, repetitions)
    return np.repeat(book.vectors[:half], repetitions, axis=0)


@dataclass(frozen=True, eq=False)
class EmpiricalModel:
    """Per-symbol empirical PMFs over quantized receive vectors.

    ``levels`` is a K x L x d integer array: ``levels[k]`` holds the L
    trained level rows of symbol k, so probabilities are the exact rationals
    count / L.

    The distinct support and its count matrix are derived lazily, only when
    a detector reads them.
    """

    levels: np.ndarray
    cfg: QuantizerConfig

    def __post_init__(self) -> None:
        if self.levels.ndim != 3 or 0 in self.levels.shape[:2]:
            raise ValueError(
                "levels must be a K x L x d array with K, L >= 1, got shape "
                f"{self.levels.shape}")

    @property
    def size(self) -> int:
        return self.levels.shape[0]

    @property
    def samples_per_symbol(self) -> int:
        return self.levels.shape[1]

    @property
    def _rows(self) -> np.ndarray:
        """The K*L x d level rows, symbol-major (a view of ``levels``)."""
        return self.levels.reshape(-1, self.levels.shape[2])

    @cached_property
    def _row_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """First row of each distinct level row, in first-seen order over
        the symbol-major rows, and the distinct-row id of every row."""
        return distinct_rows(self._rows)

    @cached_property
    def support_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(levels, count matrix) over the distinct trained set.

        ``levels`` is S x d int64, in first-seen order over the trained rows,
        and ``count_matrix`` is S x K with the per-symbol multiplicities;
        column k divided by ``samples_per_symbol`` is the PMF of symbol k.
        """
        first, ids = self._row_ids
        count_matrix = np.zeros((first.size, self.size), dtype=np.int64)
        np.add.at(count_matrix, (ids.reshape(self.size, -1),
                                 np.arange(self.size)[:, None]), 1)
        return np.asarray(self._rows[first], dtype=np.int64), count_matrix

    @cached_property
    def counts(self) -> tuple[dict[QuantizedVector, int], ...]:
        """Per symbol, each trained vector (first-seen order) and its count.

        Only the benchmark's tracer (``perfbench/tracer.py``) reads this.
        """
        first, ids = self._row_ids
        trained = vectors_from_levels(self._rows[first], self.cfg)
        out: list[dict[QuantizedVector, int]] = [{} for _ in range(self.size)]
        for k, per_symbol in enumerate(ids.reshape(self.size, -1).tolist()):
            for i in per_symbol:
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
    (``top - block``), which is valid because noise is sign-symmetric and
    the quantizer is odd.
    """
    half = _piloted_symbols(book, repetitions)
    if len(levels) != half * repetitions:
        raise ValueError(
            f"expected {half * repetitions} observations, got {len(levels)}")
    block = levels.reshape(half, repetitions, levels.shape[1])
    top = cfg.n_levels - 1
    return EmpiricalModel(
        levels=np.concatenate([block, top - block[::-1]]), cfg=cfg)


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
    return EmpiricalModel(levels=levels, cfg=cfg)
