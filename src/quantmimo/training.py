"""Channel training: learn the empirical conditional PMF of the quantized
receive vector for every candidate symbol vector.

Two routes are provided. Implicit training observes repeated pilot
transmissions of the first half of the symbol book and mirrors the second
half through the odd symmetry of the quantizer (a pilot frame of K*L/2 slots
covers all K symbols). Explicit training synthesizes artificial received
signals from a channel estimate instead of transmitting anything.

Either route returns an :class:`EmpiricalModel` holding the L trained level
rows of each of the K symbols as one K x L x d integer array; eMLD and MMD
read its distinct rows and their per-symbol counts, MCD its level sums.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    QuantizerConfig,
    SymbolBook,
    distinct_rows,
    noisy_levels,
    sqdist_exact,
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
        """(levels, count matrix) over the distinct trained set, in the
        float64 the detectors' products read, exact for these integers.

        ``levels`` is S x d, in first-seen order over the trained rows (MMD's
        float score sums follow this order), and ``count_matrix`` is S x K
        with the per-symbol multiplicities (at most L); column k divided by
        ``samples_per_symbol`` is the PMF of symbol k.
        Raises ``ValueError`` unless ``core.sqdist_exact`` holds for them.
        """
        if not sqdist_exact(self.cfg.bits, self.levels.shape[2]):
            raise ValueError("core.sqdist is not exact on these levels")
        first, ids = self._row_ids
        # row i of symbol k counts at flat position i * K + k
        cells = ids.reshape(self.size, -1) * self.size
        cells += np.arange(self.size)[:, None]
        # summed as float64 ones, so the count matrix is the only S x K array
        count_matrix = np.bincount(
            cells.ravel(), weights=np.ones(cells.size),
            minlength=first.size * self.size).reshape(first.size, self.size)
        return self._rows[first].astype(np.float64), count_matrix

    def level_sums(self) -> np.ndarray:
        """The K x d sums S_k of each symbol's L level rows, in
        ``np.min_scalar_type(L * (2**bits - 1))``, the narrowest unsigned
        type that holds the largest possible sum (uint8 at L = 16, b = 2).

        Integer sums are exact in any order, so narrow level dtypes cannot
        wrap. Converted to float64 they equal the float64 sums of the
        levels bit for bit wherever those sums are exact, which is every
        sum below 2**53.
        """
        top = self.samples_per_symbol * (self.cfg.n_levels - 1)
        return self.levels.sum(axis=1, dtype=np.min_scalar_type(top))

    @cached_property
    def counts(self) -> tuple[dict[tuple[int, ...], int], ...]:
        """Per symbol, each trained level tuple and its count, in first-seen
        order.

        Only the benchmark's tracer (``perfbench/tracer.py``) reads this.
        """
        first, ids = self._row_ids
        trained = vectors_from_levels(self._rows[first])
        return tuple(Counter(trained[i] for i in per_symbol)
                     for per_symbol in ids.reshape(self.size, -1).tolist())


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
    each chunk's noiseless points formed as its rows of ``book.vectors @
    h_hat.T``, so only one chunk of those points and the narrow levels are
    kept.
    """
    if artificial_count < 1:
        raise ValueError("artificial_count must be at least 1")
    h_hat = np.asarray(h_hat, dtype=complex)
    if h_hat.ndim != 2 or h_hat.shape[1] != book.n_t:
        raise ValueError(
            f"dimension mismatch: channel {h_hat.shape}, book n_t {book.n_t}")
    levels = noisy_levels(
        lambda rows: (book.vectors[rows] @ h_hat.T)[:, None, :],
        (book.size, artificial_count, h_hat.shape[0]), sigma2, rng, cfg)
    return EmpiricalModel(levels=levels, cfg=cfg)
