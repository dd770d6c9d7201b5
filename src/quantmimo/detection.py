"""The three trained detectors mapping a quantized receive vector to a
symbol-vector index.

eMLD scores each symbol by the total empirical probability of the trained
vectors nearest to the observation, in exact integer squared distances of
level indices (``core.sqdist``); MMD by the PMF-weighted mean of their
roots times the step Δ; MCD by the distance of the output values (scaled
levels) to one centroid per symbol. Only eMLD, whose scores are integers,
resolves ties to the smallest index exactly. MCD and MMD rank symbols by
float sums of BLAS products, whose rounding can misorder a near tie and
whose kernel, chosen by batch shape, can pick either symbol of an exact one.

Each detector has one batch implementation: eMLD and MMD take an integer
level matrix and MCD its output values, one observation per row, and each
returns one symbol index per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import row_blocks, sqdist
from .training import EmpiricalModel


@dataclass(frozen=True, eq=False)
class CentroidBook:
    """Per-symbol representative vectors (probability-weighted means)."""

    centers: np.ndarray

    @property
    def size(self) -> int:
        return self.centers.shape[0]


def detect_emld_batch(levels: np.ndarray, model: EmpiricalModel) -> np.ndarray:
    """Empirical-ML detection of each level-matrix row.

    Each observation is scored against the trained vectors tied at its
    minimum distance: the winning symbol maximizes the summed multiplicities
    of those neighbors (an exact integer score).

    The score product runs in float64 BLAS: every score is an integer no
    larger than L, the symbol's trained rows, so each partial sum is exact
    in any order and the argmax and its ties are those of the integer
    product.
    """
    trained_levels, count_matrix = model.support_arrays
    d2 = sqdist(np.atleast_2d(levels), trained_levels)
    neighbor_mask = d2 == d2.min(axis=1, keepdims=True)
    scores = neighbor_mask.astype(float) @ count_matrix
    return np.argmax(scores, axis=1)


def detect_mmd_batch(levels: np.ndarray, model: EmpiricalModel) -> np.ndarray:
    """Minimum-mean-distance detection of each level-matrix row."""
    trained_levels, count_matrix = model.support_arrays
    dist = model.cfg.step * np.sqrt(
        sqdist(np.atleast_2d(levels), trained_levels))
    # multiplicities instead of probabilities: the 1/L factor is common to
    # every symbol and cannot change the argmin
    scores = dist @ count_matrix
    return np.argmin(scores, axis=1)


def centroids(model: EmpiricalModel) -> CentroidBook:
    """Probability-weighted mean output vector per symbol.

    With S_k the integer level sum over the L = ``samples_per_symbol``
    trained rows of symbol k, Δ the quantizer step and
    off = 2**(bits-1) - 0.5, the center of symbol k is
    ``((S_k - L * off) * Δ) / L``, evaluated in that order. This is the
    definition at every step. At a dyadic step (a power of two) each output
    value and each partial sum of values is exact, so it equals the sum of
    the symbol's output values over L bit for bit.

    The sums accumulate in float64, which holds every integer level sum
    exactly, so narrow level dtypes cannot wrap; numpy casts the levels in
    buffered blocks and never widens them all at once. The sums then become
    the centers in place, so they are the only K x d array.
    """
    centers = model.levels.sum(axis=1, dtype=np.float64)
    off = (1 << (model.cfg.bits - 1)) - 0.5
    centers -= model.samples_per_symbol * off
    centers *= model.cfg.step
    centers /= model.samples_per_symbol
    return CentroidBook(centers=centers)


def nearest_center(values: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center row for each float row of ``values``.

    The rows are scored in the near-equal ``core.row_blocks`` of K float64
    distances per row, one :func:`~quantmimo.core.sqdist` call per block,
    so one block is the only array of that size, whatever N, and no copy
    of ``values`` is made. Each block's product gives the whole product's
    rows bit for bit, so the decisions are those of the whole expansion,
    whose rounding can misorder near ties. MCD and stage one of SIC share
    this kernel.
    """
    nearest = np.empty(len(values), dtype=np.intp)
    for rows in row_blocks(len(values), 8 * len(centers)):
        nearest[rows] = np.argmin(sqdist(values[rows], centers), axis=1)
    return nearest


def detect_mcd_batch(values: np.ndarray, book: CentroidBook) -> np.ndarray:
    """Nearest-centroid detection of each value-matrix row."""
    return nearest_center(
        np.atleast_2d(np.asarray(values, dtype=float)), book.centers)
