"""The three trained detectors mapping a quantized receive vector to a
symbol-vector index.

eMLD scores each symbol by the total empirical probability of the trained
vectors nearest to the observation; MMD scores by the PMF-weighted mean
distance to the observation; MCD keeps only one representative centroid per
symbol. Ties always resolve to the smallest index, and distances are computed
on quantizer output values (step-scaled), not raw level indices.

Batch variants operate on integer level matrices (one observation per row)
and are exact re-implementations of the per-vector rules; the per-vector
functions delegate to them, so the two surfaces cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import QuantizedVector
from .training import EmpiricalModel

# Largest int64 copy of trained level rows that centroids sums at once.
_SUM_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class CentroidBook:
    """Per-symbol representative vectors (probability-weighted means)."""

    centers: np.ndarray

    @property
    def size(self) -> int:
        return self.centers.shape[0]


def _level_sqdist(levels: np.ndarray, trained_levels: np.ndarray) -> np.ndarray:
    """Exact integer squared level distances, one row per observation."""
    diff = levels[:, None, :] - trained_levels[None, :, :]
    return np.einsum("nsd,nsd->ns", diff, diff)


def _as_level_rows(y: QuantizedVector) -> np.ndarray:
    return np.asarray(y.levels, dtype=np.int64)[None, :]


def neighbor_set(
    y: QuantizedVector, model: EmpiricalModel
) -> tuple[list[QuantizedVector], float]:
    """All trained vectors at the minimum distance from y, plus that distance.

    Membership is decided on exact integer level arithmetic, so equidistant
    vectors are found reliably; the returned radius is in value units.
    """
    levels, _, _ = model.support_arrays
    d2 = _level_sqdist(_as_level_rows(y), levels)[0]
    d2_min = int(d2.min())
    members = [model.trained_vectors[i] for i in np.flatnonzero(d2 == d2_min)]
    return members, y.step * float(np.sqrt(d2_min))


def detect_emld_batch(levels: np.ndarray, model: EmpiricalModel) -> np.ndarray:
    """Empirical-ML detection of each level-matrix row.

    Each observation is scored against the trained vectors tied at its
    minimum distance: the winning symbol maximizes the summed multiplicities
    of those neighbors (an exact integer score).
    """
    trained_levels, _, count_matrix = model.support_arrays
    levels = np.atleast_2d(np.asarray(levels, dtype=np.int64))
    d2 = _level_sqdist(levels, trained_levels)
    neighbor_mask = d2 == d2.min(axis=1, keepdims=True)
    scores = neighbor_mask.astype(np.int64) @ count_matrix
    return np.argmax(scores, axis=1)


def detect_emld(y: QuantizedVector, model: EmpiricalModel) -> int:
    """Index of the symbol with the largest neighbor-summed empirical PMF."""
    return int(detect_emld_batch(_as_level_rows(y), model)[0])


def detect_mmd_batch(levels: np.ndarray, model: EmpiricalModel) -> np.ndarray:
    """Minimum-mean-distance detection of each level-matrix row."""
    trained_levels, _, count_matrix = model.support_arrays
    for k in range(model.size):
        if not count_matrix[:, k].any():
            raise ValueError(f"symbol {k} has an empty trained support")
    levels = np.atleast_2d(np.asarray(levels, dtype=np.int64))
    dist = model.cfg.step * np.sqrt(_level_sqdist(levels, trained_levels))
    # multiplicities instead of probabilities: the 1/L factor is common to
    # every symbol and cannot change the argmin
    scores = dist @ count_matrix
    return np.argmin(scores, axis=1)


def detect_mmd(y: QuantizedVector, model: EmpiricalModel) -> int:
    """Index of the symbol with the smallest PMF-weighted mean distance to y."""
    return int(detect_mmd_batch(_as_level_rows(y), model)[0])


def centroids(model: EmpiricalModel) -> CentroidBook:
    """Probability-weighted mean output vector per symbol.

    With S_k the integer level sum over the n_k trained rows of symbol k,
    L = ``samples_per_symbol``, Δ the quantizer step and
    off = 2**(bits-1) - 0.5, the center of symbol k is
    ``((S_k - n_k * off) * Δ) / L``, evaluated in that order. This is the
    definition at every step. At a dyadic step (a power of two) each output
    value and each partial sum of values is exact, so it equals the sum of
    the symbol's output values over L bit for bit.

    The sums are taken over blocks of whole symbols, each at most
    ``_SUM_BYTES`` of int64 levels (or one symbol), so narrow levels are
    never widened all at once.
    """
    per_symbol = np.bincount(model.symbols, minlength=model.size)
    empty = np.flatnonzero(per_symbol == 0)
    if empty.size:
        raise ValueError(f"symbol {empty[0]} has an empty trained support")
    ends = np.cumsum(per_symbol)
    starts = ends - per_symbol
    levels = model.levels
    block_rows = max(1, _SUM_BYTES // (8 * max(1, levels.shape[1])))
    sums = np.empty((model.size, levels.shape[1]), dtype=np.int64)
    k = 0
    while k < model.size:
        # the symbols whose rows end within one block, and at least one
        stop = max(k + 1, int(np.searchsorted(
            ends, starts[k] + block_rows, side="right")))
        # an int64 accumulator, so narrow level dtypes cannot wrap
        np.add.reduceat(
            levels[starts[k]:ends[stop - 1]], starts[k:stop] - starts[k],
            axis=0, dtype=np.int64, out=sums[k:stop])
        k = stop
    off = (1 << (model.cfg.bits - 1)) - 0.5
    centers = (sums - per_symbol[:, None] * off) * model.cfg.step
    return CentroidBook(centers=centers / model.samples_per_symbol)


def detect_mcd_batch(values: np.ndarray, book: CentroidBook) -> np.ndarray:
    """Nearest-centroid detection of each value-matrix row."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    centers = book.centers
    d2 = (
        np.einsum("nd,nd->n", values, values)[:, None]
        - 2.0 * values @ centers.T
        + np.einsum("kd,kd->k", centers, centers)[None, :]
    )
    return np.argmin(d2, axis=1)


def detect_mcd(y: QuantizedVector, book: CentroidBook) -> int:
    """Index of the centroid closest to y in Euclidean distance."""
    return int(detect_mcd_batch(y.values[None, :], book)[0])
