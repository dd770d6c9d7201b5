"""Two-stage successive-interference-cancellation detection.

The transmit antennas are split into two groups by channel-correlation
greedy selection. Stage one detects the first subvector from the receive
signal projected onto the orthogonal complement of the second group's
(real-expanded) channel columns, using nearest-centroid detection against
marginalized first-stage training. Stage two picks the closest noiseless
quantized output with the stage-one decision substituted. First-stage
training keeps only what the two stages read: the K1 centroids and those
outputs, quantized once per channel for every (first, second) hypothesis
pair into a K1 x K2 x d level table. The projection is linear, so each
centroid is the projection of its candidate's mean trained output row, the
``detection.centroids`` that MCD reads. Total search effort per vector is
M**n_t1 + M**n_t2 candidate evaluations instead of M**n_t: stage one
scores the rows in ``nearest_center`` calls and stage two in
``_candidate_sqdist`` calls, so those two functions see every candidate
evaluation. Both stages work one block of rows at a time, so a block, not
an N x K array, is the largest temporary of a detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _NOISE_BYTES,
    QuantizerConfig,
    SymbolBook,
    level_values,
    noisy_levels,
    quantize_levels,
    row_blocks,
)
from .detection import centroids, nearest_center
from .training import EmpiricalModel

def divide_symbols(h_hat: np.ndarray, n_t1: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split antenna indices into a detect-first group and a remainder.

    The first group is seeded with the largest-norm column and grown
    greedily by total normalized correlation magnitude against the columns
    already chosen; ties go to the smallest index. Returns 0-based index
    tuples (first group in selection order, remainder ascending).
    """
    h_hat = np.asarray(h_hat, dtype=complex)
    n_t = h_hat.shape[1]
    if not 1 <= n_t1 <= n_t:
        raise ValueError(f"n_t1 must lie in [1, {n_t}]")
    norms = np.linalg.norm(h_hat, axis=0)
    first = [int(np.argmax(norms))]
    remaining = [k for k in range(n_t) if k != first[0]]
    for _ in range(n_t1 - 1):
        best_k, best_score = None, -np.inf
        for k in remaining:
            score = sum(
                abs(h_hat[:, j].conj() @ h_hat[:, k]) / (norms[j] * norms[k])
                for j in first
            )
            if score > best_score:
                best_k, best_score = k, score
        first.append(best_k)
        remaining.remove(best_k)
    return tuple(first), tuple(remaining)


def real_expand(h2: np.ndarray) -> np.ndarray:
    """Real block expansion [[Re, -Im], [Im, Re]] of a complex matrix."""
    h2 = np.asarray(h2, dtype=complex)
    n_r, n_c = h2.shape
    out = np.empty((2 * n_r, 2 * n_c), dtype=float)
    out[:n_r, :n_c] = h2.real
    out[:n_r, n_c:] = -h2.imag
    out[n_r:, :n_c] = h2.imag
    out[n_r:, n_c:] = h2.real
    return out


def projection_matrix(h2: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the left null space of the real-expanded
    complex columns.

    Raises if the expanded matrix is column-rank deficient, since the
    projection then cannot cancel the full interference subspace.
    """
    expanded = real_expand(h2)
    rows, cols = expanded.shape
    if cols == 0:
        return np.eye(rows)
    # scipy.linalg.null_space(expanded.T), bit for bit: the right singular
    # vectors past the numerical rank, at scipy's rank tolerance. Fortran
    # order keeps scipy's memory layout, so the BLAS products reading the
    # projector see the same operand strides.
    _, s, vh = np.linalg.svd(expanded.T, full_matrices=True)
    tol = np.amax(s, initial=0.0) * (np.finfo(s.dtype).eps * max(cols, rows))
    rank = int(np.sum(s > tol))
    if rank != cols:
        raise ValueError("interference channel estimate is rank deficient")
    return np.asfortranarray(vh)[rank:, :]


@dataclass(frozen=True, eq=False)
class SicPlan:
    """Frozen division plan: index groups, channel submatrices, projector."""

    first_indices: tuple[int, ...]
    second_indices: tuple[int, ...]
    h1: np.ndarray
    h2: np.ndarray
    w1: np.ndarray

    @property
    def n_t(self) -> int:
        return len(self.first_indices) + len(self.second_indices)


def build_plan(h_hat: np.ndarray, n_t1: int) -> SicPlan:
    h_hat = np.asarray(h_hat, dtype=complex)
    first, second = divide_symbols(h_hat, n_t1)
    h2 = h_hat[:, list(second)]
    return SicPlan(
        first_indices=first,
        second_indices=second,
        h1=h_hat[:, list(first)],
        h2=h2,
        w1=projection_matrix(h2),
    )


@dataclass(frozen=True, eq=False)
class FirstStageModel:
    """What detection reads of first-stage training.

    ``centroids[k]`` is the mean of the K2 * samples_per_pair projected
    signals synthesized for first-subvector candidate k, the samples of its
    marginal PMF, computed as the projection of their mean output row.
    ``table[k]`` holds the K2 noiseless quantized outputs with
    candidate k substituted, the stage-two candidates, as levels of ``cfg``.
    """

    centroids: np.ndarray
    table: np.ndarray
    cfg: QuantizerConfig


def learn_first_stage(
    plan: SicPlan,
    sigma2: float,
    samples_per_pair: int,
    book1: SymbolBook,
    book2: SymbolBook,
    cfg: QuantizerConfig,
    rng: np.random.Generator | None = None,
) -> FirstStageModel:
    """Marginalized first-stage training over all second-subvector candidates.

    For every (first, second) candidate pair, ``samples_per_pair`` projected
    signals are synthesized; the single-sample case is noise free by
    convention. Each first-stage candidate weights its second-subvector
    hypotheses uniformly, so its centroid is the mean of its K2 *
    samples_per_pair signals. The noiseless outputs of every pair are
    quantized once into the model's stage-two ``table``; with one sample per
    pair they are also the training signals, so the model draws no
    randomness and ignores ``sigma2``; more are drawn for all pairs at once.

    The table is quantized in the ``core.row_blocks`` of first-stage
    candidates whose float64 noiseless sums fit a noise chunk, at least one
    each; a block's real and imaginary parts are added as floats into the
    halves of one quantizer input, the parts of the complex sums bit for
    bit. The centroids are the ``detection.centroids`` of the training
    levels stacked per first-stage candidate, projected by one
    K1 x d @ d x d1 product; they equal the means of the per-pair
    projections up to rounding (about 1e-15 of the largest entry).
    """
    if samples_per_pair < 1:
        raise ValueError("samples_per_pair must be at least 1")
    k1, k2 = book1.size, book2.size
    n_r = plan.h1.shape[0]
    first = (book1.vectors @ plan.h1.T)[:, None, :]
    second = book2.vectors @ plan.h2.T
    d = 2 * n_r
    table = np.empty((k1, k2, d), dtype=cfg.level_dtype)
    for rows in row_blocks(k1, 8 * k2 * d, _NOISE_BYTES, least=1):
        block = first[rows]
        sums = np.empty((len(block), k2, d))
        np.add(block.real, second.real, out=sums[..., :n_r])
        np.add(block.imag, second.imag, out=sums[..., n_r:])
        table[rows] = quantize_levels(sums, cfg)
        del sums
    training = table
    if samples_per_pair > 1:
        training = noisy_levels(
            lambda rows: (first[rows] + second)[:, :, None, :],
            (k1, k2, samples_per_pair, n_r), sigma2, rng, cfg)
    means = centroids(EmpiricalModel(training.reshape(k1, -1, d), cfg))
    return FirstStageModel(
        centroids=means.centers @ plan.w1.T, table=table, cfg=cfg)


def _candidate_sqdist(candidates: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Squared distance from each target row to each of its candidate rows.

    ``candidates`` is (n, K, d) and is overwritten with the differences;
    ``targets`` is (n, d). One call scores exactly n * K hypotheses.
    """
    np.subtract(targets[:, None, :], candidates, out=candidates)
    return np.einsum("nkd,nkd->nk", candidates, candidates)


def detect_sic_batch(
    values: np.ndarray,
    plan: SicPlan,
    model: FirstStageModel,
    book1: SymbolBook,
    book2: SymbolBook,
) -> np.ndarray:
    """Two-stage detection of many observations (one value row each); one
    symbol index per row, of the ``enumerate_symbols`` book of all n_t
    antennas.

    Stage one projects the rows and scores them against the K1 first-stage
    centroids, one ``core.row_blocks`` block of projections at a time.
    Stage two gathers each row's K2 candidates from the model's table by
    its stage-one decision and takes one argmin over them, one block of
    gathered float64 values at a time. ``book1`` and ``book2`` are the
    ``enumerate_symbols`` books of the plan's two antenna groups.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    table = model.table
    first = np.empty(len(values), dtype=np.intp)
    for rows in row_blocks(len(values), 8 * plan.w1.shape[0]):
        first[rows] = nearest_center(values[rows] @ plan.w1.T, model.centroids)
    second = np.empty_like(first)
    for rows in row_blocks(len(values), 8 * table[0].size):
        second[rows] = np.argmin(_candidate_sqdist(
            level_values(table[first[rows]], model.cfg), values[rows]), axis=1)
    # the two subvector indices' digits, placed at their antennas, make the
    # symbol index of the whole vector (first antenna most significant)
    m = book1.constellation.size
    digits = np.empty((plan.n_t, len(first)), dtype=np.intp)
    digits[list(plan.first_indices)] = np.unravel_index(first, (m,) * book1.n_t)
    if plan.second_indices:  # an n_t1 = n_t split has no second digits
        digits[list(plan.second_indices)] = np.unravel_index(
            second, (m,) * book2.n_t)
    return np.ravel_multi_index(digits, (m,) * plan.n_t)
