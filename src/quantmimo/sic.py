"""Two-stage successive-interference-cancellation detection.

The transmit antennas are split into two groups by channel-correlation
greedy selection. Stage one detects the first subvector from the receive
signal projected onto the orthogonal complement of the second group's
(real-expanded) channel columns, using nearest-centroid detection against
marginalized first-stage training. Stage two picks the closest noiseless
quantized output with the stage-one decision substituted. First-stage
training quantizes those outputs once per channel, for every (first,
second) hypothesis pair, into the K1 x K2 x d candidate table that stage
two reads. Total search effort per vector is M**n_t1 + M**n_t2 candidate
evaluations instead of M**n_t: stage one scores every row in one
``nearest_center`` call and stage two in ``_candidate_sqdist`` calls, so
those two functions see every candidate evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    QuantizerConfig,
    SymbolBook,
    level_values,
    noisy_levels,
    quantize_levels,
    real_components,
)
from .detection import nearest_center

# Largest stage-two gather (observations x K2 x d float64 values) that
# detect_sic_batch materializes at once; n_t1 = 1 of 6 QPSK antennas at
# n_r = 32 needs 512 KiB per observation.
_GATHER_BYTES = 1 << 24


def stage_two_chunk(row_bytes: int) -> int:
    """Observations per stage-two gather: as many candidate blocks of
    ``row_bytes`` as ``_GATHER_BYTES`` holds, and at least one."""
    return max(1, _GATHER_BYTES // row_bytes)


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


def projection_matrix(h2: np.ndarray, real_mode: bool = False) -> np.ndarray:
    """Orthonormal rows spanning the left null space of the expanded columns.

    In real mode the interference columns are taken as-is (the channel must
    be real); otherwise the complex matrix is real-expanded first. Raises if
    the expanded matrix is column-rank deficient, since the projection then
    cannot cancel the full interference subspace.
    """
    h2 = np.asarray(h2, dtype=complex)
    if real_mode:
        if np.abs(h2.imag).max(initial=0.0) > 1e-12:
            raise ValueError("real-mode projection needs a real channel")
        expanded = h2.real.astype(float)
    else:
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
    real_mode: bool = False

    @property
    def n_t(self) -> int:
        return len(self.first_indices) + len(self.second_indices)


def build_plan(h_hat: np.ndarray, n_t1: int, real_mode: bool = False) -> SicPlan:
    h_hat = np.asarray(h_hat, dtype=complex)
    first, second = divide_symbols(h_hat, n_t1)
    h2 = h_hat[:, list(second)]
    return SicPlan(
        first_indices=first,
        second_indices=second,
        h1=h_hat[:, list(first)],
        h2=h2,
        w1=projection_matrix(h2, real_mode=real_mode),
        real_mode=real_mode,
    )


@dataclass(frozen=True, eq=False)
class FirstStageModel:
    """Marginal PMFs and centroids of the projected receive signal.

    ``projected[k]`` holds, one per row, the K2 * samples_per_pair projected
    signals synthesized for first-subvector candidate k; they are the samples
    of its marginal PMF. ``table[k]`` holds the K2 noiseless quantized output
    values with candidate k substituted, the stage-two candidates; a model
    built by hand for stage one alone may leave it out.
    """

    projected: np.ndarray
    table: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.projected.shape[0]

    @property
    def samples_per_symbol(self) -> int:
        return self.projected.shape[1]

    @cached_property
    def centroids(self) -> np.ndarray:
        return self.projected.mean(axis=1)


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
    hypotheses uniformly, so its marginal PMF has K2 * samples_per_pair
    samples. The noiseless outputs of every pair are quantized once into the
    model's stage-two ``table``; with one sample per pair they are also the
    training signals, so the model draws no randomness and ignores
    ``sigma2``.
    """
    if samples_per_pair < 1:
        raise ValueError("samples_per_pair must be at least 1")
    if cfg.real_mode != plan.real_mode:
        raise ValueError("plan and quantizer disagree about real mode")
    k1, k2 = book1.size, book2.size
    n_r = plan.h1.shape[0]
    clean = ((book1.vectors @ plan.h1.T)[..., None, :]
             + book2.vectors @ plan.h2.T)
    table = _output_values(real_components(clean, cfg.real_mode), cfg)
    if samples_per_pair == 1:
        values = table[:, :, None, :]
    else:
        values = level_values(noisy_levels(
            clean[:, :, None, :], (k1, k2, samples_per_pair, n_r),
            sigma2, rng, cfg), cfg)
    projected = values @ plan.w1.T
    return FirstStageModel(
        projected=projected.reshape(k1, k2 * samples_per_pair, -1),
        table=table)


def _output_values(received: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """Quantized output values of receive signals in stacked real coordinates.

    ``received`` stays alive until the values are allocated. Releasing it
    first, as the inlined expression does, made ``learn_first_stage`` about
    2 of 10 ms slower at K = 4096, d = 64 (one BLAS thread, 2-core host):
    the allocator returned the freed pages and faulted them in again.
    """
    return level_values(quantize_levels(received, cfg), cfg)


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

    Stage one scores every row against the K1 first-stage centroids. Stage
    two gathers each row's K2 candidates from the model's table by its
    stage-one decision and takes one argmin over them, in row chunks of at
    most ``_GATHER_BYTES``. ``book1`` and ``book2`` are the
    ``enumerate_symbols`` books of the plan's two antenna groups.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    first = nearest_center(values @ plan.w1.T, model.centroids)
    second = np.empty_like(first)
    table = model.table
    chunk = stage_two_chunk(table[0].nbytes)
    for start in range(0, values.shape[0], chunk):
        rows = slice(start, start + chunk)
        second[rows] = np.argmin(
            _candidate_sqdist(table[first[rows]], values[rows]), axis=1)
    # the two subvector indices' digits, placed at their antennas, make the
    # symbol index of the whole vector (first antenna most significant)
    m = book1.constellation.size
    digits = np.empty((plan.n_t, len(first)), dtype=np.intp)
    digits[list(plan.first_indices)] = np.unravel_index(first, (m,) * book1.n_t)
    if plan.second_indices:  # an n_t1 = n_t split has no second digits
        digits[list(plan.second_indices)] = np.unravel_index(
            second, (m,) * book2.n_t)
    return np.ravel_multi_index(digits, (m,) * plan.n_t)
