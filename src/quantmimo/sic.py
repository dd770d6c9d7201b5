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
evaluations instead of M**n_t.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    QuantizedVector,
    QuantizerConfig,
    SymbolBook,
    level_values,
    noisy_levels,
    quantize_levels,
    real_components,
)

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
    of its marginal PMF. ``atoms[k]`` is the boundary view of that PMF: each
    distinct projected vector (as a float tuple) with its multiplicity,
    built only when read. ``table[k]`` holds the K2 noiseless quantized
    outputs (``second_stage_candidates``) with candidate k substituted, the
    stage-two candidates; a model built by hand for stage one alone may
    leave it out.
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

    @cached_property
    def atoms(self) -> tuple[dict[tuple[float, ...], int], ...]:
        return tuple(
            dict(Counter(map(tuple, rows.tolist()))) for rows in self.projected)

    def pmf(self, k: int) -> dict[tuple[float, ...], float]:
        return {a: c / self.samples_per_symbol for a, c in self.atoms[k].items()}


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
    clean = _noiseless(plan, book1.vectors, book2)
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


def _candidate_sqdist(candidates: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Squared distance from the target to every candidate row.

    Every SIC candidate evaluation funnels through here, which keeps the
    per-vector search effort observable: one call scores exactly
    ``candidates.shape[0]`` hypotheses.
    """
    diff = candidates - target
    return np.einsum("kd,kd->k", diff, diff)


def detect_first(y: QuantizedVector, plan: SicPlan, model: FirstStageModel) -> int:
    """Nearest first-stage centroid of the projected observation."""
    y_tilde = plan.w1 @ y.values
    return int(np.argmin(_candidate_sqdist(model.centroids, y_tilde)))


def _noiseless(plan: SicPlan, x1: np.ndarray, book2: SymbolBook) -> np.ndarray:
    """Receive signals of first-subvector hypotheses x1 (..., n_t1) with
    every second-subvector hypothesis substituted: (..., K2, n_r)."""
    return (x1 @ plan.h1.T)[..., None, :] + book2.vectors @ plan.h2.T


def _output_values(received: np.ndarray, cfg: QuantizerConfig) -> np.ndarray:
    """Quantized output values of receive signals in stacked real coordinates."""
    return level_values(quantize_levels(received, cfg), cfg)


def second_stage_candidates(
    plan: SicPlan, x1: np.ndarray, book2: SymbolBook, cfg: QuantizerConfig
) -> np.ndarray:
    """Noise-free quantized outputs for every second-subvector hypothesis.

    ``x1`` is one first-subvector hypothesis (n_t1,) or a stack of them
    (S, n_t1); the result is (K2, d) or (S, K2, d). The whole first book
    gives ``learn_first_stage``'s table bit for bit. A shorter stack sums
    ``x1 @ h1.T`` with another BLAS kernel, so its values can differ from
    the table only where a noiseless sum lies within rounding of a
    quantizer threshold.
    """
    clean = _noiseless(plan, np.asarray(x1, dtype=complex), book2)
    return _output_values(real_components(clean, cfg.real_mode), cfg)


def detect_second(
    y: QuantizedVector,
    plan: SicPlan,
    x1_hat: np.ndarray,
    book2: SymbolBook,
    cfg: QuantizerConfig,
) -> int:
    """Closest re-synthesized output with the stage-one decision substituted."""
    candidates = second_stage_candidates(plan, x1_hat, book2, cfg)
    return int(np.argmin(_candidate_sqdist(candidates, y.values)))


def reconstruct(
    x1_hat: np.ndarray,
    x2_hat: np.ndarray,
    first_indices: tuple[int, ...],
    second_indices: tuple[int, ...],
) -> np.ndarray:
    """Reassemble the full symbol vector from the two subvector decisions."""
    n_t = len(first_indices) + len(second_indices)
    if sorted(first_indices + second_indices) != list(range(n_t)):
        raise ValueError("index groups must partition the antenna set")
    x1_hat = np.asarray(x1_hat, dtype=complex)
    x2_hat = np.asarray(x2_hat, dtype=complex)
    if x1_hat.shape != (len(first_indices),) or x2_hat.shape != (len(second_indices),):
        raise ValueError("subvector lengths do not match the index groups")
    out = np.empty(n_t, dtype=complex)
    out[list(first_indices)] = x1_hat
    out[list(second_indices)] = x2_hat
    return out


def detect_sic(
    y: QuantizedVector,
    plan: SicPlan,
    model: FirstStageModel,
    book1: SymbolBook,
    book2: SymbolBook,
    cfg: QuantizerConfig,
) -> np.ndarray:
    """Full two-stage detection returning the reconstructed symbol vector.

    Stage two reads the model's candidate table, as ``detect_sic_batch``
    does.
    """
    k1 = detect_first(y, plan, model)
    k2 = int(np.argmin(_candidate_sqdist(model.table[k1], y.values)))
    return reconstruct(
        book1.vectors[k1], book2.vectors[k2],
        plan.first_indices, plan.second_indices)


def detect_sic_batch(
    values: np.ndarray,
    plan: SicPlan,
    model: FirstStageModel,
    book1: SymbolBook,
    book2: SymbolBook,
    cfg: QuantizerConfig,
) -> np.ndarray:
    """Two-stage detection of many observations (one value row each).

    Stage one scores every row against the K1 first-stage centroids. Stage
    two gathers each row's K2 candidates from the model's table by its
    stage-one decision and takes one argmin over them, in row chunks of at
    most ``_GATHER_BYTES``.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    projected = values @ plan.w1.T
    centers = model.centroids
    d2 = (
        np.einsum("nd,nd->n", projected, projected)[:, None]
        - 2.0 * projected @ centers.T
        + np.einsum("kd,kd->k", centers, centers)[None, :]
    )
    first = np.argmin(d2, axis=1)
    second = np.empty_like(first)
    table = model.table
    chunk = stage_two_chunk(table[0].nbytes)
    for start in range(0, values.shape[0], chunk):
        rows = slice(start, start + chunk)
        diff = table[first[rows]]
        np.subtract(values[rows, None, :], diff, out=diff)
        second[rows] = np.argmin(np.einsum("nkd,nkd->nk", diff, diff), axis=1)
    out = np.empty((values.shape[0], plan.n_t), dtype=complex)
    out[:, list(plan.first_indices)] = book1.vectors[first]
    out[:, list(plan.second_indices)] = book2.vectors[second]
    return out
