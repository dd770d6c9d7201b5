"""Reference receivers: quantized maximum-likelihood detection, zero-forcing
detection, and least-squares channel estimation on quantized outputs.

These operate on the complex signal model directly (no trained PMFs) and
serve as comparison points for the trained detectors. The LS estimator
treats the quantized outputs as if they were the unquantized receive signal,
which is the standard low-complexity estimate for coarse ADCs; it is exact
in the infinite-resolution limit and direction-informative at one bit.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Constellation,
    QuantizerConfig,
    SymbolBook,
    cell_edges,
    level_values,
    real_components,
)

_LOG_FLOOR = 1e-300


def random_pilots(
    c: Constellation, n_t: int, t_t: int, rng: np.random.Generator
) -> np.ndarray:
    """n_t x t_t pilot matrix with i.i.d. uniform constellation entries."""
    return c.as_array()[rng.integers(0, c.size, size=(n_t, t_t))]


def reassemble_complex(values: np.ndarray) -> np.ndarray:
    """Fold stacked [Re; Im] value rows back into complex antenna vectors."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[1] % 2 != 0:
        raise ValueError("stacked dimension must be even to reassemble")
    half = values.shape[1] // 2
    return values[:, :half] + 1j * values[:, half:]


def estimate_channel_ls(
    pilots, levels: np.ndarray, cfg: QuantizerConfig
) -> np.ndarray:
    """Least-squares channel fit of quantized observations against pilots.

    Solves h_hat = Y X^H (X X^H)^-1 with Y the complex-reassembled quantized
    outputs (one column per slot). ``levels`` is the pilot level matrix, one
    row per slot, quantized with ``cfg``. Requires at least n_t slots and
    pilots of full row rank.
    """
    x = np.asarray(pilots, dtype=complex)
    n_t, t_t = x.shape
    if t_t < n_t:
        raise ValueError("need at least n_t pilot slots")
    if len(levels) != t_t:
        raise ValueError(f"expected {t_t} observations, got {len(levels)}")
    y = reassemble_complex(level_values(levels, cfg)).T
    gram = x @ x.conj().T
    if np.linalg.matrix_rank(gram) < n_t:
        raise ValueError("pilot matrix is rank deficient")
    return np.linalg.solve(gram.T, (y @ x.conj().T).T).T


def mld_log_likelihoods(
    levels: np.ndarray,
    h: np.ndarray,
    sigma2: float,
    book: SymbolBook,
    cfg: QuantizerConfig,
) -> np.ndarray:
    """Exact log-likelihood of every symbol vector for each observation row.

    The likelihood of one observed level is the Gaussian probability of its
    quantizer input cell around the noiseless component; per-component terms
    multiply across the (independent) real samples.

    Each component takes one of 2**bits levels, so the per-component terms
    form a K x d x 2**bits table that the observed levels gather from. Each
    gathered element equals the one a direct N x K x d evaluation computes,
    and the sum runs over the same contiguous last axis, so both forms give
    the same bits.
    """
    if not sigma2 > 0.0:
        raise ValueError("quantized MLD needs strictly positive noise")
    # imported here: a run without MLD never loads scipy.special
    from scipy.special import ndtr

    levels = np.atleast_2d(np.asarray(levels))
    clean = book.vectors @ np.asarray(h, dtype=complex).T
    g = real_components(clean, cfg.real_mode)
    lower, upper = cell_edges(cfg)
    scale = np.sqrt(sigma2 / 2.0)
    table = np.log(np.maximum(
        ndtr((upper - g[..., None]) / scale)
        - ndtr((lower - g[..., None]) / scale), _LOG_FLOOR))
    # one flat index into the table: entry (k, j, level) sits at
    # (k * d + j) * 2**bits + level. The index is int32 and the levels keep
    # their narrow dtype, so neither is widened to int64: a table of 2**31
    # entries takes 16 GiB, far past the budget that
    # ExperimentConfig.validate enforces, so no index can overflow.
    k, d = g.shape
    cells = (np.arange(k * d, dtype=np.int32) * cfg.n_levels).reshape(k, d)
    return table.reshape(-1)[cells + levels[:, None, :]].sum(axis=2)


def detect_mld_batch(
    levels: np.ndarray,
    h: np.ndarray,
    sigma2: float,
    book: SymbolBook,
    cfg: QuantizerConfig,
) -> np.ndarray:
    """Most likely symbol index per observation row; ties to smallest index."""
    return np.argmax(mld_log_likelihoods(levels, h, sigma2, book, cfg), axis=1)


def detect_zf_batch(
    values: np.ndarray, h_hat: np.ndarray, c: Constellation
) -> np.ndarray:
    """Zero-forcing detection of many value rows; one symbol index per row,
    each antenna's estimate taking its nearest constellation point (first
    antenna most significant, as in ``enumerate_symbols``)."""
    h_hat = np.asarray(h_hat, dtype=complex)
    if np.linalg.matrix_rank(h_hat) < h_hat.shape[1]:
        raise ValueError("channel estimate is rank deficient")
    y = reassemble_complex(values)
    x_soft = y @ np.linalg.pinv(h_hat).T
    digits = np.argmin(np.abs(x_soft[..., None] - c.as_array()), axis=-1)
    return np.ravel_multi_index(digits.T, (c.size,) * h_hat.shape[1])
