"""Reference receivers: quantized maximum-likelihood detection, zero-forcing
detection, and least-squares channel estimation on quantized outputs.

These operate on the complex signal model directly (no trained PMFs) and
serve as comparison points for the trained detectors. The LS estimator
treats the quantized outputs as if they were the unquantized receive signal,
which is the standard low-complexity estimate for coarse ADCs; it is exact
in the infinite-resolution limit and direction-informative at one bit.

Quantized MLD takes its Gaussian cell probabilities from
:func:`quantmimo.core.normal_cdf`, built on ``math.erf``/``math.erfc``.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Constellation,
    QuantizerConfig,
    SymbolBook,
    cell_edges,
    level_values,
    normal_cdf,
    real_components,
    row_blocks,
)

_LOG_FLOOR = 1e-300

# Largest block of cell-edge arguments (float64 values) that the MLD table
# passes through normal_cdf at once, as one Python list.
_CDF_VALUES = 1 << 12


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
    gathered element equals the one a direct N x K x d evaluation computes
    with the same CDF, and the sum runs over the same contiguous last axis,
    so both forms give the same bits. The result is the transpose of the
    K x N sums.

    The table holds the CDF at each finite cell edge, K*d*(2**bits - 1)
    calls of :func:`normal_cdf`, evaluated in the near-equal
    :func:`~quantmimo.core.row_blocks` of table rows that ``_CDF_VALUES``
    arguments hold (at least one row). Each block's arguments are formed as
    one contiguous array, not in the table's strided finite-edge columns,
    and its results are written into those columns; the infinite edges of
    the end cells are exactly 0 and 1.
    Each cell probability is then the difference of its upper and lower
    edge terms, written in place, so the table is the only array of its
    size. Each call costs 0.2-0.4 µs, so a table of 10**6 edges takes
    0.2-0.4 s to build.
    """
    if not sigma2 > 0.0:
        raise ValueError("quantized MLD needs strictly positive noise")
    levels = np.atleast_2d(np.asarray(levels))
    clean = book.vectors @ np.asarray(h, dtype=complex).T
    g = real_components(clean)
    k, d = g.shape
    # the finite edges, the upper edges of every cell but the last
    edges = cell_edges(cfg)[1][:-1]
    scale = np.sqrt(sigma2 / 2.0)
    # row (k * d + j) holds the CDF of component j of symbol k at each
    # finite edge, then the upper edge +inf of the last cell
    table = np.empty((k * d, cfg.n_levels))
    table[:, -1] = 1.0
    components = g.reshape(-1)
    for rows in row_blocks(k * d, 8 * edges.size, 8 * _CDF_VALUES, least=1):
        # one contiguous block of arguments, whose CDFs fill the table rows
        args = np.subtract(edges, components[rows, None])
        args /= scale
        table[rows, :-1] = np.fromiter(
            map(normal_cdf, args.ravel().tolist()), float, args.size
        ).reshape(args.shape)
    # cell probability cdf(upper) - cdf(lower), top cell first so each
    # lower edge is read before it is overwritten; the first cell's lower
    # edge is -inf, whose CDF 0 leaves its upper term as it is
    for level in range(cfg.n_levels - 1, 0, -1):
        table[:, level] -= table[:, level - 1]
    np.maximum(table, _LOG_FLOOR, out=table)
    np.log(table, out=table)
    # row k of the K x (d * 2**bits) table holds entry (j, level) of
    # symbol k at column j * 2**bits + level; one take gathers every
    # observation's columns as a C-contiguous K x N x d array, whose rows
    # are summed over the contiguous last axis in the same order as those
    # of an N x K x d gather, so each sum has the same bits
    columns = np.arange(d) * cfg.n_levels + levels
    return np.take(table.reshape(k, -1), columns, axis=1).sum(axis=2).T


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
