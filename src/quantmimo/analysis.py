"""Closed-form error characterization for one-bit receivers.

The noiseless quantized outputs of all candidate symbol vectors form a
nonlinear binary code; its minimum Hamming distance and the smallest
pre-quantizer component magnitude drive the symbol-vector-error behavior.
This module computes that geometry, the resulting high-SNR error upper
bound, and the distribution of the minimum distance over Rayleigh channels
for BPSK signalling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    QuantizerConfig, SymbolBook, normal_cdf, real_components, sqdist,
    transmit_batch)

# beyond this many ADC samples the binomial tail terms are evaluated in
# log space to dodge float underflow
_EXACT_BINOMIAL_LIMIT = 64


@dataclass(frozen=True, eq=False)
class GeometrySummary:
    """Code geometry of a fixed channel: d_min and g_min."""

    d_min: int
    g_min: float

    @property
    def half_flips(self) -> int:
        """Flip budget D = floor((d_min + 1) / 2) before an error is possible."""
        return (self.d_min + 1) // 2


def build_codebook(
    h: np.ndarray, book: SymbolBook, cfg: QuantizerConfig
) -> np.ndarray:
    """Noiseless outputs of every candidate symbol vector, one-bit configs
    only: the K x d level matrix of one noise-free ``transmit_batch``."""
    if cfg.bits != 1:
        raise ValueError("codebook analysis requires a one-bit quantizer")
    return transmit_batch(h, book.vectors, 0.0, cfg)


def compute_dmin(codebook: np.ndarray) -> int:
    """Minimum Hamming distance between two rows of a one-bit codebook
    level matrix, the smallest off-diagonal ``core.sqdist``; 0 means
    channel ambiguity."""
    size = len(codebook)
    if size < 2:
        raise ValueError("d_min needs at least two codewords")
    d = sqdist(codebook, codebook)
    # the diagonal is pushed above every distance, in place
    np.fill_diagonal(d, np.inf)
    return int(d.min())


def compute_gmin(h: np.ndarray, book: SymbolBook) -> float:
    """Smallest absolute real/imaginary component over all noiseless outputs."""
    clean = book.vectors @ np.asarray(h, dtype=complex).T
    return float(np.abs(real_components(clean)).min())


def geometry(h: np.ndarray, book: SymbolBook, cfg: QuantizerConfig) -> GeometrySummary:
    return GeometrySummary(
        d_min=compute_dmin(build_codebook(h, book, cfg)),
        g_min=compute_gmin(h, book),
    )


def flip_probability(g: float, snr: float, n_t: int) -> float:
    """Probability that noise flips the sign of a component of magnitude g."""
    if not snr > 0.0:
        raise ValueError("SNR must be positive")
    return normal_cdf(-math.sqrt(2.0 * snr * g * g / n_t))


def svep_upper_bound(
    geom: GeometrySummary, snr: float, n_t: int, n_r: int
) -> float:
    """High-SNR upper bound on the symbol-vector-error probability of MCD.

    Valid for one-bit receivers whose centroids coincide with the noiseless
    codewords (the high-SNR training regime). The bound can exceed 1 and is
    returned as-is; with d_min == 0 it degenerates to the constant 2**(2 n_r),
    reflecting an error floor from channel ambiguity.

    For channels with a flip budget d = ``geom.half_flips`` of one,
    snr * g_min**2 / n_t stays far below 1 at moderate SNR, so the bound
    sits near its ceiling c / 2**d (c counts the patterns of at least d
    flips among the 2 n_r outputs):
    averaged over such 2x2 channels it stays above 1 from 0 to 20 dB
    (7.4 -> 4.2 at seed 42), and the bound/simulation ratio there does not
    measure tightness. Its decay rate in ln(snr), -d * snr * g_min**2 / n_t,
    approaches the simulated rate -d * (snr * g_min**2 / n_t + 1/2) from
    below.
    """
    if not snr > 0.0:
        raise ValueError("SNR must be positive")
    d = geom.half_flips
    c = sum(math.comb(2 * n_r, j) for j in range(d, 2 * n_r + 1))
    return (c / 2.0**d) * math.exp(-d * snr * geom.g_min**2 / n_t)


def sign_match_probability(n_t: int, delta: int) -> float:
    """Probability that two noiseless components keep the same sign.

    The two components come from BPSK symbol vectors differing in ``delta``
    antennas under an i.i.d. complex Gaussian channel; the closed form is
    (2 / pi) * arctan(sqrt((n_t - delta) / delta)).
    """
    if not 1 <= delta <= n_t:
        raise ValueError("delta must lie in [1, n_t]")
    return (2.0 / math.pi) * math.atan(math.sqrt((n_t - delta) / delta))


def _binomial_band(n_samples: int, lo: int, hi: int, p_eq: float) -> float:
    """P(lo <= Binomial(n_samples, 1 - p_eq) <= hi)."""
    if hi < lo:
        return 0.0
    ks = np.arange(lo, hi + 1)
    if n_samples <= _EXACT_BINOMIAL_LIMIT:
        combs = np.array([math.comb(n_samples, int(k)) for k in ks], dtype=float)
        return float(np.sum(
            combs * (1.0 - p_eq) ** ks * p_eq ** (n_samples - ks)))
    log_all = math.lgamma(n_samples + 1)
    log_combs = np.array(
        [log_all - math.lgamma(k + 1) - math.lgamma(n_samples - k + 1)
         for k in range(lo, hi + 1)])
    log_terms = (
        log_combs + ks * math.log1p(-p_eq) + (n_samples - ks) * math.log(p_eq))
    # summed as multiples of the largest term, which is 1, so the sum does
    # not underflow
    top = float(log_terms.max())
    return math.exp(top) * math.fsum(np.exp(log_terms - top).tolist())


def dmin_ccdf_approx(n_t: int, n_r: int, n: int) -> float:
    """Approximate P(d_min >= n) over Rayleigh channels, BPSK signalling.

    Treats the pairwise sign-agreement events of the first-half symbol pairs
    as independent; exact for two transmit antennas. First-half symbols i
    and j (``core.enumerate_symbols`` order) differ in the antennas of the
    set bits of i ^ j. With n_t >= 2, x agrees with exactly one of x' and
    -x' in every output, so values of n beyond n_r are impossible and
    return 0; with n_t = 1 the only pair, x and -x, is 2 n_r apart.
    """
    if n < 0 or n_t < 1:
        raise ValueError("n must be non-negative and n_t positive")
    if n == 0:
        return 1.0
    if n > (2 * n_r if n_t == 1 else n_r):
        return 0.0
    # the band of each pair distance delta in [1, n_t) once, multiplied in
    # pair order
    bands = [0.0] + [
        _binomial_band(
            2 * n_r, n, 2 * n_r - n, sign_match_probability(n_t, delta))
        for delta in range(1, n_t)]
    half = 1 << (n_t - 1)
    result = 1.0
    for i in range(half):
        for j in range(i + 1, half):
            result *= bands[(i ^ j).bit_count()]
    return result


def dmin_ccdf_exact_2tx(n_r: int, n: int) -> float:
    """Exact P(d_min >= n) for two BPSK transmit antennas."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > n_r:
        return 0.0
    # int / int true division is correctly rounded: the float of the exact
    # rational, with no fractions (and decimal) import
    return sum(math.comb(2 * n_r, k)
               for k in range(n, 2 * n_r - n + 1)) / 4**n_r


def dmin_ccdf_lower_bound(n_r: int, c: float) -> float:
    """Lower bound on P(d_min >= c * n_r) for two BPSK transmit antennas.

    Valid for 0 <= c < 1; tends to 1 as n_r grows, showing the minimum
    distance scales linearly with the number of receive antennas.
    """
    if not 0.0 <= c < 1.0:
        raise ValueError("c must lie in [0, 1)")
    return 1.0 - math.exp(-((c - 1.0) ** 2 / (2.0 - c)) * n_r)
