"""Signal-chain primitives: constellations, symbol books, the uniform B-bit
ADC quantizer, Rayleigh channel sampling, and the transmit-and-quantize
pipeline.

All randomness flows through explicitly passed ``numpy.random.Generator``
instances, so every operation here is pure given its inputs and safe to call
concurrently with independent generators.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

_POWER_TOL = 1e-12

# Largest noise chunk (float64 values) that noisy_levels draws at once; the
# K = 4096, l_a = 16, n_r = 32 explicit training draws 128 symbols per chunk.
_NOISE_BYTES = 1 << 19

# Largest row block (bytes) that a blocked kernel forms at once: a block of
# nearest-centre scores, of SIC projections or of SIC stage-two candidates.
_BLOCK_BYTES = 1 << 20

# Fewest rows of a block that a product across rows is formed on, so that
# the blocks give the whole product's bits. With OpenBLAS 0.3.31 a one-row
# block is a matrix-vector product, whose sums run in another order, and at
# d >= 32 a block of at most about 1 200 scores (two rows of 256 centres)
# takes a small-matrix kernel with other sums too. A split's near-equal
# blocks hold about half a budget or more (65 536 scores of _BLOCK_BYTES),
# or at least two rows of over 32 768 centres, so they take neither.
_PRODUCT_ROWS = 2

# Largest float64 scratch (values) that quantize_levels copies its input into
# at once: a quarter of a noise chunk.
_QUANTIZE_VALUES = 1 << 14

# Code-table slots (intp, 32 KiB) that distinct_rows uses whatever the row
# count: a table this small costs less than sorting even a few rows.
_CODE_SLOTS = 1 << 12

# Most ADC bits: from 54 bits float64 inputs merge cells, and from 65 the
# levels have no integer dtype
_MAX_BITS = 32

# M_SQRT1_2, the double nearest 1/sqrt(2); 1 / math.sqrt(2) is one ulp off
_SQRT1_2 = 0.7071067811865476


def normal_cdf(x: float) -> float:
    """Standard normal CDF of one float, in the structure of cephes' ``ndtr``.

    With t = x / sqrt(2) it is 0.5 + 0.5 erf(t) for |t| < 1, and otherwise
    y = 0.5 erfc(|t|), returned as 1 - y for t > 0 so the lower tail keeps
    its relative precision. Exact at 0 (0.5) and at -inf and +inf (0 and 1).
    Over x in [-37.5, 9] it is within 6e-14 relative of
    ``scipy.special.ndtr``, though not bit-equal to it.
    """
    t = x * _SQRT1_2
    if abs(t) < 1.0:
        return 0.5 + 0.5 * math.erf(t)
    y = 0.5 * math.erfc(abs(t))
    return 1.0 - y if t > 0.0 else y


@dataclass(frozen=True)
class Constellation:
    """Set of unit-average-power modulation symbols.

    Points must be listed in mirrored order, ``points[M-1-j] == -points[j]``,
    so that symbol books built on top inherit the antipodal index pairing;
    :func:`bpsk` and :func:`qpsk` list theirs that way.
    """

    name: str
    points: tuple[complex, ...]

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=complex)
        if pts.size == 0:
            raise ValueError("constellation needs at least one point")
        power = float(np.mean(np.abs(pts) ** 2))
        if abs(power - 1.0) > _POWER_TOL:
            raise ValueError(f"average symbol power is {power!r}, expected 1")
        if not np.allclose(pts[::-1], -pts, rtol=0.0, atol=1e-15):
            raise ValueError(
                "constellation is not origin-symmetric in mirrored order")

    @property
    def size(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=complex)


def bpsk() -> Constellation:
    return Constellation("bpsk", (1 + 0j, -1 + 0j))


def qpsk() -> Constellation:
    s = 1.0 / math.sqrt(2.0)
    return Constellation(
        "qpsk", (s + s * 1j, s - s * 1j, -s + s * 1j, -s - s * 1j))


_BUILTIN = {"bpsk": bpsk, "qpsk": qpsk}


def constellation(name: str) -> Constellation:
    """Look up a built-in constellation by name (``bpsk`` or ``qpsk``)."""
    try:
        return _BUILTIN[name.lower()]()
    except KeyError:
        raise ValueError(f"unknown constellation {name!r}") from None


@dataclass(frozen=True)
class QuantizerConfig:
    """Uniform B-bit scalar quantizer applied per real ADC sample."""

    bits: int
    step: float

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("quantizer needs at least one bit")
        if self.bits > _MAX_BITS:
            raise ValueError(f"quantizer supports at most {_MAX_BITS} bits")
        if not 0.0 < self.step < math.inf:
            raise ValueError("quantizer step must be positive and finite")

    @property
    def n_levels(self) -> int:
        return 1 << self.bits

    @property
    def r_low(self) -> float:
        return (-(1 << (self.bits - 1)) + 1) * self.step

    @property
    def level_dtype(self) -> np.dtype:
        """Narrowest unsigned integer dtype holding every level index."""
        return np.min_scalar_type(self.n_levels - 1)

    def output_values(self) -> np.ndarray:
        """All 2**bits producible output values, ascending."""
        offsets = np.arange(self.n_levels) - (1 << (self.bits - 1)) + 0.5
        return offsets * self.step


def quantize_levels(x, cfg: QuantizerConfig) -> np.ndarray:
    """Vectorized quantizer returning level indices in [0, 2**bits).

    The levels have ``cfg.level_dtype``, the narrowest unsigned integer type
    that holds them (uint8 up to 8 bits). Saturates below the lowest and
    at/above the highest decision threshold; inputs exactly on a threshold
    land in the upper cell (so 0 maps to the smallest positive output). The
    input is never modified, and a NaN anywhere in it raises ``ValueError``.

    The input is copied into one float64 scratch of :func:`quantize_scratch`
    values, a block of leading-axis rows at a time, and quantized there, so
    that scratch is the only float temporary, whatever the input's size. A
    row longer than the scratch is split along its own leading axis the same
    way. Every step is elementwise, so the levels do not depend on the block
    size.

    The level is ``floor((x - r_low) / step) + 1`` clipped to
    [0, 2**bits - 1]. At one bit r_low is 0, so the level is 1 exactly
    where the quotient ``x / step`` is >= 0: the quotient, not x, is
    compared, so a subnormal x whose quotient rounds to -0.0 (possible at
    step > 1) stays in the upper cell.
    """
    x = np.asarray(x, dtype=float)
    # NaN propagates through min, so one reduction finds it
    if x.size and np.isnan(x.min()):
        raise ValueError("cannot quantize NaN samples")
    levels = np.empty(x.shape, dtype=cfg.level_dtype)
    scratch = np.empty(quantize_scratch(x.size))
    _quantize_rows(*np.atleast_1d(x, levels), scratch, cfg)
    return levels


def quantize_scratch(values: int) -> int:
    """Float64 values of the :func:`quantize_levels` scratch for an input of
    ``values`` values: all of them, up to ``_QUANTIZE_VALUES``."""
    return min(values, _QUANTIZE_VALUES)


def _quantize_rows(rows, out, scratch, cfg: QuantizerConfig) -> None:
    """Quantize ``rows`` into ``out`` through ``scratch``, in the
    :func:`row_blocks` of leading-axis rows it holds, longer rows alone."""
    row_values = math.prod(rows.shape[1:])
    if row_values > len(scratch):
        for row, dest in zip(rows, out):
            _quantize_rows(row, dest, scratch, cfg)
        return
    for part in row_blocks(len(rows), 8 * row_values, 8 * len(scratch),
                           least=1):
        block, dest = rows[part], out[part]
        cells = scratch[:block.size].reshape(block.shape)
        if cfg.bits == 1:
            # r_low is 0 and x - 0.0 is x; uint8 levels take bools as 0 or 1
            np.divide(block, cfg.step, out=cells)
            np.greater_equal(cells, 0.0, out=dest.view(np.bool_))
            continue
        np.subtract(block, cfg.r_low, out=cells)
        cells /= cfg.step
        np.floor(cells, out=cells)
        cells += 1.0
        np.clip(cells, 0, cfg.n_levels - 1, out=cells)
        dest[...] = cells


def level_values(levels, cfg: QuantizerConfig) -> np.ndarray:
    """Map level indices to output values ``(level + 0.5 - 2**(B-1)) * step``.

    The offset is one float, so unsigned levels never wrap; every value is
    exact before the final multiplication, which scales them in place, so
    they are the only float array.
    """
    values = np.asarray(levels) + (0.5 - (1 << (cfg.bits - 1)))
    values *= cfg.step
    return values


def cell_edges(cfg: QuantizerConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lower/upper input-cell edges per level; end cells extend to +-inf."""
    edges = cfg.r_low + cfg.step * (np.arange(cfg.n_levels + 1) - 1.0)
    edges[0] = -np.inf
    edges[-1] = np.inf
    return edges[:-1], edges[1:]


def real_components(r) -> np.ndarray:
    """Stack complex antenna samples as [Re, Im] along the last axis, for one
    vector or for any stack of them."""
    r = np.asarray(r, dtype=complex)
    return np.concatenate([r.real, r.imag], axis=-1)


def vectors_from_levels(levels) -> list[tuple[int, ...]]:
    """Rows of an integer level matrix as tuples of ints; only the benchmark's
    tracer reads them, through ``EmpiricalModel.counts``."""
    return [tuple(row) for row in np.atleast_2d(levels).tolist()]


def distinct_rows(levels) -> tuple[np.ndarray, np.ndarray]:
    """First index of each distinct row of an integer matrix, and row ids.

    Returns ``(first, inverse)``: ``first`` lists the index of the first
    occurrence of each distinct row, in first-seen order, and ``inverse``
    gives every row's position in ``first``, so ``levels[first][inverse]``
    rebuilds ``levels``. A matrix whose rows are all distinct gets
    ``first == arange(len(levels))``.

    With r = max - min + 1 values per entry and d columns there are r**d
    possible rows. When that is at most the row count (a one-bit data batch
    has r = 2 and d = 2 n_r) or at most ``_CODE_SLOTS`` (the trained rows
    of a one-bit n_r = 4 model: r**d = 256) the rows are found in a
    code-indexed table (:func:`_distinct_by_code`), else by sorting their
    bytes (:func:`_distinct_by_sort`). Both give the same output.
    """
    rows = np.ascontiguousarray(levels)
    n, d = rows.shape
    lo, hi = (int(rows.min()), int(rows.max())) if rows.size else (0, 0)
    radix = hi - lo + 1
    slots = max(n, _CODE_SLOTS)
    # each partial sum of the intp code sum is below max|v| * d * slots
    if radix ** d <= slots and max(-lo, hi) * d * slots < 2 ** 63:
        return _distinct_by_code(rows, lo, radix)
    return _distinct_by_sort(rows)


def _distinct_by_code(
    rows: np.ndarray, lo: int, radix: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`distinct_rows` of a matrix whose entries lie in
    [lo, lo + radix): each row is one base-``radix`` integer, and the first
    row of each code is its minimum row index in a table of radix**d slots.
    O(rows + radix**d), with no sort. The codes are summed in intp, so the
    levels are never widened as a whole."""
    n, d = rows.shape
    weights = radix ** np.arange(d - 1, -1, -1, dtype=np.intp)
    codes = np.einsum("nd,d->n", rows, weights)
    codes -= lo * int(weights.sum())
    table = np.full(radix ** d, n, dtype=np.intp)
    np.minimum.at(table, codes, np.arange(n))
    first = np.sort(table[table < n])
    table[codes[first]] = np.arange(first.size)
    return first, table[codes]


def _distinct_by_sort(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`distinct_rows` of a C-contiguous matrix by ``np.unique`` on a
    void view of its rows."""
    packed = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(
        packed.ravel(), return_index=True, return_inverse=True)
    # np.unique sorts by bytes; re-rank the distinct rows by first sight
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse]


def sqdist(a, t) -> np.ndarray:
    """Squared distances in float64 between every row of ``a`` and every
    row of ``t``, one row per row of ``a``, expanded as
    (-2 a.t + |a|^2) + |t|^2: one BLAS product and no difference array.

    The -2 scales a copy of the row operand ``a`` before the product, not
    the distances after it: scaling by a power of two is exact, so the
    bits are the same, barring underflow.

    On values the terms round as floats do. On b-bit level rows of d
    columns every term and partial sum is an integer of magnitude at most
    2 d (2**b - 1)**2, so while that is at most 2**53 (:func:`sqdist_exact`)
    the distances are exact integers in any summation order: at one bit,
    Hamming distances.
    """
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float)
    d2 = (-2.0 * a) @ t.T
    d2 += np.einsum("nd,nd->n", a, a)[:, None]
    d2 += np.einsum("sd,sd->s", t, t)
    return d2


def sqdist_exact(bits: int, d: int) -> bool:
    """Whether :func:`sqdist` gives exact integers on ``bits``-bit level
    rows of ``d`` columns: 2 d (2**bits - 1)**2 <= 2**53."""
    return 2 * d * ((1 << bits) - 1) ** 2 <= 1 << 53


@dataclass(frozen=True, eq=False)
class SymbolBook:
    """All K = M**n_t candidate symbol vectors with antipodal index pairing.

    Row k of ``vectors`` is the k-th candidate (0-based); the construction in
    :func:`enumerate_symbols` guarantees ``vectors[K-1-k] == -vectors[k]``.
    """

    constellation: Constellation
    n_t: int
    vectors: np.ndarray

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


def enumerate_symbols(c: Constellation, n_t: int) -> SymbolBook:
    """Enumerate the full Cartesian symbol-vector book for n_t antennas.

    The lexicographic enumeration over the mirrored constellation ordering
    makes the antipodal pairing hold by construction. ``n_t == 0`` is allowed
    and yields the single empty vector (useful for degenerate subvector
    splits).
    """
    if n_t < 0:
        raise ValueError("n_t must be non-negative")
    if n_t == 0:
        vectors = np.zeros((1, 0), dtype=complex)
    else:
        # C order over the (M,)*n_t grid: the first antenna's digit varies
        # slowest; C-ordered digits gather a C-contiguous book, which the
        # matmuls read, so the book itself is never copied
        digits = np.indices((c.size,) * n_t).reshape(n_t, -1).T.copy()
        vectors = c.as_array()[digits]
    vectors.setflags(write=False)
    return SymbolBook(constellation=c, n_t=n_t, vectors=vectors)


def snr_db_to_sigma2(snr_db: float, n_t: int) -> float:
    """Noise variance for an SNR in dB with unit-power symbols: n_t / snr.

    Raises ``ValueError`` unless the SNR and the variance are both positive
    and finite: 10**(snr_db / 10) overflows a float above about 3 082 dB,
    and n_t / snr does below about -3 080 dB.
    """
    try:
        snr = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        snr = math.inf
    if not (0.0 < snr < math.inf and n_t / snr < math.inf):
        raise ValueError(f"SNR must be positive and finite, not {snr_db!r} dB")
    return n_t / snr


def sample_channel(n_r: int, n_t: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an n_r x n_t channel with i.i.d. CN(0, 1) entries."""
    if n_r < 1 or n_t < 1:
        raise ValueError("channel dimensions must be positive")
    return (
        rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))
    ) / math.sqrt(2.0)


def _block_count(rows: int, row_bytes: int, budget: int, least: int) -> int:
    per = max(1, budget // max(1, row_bytes))
    return max(1, min(-(-rows // per), rows // least))


def block_rows(
    rows: int, row_bytes: int, budget: int = _BLOCK_BYTES,
    least: int = _PRODUCT_ROWS,
) -> int:
    """Rows of the largest block, the first, of :func:`row_blocks`."""
    return -(-rows // _block_count(rows, row_bytes, budget, least))


def largest_block(
    rows: int, row_bytes: int, budget: int = _BLOCK_BYTES,
    least: int = _PRODUCT_ROWS,
) -> int:
    """Rows of the largest block of :func:`row_blocks` over every row count
    up to ``rows``. Fewer rows can make a larger block: 141 rows of a
    170-row budget are one block, 200 rows two of 100. A split never makes
    a block of more than the budget's rows or 2 ``least`` - 1, whichever is
    more, and every count up to that is one block."""
    per = max(1, budget // max(1, row_bytes))
    return min(rows, max(per, 2 * least - 1))


def row_blocks(
    rows: int, row_bytes: int, budget: int = _BLOCK_BYTES,
    least: int = _PRODUCT_ROWS,
) -> Iterator[slice]:
    """Consecutive slices that split ``rows`` rows of ``row_bytes`` bytes
    each into as few blocks as keep each within ``budget`` bytes, but none
    of fewer than ``least`` rows; a single block may be shorter. ``least``
    is ``_PRODUCT_ROWS`` where a product across a block's rows is formed.
    The blocks are near-equal, larger ones first, so no short remainder is
    split off: B + 1 rows of a B-row budget give two blocks of about B / 2
    rows, not B and 1.
    """
    count = _block_count(rows, row_bytes, budget, least)
    size, extra = divmod(rows, count)
    start = 0
    for i in range(count):
        stop = start + size + (i < extra)
        yield slice(start, stop)
        start = stop


def noise_chunk(rows: int, row_values: int) -> int:
    """Rows of the largest :func:`noisy_levels` chunk of ``rows``
    leading-axis rows of ``row_values`` float64 values each: the
    :func:`row_blocks` of ``_NOISE_BYTES``."""
    return block_rows(rows, 8 * row_values, _NOISE_BYTES)


def noisy_levels(
    clean: Callable[[slice], np.ndarray],
    shape: tuple[int, ...],
    sigma2: float,
    rng: np.random.Generator | None,
    cfg: QuantizerConfig,
) -> np.ndarray:
    """Quantized levels of a noiseless signal plus i.i.d. CN(0, sigma2) noise.

    ``shape`` is the shape of the complex noise (at least two axes, the last
    n_r). ``clean(rows)`` gives the complex noiseless part of the
    leading-axis slice ``rows``, broadcasting against that slice of the
    noise, so a noiseless product is formed one chunk at a time and never
    whole. It is called once per chunk, and again only when another chunk
    came between: a draw of one chunk (every data batch of the shipped
    configs) forms its noiseless part once for both the real and the
    imaginary pass, and a longer draw forms each chunk's in each part. A
    chunk's noiseless part is held while the chunk is quantized and let go
    before the next one is formed. The result has shape
    ``shape[:-1] + (2 n_r,)`` and ``cfg.level_dtype``, holding the levels
    of [Re, Im].

    The noise is the real ``standard_normal`` block of ``shape``, then the
    imaginary one, both scaled by sqrt(sigma2 / 2). Each block is drawn in
    the near-equal :func:`row_blocks` of ``_NOISE_BYTES`` (the largest is
    :func:`noise_chunk` rows) into one scratch buffer, where the clean part
    is added and the chunk is quantized; consecutive fills of a generator
    give the stream of one fill, so the levels do not depend on the chunk
    size. :func:`quantize_levels` reads the buffer through its own bounded
    float scratch, so a chunk adds no float copy of the buffer, only the
    chunk's narrow levels, whose n_r levels per row are copied into their
    half of the level matrix as one item. sigma2 == 0 draws nothing, needs no
    generator and allocates no buffer: it quantizes the clean chunks the
    same way.
    """
    shape = tuple(shape)
    if len(shape) < 2:
        raise ValueError("noise shape needs a leading axis and n_r")
    if sigma2 < 0.0:
        raise ValueError("noise variance must be non-negative")
    if sigma2 != 0.0 and rng is None:
        raise ValueError("a random generator is required for sigma2 > 0")
    n_r, rows = shape[-1], shape[0]
    levels = np.empty(shape[:-1] + (2 * n_r,), dtype=cfg.level_dtype)
    # each [Re | Im] half of a level row as one n_r-level item, so a chunk's
    # levels are placed by whole halves, not level by level
    halves = levels.view(np.dtype((np.void, n_r * levels.itemsize)))
    row_values = math.prod(shape[1:])
    chunks = list(row_blocks(rows, 8 * row_values, _NOISE_BYTES))
    if sigma2:
        buffer = np.empty((noise_chunk(rows, row_values),) + shape[1:])
    scale = math.sqrt(sigma2 / 2.0)
    sums = formed = None
    for block, part in enumerate(("real", "imag")):
        for chunk in chunks:
            n = chunk.stop - chunk.start
            if sigma2:
                signal = buffer[:n]
                rng.standard_normal(out=signal)
                signal *= scale
            # formed after the draw: formed before it, the K = 4096 explicit
            # training took about 15 % longer (2-core x86-64, OpenBLAS)
            if chunk != formed:
                sums = None  # the last chunk's goes before the next is formed
                sums, formed = clean(chunk), chunk
            if sigma2:
                signal += getattr(sums, part)
            else:
                signal = np.broadcast_to(getattr(sums, part), (n,) + shape[1:])
            halves[chunk, ..., block] = (
                quantize_levels(signal, cfg).view(halves.dtype)[..., 0])
    return levels


def transmit_batch(
    h: np.ndarray,
    x_rows: np.ndarray,
    sigma2: float,
    cfg: QuantizerConfig,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Quantized levels for many symbol vectors at once.

    ``x_rows`` has one symbol vector per row; the returned level matrix
    (``cfg.level_dtype``) has one observation per row. Noise for the whole
    batch comes from one :func:`noisy_levels` call, so results are
    reproducible per (generator state, batch); the noiseless product
    ``x_rows @ h.T`` is formed one noise chunk of rows at a time, which
    gives the whole product's bits (see ``_PRODUCT_ROWS``).
    """
    h = np.asarray(h, dtype=complex)
    x_rows = np.asarray(x_rows, dtype=complex)
    if h.ndim != 2 or x_rows.ndim != 2 or x_rows.shape[1] != h.shape[1]:
        raise ValueError(
            f"dimension mismatch: channel {h.shape}, symbol rows {x_rows.shape}")
    return noisy_levels(
        lambda rows: x_rows[rows] @ h.T, (len(x_rows), h.shape[0]), sigma2,
        rng, cfg)
