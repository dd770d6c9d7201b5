"""Signal-chain primitives: constellations, symbol books, the uniform B-bit
ADC quantizer, Rayleigh channel sampling, and the transmit-and-quantize
pipeline.

All randomness flows through explicitly passed ``numpy.random.Generator``
instances, so every operation here is pure given its inputs and safe to call
concurrently with independent generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_POWER_TOL = 1e-12

# Largest noise chunk (float64 values) that noisy_levels draws at once; the
# K = 4096, l_a = 16, n_r = 32 explicit training draws 128 symbols per chunk.
_NOISE_BYTES = 1 << 19

# Largest float64 scratch (values) that quantize_levels copies its input into
# at once: a quarter of a noise chunk.
_QUANTIZE_VALUES = 1 << 14


@dataclass(frozen=True)
class Constellation:
    """Set of unit-average-power modulation symbols.

    Points must be listed in mirrored order, ``points[M-1-j] == -points[j]``,
    so that symbol books built on top inherit the antipodal index pairing.
    Use :func:`bpsk`, :func:`qpsk`, or :meth:`from_points` to get a valid
    ordering automatically.
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
                "constellation is not origin-symmetric in mirrored order; "
                "build it with Constellation.from_points"
            )

    @classmethod
    def from_points(cls, name: str, points) -> "Constellation":
        """Build a constellation from an unordered origin-symmetric point set."""
        remaining = [complex(p) for p in points]
        front: list[complex] = []
        while remaining:
            p = remaining.pop(0)
            match = next(
                (q for q in remaining if abs(q + p) <= 1e-12), None)
            if match is None:
                raise ValueError(f"no negated partner for point {p!r}")
            remaining.remove(match)
            front.append(p)
        ordered = front + [-p for p in reversed(front)]
        return cls(name, tuple(ordered))

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
    """Uniform B-bit scalar quantizer applied per real ADC sample.

    ``real_mode`` restricts the receiver observable to the real parts of the
    antenna signals (an observable of length ``n_r`` instead of ``2 * n_r``);
    it exists for real-coefficient toy channels and is off by default.
    """

    bits: int
    step: float
    real_mode: bool = False

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("quantizer needs at least one bit")
        if not self.step > 0.0:
            raise ValueError("quantizer step must be positive")

    @property
    def n_levels(self) -> int:
        return 1 << self.bits

    @property
    def r_low(self) -> float:
        return (-(1 << (self.bits - 1)) + 1) * self.step

    @property
    def r_up(self) -> float:
        return ((1 << (self.bits - 1)) - 1) * self.step

    @property
    def level_dtype(self) -> np.dtype:
        """Narrowest unsigned integer dtype holding every level index."""
        return np.min_scalar_type(self.n_levels - 1)

    def output_values(self) -> np.ndarray:
        """All 2**bits producible output values, ascending."""
        offsets = np.arange(self.n_levels) - (1 << (self.bits - 1)) + 0.5
        return offsets * self.step

    def observed_dim(self, n_r: int) -> int:
        return n_r if self.real_mode else 2 * n_r


def quantize_levels(x, cfg: QuantizerConfig) -> np.ndarray:
    """Vectorized quantizer returning level indices in [0, 2**bits).

    The levels have ``cfg.level_dtype``, the narrowest unsigned integer type
    that holds them (uint8 up to 8 bits). Saturates below the lowest and
    at/above the highest decision threshold; inputs exactly on a threshold
    land in the upper cell (so 0 maps to the smallest positive output). The
    input is never modified.

    The input is copied into one float64 scratch of :func:`quantize_scratch`
    values, a block of leading-axis rows at a time, and quantized there, so
    that scratch is the only float temporary, whatever the input's size. A
    row longer than the scratch is split along its own leading axis the same
    way. Every step is elementwise, so the levels do not depend on the block
    size.
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
    """Quantize ``rows`` into ``out`` through ``scratch``, as many
    leading-axis rows at a time as it holds, each longer row on its own."""
    row_values = math.prod(rows.shape[1:])
    if row_values > len(scratch):
        for row, dest in zip(rows, out):
            _quantize_rows(row, dest, scratch, cfg)
        return
    step = max(1, len(scratch) // max(1, row_values))
    for start in range(0, len(rows), step):
        block = rows[start:start + step]
        cells = scratch[:block.size].reshape(block.shape)
        np.subtract(block, cfg.r_low, out=cells)
        cells /= cfg.step
        np.floor(cells, out=cells)
        cells += 1.0
        np.clip(cells, 0, cfg.n_levels - 1, out=cells)
        out[start:start + step] = cells


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


@dataclass(frozen=True)
class QuantizedVector:
    """One ADC output snapshot as a hashable tuple of integer levels.

    Only the benchmark's tracer (``perfbench/tracer.py``) reads these.
    """

    levels: tuple[int, ...]
    bits: int
    step: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(int(v) for v in self.levels))
        top = 1 << self.bits
        if any(v < 0 or v >= top for v in self.levels):
            raise ValueError(f"levels out of range for {self.bits}-bit quantizer")


def real_components(r, real_mode: bool = False) -> np.ndarray:
    """Stack complex antenna samples as [Re, Im] along the last axis.

    Works on one vector or on any stack of them; in real mode only the real
    parts are kept.
    """
    r = np.asarray(r, dtype=complex)
    if real_mode:
        return r.real.copy()
    return np.concatenate([r.real, r.imag], axis=-1)


def vectors_from_levels(levels, cfg: QuantizerConfig) -> list[QuantizedVector]:
    """Wrap rows of an integer level matrix as QuantizedVector objects.

    Only the benchmark's tracer reads these, through ``EmpiricalModel.counts``.
    """
    levels = np.asarray(levels)
    return [
        QuantizedVector(tuple(int(v) for v in row), cfg.bits, cfg.step)
        for row in np.atleast_2d(levels)
    ]


def distinct_rows(levels) -> tuple[np.ndarray, np.ndarray]:
    """First index of each distinct row of an integer matrix, and row ids.

    Returns ``(first, inverse)``: ``first`` lists the index of the first
    occurrence of each distinct row, in first-seen order, and ``inverse``
    gives every row's position in ``first``, so ``levels[first][inverse]``
    rebuilds ``levels``. A matrix whose rows are all distinct gets
    ``first == arange(len(levels))``.

    With r = max - min + 1 values per entry and d columns there are r**d
    possible rows. When that is at most the row count (a one-bit data batch
    has r = 2 and d = 2 n_r) the rows are found in a code-indexed table
    (:func:`_distinct_by_code`), else by sorting their bytes
    (:func:`_distinct_by_sort`). Both give the same output.
    """
    rows = np.ascontiguousarray(levels)
    n, d = rows.shape
    lo, hi = (int(rows.min()), int(rows.max())) if rows.size else (0, 0)
    radix = hi - lo + 1
    # each partial sum of the intp code sum is below max|v| * d * n
    if radix ** d <= n and max(-lo, hi) * d * n < 2 ** 63:
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


def level_sqdist(levels: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Exact integer squared distance between every row of ``levels`` and
    every row of ``other``, two level matrices; one row per row of
    ``levels``. On one-bit levels this is the Hamming distance.

    The distances are expanded as |a|^2 - 2 a.t + |t|^2 in float64, so the
    cross term is one BLAS product. With b <= 8 bits and d <= 64 each
    product is an integer below 2**16 and each term and partial sum one
    below 2**24 in magnitude, so every float operation is exact in any
    summation order and the cast back to int64 is too; no difference array
    is built.
    """
    a = np.asarray(levels, dtype=float)
    t = np.asarray(other, dtype=float)
    d2 = a @ t.T
    d2 *= -2.0
    d2 += np.einsum("nd,nd->n", a, a)[:, None]
    d2 += np.einsum("sd,sd->s", t, t)
    return d2.astype(np.int64)


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
        # slowest; the copy keeps the book C-contiguous for the matmuls
        digits = np.indices((c.size,) * n_t).reshape(n_t, -1).T
        vectors = np.ascontiguousarray(c.as_array()[digits])
    vectors.setflags(write=False)
    return SymbolBook(constellation=c, n_t=n_t, vectors=vectors)


def snr_to_sigma2(snr_linear: float, n_t: int) -> float:
    """Noise variance for a linear SNR with unit-power symbols: n_t / snr."""
    if not snr_linear > 0.0:
        raise ValueError("SNR must be positive")
    return n_t / snr_linear


def snr_db_to_sigma2(snr_db: float, n_t: int) -> float:
    return snr_to_sigma2(10.0 ** (snr_db / 10.0), n_t)


def sample_channel(n_r: int, n_t: int, rng: np.random.Generator) -> np.ndarray:
    """Draw an n_r x n_t channel with i.i.d. CN(0, 1) entries."""
    if n_r < 1 or n_t < 1:
        raise ValueError("channel dimensions must be positive")
    return (
        rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))
    ) / math.sqrt(2.0)


def noise_chunk(row_values: int) -> int:
    """Leading-axis rows per :func:`noisy_levels` chunk: as many rows of
    ``row_values`` float64 values as ``_NOISE_BYTES`` holds, and at least
    one."""
    return max(1, _NOISE_BYTES // (8 * max(1, row_values)))


def noisy_levels(
    clean: np.ndarray,
    shape: tuple[int, ...],
    sigma2: float,
    rng: np.random.Generator | None,
    cfg: QuantizerConfig,
) -> np.ndarray:
    """Quantized levels of ``clean`` plus i.i.d. CN(0, sigma2) noise.

    ``shape`` is the shape of the complex noise (at least two axes, the last
    n_r) and the complex ``clean`` broadcasts against it. The result has
    shape ``shape[:-1] + (d,)`` and ``cfg.level_dtype``, holding the levels
    of [Re, Im] (d = 2 n_r), or of Re only in real mode (d = n_r).

    The noise is the real ``standard_normal`` block of ``shape``, then the
    imaginary one, both scaled by sqrt(sigma2 / 2); real mode still draws the
    imaginary block, so the generator advances the same way in both modes.
    Each block is drawn in chunks of :func:`noise_chunk` leading-axis rows
    into one scratch buffer, where the clean part is added and the chunk is
    quantized; consecutive fills of a generator give the stream of one fill,
    so the levels do not depend on the chunk size. :func:`quantize_levels`
    reads the buffer through its own bounded float scratch, so a chunk adds
    no float copy of the buffer, only the chunk's narrow levels. sigma2 == 0
    draws nothing, needs no generator and allocates no buffer: it quantizes
    views of ``clean`` the same way.
    """
    clean = np.asarray(clean, dtype=complex)
    shape = tuple(shape)
    if len(shape) < 2:
        raise ValueError("noise shape needs a leading axis and n_r")
    if sigma2 < 0.0:
        raise ValueError("noise variance must be non-negative")
    if sigma2 != 0.0 and rng is None:
        raise ValueError("a random generator is required for sigma2 > 0")
    n_r, rows = shape[-1], shape[0]
    levels = np.empty(
        shape[:-1] + (cfg.observed_dim(n_r),), dtype=cfg.level_dtype)
    # each [Re | Im] half of a level row as one n_r-level item, so a chunk's
    # levels are placed by whole halves, not level by level
    halves = levels.view(np.dtype((np.void, n_r * levels.itemsize)))
    chunk = noise_chunk(math.prod(shape[1:]))
    if sigma2:
        buffer = np.empty((min(chunk, rows),) + shape[1:])
    scale = math.sqrt(sigma2 / 2.0)
    for block, part in enumerate((clean.real, clean.imag)):
        kept = not (block and cfg.real_mode)
        if not (kept or sigma2):
            break
        part = np.broadcast_to(part, shape)
        for start in range(0, rows, chunk):
            stop = min(start + chunk, rows)
            signal = part[start:stop]
            if sigma2:
                signal = buffer[:stop - start]
                rng.standard_normal(out=signal)
                if not kept:
                    continue
                signal *= scale
                signal += part[start:stop]
            halves[start:stop, ..., block] = (
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
    reproducible per (generator state, batch).
    """
    h = np.asarray(h, dtype=complex)
    x_rows = np.asarray(x_rows, dtype=complex)
    if h.ndim != 2 or x_rows.ndim != 2 or x_rows.shape[1] != h.shape[1]:
        raise ValueError(
            f"dimension mismatch: channel {h.shape}, symbol rows {x_rows.shape}")
    clean = x_rows @ h.T
    return noisy_levels(clean, clean.shape, sigma2, rng, cfg)
