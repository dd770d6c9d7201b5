import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quantmimo import core, training
from quantmimo.core import QuantizerConfig


def _outputs(x, cfg):
    """Quantizer output values of the samples ``x``, as a list."""
    return core.level_values(core.quantize_levels(x, cfg), cfg).tolist()


def _quantize_rows(r, cfg):
    """Output values of complex receive rows quantized without noise."""
    r = np.atleast_2d(np.asarray(r, dtype=complex))
    return core.level_values(
        core.noisy_levels(lambda rows: r[rows], r.shape, 0.0, None, cfg), cfg)


# ---------------------------------------------------------------------------
# scalar quantizer


def test_one_bit_is_sign_quantizer():
    cfg = QuantizerConfig(bits=1, step=2.0)
    # the one decision threshold is 0, and 0 lands in the upper cell: +1
    assert _outputs([0.7, -0.2, 0.0], cfg) == [1.0, -1.0, 1.0]


@pytest.mark.parametrize("bits, step, edge, upper", [
    (1, 0.5, 0.0, 1),
    # -5e-324 / 2 rounds to -0.0, whose floor plus one is level 1
    (1, 2.0, -5e-324, 1),
    (2, 0.5, -0.5, 1),
    # -2**-55 + 0.5 rounds to 0.5
    (2, 0.5, -2.7755575615628914e-17, 2),
    # 0.5 - 2**-54 + 0.5 rounds to 1.0
    (2, 0.5, 0.49999999999999994, 3),
])
def test_quantizer_cell_edges_are_pinned_floats(bits, step, edge, upper):
    # the smallest float of each upper cell, after the quantizer's rounding;
    # a quantizer that compares against edges must compare against these
    cfg = QuantizerConfig(bits=bits, step=step)
    below = np.nextafter(edge, -np.inf)
    assert core.quantize_levels([below, edge], cfg).tolist() == [
        upper - 1, upper]


def test_two_bit_interior_cell():
    cfg = QuantizerConfig(bits=2, step=0.5)
    # floor((0.3 + 0.5) / 0.5) = 1 -> -0.5 + 0.5 + 0.25
    assert _outputs([0.3], cfg) == pytest.approx([0.25], abs=1e-15)


def test_two_bit_saturation():
    cfg = QuantizerConfig(bits=2, step=0.5)
    assert _outputs([10.0, -10.0], cfg) == pytest.approx(
        [0.75, -0.75], abs=1e-15)
    assert _outputs([np.inf, -np.inf], cfg) == pytest.approx([0.75, -0.75])


def test_nan_rejected():
    cfg = QuantizerConfig(bits=2, step=0.5)
    with pytest.raises(ValueError, match="NaN"):
        core.quantize_levels([float("nan")], cfg)


@pytest.mark.parametrize("imag", [False, True])
@pytest.mark.parametrize("sigma2", [0.0, 0.4])
def test_nan_channel_reaches_quantizer_check(imag, sigma2):
    # a NaN in either part of one channel entry
    cfg = QuantizerConfig(bits=2, step=0.5)
    book = core.enumerate_symbols(core.qpsk(), 2)
    h = core.sample_channel(3, 2, np.random.default_rng(1))
    h[1, 0] = complex(0.0, np.nan) if imag else complex(np.nan, 0.0)
    with pytest.raises(ValueError, match="NaN"):
        core.transmit_batch(
            h, book.vectors, sigma2, cfg, np.random.default_rng(2))
    with pytest.raises(ValueError, match="NaN"):
        training.learn_explicit(
            h, sigma2, 4, book, cfg, np.random.default_rng(2))


def test_quantize_levels_leaves_input_unchanged():
    cfg = QuantizerConfig(bits=3, step=0.25)
    x = np.random.default_rng(4).normal(size=(6, 8))
    x[0, 0], x[1, 1] = np.inf, -np.inf
    for view in (x, x[:, ::3], x.T):
        before = view.copy()
        levels = core.quantize_levels(view, cfg)
        assert levels.dtype == cfg.level_dtype and levels.shape == view.shape
        assert view.tobytes() == before.tobytes()
    assert (levels[0, 0], levels[1, 1]) == (cfg.n_levels - 1, 0)
    x[2, 3] = np.nan
    before = x.copy()
    with pytest.raises(ValueError, match="NaN"):
        core.quantize_levels(x, cfg)
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("bits", [1, 2, 3, 9])
def test_quantize_levels_blocks_match_whole_copy(monkeypatch, bits):
    # scratches of 1, 7 and 24 values and of everything: blocks of single
    # values, of parts of a row when a row is longer, and partial last blocks,
    # on thresholds, infinities, a flat input, strided, transposed and
    # broadcast views, a scalar and an empty matrix
    cfg = QuantizerConfig(bits=bits, step=0.25)
    rng = np.random.default_rng(bits)
    x = rng.normal(scale=cfg.n_levels * cfg.step / 2, size=(5, 3, 4))
    x.flat[::7] = cfg.r_low + cfg.step * rng.integers(-2, cfg.n_levels, 9)
    x[0, 0, :2] = np.inf, -np.inf
    inputs = (x, x.ravel(), x[:, ::2], x.transpose(2, 0, 1),
              np.broadcast_to(x[:, :1], x.shape), x[0, 0, 3], x[:0])
    for values in (1, 7, 24, x.size):
        monkeypatch.setattr(core, "_QUANTIZE_VALUES", values)
        for view in inputs:
            got = core.quantize_levels(view, cfg)
            assert got.dtype == cfg.level_dtype and got.shape == np.shape(view)
            assert np.array_equal(got, _int64_quantize_levels(view, cfg))


@pytest.mark.parametrize("bits, dtype", [
    (1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16),
    (24, np.uint32)])
def test_level_dtype_is_narrowest_unsigned(bits, dtype):
    cfg = QuantizerConfig(bits=bits, step=0.5)
    assert cfg.level_dtype == dtype
    levels = core.quantize_levels(np.array([-np.inf, 0.0, np.inf]), cfg)
    assert levels.dtype == dtype
    assert levels.tolist() == [0, 1 << (bits - 1), (1 << bits) - 1]


@pytest.mark.parametrize("bits", [1, 2, 3, 8, 9, 16, 24])
@pytest.mark.parametrize("step", [0.5, 0.3, 1e-3])
def test_level_values_of_narrow_levels_equal_int64_values(bits, step):
    cfg = QuantizerConfig(bits=bits, step=step)
    top = (1 << bits) - 1
    wide = np.unique(np.r_[np.arange(min(top, 600) + 1), top // 2, top])
    narrow = wide.astype(cfg.level_dtype)
    assert narrow[0] == 0 and narrow[-1] == top
    # the form before narrow levels: a signed offset on int64 levels
    want = (wide.astype(np.int64) - (1 << (bits - 1)) + 0.5) * step
    assert core.level_values(narrow, cfg).tobytes() == want.tobytes()
    assert core.level_values(wide, cfg).tobytes() == want.tobytes()
    assert core.level_values(0, cfg) == want[0]


def _float_noisy_components(clean, shape, sigma2, rng):
    """The unchunked float kernel that noisy_levels replaced: every signal in
    stacked real coordinates, drawn as one real and one imaginary block."""
    clean = np.asarray(clean, dtype=complex)
    if sigma2 == 0.0:
        return core.real_components(np.broadcast_to(clean, shape))
    n_r = shape[-1]
    out = np.empty(shape[:-1] + (2 * n_r,))
    draw = np.empty(shape)
    scale = math.sqrt(sigma2 / 2.0)
    for block, part in enumerate((clean.real, clean.imag)):
        rng.standard_normal(out=draw)
        view = out[..., block * n_r:(block + 1) * n_r]
        np.multiply(draw, scale, out=view)
        view += part
    return out


def _int64_quantize_levels(x, cfg):
    cells = np.floor((np.asarray(x, dtype=float) - cfg.r_low) / cfg.step)
    return np.clip(cells + 1.0, 0, cfg.n_levels - 1).astype(np.int64)


@pytest.mark.parametrize("bits", [1, 2, 3, 8])
@pytest.mark.parametrize("step", [0.3, 0.5, 1.0, 2.0, 4.0])
def test_quantizer_edges_equal_int64_oracle(monkeypatch, bits, step):
    # every finite cell edge with one ulp either side, the signed zeros and
    # infinities, the largest floats, and the smallest subnormals: -5e-324,
    # whose quotient rounds to -0.0 at steps 2 and 4, and -1e-323, whose
    # quotient does at step 4. quantize_levels, in one block and in blocks
    # of 7 values, and noise-free noisy_levels give the levels of the
    # unblocked int64 kernel
    cfg = QuantizerConfig(bits=bits, step=step)
    edges = core.cell_edges(cfg)[0][1:]
    tiny = 5e-324
    x = np.concatenate([
        np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf),
        [0.0, -0.0, np.inf, -np.inf, np.finfo(float).max,
         -np.finfo(float).max, tiny, -tiny, 2 * tiny, -2 * tiny, -3 * tiny]])
    n = len(x)
    clean = np.empty((n, 1), dtype=complex)
    clean.real[:, 0], clean.imag[:, 0] = x, x[::-1]
    # the largest floats overflow the quotient to +-inf at steps below 1
    with np.errstate(over="ignore"):
        want = _int64_quantize_levels(x, cfg)
        if bits == 1 and step >= 2.0:
            assert want[[-4, -2, -1]].tolist() == [1, int(step == 4.0), 0]
        for values in (7, n):
            monkeypatch.setattr(core, "_QUANTIZE_VALUES", values)
            assert np.array_equal(core.quantize_levels(x, cfg), want)
            levels = core.noisy_levels(
                lambda rows: clean[rows], clean.shape, 0.0, None, cfg)
            assert np.array_equal(
                levels, np.stack([want, want[::-1]], axis=1))


@pytest.mark.parametrize("bits", [1, 2, 3])
@pytest.mark.parametrize("zero_imag", [False, True])
@pytest.mark.parametrize("sigma2", [0.0, 0.7])
def test_noisy_levels_match_unchunked_float_kernel(
        monkeypatch, bits, zero_imag, sigma2):
    # zero_imag: clean signals whose imaginary parts are signed zeros
    cfg = QuantizerConfig(bits=bits, step=0.5)
    rng = np.random.default_rng(bits)
    for shape, clean_shape in (((5, 3), (5, 3)), ((7, 4, 2), (7, 1, 2)),
                               ((3, 2, 4, 3), (3, 2, 1, 3)), ((1, 6), (6,))):
        imag = rng.normal(size=clean_shape) * (0.0 if zero_imag else 1.0)
        clean = rng.normal(size=clean_shape) + 1j * imag
        want_rng = np.random.default_rng(11)
        want = _int64_quantize_levels(_float_noisy_components(
            clean, shape, sigma2, want_rng), cfg)
        whole = np.broadcast_to(clean, shape)
        # noise budgets of one row and of two rows (chunks of at least two
        # rows, several where the leading axis has four or more), and of all
        # rows at once
        for rows in (1, 2, shape[0]):
            monkeypatch.setattr(
                core, "_NOISE_BYTES", 8 * rows * math.prod(shape[1:]))
            assert core.noise_chunk(shape[0], math.prod(shape[1:])) == (
                -(-shape[0] // max(1, shape[0] // max(2, rows))))
            got_rng = np.random.default_rng(11)
            got = core.noisy_levels(
                lambda r: whole[r], shape, sigma2, got_rng, cfg)
            assert got.dtype == cfg.level_dtype
            assert got.shape == want.shape and np.array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_noisy_levels_rejects_bad_arguments():
    cfg = QuantizerConfig(bits=2, step=0.5)
    with pytest.raises(ValueError, match="generator"):
        core.noisy_levels(lambda rows: 0j, (2, 3), 0.5, None, cfg)
    with pytest.raises(ValueError, match="non-negative"):
        core.noisy_levels(lambda rows: 0j, (2, 3), -1.0, None, cfg)
    with pytest.raises(ValueError, match="leading axis"):
        core.noisy_levels(lambda rows: 0j, (3,), 0.0, None, cfg)
    empty = core.noisy_levels(
        lambda rows: np.zeros((0, 3)), (0, 3), 0.5, np.random.default_rng(0),
        cfg)
    assert empty.shape == (0, 6) and empty.dtype == np.uint8


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_alphabet_closure(bits):
    cfg = QuantizerConfig(bits=bits, step=0.5)
    sweep = np.linspace(-4.0, 4.0, 20001)
    observed = set(core.level_values(core.quantize_levels(sweep, cfg), cfg))
    assert observed == set(cfg.output_values())
    assert len(observed) == 2**bits


@given(
    x=st.floats(min_value=-50, max_value=50),
    y=st.floats(min_value=-50, max_value=50),
    bits=st.integers(min_value=1, max_value=4),
)
def test_monotonicity(x, y, bits):
    cfg = QuantizerConfig(bits=bits, step=0.5)
    low, high = _outputs([min(x, y), max(x, y)], cfg)
    assert low <= high


@given(
    x=st.floats(min_value=-20, max_value=20),
    bits=st.integers(min_value=1, max_value=4),
)
def test_odd_symmetry_off_boundaries(x, bits):
    cfg = QuantizerConfig(bits=bits, step=0.5)
    # exclude decision thresholds, where the cell convention breaks oddness
    frac = (x - cfg.r_low) / cfg.step
    assume(abs(frac - round(frac)) > 1e-6)
    positive, negative = _outputs([x, -x], cfg)
    assert negative == -positive


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_boundary_inputs_pair_to_step(bits):
    # on every finite decision threshold b: Q(b) + Q(-b) == step
    cfg = QuantizerConfig(bits=bits, step=0.5)
    thresholds = cfg.r_low + cfg.step * np.arange(2**bits - 1)
    totals = np.add(_outputs(thresholds, cfg), _outputs(-thresholds, cfg))
    assert totals.tolist() == pytest.approx(
        [cfg.step] * thresholds.size, abs=1e-15)
    assert _outputs([0.0], cfg) == pytest.approx([0.5 * cfg.step], abs=1e-15)


# ---------------------------------------------------------------------------
# vector quantization


def test_vector_matches_worked_example(demo_cfg):
    # the toy channel's outputs for x = (1, 1): [Re, Im] of 1.5 + 1j
    y = _quantize_rows([1.5 + 1j], demo_cfg)
    assert np.array_equal(y, [[1.0, 1.0]])


def test_zero_vector_all_positive():
    cfg = QuantizerConfig(bits=1, step=2.0)
    y = _quantize_rows(np.zeros(3, dtype=complex), cfg)
    assert np.array_equal(y, [[1.0, 1.0, 1.0, 1.0, 1.0, 1.0]])


def test_vector_complex_stacking():
    cfg = QuantizerConfig(bits=2, step=0.5)
    y = _quantize_rows([0.3 + 0.6j], cfg)
    assert np.array_equal(y, [[0.25, 0.75]])


def test_quantizer_config_validation():
    with pytest.raises(ValueError):
        QuantizerConfig(bits=0, step=0.5)
    # from 54 bits float inputs merge cells, from 65 levels have no dtype
    assert QuantizerConfig(bits=32, step=0.5).level_dtype == np.uint32
    for bits in (33, 54, 65):
        with pytest.raises(ValueError, match="at most 32 bits"):
            QuantizerConfig(bits=bits, step=0.5)
    for step in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            QuantizerConfig(bits=2, step=step)
    cfg = QuantizerConfig(bits=3, step=0.25)
    assert cfg.r_low == -0.75


def test_cell_edges_cover_real_line():
    cfg = QuantizerConfig(bits=2, step=0.5)
    lower, upper = core.cell_edges(cfg)
    assert lower[0] == -np.inf and upper[-1] == np.inf
    assert np.array_equal(lower[1:], upper[:-1])
    # every interior sample quantizes into the cell that contains it
    x = np.random.default_rng(0).uniform(-2, 2, 100)
    lvl = core.quantize_levels(x, cfg)
    assert np.all(lower[lvl] <= x) and np.all(x < upper[lvl])


# ---------------------------------------------------------------------------
# constellations and symbol books


def test_bpsk_book_matches_worked_example(demo_book):
    expected = np.array(
        [[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=complex)
    assert np.array_equal(demo_book.vectors, expected)
    assert np.array_equal(demo_book.vectors[3], -demo_book.vectors[0])
    assert np.array_equal(demo_book.vectors[2], -demo_book.vectors[1])


def test_bpsk_single_antenna():
    book = core.enumerate_symbols(core.bpsk(), 1)
    assert np.array_equal(book.vectors, [[1], [-1]])


@pytest.mark.parametrize(
    "c,n_t", [(core.bpsk(), 2), (core.bpsk(), 3), (core.qpsk(), 1), (core.qpsk(), 2)])
def test_book_completeness_and_antipodality(c, n_t):
    book = core.enumerate_symbols(c, n_t)
    assert book.size == c.size**n_t
    produced = {tuple(row) for row in book.vectors}
    expected = {tuple(v) for v in itertools.product(c.points, repeat=n_t)}
    assert produced == expected
    for k in range(book.size):
        assert np.array_equal(book.vectors[book.size - 1 - k], -book.vectors[k])


@pytest.mark.parametrize("c", [core.bpsk(), core.qpsk()], ids=["bpsk", "qpsk"])
@pytest.mark.parametrize("n_t", range(7))
def test_book_matches_lexicographic_product(c, n_t):
    book = core.enumerate_symbols(c, n_t)
    expected = np.array(
        list(itertools.product(c.points, repeat=n_t)), dtype=complex)
    expected = expected.reshape(c.size**n_t, n_t)
    assert book.vectors.tobytes() == expected.tobytes()
    assert book.vectors.shape == expected.shape
    assert book.vectors.flags.c_contiguous and not book.vectors.flags.writeable
    assert np.array_equal(book.vectors[::-1], -book.vectors)


def test_book_build_holds_its_digits_once():
    # the QPSK n_t = 6 book (393 KB) is gathered from C-ordered int64
    # digits (half its size) straight into C order: no Fortran-order gather
    # and contiguous copy, which held 2.5 times the book
    tracemalloc.start()
    try:
        book = core.enumerate_symbols(core.qpsk(), 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * book.vectors.nbytes + 4096


def test_empty_book_for_zero_antennas():
    book = core.enumerate_symbols(core.qpsk(), 0)
    assert book.size == 1 and book.vectors.shape == (1, 0)


def test_constellation_validation():
    with pytest.raises(ValueError, match="power"):
        core.Constellation("bad", (2 + 0j, -2 + 0j))
    with pytest.raises(ValueError, match="mirrored order"):
        core.Constellation("bad", (1 + 0j, 1j))
    # the QPSK points, but the first two swapped: no longer mirrored
    with pytest.raises(ValueError, match="mirrored order"):
        core.Constellation(
            "qpsk-swapped", tuple(np.asarray(core.qpsk().points)[[1, 0, 2, 3]]))


def test_unit_power_invariant():
    for c in (core.bpsk(), core.qpsk()):
        assert abs(np.mean(np.abs(c.as_array()) ** 2) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# channel and noise


def test_channel_sampling_deterministic():
    h1 = core.sample_channel(4, 2, np.random.default_rng(123))
    h2 = core.sample_channel(4, 2, np.random.default_rng(123))
    assert np.array_equal(h1, h2)


def test_channel_moments():
    rng = np.random.default_rng(7)
    h = core.sample_channel(100, 1000, rng)
    assert abs(np.mean(np.abs(h) ** 2) - 1.0) < 0.02
    assert abs(np.var(h.real) - 0.5) < 0.02
    assert abs(np.var(h.imag) - 0.5) < 0.02


def test_snr_conversion():
    assert core.snr_db_to_sigma2(0.0, 2) == 2.0
    assert core.snr_db_to_sigma2(10.0, 2) == pytest.approx(0.2)
    for snr_db in (-math.inf, math.nan):
        with pytest.raises(ValueError, match="SNR must be positive"):
            core.snr_db_to_sigma2(snr_db, 2)
    # 10**308 and n_t / 10**-307 are finite; 10**400 overflows, 10**-400
    # underflows to 0, and 2 / 10**-309 overflows
    assert core.snr_db_to_sigma2(3080.0, 2) == 2e-308
    assert core.snr_db_to_sigma2(-3070.0, 2) == pytest.approx(2e307)
    for snr_db in (math.inf, 4000.0, -4000.0, -3090.0):
        with pytest.raises(ValueError, match="SNR must be positive"):
            core.snr_db_to_sigma2(snr_db, 2)


# ---------------------------------------------------------------------------
# transmit pipeline


def test_noise_free_transmit_matches_worked_example(demo_channel, demo_cfg, demo_book):
    levels = core.transmit_batch(
        demo_channel, demo_book.vectors[2:3], 0.0, demo_cfg)
    assert np.array_equal(core.level_values(levels, demo_cfg), [[1.0, -1.0]])


def test_noise_free_transmit_equals_quantized_product(demo_channel, demo_cfg):
    xs = np.random.default_rng(3).choice([-1.0, 1.0], size=(20, 2))
    levels = core.transmit_batch(demo_channel, xs, 0.0, demo_cfg)
    for x, row in zip(xs.astype(complex), levels):
        # each noiseless receive point quantized on its own
        direct = core.quantize_levels(
            core.real_components(demo_channel @ x), demo_cfg)
        assert np.array_equal(row, direct)


def test_noise_dominated_outputs_are_fair_coin():
    cfg = QuantizerConfig(bits=1, step=2.0)
    h = np.array([[1.0 + 0j]])
    rng = np.random.default_rng(11)
    levels = core.transmit_batch(
        h, np.ones((10_000, 1), dtype=complex), 1e6, cfg, rng)
    freqs = levels.mean(axis=0)
    assert np.all(np.abs(freqs - 0.5) < 0.02)


def test_transmit_dimension_mismatch(demo_channel, demo_cfg):
    with pytest.raises(ValueError, match="mismatch"):
        core.transmit_batch(
            demo_channel, np.ones((1, 3), dtype=complex), 0.0, demo_cfg)
    with pytest.raises(ValueError, match="mismatch"):
        core.transmit_batch(
            demo_channel, np.ones(2, dtype=complex), 0.0, demo_cfg)
    with pytest.raises(ValueError, match="generator"):
        core.transmit_batch(
            demo_channel, np.ones((1, 2), dtype=complex), 1.0, demo_cfg)


def test_transmit_batch_agrees_with_single_noiseless(demo_channel):
    cfg = QuantizerConfig(bits=2, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 2)
    batch = core.transmit_batch(demo_channel, book.vectors, 0.0, cfg)
    singles = [core.transmit_batch(demo_channel, x[None, :], 0.0, cfg)[0]
               for x in book.vectors]
    assert np.array_equal(batch, np.array(singles))


def test_vector_negation_closure_off_boundary():
    # negating the receive signal maps every level to top - level
    cfg = QuantizerConfig(bits=3, step=0.5)
    rng = np.random.default_rng(5)
    r = rng.normal(size=(50, 3)) + 1j * rng.normal(size=(50, 3))
    positive = core.quantize_levels(core.real_components(r), cfg)
    negative = core.quantize_levels(core.real_components(-r), cfg)
    assert np.array_equal(negative, cfg.n_levels - 1 - positive)


def test_noisy_chunk_holds_no_float_quantizer_temporary():
    # one noise chunk of the K = 4096, l_a = 16, n_r = 32 explicit training:
    # 128 symbols' 512 KiB float buffer with the levels, and for each of
    # the real and imaginary halves the quantizer's float scratch (a quarter
    # of the buffer) and the half's narrow levels, but no float copy of the
    # whole buffer (another 512 KiB)
    cfg = QuantizerConfig(bits=2, step=0.5)
    rng = np.random.default_rng(3)
    shape = (128, 16, 32)
    clean = rng.normal(size=(128, 1, 32)) + 1j * rng.normal(size=(128, 1, 32))
    assert core.noise_chunk(128, 16 * 32) == 128
    tracemalloc.start()
    try:
        levels = core.noisy_levels(lambda rows: clean[rows], shape, 0.7, rng, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer = 8 * math.prod(shape)
    scratch = 8 * core._QUANTIZE_VALUES
    assert scratch == buffer // 4
    assert peak <= buffer + levels.nbytes + levels.nbytes // 2 + scratch + 16384


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(0, 2_000), per=st.integers(1, 300),
       least=st.integers(1, 4))
def test_row_blocks_are_near_equal_and_as_few_as_fit(rows, per, least):
    # a budget of ``per`` rows: consecutive blocks covering every row,
    # larger first and at most one row apart, none shorter than ``least``
    # unless there is one block, within the budget unless ``least`` forbids
    # it, and one block fewer would not fit
    blocks = list(core.row_blocks(rows, 8, 8 * per, least))
    sizes = [b.stop - b.start for b in blocks]
    assert blocks[0].start == 0 and blocks[-1].stop == rows
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
    assert sizes[0] == core.block_rows(rows, 8, 8 * per, least)
    assert len(blocks) == 1 or sizes[-1] >= least
    assert sizes[0] <= per or len(blocks) == max(1, rows // least)
    assert len(blocks) == 1 or -(-rows // (len(blocks) - 1)) > per


@pytest.mark.parametrize("n_t, n_r", [(1, 2), (2, 4), (6, 32), (12, 16)])
def test_noise_chunk_products_equal_the_whole_product(n_t, n_r):
    # the noiseless products that noisy_levels forms per chunk for
    # transmit_batch (rows of n_r values) and explicit training (rows of
    # l_a n_r values), on C-ordered symbol rows and on the transposed
    # pilots of the least-squares estimate, at B, B + 1 and B + 2 rows for
    # a B-row chunk, where a naive split leaves one- and two-row blocks, and
    # with rows of 65 536 values, one of which fills a chunk: bit for bit
    # the rows of one whole product
    rng = np.random.default_rng(n_t * n_r)
    h = core.sample_channel(n_r, n_t, rng)
    points = core.qpsk().as_array()
    for row_values in (n_r, 16 * n_r, 1 << 16):
        b = core.noise_chunk(10**9, row_values)
        assert b == max(2, core._NOISE_BYTES // (8 * row_values))
        for n in (1, 2, 3, b, b + 1, b + 2):
            pilots = points[rng.integers(0, 4, size=(n_t, n))]
            for x in (np.ascontiguousarray(pilots.T), pilots.T):
                whole = x @ h.T
                blocked = np.concatenate([
                    x[rows] @ h.T for rows in core.row_blocks(
                        n, 8 * row_values, core._NOISE_BYTES)])
                assert blocked.tobytes() == whole.tobytes()


def test_noise_free_levels_allocate_no_noise_buffer():
    # the K = 1 024, n_r = 8 codebook of a bound search: the levels, the
    # quantizer's float scratch (here one block of all 1 024 rows), its
    # narrow levels and some bookkeeping, but no float noise buffer
    # (another 64 KiB) beside them
    cfg = QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 10)
    h = core.sample_channel(8, 10, np.random.default_rng(1))
    clean = book.vectors @ h.T
    tracemalloc.start()
    try:
        levels = core.noisy_levels(
            lambda rows: clean[rows], clean.shape, 0.0, None, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = clean.real.nbytes
    assert peak <= levels.nbytes + block + block // 8 + 16384


def test_long_rows_share_the_bounded_scratch():
    # the imaginary parts of a K1 = 4, K2 = 1024, n_r = 64 block of sums, a
    # strided view with rows of 65 536 values: the levels and a scratch of
    # at most _QUANTIZE_VALUES float64 values, not one whole row (512 KiB)
    cfg = QuantizerConfig(bits=2, step=0.5)
    rng = np.random.default_rng(8)
    sums = rng.normal(size=(4, 1024, 64)) + 1j * rng.normal(size=(4, 1024, 64))
    tracemalloc.start()
    try:
        levels = core.quantize_levels(sums.imag, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(levels, _int64_quantize_levels(sums.imag, cfg))
    assert peak <= levels.nbytes + 8 * core._QUANTIZE_VALUES + 16384


# ---------------------------------------------------------------------------
# distinct rows


def test_distinct_rows_first_seen_order_and_reconstruction():
    levels = np.array([[1, 0], [0, 1], [1, 0], [3, 3], [0, 1], [1, 0]])
    first, inverse = core.distinct_rows(levels)
    assert first.tolist() == [0, 1, 3]
    assert inverse.tolist() == [0, 1, 0, 2, 1, 0]
    assert np.array_equal(levels[first][inverse], levels)


def test_distinct_rows_all_distinct_is_identity():
    levels = np.random.default_rng(1).permutation(
        np.indices((4, 4)).reshape(2, -1).T)
    first, inverse = core.distinct_rows(levels)
    assert np.array_equal(first, np.arange(16))
    assert np.array_equal(inverse, np.arange(16))


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_distinct_rows_dtypes_and_non_contiguous_input(dtype):
    rng = np.random.default_rng(2)
    wide = rng.integers(0, 3, size=(200, 10)).astype(dtype)
    levels = wide[::2, 1::3]  # strided in both axes
    assert not levels.flags.c_contiguous
    first, inverse = core.distinct_rows(levels)
    assert np.array_equal(levels[first][inverse], levels)
    # first-seen order: the first occurrences appear in increasing position
    assert np.all(np.diff(first) > 0)
    expected = {tuple(row) for row in levels.tolist()}
    assert len(first) == len(expected)
    assert {tuple(row) for row in levels[first].tolist()} == expected
    # each row's id is the rank of its first occurrence
    seen = {}
    ids = [seen.setdefault(tuple(row), len(seen)) for row in levels.tolist()]
    assert inverse.tolist() == ids


def test_distinct_rows_codes_never_widen_the_levels():
    # a 20 000 x 8 one-bit batch takes the code table; its codes are summed
    # in intp, so no float64 (or intp) copy of all 160 000 levels is made
    levels = np.random.default_rng(0).integers(0, 2, size=(20_000, 8))
    levels = levels.astype(np.uint8)
    tracemalloc.start()
    try:
        core.distinct_rows(levels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * levels.size


def test_distinct_rows_of_no_rows():
    first, inverse = core.distinct_rows(np.zeros((0, 4), dtype=np.int64))
    assert first.shape == inverse.shape == (0,)
    assert first.dtype == inverse.dtype == np.intp


@settings(max_examples=300, deadline=None)
@given(
    dtype=st.sampled_from([np.uint8, np.int8, np.int16, np.int64]),
    radix=st.integers(1, 4),
    d=st.integers(1, 7),
    low=st.integers(-100, 100),
    rows_per_code=st.floats(0.0, 2.0),
    strided=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
# 4**7 codes exceed the 1 638 rows and the 4 096-slot table: the sort side
@example(dtype=np.uint8, radix=4, d=7, low=0, rows_per_code=0.1,
         strided=False, seed=0)
def test_distinct_rows_code_table_equals_byte_sort(
        dtype, radix, d, low, rows_per_code, strided, seed):
    # entries in [low, low + radix), with fewer or more rows than the
    # radix**d possible ones, so both sides of distinct_rows' switch and
    # zero rows occur
    info = np.iinfo(dtype)
    low = min(max(low, info.min), info.max - radix + 1)
    n = int(rows_per_code * radix ** d)
    rng = np.random.default_rng(seed)
    wide = rng.integers(low, low + radix, size=(n, 2 * d)).astype(dtype)
    levels = wide[:, ::2] if strided else wide[:, :d].copy()
    rows = np.ascontiguousarray(levels)
    by_sort = core._distinct_by_sort(rows)
    by_code = core._distinct_by_code(rows, low, radix)
    for got in (by_code, core.distinct_rows(levels)):
        for a, b in zip(got, by_sort):
            assert a.dtype == b.dtype == np.intp
            assert np.array_equal(a, b)
    assert np.array_equal(levels[by_sort[0]][by_sort[1]], levels)
