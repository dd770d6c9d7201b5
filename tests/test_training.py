import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from quantmimo import core, detection, training
from quantmimo.core import QuantizerConfig


def _complex_noise(shape, sigma2, rng):
    """i.i.d. CN(0, sigma2) samples as the complex signal path drew them:
    the reference for the real-coordinate noise kernel."""
    if sigma2 == 0.0:
        return np.zeros(shape, dtype=complex)
    scale = math.sqrt(sigma2 / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _counts(model):
    """Per symbol, a Counter of the model's level rows as integer tuples."""
    return [Counter(map(tuple, rows)) for rows in model.levels.tolist()]


def _pmf(model, k):
    return {y: c / model.samples_per_symbol
            for y, c in _counts(model)[k].items()}


def _negated(y, cfg):
    return tuple(cfg.n_levels - 1 - v for v in y)


def _quantized(r, cfg):
    """Level tuple of one complex receive vector quantized on its own."""
    return tuple(core.quantize_levels(core.real_components(r), cfg).tolist())


# ---------------------------------------------------------------------------
# pilot schedules


def test_schedule_bpsk_two_antennas_single_repetition(demo_book):
    pilots = training.build_implicit_pilots(demo_book, 1)
    assert np.array_equal(pilots, demo_book.vectors[:2])


def test_schedule_length_grows_with_repetitions(demo_book):
    assert training.build_implicit_pilots(demo_book, 5).shape == (10, 2)


def test_schedule_qpsk_two_antennas():
    book = core.enumerate_symbols(core.qpsk(), 2)
    pilots = training.build_implicit_pilots(book, 5)
    assert pilots.shape == (40, 2)
    # block i holds only vector i
    for i in range(8):
        block = pilots[i * 5:(i + 1) * 5]
        assert np.all(block == book.vectors[i])


def test_schedule_rejects_bad_inputs(demo_book):
    with pytest.raises(ValueError, match="repetitions"):
        training.build_implicit_pilots(demo_book, 0)
    odd_book = core.SymbolBook(
        constellation=core.bpsk(), n_t=1,
        vectors=np.array([[1.0]], dtype=complex))
    with pytest.raises(ValueError, match="even"):
        training.build_implicit_pilots(odd_book, 1)


# ---------------------------------------------------------------------------
# implicit training


def test_implicit_noiseless_worked_example(demo_channel, demo_cfg, demo_book):
    pilots = training.build_implicit_pilots(demo_book, 1)
    obs = core.transmit_batch(demo_channel, pilots, 0.0, demo_cfg)
    model = training.learn_implicit(obs, demo_book, 1, demo_cfg)
    # the toy channel's two outputs are [Re, Im] of one complex antenna
    y11 = _quantized(np.array([1.0 + 1.0j]), demo_cfg)
    ym11 = _quantized(np.array([-1.0 + 1.0j]), demo_cfg)
    y1m1 = _quantized(np.array([1.0 - 1.0j]), demo_cfg)
    assert _pmf(model, 0) == {y11: 1.0}
    assert _pmf(model, 1) == {ym11: 1.0}
    # symbol 2 is the mirror of symbol 1: the 0-based book has x2 = -x1
    assert _pmf(model, 2) == {y1m1: 1.0}
    assert _pmf(model, 3) == {_negated(y11, demo_cfg): 1.0}


def test_implicit_counting():
    book = core.enumerate_symbols(core.bpsk(), 1)
    cfg = QuantizerConfig(bits=1, step=2.0)
    levels = np.array([(1, 1), (1, 1), (1, 1), (1, 0)], dtype=np.uint8)
    model = training.learn_implicit(levels, book, 4, cfg)
    assert _pmf(model, 0) == {(1, 1): 0.75, (1, 0): 0.25}
    assert _pmf(model, 1) == {(0, 0): 0.75, (0, 1): 0.25}


def test_implicit_negation_symmetry_with_noise():
    rng = np.random.default_rng(42)
    cfg = QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.qpsk(), 2)
    h = core.sample_channel(3, 2, rng)
    pilots = training.build_implicit_pilots(book, 7)
    obs = core.transmit_batch(h, pilots, 0.8, cfg, rng)
    model = training.learn_implicit(obs, book, 7, cfg)
    counts = _counts(model)
    for k in range(book.size):
        mirror = book.size - 1 - k
        for y, c in counts[k].items():
            assert counts[mirror][_negated(y, cfg)] == c


@pytest.mark.parametrize("bits, exact", [(23, True), (24, False)])
def test_support_needs_exact_level_distances(bits, exact):
    # n_r = 32 (d = 64) levels: at b = 24 core.sqdist rounds, so eMLD and
    # MMD would rank wrong distances; the support refuses to be read
    model = training.EmpiricalModel(
        levels=np.zeros((2, 1, 64), dtype=np.uint32),
        cfg=QuantizerConfig(bits=bits, step=0.5))
    if exact:
        assert model.support_arrays[0].shape == (1, 64)
    else:
        with pytest.raises(ValueError, match="not exact"):
            model.support_arrays


@pytest.mark.parametrize("shape", [(8, 2), (2, 1, 1, 2), (0, 3, 2), (4, 0, 2)])
def test_model_rejects_levels_that_are_not_k_by_l_by_d(shape, demo_cfg):
    with pytest.raises(ValueError, match="K x L x d"):
        training.EmpiricalModel(
            levels=np.zeros(shape, dtype=np.uint8), cfg=demo_cfg)


def test_implicit_length_mismatch(demo_book, demo_cfg):
    with pytest.raises(ValueError, match="observations"):
        training.learn_implicit(
            np.zeros((0, 2), dtype=np.uint8), demo_book, 1, demo_cfg)


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=40))
def test_pmf_normalization_and_mirroring_for_arbitrary_blocks(block_levels):
    # one pilot block of arbitrary single-antenna observations: counts sum
    # to L exactly and the mirrored symbol sees the negated support
    book = core.enumerate_symbols(core.bpsk(), 1)
    reps = len(block_levels)
    cfg = QuantizerConfig(bits=2, step=0.5)
    obs = np.array(block_levels, dtype=np.uint8)[:, None]
    model = training.learn_implicit(obs, book, reps, cfg)
    counts = _counts(model)
    for k in range(2):
        assert sum(counts[k].values()) == reps
        assert abs(sum(_pmf(model, k).values()) - 1.0) <= 1e-12
    for y, c in counts[0].items():
        assert counts[1][_negated(y, cfg)] == c


def test_pmf_normalization_exact():
    rng = np.random.default_rng(9)
    cfg = QuantizerConfig(bits=2, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 2)
    pilots = training.build_implicit_pilots(book, 25)
    h = core.sample_channel(2, 2, rng)
    obs = core.transmit_batch(h, pilots, 1.0, cfg, rng)
    model = training.learn_implicit(obs, book, 25, cfg)
    counts = _counts(model)
    levels, count_matrix = model.support_arrays
    for k in range(book.size):
        assert sum(counts[k].values()) == 25
        assert abs(sum(_pmf(model, k).values()) - 1.0) <= 1e-12
        # the support arrays hold the same per-symbol counts
        support = count_matrix[:, k] > 0
        assert dict(zip(map(tuple, levels[support].tolist()),
                        count_matrix[support, k].tolist())) == counts[k]


# ---------------------------------------------------------------------------
# explicit training


def test_explicit_noiseless_degenerate(demo_channel, demo_cfg, demo_book):
    model = training.learn_explicit(
        demo_channel, 0.0, 1, demo_book, demo_cfg)
    for k in range(demo_book.size):
        expected = _quantized(demo_channel @ demo_book.vectors[k], demo_cfg)
        assert _pmf(model, k) == {expected: 1.0}


def test_explicit_deterministic_given_seed(demo_book):
    cfg = QuantizerConfig(bits=1, step=0.5)
    h = core.sample_channel(3, 2, np.random.default_rng(1))
    m1 = training.learn_explicit(
        h, 0.5, 50, demo_book, cfg, np.random.default_rng(77))
    m2 = training.learn_explicit(
        h, 0.5, 50, demo_book, cfg, np.random.default_rng(77))
    assert np.array_equal(m1.levels, m2.levels)


def test_explicit_matches_one_bit_flip_model():
    # with a perfect channel estimate and one-bit ADCs the output components
    # are independent coin flips with probability Phi(sqrt(2) g / sigma)
    rng = np.random.default_rng(2024)
    cfg = QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 2)
    h = core.sample_channel(2, 2, rng)
    sigma2 = 0.5
    model = training.learn_explicit(h, sigma2, 100_000, book, cfg, rng)
    scale = np.sqrt(2.0 / sigma2)
    for k in (0, 1):
        g = core.real_components(h @ book.vectors[k])
        p_plus = norm.cdf(scale * g)
        for y, prob in _pmf(model, k).items():
            expected = np.prod(np.where(np.array(y) == 1, p_plus, 1.0 - p_plus))
            assert abs(prob - expected) < 0.02


def test_explicit_rejects_bad_inputs(demo_book):
    cfg = QuantizerConfig(bits=1, step=0.5)
    h = np.zeros((2, 3), dtype=complex)
    with pytest.raises(ValueError, match="mismatch"):
        training.learn_explicit(h, 0.0, 1, demo_book, cfg)
    with pytest.raises(ValueError, match="artificial_count"):
        training.learn_explicit(np.zeros((2, 2)), 0.0, 0, demo_book, cfg)


# ---------------------------------------------------------------------------
# implicit and explicit routes agree


def test_implicit_explicit_total_variation():
    rng = np.random.default_rng(55)
    cfg = QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 2)
    h = core.sample_channel(2, 2, rng)
    sigma2 = core.snr_db_to_sigma2(10.0, 2)
    samples = 10_000
    pilots = training.build_implicit_pilots(book, samples)
    obs = core.transmit_batch(h, pilots, sigma2, cfg, rng)
    implicit = training.learn_implicit(obs, book, samples, cfg)
    explicit = training.learn_explicit(h, sigma2, samples, book, cfg, rng)
    for k in range(book.size):
        pmf_a, pmf_b = _pmf(implicit, k), _pmf(explicit, k)
        distance = 0.5 * sum(abs(pmf_a.get(y, 0.0) - pmf_b.get(y, 0.0))
                             for y in set(pmf_a) | set(pmf_b))
        assert distance <= 0.05


# ---------------------------------------------------------------------------
# the array model against a dict-built oracle


def _oracle_support_arrays(counts):
    """Distinct level tuples in first-seen order over the per-symbol dicts."""
    trained = list(dict.fromkeys(y for per_symbol in counts for y in per_symbol))
    position = {y: i for i, y in enumerate(trained)}
    count_matrix = np.zeros((len(trained), len(counts)), dtype=np.float64)
    for k, per_symbol in enumerate(counts):
        for y, c in per_symbol.items():
            count_matrix[position[y], k] = c
    levels = np.array(trained, dtype=np.float64)
    return levels, count_matrix


def _oracle_centroids(counts, samples, cfg):
    rows = []
    for per_symbol in counts:
        acc = None
        for y, c in per_symbol.items():
            term = c * core.level_values(np.array(y), cfg)
            acc = term if acc is None else acc + term
        rows.append(acc / samples)
    return np.array(rows)


def _assert_matches_oracle(model, counts, samples):
    assert _counts(model) == counts
    for got, want in zip(model.support_arrays, _oracle_support_arrays(counts)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    centers = detection.centroids(model).centers
    want = _oracle_centroids(counts, samples, model.cfg)
    assert centers.tobytes() == want.tobytes()


_DYADIC_STEPS = st.sampled_from([0.25, 0.5, 1.0, 2.0])


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(1, 3), step=_DYADIC_STEPS, n_t=st.integers(1, 3),
    dim=st.integers(1, 4), reps=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_implicit_array_model_matches_dict_oracle(bits, step, n_t, dim, reps, seed):
    cfg = QuantizerConfig(bits=bits, step=step)
    book = core.enumerate_symbols(core.bpsk(), n_t)
    half = book.size // 2
    rng = np.random.default_rng(seed)
    # a narrow level range makes repeated vectors common
    low = rng.integers(0, cfg.n_levels)
    block = rng.integers(low, min(low + 2, cfg.n_levels), size=(half * reps, dim))
    model = training.learn_implicit(block, book, reps, cfg)
    rows = list(map(tuple, block.tolist()))
    counts = [dict(Counter(rows[k * reps:(k + 1) * reps])) for k in range(half)]
    counts += [{_negated(y, cfg): c for y, c in counts[half - 1 - k].items()}
               for k in range(half)]
    _assert_matches_oracle(model, counts, reps)


@settings(max_examples=40, deadline=None)
@given(
    bits=st.integers(1, 3), step=_DYADIC_STEPS, n_t=st.integers(1, 2),
    n_r=st.integers(1, 3), samples=st.integers(1, 9),
    sigma2=st.sampled_from([0.0, 0.1, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_explicit_array_model_matches_dict_oracle(
        bits, step, n_t, n_r, samples, sigma2, seed):
    cfg = QuantizerConfig(bits=bits, step=step)
    book = core.enumerate_symbols(core.qpsk(), n_t)
    h = core.sample_channel(n_r, n_t, np.random.default_rng(seed))
    model = training.learn_explicit(
        h, sigma2, samples, book, cfg, np.random.default_rng(seed + 1))
    # the same draws, counted per symbol into dicts
    noise = _complex_noise(
        (book.size, samples, n_r), sigma2, np.random.default_rng(seed + 1))
    r = (book.vectors @ h.T)[:, None, :] + noise
    levels = core.quantize_levels(core.real_components(r), cfg)
    counts = [dict(Counter(map(tuple, levels[k].tolist())))
              for k in range(book.size)]
    _assert_matches_oracle(model, counts, samples)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(1, 1), (3, 4), (2, 5, 3)]),
    sigma2=st.sampled_from([0.0, 0.1, 2.5]), bits=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1))
def test_noisy_levels_equal_complex_path(shape, sigma2, bits, seed):
    rng = np.random.default_rng(seed)
    cfg = QuantizerConfig(bits=bits, step=0.5)
    # a clean signal that broadcasts along the second-to-last axis
    clean_shape = shape[:-2] + (1, shape[-1])
    clean = rng.normal(size=clean_shape) + 1j * rng.normal(size=clean_shape)
    kernel, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    whole = np.broadcast_to(clean, shape)
    got = core.noisy_levels(lambda rows: whole[rows], shape, sigma2, kernel, cfg)
    want = core.quantize_levels(core.real_components(
        clean + _complex_noise(shape, sigma2, oracle)), cfg)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert kernel.bit_generator.state == oracle.bit_generator.state


def test_explicit_training_keeps_only_narrow_levels():
    # the K = 4096, l_a = 16, n_r = 32 full search: 4 MiB of uint8 levels,
    # where float signals, a float temporary and int64 levels took 98 MiB,
    # and one noise chunk of 128 symbols: its 512 KiB float buffer, its
    # levels, the 128 x 32 complex noiseless points of its rows and the
    # quantizer's 16 384-value scratch, but not the whole 4096 x 32
    # complex product (2 MiB)
    cfg = QuantizerConfig(bits=2, step=0.5)
    book = core.enumerate_symbols(core.qpsk(), 6)
    rng = np.random.default_rng(8)
    h = core.sample_channel(32, 6, rng)
    tracemalloc.start()
    try:
        model = training.learn_explicit(h, 0.6, 16, book, cfg, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.levels.dtype == np.uint8
    assert model.levels.shape == (4096, 16, 64)
    chunk = 128 * 16 * 64
    assert peak <= (model.levels.nbytes + 8 * chunk // 2 + chunk
                    + 16 * 128 * 32 + 8 * 16_384 + 16384)


def test_implicit_training_keeps_the_level_dtype():
    cfg = QuantizerConfig(bits=3, step=0.5)
    book = core.enumerate_symbols(core.qpsk(), 2)
    h = core.sample_channel(3, 2, np.random.default_rng(2))
    pilots = training.build_implicit_pilots(book, 4)
    levels = core.transmit_batch(h, pilots, 0.4, cfg, np.random.default_rng(3))
    assert levels.dtype == np.uint8
    model = training.learn_implicit(levels, book, 4, cfg)
    assert model.levels.dtype == np.uint8
    assert np.array_equal(model.levels[:8].reshape(levels.shape), levels)
    wide = training.learn_implicit(levels.astype(np.int64), book, 4, cfg)
    assert np.array_equal(model.levels, wide.levels)
    assert np.array_equal(
        detection.centroids(model).centers, detection.centroids(wide).centers)
