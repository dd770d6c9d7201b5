import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from quantmimo import analysis, core, harness
from quantmimo.core import QuantizerConfig


# ---------------------------------------------------------------------------
# codebook construction


def test_codebook_worked_example(demo_channel, demo_cfg, demo_book):
    cb = analysis.build_codebook(demo_channel, demo_book, demo_cfg)
    assert cb.shape == (demo_book.size, 2) and cb.dtype == demo_cfg.level_dtype
    values = {tuple(row) for row in core.level_values(cb, demo_cfg)}
    assert values == {(1, 1), (-1, 1), (1, -1), (-1, -1)}


def test_codebook_antipodal_symbols_give_antipodal_words(demo_cfg, demo_book):
    rng = np.random.default_rng(3)
    h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    cb = analysis.build_codebook(h, demo_book, demo_cfg)
    for k in range(demo_book.size):
        assert np.array_equal(cb[demo_book.size - 1 - k], 1 - cb[k])


def test_codebook_allows_duplicates_under_ambiguity(demo_book, demo_cfg):
    h = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    cb = analysis.build_codebook(h, demo_book, demo_cfg)
    assert np.array_equal(cb[0], cb[1])
    assert analysis.compute_dmin(cb) == 0


def test_codebook_rejects_multibit():
    cfg = QuantizerConfig(bits=2, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 1)
    with pytest.raises(ValueError, match="one-bit"):
        analysis.build_codebook(np.eye(1, dtype=complex), book, cfg)


@settings(max_examples=80, deadline=None)
@given(n_t=st.integers(1, 4), n_r=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_codebook_equals_per_vector_quantization(n_t, n_r, seed):
    # oracle: quantize each noiseless receive point on its own and stack
    cfg = QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), n_t)
    h = core.sample_channel(n_r, n_t, np.random.default_rng(seed))
    want = np.array(
        [core.quantize_levels(core.real_components(h @ x), cfg)
         for x in book.vectors], dtype=cfg.level_dtype)
    got = analysis.build_codebook(h, book, cfg)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert analysis.compute_dmin(got) == analysis.compute_dmin(want)


# ---------------------------------------------------------------------------
# d_min and g_min


def test_dmin_worked_example(demo_channel, demo_cfg, demo_book):
    cb = analysis.build_codebook(demo_channel, demo_book, demo_cfg)
    # frozen oracle: exhaustive pairwise count over the six pairs
    oracle = min(
        sum(a != b for a, b in zip(w1, w2))
        for w1, w2 in itertools.combinations(cb.tolist(), 2))
    assert oracle == 1
    assert analysis.compute_dmin(cb) == 1


def test_dmin_antipodal_pair_is_full_length():
    cb = np.array([(1, 1, 0, 1), (0, 0, 1, 0)], dtype=np.uint8)
    assert analysis.compute_dmin(cb) == 4


def test_dmin_requires_two_codewords():
    cb = np.array([(1, 1)], dtype=np.uint8)
    with pytest.raises(ValueError, match="two codewords"):
        analysis.compute_dmin(cb)


def test_dmin_scaling_invariance(demo_book, demo_cfg):
    rng = np.random.default_rng(10)
    for _ in range(10):
        h = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        cfg = QuantizerConfig(bits=1, step=0.5)
        base = analysis.compute_dmin(analysis.build_codebook(h, demo_book, cfg))
        scaled = analysis.compute_dmin(
            analysis.build_codebook(3.7 * h, demo_book, cfg))
        assert base == scaled


def test_gmin_worked_example(demo_channel, demo_book):
    g = analysis.compute_gmin(demo_channel, demo_book)
    assert g == pytest.approx(0.5, abs=1e-15)


def test_gmin_scales_linearly(demo_channel, demo_book):
    base = analysis.compute_gmin(demo_channel, demo_book)
    assert analysis.compute_gmin(
        2.5 * demo_channel, demo_book) == pytest.approx(2.5 * base)


def test_gmin_zero_component(demo_book):
    # the real toy channel [[1, -1], [1, 0]]: x = (1, 1) gives Re 0
    h = np.array([[1.0 + 1.0j, -1.0]])
    assert analysis.compute_gmin(h, demo_book) == 0.0


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_t=st.integers(1, 4), n_r=st.integers(1, 4),
       bits=st.integers(1, 3))
def test_real_toy_channel_embeds_as_complex_channel(data, n_t, n_r, bits):
    # BPSK symbols are real, so a real 2 n_r x n_t channel G is the complex
    # n_r x n_t channel G[:n_r] + 1j G[n_r:]: its [Re, Im] outputs are G x.
    # Entries on a 1/16 grid (zeros and cell edges included) keep every sum
    # exact, in any order.
    entries = st.integers(-64, 64).map(lambda i: i / 16)
    g = np.array(data.draw(st.lists(
        entries, min_size=2 * n_r * n_t, max_size=2 * n_r * n_t))).reshape(
            2 * n_r, n_t)
    h = g[:n_r] + 1j * g[n_r:]
    book = core.enumerate_symbols(core.bpsk(), n_t)
    x = book.vectors.real
    cfg = QuantizerConfig(bits=bits, step=0.5)
    levels = core.transmit_batch(h, book.vectors, 0.0, cfg)
    assert np.array_equal(levels, core.quantize_levels(x @ g.T, cfg))
    assert analysis.compute_gmin(h, book) == np.abs(x @ g.T).min()


def test_geometry_summary(demo_channel, demo_cfg, demo_book):
    geom = analysis.geometry(demo_channel, demo_book, demo_cfg)
    assert geom.d_min == 1 and geom.half_flips == 1
    assert geom.g_min == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# flip probability and the error bound


def test_flip_probability_equals_gaussian_tail_exactly():
    # bit for bit the package's normal CDF at -x, x = sqrt(2 snr g^2 / n_t),
    # and within 1e-12 relative of scipy's Gaussian tail
    for g in (0.0, 1e-3, 0.25, 1.0, 3.0, 10.0, 40.0):
        for snr in (1e-3, 1.0, 10.0, 1e4):
            for n_t in (1, 2, 4):
                x = math.sqrt(2.0 * snr * g * g / n_t)
                got = analysis.flip_probability(g, snr, n_t)
                assert got == core.normal_cdf(-x)
                assert got == pytest.approx(float(norm.sf(x)), rel=1e-12)


def test_flip_probability_values():
    assert analysis.flip_probability(0.0, 10.0, 2) == 0.5
    assert analysis.flip_probability(1.0, 2.0, 2) == pytest.approx(
        0.0786496, abs=1e-7)
    assert analysis.flip_probability(1.0, 1e9, 2) < 1e-12
    with pytest.raises(ValueError):
        analysis.flip_probability(1.0, 0.0, 2)


def test_svep_bound_constant_under_ambiguity():
    geom = analysis.GeometrySummary(d_min=0, g_min=0.3)
    for snr in (1.0, 10.0, 100.0):
        assert analysis.svep_upper_bound(geom, snr, 2, 2) == 2.0**4


def test_svep_bound_plugin_value():
    geom = analysis.GeometrySummary(d_min=1, g_min=0.5)
    bound = analysis.svep_upper_bound(geom, 100.0, 2, 2)
    assert bound == pytest.approx(7.5 * math.exp(-12.5), rel=1e-12)
    assert bound == pytest.approx(2.795e-5, rel=1e-3)


def test_svep_bound_exponent_squares_when_snr_doubles():
    geom = analysis.GeometrySummary(d_min=3, g_min=0.4)
    n_t, n_r = 2, 3
    d = geom.half_flips
    scale = sum(math.comb(2 * n_r, j) for j in range(d, 2 * n_r + 1)) / 2**d
    f1 = analysis.svep_upper_bound(geom, 5.0, n_t, n_r) / scale
    f2 = analysis.svep_upper_bound(geom, 10.0, n_t, n_r) / scale
    assert f2 == pytest.approx(f1**2, rel=1e-9)


# ---------------------------------------------------------------------------
# minimum-distance distribution


def test_sign_match_probability_values():
    assert abs(analysis.sign_match_probability(2, 1) - 0.5) <= 1e-12
    assert abs(analysis.sign_match_probability(4, 1) - 2.0 / 3.0) <= 1e-12
    assert analysis.sign_match_probability(4, 4) == 0.0
    with pytest.raises(ValueError):
        analysis.sign_match_probability(2, 0)
    with pytest.raises(ValueError):
        analysis.sign_match_probability(2, 3)


def test_ccdf_exact_2tx_values():
    assert analysis.dmin_ccdf_exact_2tx(2, 1) == pytest.approx(0.875)
    assert analysis.dmin_ccdf_exact_2tx(2, 2) == pytest.approx(0.375)
    assert analysis.dmin_ccdf_exact_2tx(2, 3) == 0.0
    assert analysis.dmin_ccdf_exact_2tx(4, 0) == 1.0


def test_ccdf_monotone_and_bounded():
    for n_r in (1, 2, 4, 8):
        values = [analysis.dmin_ccdf_exact_2tx(n_r, n) for n in range(n_r + 2)]
        assert values[0] == 1.0
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=45))
def test_ccdf_exact_is_a_probability(n_r, n):
    value = analysis.dmin_ccdf_exact_2tx(n_r, n)
    assert 0.0 <= value <= 1.0
    if n > 0:
        assert value <= analysis.dmin_ccdf_exact_2tx(n_r, n - 1)


def test_ccdf_approx_full_band_is_one():
    assert analysis.dmin_ccdf_approx(3, 4, 0) == 1.0


def test_ccdf_approx_impossible_band_is_zero():
    assert analysis.dmin_ccdf_approx(4, 4, 5) == 0.0


def test_ccdf_approx_one_antenna_pair_is_2nr_apart():
    # with n_t = 1 the codewords of x and -x differ in all 2 n_r outputs,
    # so d_min >= n is certain up to n = 2 n_r, past n_r too, as sampled
    cfg = harness.ExperimentConfig(
        n_t=1, n_r=3, bits=1, modulation="bpsk", snr_grid_db=(0.0,),
        channel_count=20, vectors_per_channel=1, seed=1)
    records = harness.run_ccdf_experiment(cfg)
    assert [(r.ser, r.bound) for r in records] == [(1.0, 1.0)] * 5
    for n_r in range(1, 6):
        for n in range(2 * n_r + 3):
            assert analysis.dmin_ccdf_approx(1, n_r, n) == float(n <= 2 * n_r)


@pytest.mark.parametrize("n_t", [3, 4, 5, 6])
def test_ccdf_approx_equals_product_over_book_pairs(n_t):
    # one band per pair of first-half book rows, in pair order, with the
    # pair's distance counted on the book's signs: the same floats
    signs = core.enumerate_symbols(core.bpsk(), n_t).vectors.real
    half = signs[:len(signs) // 2]
    for n_r, n in [(2, 1), (4, 2), (4, 4), (40, 30)]:
        want = 1.0
        for i, j in itertools.combinations(range(len(half)), 2):
            p_eq = analysis.sign_match_probability(
                n_t, int(np.sum(half[i] != half[j])))
            want *= analysis._binomial_band(2 * n_r, n, 2 * n_r - n, p_eq)
        assert analysis.dmin_ccdf_approx(n_t, n_r, n) == want


def test_ccdf_approx_reduces_to_exact_for_two_antennas():
    for n_r in range(1, 9):
        for n in range(n_r + 2):
            approx = analysis.dmin_ccdf_approx(2, n_r, n)
            exact = analysis.dmin_ccdf_exact_2tx(n_r, n)
            assert abs(approx - exact) <= 1e-12


def test_ccdf_formulas_agree_in_rational_arithmetic():
    # for two antennas the pair probability is exactly one half, so both
    # closed forms are the same dyadic rational
    for n_r in range(1, 11):
        for n in range(n_r + 1):
            band = sum(
                Fraction(math.comb(2 * n_r, k), 1)
                * Fraction(1, 2) ** k
                * Fraction(1, 2) ** (2 * n_r - k)
                for k in range(n, 2 * n_r - n + 1)
            )
            direct = sum(
                Fraction(math.comb(2 * n_r, k), 4**n_r)
                for k in range(n, 2 * n_r - n + 1)
            )
            assert band == direct
            assert analysis.dmin_ccdf_exact_2tx(n_r, n) == pytest.approx(
                float(direct), abs=1e-15)


def test_ccdf_exact_is_the_float_of_the_rational_sum():
    # bit for bit the float of the exact sum of Fractions, for every n
    for n_r in range(1, 65):
        for n in range(n_r + 2):
            exact = sum((Fraction(math.comb(2 * n_r, k), 4**n_r)
                         for k in range(n, 2 * n_r - n + 1)), Fraction(0))
            assert analysis.dmin_ccdf_exact_2tx(n_r, n) == float(exact)


def test_ccdf_lower_bound_values():
    assert analysis.dmin_ccdf_lower_bound(10, 0.0) == pytest.approx(
        1.0 - math.exp(-5.0), rel=1e-12)
    with pytest.raises(ValueError):
        analysis.dmin_ccdf_lower_bound(4, 1.0)


def test_ccdf_lower_bound_tends_to_one():
    values = [analysis.dmin_ccdf_lower_bound(n_r, 0.5) for n_r in (4, 16, 64, 256)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] > 0.999


def test_ccdf_lower_bound_below_exact():
    for c in (0.0, 0.25, 0.5, 0.75, 0.9):
        for n_r in range(1, 17):
            n = math.ceil(c * n_r)
            exact = analysis.dmin_ccdf_exact_2tx(n_r, n)
            assert analysis.dmin_ccdf_lower_bound(n_r, c) <= exact + 1e-12


def test_svep_bound_dominates_exact_error_for_fixed_channels():
    # per fixed channel, enumerate every one-bit output pattern and weight
    # it by its exact Gaussian cell probability: error probability without
    # Monte Carlo noise must sit below the bound at and above 10 dB
    from scipy.stats import norm

    from quantmimo import detection

    qcfg = QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 2)
    rng = np.random.default_rng(123)

    def exact_svep(h, sigma2):
        codewords = analysis.build_codebook(h, book, qcfg)
        centers = detection.CentroidBook(
            centers=core.level_values(codewords, qcfg))
        scale = np.sqrt(sigma2 / 2.0)
        p_err = 0.0
        for k in range(book.size):
            g = np.concatenate([(h @ book.vectors[k]).real,
                                (h @ book.vectors[k]).imag])
            p_plus = norm.cdf(g / scale)
            patterns = np.array(list(itertools.product((0, 1), repeat=4)))
            detected = detection.detect_mcd_batch(
                core.level_values(patterns, qcfg), centers)
            for pattern, k_hat in zip(patterns, detected):
                prob = float(np.prod(np.where(
                    pattern == 1, p_plus, 1.0 - p_plus)))
                if k_hat != k:
                    p_err += prob
        return p_err / book.size

    checked = 0
    while checked < 5:
        h = core.sample_channel(2, 2, rng)
        geom = analysis.geometry(h, book, qcfg)
        if geom.half_flips < 1:
            continue
        checked += 1
        for snr_db in (10.0, 15.0, 20.0):
            snr = 10.0 ** (snr_db / 10.0)
            sigma2 = core.snr_db_to_sigma2(snr_db, 2)
            bound = analysis.svep_upper_bound(geom, snr, 2, 2)
            assert exact_svep(h, sigma2) <= bound + 1e-12


def test_log_space_band_matches_scipy_logsumexp():
    # the fsum of max-scaled terms against scipy's logsumexp of the same
    # log terms, over every band dmin_ccdf_approx asks for past the exact
    # limit: 2 n_r from 66 to 256, every threshold n and every delta < n_t
    # of n_t in {2, 3, 4, 6}, whose match probabilities take 7 values
    from scipy.special import logsumexp

    probabilities = {
        analysis.sign_match_probability(n_t, delta)
        for n_t in (2, 3, 4, 6) for delta in range(1, n_t)}
    assert len(probabilities) == 7
    for p in probabilities:
        for n_r in range(33, 129):
            m = 2 * n_r
            ks = np.arange(m + 1)
            log_terms = np.array([
                math.lgamma(m + 1) - math.lgamma(k + 1)
                - math.lgamma(m - k + 1) for k in range(m + 1)])
            log_terms += ks * math.log1p(-p) + (m - ks) * math.log(p)
            # row n keeps the terms of the band [n, m - n]
            ns = np.arange(n_r + 1)[:, None]
            bands = np.where(
                (ks >= ns) & (ks <= m - ns), log_terms, -np.inf)
            want = np.exp(logsumexp(bands, axis=1))
            got = [analysis._binomial_band(m, n, m - n, p)
                   for n in range(n_r + 1)]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_log_space_band_matches_exact_band():
    # the underflow-safe path must agree with the exact path where both work
    p = analysis.sign_match_probability(4, 2)
    direct = analysis._binomial_band(60, 5, 55, p)
    forced = analysis._binomial_band(70, 5, 65, p)
    ref = sum(
        math.comb(70, k) * (1 - p) ** k * p ** (70 - k) for k in range(5, 66))
    assert forced == pytest.approx(ref, rel=1e-9)
    assert direct == pytest.approx(
        sum(math.comb(60, k) * (1 - p) ** k * p ** (60 - k)
            for k in range(5, 56)), rel=1e-12)
