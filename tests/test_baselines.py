import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from quantmimo import analysis, baselines, core
from quantmimo.core import QuantizerConfig


def _observe(h, pilots, sigma2, cfg, rng=None):
    return core.transmit_batch(h, pilots.T, sigma2, cfg, rng)


# ---------------------------------------------------------------------------
# least-squares channel estimation


def test_ls_recovers_channel_at_high_resolution():
    rng = np.random.default_rng(17)
    cfg = QuantizerConfig(bits=24, step=1e-6)
    h = core.sample_channel(3, 2, rng)
    pilots = baselines.random_pilots(core.qpsk(), 2, 16, rng)
    h_hat = baselines.estimate_channel_ls(
        pilots, _observe(h, pilots, 0.0, cfg), cfg)
    assert np.abs(h_hat - h).max() < 1e-6


def test_ls_one_bit_is_direction_informative():
    rng = np.random.default_rng(2)
    cfg = QuantizerConfig(bits=1, step=0.5)
    sigma2 = core.snr_db_to_sigma2(10.0, 4)
    corr = []
    for _ in range(100):
        h = core.sample_channel(6, 4, rng)
        pilots = baselines.random_pilots(core.qpsk(), 4, 100, rng)
        h_hat = baselines.estimate_channel_ls(
            pilots, _observe(h, pilots, sigma2, cfg, rng), cfg)
        for j in range(4):
            num = abs(h_hat[:, j].conj() @ h[:, j])
            corr.append(
                num / (np.linalg.norm(h_hat[:, j]) * np.linalg.norm(h[:, j])))
    assert np.mean(corr) >= 0.8


def test_ls_orthogonal_pilots_reduce_to_row_averaging():
    rng = np.random.default_rng(23)
    cfg = QuantizerConfig(bits=3, step=0.25)
    h = core.sample_channel(2, 2, rng)
    pilots = np.array(
        [[1, 1, 1, 1], [1, -1, 1, -1]], dtype=complex)
    obs = _observe(h, pilots, 0.05, cfg, rng)
    h_hat = baselines.estimate_channel_ls(pilots, obs, cfg)
    y = baselines.reassemble_complex(core.level_values(obs, cfg)).T
    averaged = (y @ pilots.conj().T) / 4.0
    assert np.allclose(h_hat, averaged, atol=1e-12)


def test_ls_rejects_bad_pilots():
    cfg = QuantizerConfig(bits=1, step=0.5)
    rng = np.random.default_rng(3)
    h = core.sample_channel(2, 2, rng)
    degenerate = np.ones((2, 8), dtype=complex)
    obs = _observe(h, degenerate, 0.1, cfg, rng)
    with pytest.raises(ValueError, match="rank deficient"):
        baselines.estimate_channel_ls(degenerate, obs, cfg)
    with pytest.raises(ValueError, match="pilot slots"):
        baselines.estimate_channel_ls(
            np.ones((3, 2), dtype=complex), obs[:2], cfg)


# ---------------------------------------------------------------------------
# quantized maximum-likelihood detection


def test_normal_cdf_matches_scipy_ndtr():
    x = np.concatenate([
        np.linspace(-37.0, 9.0, 200_001),
        np.random.default_rng(11).uniform(-37.0, 9.0, 50_000)])
    got = np.array([core.normal_cdf(v) for v in x.tolist()])
    want = ndtr(x)
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    cdf = core.normal_cdf
    assert cdf(0.0) == 0.5
    assert cdf(math.inf) == 1.0
    assert cdf(-math.inf) == 0.0
    # two ulps below and the first x at the switch from erf to erfc,
    # |t| = |x * M_SQRT1_2| = 1, on both sides of 0; at -below and -at the
    # other branch would give other bits
    below, at = 1.4142135623730945, 1.414213562373095
    t_below, t_at = below * core._SQRT1_2, at * core._SQRT1_2
    assert t_below < 1.0 == t_at
    assert cdf(below) == 0.5 + 0.5 * math.erf(t_below)
    assert cdf(-below) == 0.5 + 0.5 * math.erf(-t_below) != (
        0.5 * math.erfc(t_below))
    assert cdf(at) == 1.0 - 0.5 * math.erfc(t_at)
    assert cdf(-at) == 0.5 * math.erfc(t_at) != 0.5 + 0.5 * math.erf(-t_at)


def test_mld_one_bit_cells_match_flip_probability():
    # both parts of the one output have magnitude g
    cfg = QuantizerConfig(bits=1, step=2.0)
    book = core.enumerate_symbols(core.bpsk(), 1)
    for g in (0.2, 0.7, 1.3):
        for sigma2 in (0.1, 0.5, 2.0):
            h = np.array([[g + 1j * g]])
            loglik = baselines.mld_log_likelihoods(
                np.array([[1, 1]]), h, sigma2, book, cfg)[0]
            flip = analysis.flip_probability(g, 1.0 / sigma2, 1)
            assert np.exp(loglik[0]) == pytest.approx(
                (1.0 - flip) ** 2, rel=1e-9)
            assert np.exp(loglik[1]) == pytest.approx(flip ** 2, rel=1e-9)


def test_mld_noiseless_limit_recovers_codewords():
    rng = np.random.default_rng(19)
    cfg = QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 2)
    for _ in range(10):
        h = core.sample_channel(4, 2, rng)
        # each noiseless receive point quantized on its own
        codewords = np.array([
            core.quantize_levels(core.real_components(h @ x), cfg)
            for x in book.vectors])
        if len(np.unique(codewords, axis=0)) < book.size:
            continue
        detected = baselines.detect_mld_batch(codewords, h, 1e-6, book, cfg)
        assert detected.tolist() == list(range(book.size))


def test_mld_worked_example_and_oracle(demo_channel, demo_cfg, demo_book):
    sigma2 = 1e-4
    levels = np.array([[1, 0]])
    got = baselines.detect_mld_batch(
        levels, demo_channel, sigma2, demo_book, demo_cfg)[0]
    assert got == 2
    # brute-force oracle over the four candidates
    scale = np.sqrt(sigma2 / 2.0)
    best = None
    for k, x in enumerate(demo_book.vectors):
        g = core.real_components(demo_channel @ x)
        prob = 1.0
        for comp, sign in zip(g, core.level_values(levels[0], demo_cfg)):
            if sign > 0:
                prob *= 1.0 - norm.cdf((0.0 - comp) / scale)
            else:
                prob *= norm.cdf((0.0 - comp) / scale)
        if best is None or prob > best[1]:
            best = (k, prob)
    assert got == best[0]


def _mld_direct(levels, h, sigma2, book, cfg):
    """N x K x d evaluation of the quantized-MLD log-likelihoods."""
    g = core.real_components(book.vectors @ h.T)
    lower, upper = core.cell_edges(cfg)
    scale = np.sqrt(sigma2 / 2.0)
    a = lower[levels][:, None, :]
    b = upper[levels][:, None, :]
    # the package's CDF, so the bitwise comparison checks the table's gather
    cdf = np.vectorize(core.normal_cdf, otypes=[float])
    cell_prob = cdf((b - g[None]) / scale) - cdf((a - g[None]) / scale)
    return np.log(np.maximum(cell_prob, baselines._LOG_FLOOR)).sum(axis=2)


@settings(max_examples=150, deadline=None)
@given(
    bits=st.integers(1, 3),
    modulation=st.sampled_from(["bpsk", "qpsk"]),
    n_t=st.integers(1, 3),
    n_r=st.integers(1, 6),
    rows=st.integers(1, 40),
    log_sigma2=st.floats(-4.0, math.log10(30.0)),
    seed=st.integers(0, 2**32 - 1),
)
@example(bits=2, modulation="qpsk", n_t=2, n_r=4, rows=8, log_sigma2=-4.0,
         seed=1)
def test_mld_table_matches_direct_evaluation(
        bits, modulation, n_t, n_r, rows, log_sigma2, seed):
    rng = np.random.default_rng(seed)
    cfg = QuantizerConfig(bits=bits, step=0.5)
    book = core.enumerate_symbols(core.constellation(modulation), n_t)
    h = core.sample_channel(n_r, n_t, rng)
    sigma2 = 10.0 ** log_sigma2
    top = cfg.n_levels - 1
    levels = rng.integers(0, top + 1, size=(rows, 2 * n_r))
    # both saturating end cells, whose edges are -inf and +inf
    levels = np.vstack([levels, np.zeros_like(levels[:1]),
                        np.full_like(levels[:1], top)])
    got = baselines.mld_log_likelihoods(levels, h, sigma2, book, cfg)
    assert got.tobytes() == _mld_direct(levels, h, sigma2, book, cfg).tobytes()


@pytest.mark.parametrize("values", [1, 7, 100])
def test_mld_table_blocks_match_direct_evaluation(monkeypatch, values):
    # with the CDF block cut to 1, 7 and 100 arguments the 16 x 6 table rows
    # take many blocks, the last one short, or one block at b = 1 and 100
    monkeypatch.setattr(baselines, "_CDF_VALUES", values)
    rng = np.random.default_rng(values)
    book = core.enumerate_symbols(core.qpsk(), 2)
    for bits in (1, 2, 3):
        cfg = QuantizerConfig(bits=bits, step=0.5)
        h = core.sample_channel(3, 2, rng)
        levels = rng.integers(0, cfg.n_levels, size=(30, 6))
        got = baselines.mld_log_likelihoods(levels, h, 0.2, book, cfg)
        assert got.tobytes() == _mld_direct(levels, h, 0.2, book, cfg).tobytes()


def test_mld_table_build_holds_one_cdf_block():
    # 8 BPSK candidates, n_r = 32, b = 8: the 8 x 64 x 256 float64 table is
    # 1 MiB; its build adds one block of 4 096 CDF arguments (a float64
    # copy, a list of Python floats and the results, 160 KiB), not a second
    # table or a list of all 130 560 edge terms
    cfg = QuantizerConfig(bits=8, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 3)
    h = core.sample_channel(32, 3, np.random.default_rng(4))
    levels = np.zeros((1, 64), dtype=np.uint8)
    tracemalloc.start()
    try:
        baselines.mld_log_likelihoods(levels, h, 0.3, book, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table, sums = 8 * 8 * 64 * 256, 16 * 8 * 64
    assert peak <= table + sums + 2 * 40 * 4096


def test_mld_table_reaches_the_log_floor():
    # at sigma2 = 1e-4 a saturating cell on the far side of a unit-size
    # component has probability below the floor, here in both parts
    cfg = QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 1)
    h = np.array([[1.0 + 1.0j]])
    levels = np.array([[0, 0]])
    got = baselines.mld_log_likelihoods(levels, h, 1e-4, book, cfg)
    assert got[0, 0] == 2 * np.log(baselines._LOG_FLOOR)
    assert got.tobytes() == _mld_direct(levels, h, 1e-4, book, cfg).tobytes()


def test_mld_requires_noise():
    book = core.enumerate_symbols(core.bpsk(), 1)
    cfg = QuantizerConfig(bits=1, step=0.5)
    with pytest.raises(ValueError, match="positive noise"):
        baselines.detect_mld_batch(
            np.array([[1, 1]]), np.eye(1, dtype=complex), 0.0, book, cfg)


def test_mld_multibit_prefers_true_symbol():
    rng = np.random.default_rng(40)
    cfg = QuantizerConfig(bits=3, step=0.5)
    book = core.enumerate_symbols(core.qpsk(), 2)
    h = core.sample_channel(4, 2, rng)
    sigma2 = 0.05
    hits = 0
    idx = rng.integers(0, book.size, size=200)
    levels = core.transmit_batch(h, book.vectors[idx], sigma2, cfg, rng)
    detected = baselines.detect_mld_batch(levels, h, sigma2, book, cfg)
    hits = np.mean(detected == idx)
    assert hits > 0.9


# ---------------------------------------------------------------------------
# zero-forcing detection


def test_zf_exact_recovery_at_high_resolution():
    rng = np.random.default_rng(29)
    cfg = QuantizerConfig(bits=24, step=1e-6)
    c = core.qpsk()
    book = core.enumerate_symbols(c, 3)
    h = core.sample_channel(5, 3, rng)
    x = book.vectors[[0, 7, 21, 63]]
    values = core.level_values(core.transmit_batch(h, x, 0.0, cfg), cfg)
    got = baselines.detect_zf_batch(values, h, c)
    assert np.allclose(book.vectors[got], x)


def test_zf_identity_channel_is_per_antenna_threshold():
    rng = np.random.default_rng(37)
    cfg = QuantizerConfig(bits=3, step=0.5)
    c = core.qpsk()
    h = np.eye(4, dtype=complex)
    book = core.enumerate_symbols(c, 4)
    x = book.vectors[rng.integers(book.size, size=20)]
    values = core.level_values(core.transmit_batch(h, x, 0.2, cfg, rng), cfg)
    got = book.vectors[baselines.detect_zf_batch(values, h, c)]
    for row, y_complex in zip(got, baselines.reassemble_complex(values)):
        expected = [
            min(c.points, key=lambda p: abs(comp - p)) for comp in y_complex]
        assert np.allclose(row, expected)


def test_zf_rejects_rank_deficient_estimate():
    col = core.sample_channel(4, 1, np.random.default_rng(5))
    h_hat = np.hstack([col, col])
    values = np.full((1, 8), 0.25)
    with pytest.raises(ValueError, match="rank deficient"):
        baselines.detect_zf_batch(values, h_hat, core.bpsk())
