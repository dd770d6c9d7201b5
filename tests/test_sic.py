import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from quantmimo import core, detection, sic, training
from quantmimo.core import QuantizerConfig


# ---------------------------------------------------------------------------
# symbol vector division


def test_divide_hand_trace():
    h = np.array([[1.0, 0.0, 0.9], [0.0, 1.0, 0.1]], dtype=complex)
    first, second = sic.divide_symbols(h, 2)
    # norms tie at columns 0 and 1 -> seed picks 0; column 2 correlates with 0
    assert first == (0, 2)
    assert second == (1,)


def test_divide_whole_vector():
    h = core.sample_channel(4, 3, np.random.default_rng(0))
    first, second = sic.divide_symbols(h, 3)
    assert sorted(first) == [0, 1, 2] and second == ()


def test_divide_orthogonal_picks_largest_norm():
    h = np.diag([1.0, 3.0, 2.0]).astype(complex)
    first, second = sic.divide_symbols(h, 1)
    assert first == (1,)
    assert second == (0, 2)


def test_divide_rejects_bad_size():
    h = core.sample_channel(2, 2, np.random.default_rng(1))
    for bad in (0, 3):
        with pytest.raises(ValueError, match="n_t1"):
            sic.divide_symbols(h, bad)


# ---------------------------------------------------------------------------
# real expansion and projection


def test_real_expand_real_matrix_is_block_diagonal():
    h2 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    expanded = sic.real_expand(h2)
    assert np.array_equal(expanded[:2, :2], h2.real)
    assert np.array_equal(expanded[2:, 2:], h2.real)
    assert np.all(expanded[:2, 2:] == 0) and np.all(expanded[2:, :2] == 0)


def test_real_expand_imaginary_unit():
    expanded = sic.real_expand(np.array([[1j]]))
    assert np.array_equal(expanded, [[0.0, -1.0], [1.0, 0.0]])


def test_real_expand_pure_imaginary_column():
    h2 = np.array([[0.5j], [-1.5j]])
    expanded = sic.real_expand(h2)
    assert np.all(expanded[:2, :1] == 0)
    assert np.array_equal(expanded[:2, 1:], -h2.imag)


def test_projection_axis_aligned_real_mode():
    w1 = sic.projection_matrix(np.array([[0.0], [1.0]], dtype=complex),
                               real_mode=True)
    assert w1.shape == (1, 2)
    assert np.allclose(np.abs(w1), [[1.0, 0.0]], atol=1e-12)


@pytest.mark.parametrize("n_r,n_t2", [(3, 1), (4, 2), (5, 3)])
def test_projection_annihilates_and_is_orthonormal(n_r, n_t2):
    rng = np.random.default_rng(n_r * 10 + n_t2)
    h2 = core.sample_channel(n_r, n_t2, rng)
    w1 = sic.projection_matrix(h2)
    expanded = sic.real_expand(h2)
    assert w1.shape == (2 * n_r - 2 * n_t2, 2 * n_r)
    assert np.abs(w1 @ expanded).max() < 1e-10
    assert np.allclose(w1 @ w1.T, np.eye(w1.shape[0]), atol=1e-10)
    v = rng.normal(size=2 * n_t2)
    assert np.linalg.norm(w1 @ (expanded @ v)) <= 1e-9 * np.linalg.norm(v)


def test_projection_empty_interference_group_is_identity():
    h2 = np.zeros((3, 0), dtype=complex)
    assert np.array_equal(sic.projection_matrix(h2), np.eye(6))


def test_projection_rejects_rank_deficiency():
    col = core.sample_channel(3, 1, np.random.default_rng(5))
    h2 = np.hstack([col, col])
    with pytest.raises(ValueError, match="rank deficient"):
        sic.projection_matrix(h2)


def test_projection_equals_scipy_null_space():
    # the SVD at scipy's rank tolerance gives null_space byte for byte and
    # in its memory layout, so the products that read the projector keep
    # their bits
    import scipy.linalg

    rng = np.random.default_rng(2024)
    for _ in range(150):
        n_r = int(rng.integers(1, 33))
        n_t2 = int(rng.integers(1, min(n_r, 5) + 1))
        h2 = core.sample_channel(n_r, n_t2, rng)
        for real_mode, expanded in (
                (False, sic.real_expand(h2)), (True, h2.real.copy())):
            want = scipy.linalg.null_space(expanded.T).T
            got = sic.projection_matrix(
                expanded.astype(complex) if real_mode else h2, real_mode)
            assert got.tobytes() == want.tobytes()
            assert got.strides == want.strides
    # a complex multiple of a column is deficient for scipy's rank too
    col = core.sample_channel(6, 1, rng)
    h2 = np.hstack([col, (0.5 - 2j) * col])
    assert scipy.linalg.null_space(sic.real_expand(h2).T).shape[1] != 12 - 4
    with pytest.raises(ValueError, match="rank deficient"):
        sic.projection_matrix(h2)


# ---------------------------------------------------------------------------
# first-stage training


def _complex_noise(shape, sigma2, rng):
    """i.i.d. CN(0, sigma2) samples as the complex signal path drew them:
    the reference for the real-coordinate noise kernel."""
    if sigma2 == 0.0:
        return np.zeros(shape, dtype=complex)
    scale = math.sqrt(sigma2 / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _real_mode_plan(h, n_t1):
    return sic.build_plan(h, n_t1, real_mode=True)


def _marginal_pmf(model, k):
    """Each distinct projected signal of candidate k with its probability."""
    atoms = Counter(map(tuple, model.projected[k].tolist()))
    return {a: c / model.samples_per_symbol for a, c in atoms.items()}


def test_first_stage_distinct_projections_split_mass():
    # interference column not aligned with any axis: the two second-stage
    # hypotheses survive the projection as distinct atoms
    cfg = QuantizerConfig(bits=1, step=2.0, real_mode=True)
    h = np.array([[2.0, 1.0], [0.5, -1.0]], dtype=complex)
    plan = _real_mode_plan(h, 1)
    assert plan.second_indices == (1,)
    book1 = core.enumerate_symbols(core.bpsk(), 1)
    book2 = core.enumerate_symbols(core.bpsk(), 1)
    model = sic.learn_first_stage(plan, 0.0, 1, book1, book2, cfg)
    assert model.samples_per_symbol == 2
    for k in range(model.size):
        assert sorted(_marginal_pmf(model, k).values()) == [0.5, 0.5]


def test_first_stage_coinciding_projections_merge():
    # axis-aligned interference: the projector drops the only component the
    # second symbol touches, so both hypotheses collapse into one atom
    cfg = QuantizerConfig(bits=1, step=2.0, real_mode=True)
    h = np.array([[1.0, 0.0], [0.5, 1.0]], dtype=complex)
    plan = _real_mode_plan(h, 1)
    assert plan.second_indices == (1,)
    book = core.enumerate_symbols(core.bpsk(), 1)
    model = sic.learn_first_stage(plan, 0.0, 1, book, book, cfg)
    for k in range(model.size):
        assert list(_marginal_pmf(model, k).values()) == [1.0]


def test_first_stage_residual_interference_bounded_at_high_resolution():
    # pre-quantizer interference is cancelled exactly, so projected outputs
    # for different second subvectors differ only by quantization error
    rng = np.random.default_rng(77)
    cfg = QuantizerConfig(bits=16, step=2.0**-10)
    h = core.sample_channel(4, 3, rng)
    plan = sic.build_plan(h, 2)
    book1 = core.enumerate_symbols(core.bpsk(), 2)
    book2 = core.enumerate_symbols(core.bpsk(), 1)
    model = sic.learn_first_stage(plan, 0.0, 1, book1, book2, cfg)
    budget = cfg.step * np.sqrt(2 * 4)  # two quantization errors of norm <= step*sqrt(2 n_r)/2
    for k in range(model.size):
        atoms = np.unique(model.projected[k], axis=0)
        spread = np.linalg.norm(atoms - atoms[0], axis=1).max()
        assert spread <= budget


def test_first_stage_projections_match_complex_path():
    # the projected signals of the same draws through the complex signal path
    cfg = QuantizerConfig(bits=2, step=0.5)
    h = core.sample_channel(4, 3, np.random.default_rng(31))
    plan = sic.build_plan(h, 2)
    book1 = core.enumerate_symbols(core.qpsk(), 2)
    book2 = core.enumerate_symbols(core.qpsk(), 1)
    model = sic.learn_first_stage(
        plan, 0.4, 3, book1, book2, cfg, np.random.default_rng(5))
    clean = (book1.vectors @ plan.h1.T)[:, None, :] + (
        book2.vectors @ plan.h2.T)[None, :, :]
    noise = _complex_noise(
        (book1.size, book2.size, 3, 4), 0.4, np.random.default_rng(5))
    levels = core.quantize_levels(
        core.real_components(clean[:, :, None, :] + noise), cfg)
    flat = (core.level_values(levels, cfg) @ plan.w1.T).reshape(
        book1.size, book2.size * 3, -1)
    assert model.samples_per_symbol == book2.size * 3
    assert model.projected.tobytes() == flat.tobytes()
    assert model.centroids.tobytes() == flat.mean(axis=1).tobytes()


def test_first_stage_rejects_bad_inputs():
    cfg = QuantizerConfig(bits=1, step=2.0)
    h = core.sample_channel(3, 2, np.random.default_rng(2))
    plan = sic.build_plan(h, 1)
    book = core.enumerate_symbols(core.bpsk(), 1)
    with pytest.raises(ValueError, match="samples_per_pair"):
        sic.learn_first_stage(plan, 0.0, 0, book, book, cfg)
    with pytest.raises(ValueError, match="real mode"):
        sic.learn_first_stage(
            plan, 0.0, 1, book, book,
            QuantizerConfig(bits=1, step=2.0, real_mode=True))


# ---------------------------------------------------------------------------
# stage detections


def _detect(levels, plan, model, book1, book2, cfg):
    """Both stages' decisions for a level matrix, as subvector indices."""
    out = _vectors(sic.detect_sic_batch(
        core.level_values(levels, cfg), plan, model, book1, book2), plan, book1)
    return (_indices(out[:, list(plan.first_indices)], book1),
            _indices(out[:, list(plan.second_indices)], book2))


def _vectors(decided, plan, book1):
    """The symbol vectors of SIC's decided indices of all n_t antennas."""
    full = core.enumerate_symbols(book1.constellation, plan.n_t)
    return full.vectors[decided]


def _indices(rows, book):
    return [next(k for k, v in enumerate(book.vectors) if np.array_equal(v, row))
            for row in rows]


def _single_path_sic(values, plan, model):
    """Both stages one observation at a time, as direct-difference argmins
    over the model's centroids and its stage-two table."""
    decisions = []
    for y in values:
        proj = plan.w1 @ y
        d1 = [float(np.sum((proj - c) ** 2)) for c in model.centroids]
        k1 = min(range(len(d1)), key=lambda k: (d1[k], k))
        d2 = [float(np.sum((y - t) ** 2)) for t in model.table[k1]]
        decisions.append((k1, min(range(len(d2)), key=lambda k: (d2[k], k))))
    return decisions


def _all_pairs(plan, book):
    """Every (first, second) pair of one-antenna symbols, first varying
    slowest, placed in their antennas' columns."""
    x = np.empty((book.size**2, 2), dtype=complex)
    x[:, list(plan.first_indices)] = np.repeat(book.vectors, book.size, axis=0)
    x[:, list(plan.second_indices)] = np.tile(book.vectors, (book.size, 1))
    return x


@pytest.fixture
def toy_stage(demo_cfg):
    # real 2x2 channel whose second column is axis-aligned
    h = np.array([[1.0, 0.0], [0.5, 1.0]], dtype=complex)
    plan = _real_mode_plan(h, 1)
    book = core.enumerate_symbols(core.bpsk(), 1)
    model = sic.learn_first_stage(plan, 0.0, 1, book, book, demo_cfg)
    return h, plan, book, model


def test_detect_first_noiseless(toy_stage, demo_cfg):
    h, plan, book, model = toy_stage
    x = _all_pairs(plan, book)
    levels = core.transmit_batch(h, x, 0.0, demo_cfg)
    first, _ = _detect(levels, plan, model, book, book, demo_cfg)
    assert first == [0, 0, 1, 1]


def test_detect_first_exact_centroid_hit(toy_stage, demo_cfg):
    _, plan, book, model = toy_stage
    for k, center in enumerate(model.centroids):
        # synthesize an observation projecting exactly onto the centroid
        levels = np.array([(1, 1) if center[0] > 0 else (0, 0)])
        if np.allclose(plan.w1 @ core.level_values(levels[0], demo_cfg), center):
            first, _ = _detect(levels, plan, model, book, book, demo_cfg)
            assert first == [k]


def test_detect_first_tie_breaks_to_smallest_index(demo_cfg):
    plan = sic.SicPlan(
        first_indices=(0,), second_indices=(1,),
        h1=np.zeros((2, 1)), h2=np.zeros((2, 1)),
        w1=np.eye(2), real_mode=True)
    book = core.enumerate_symbols(core.bpsk(), 1)
    model = sic.FirstStageModel(
        projected=np.array([[[1.0, 0.0]], [[1.0, 2.0]]]),
        table=np.zeros((2, 2, 2)))
    levels = np.array([(1, 1)])
    proj = core.level_values(levels[0], demo_cfg)  # (1, 1): equidistant
    assert np.linalg.norm(proj - model.centroids[0]) == np.linalg.norm(
        proj - model.centroids[1])
    first, _ = _detect(levels, plan, model, book, book, demo_cfg)
    assert first == [0]


def test_detect_second_recovers_truth(toy_stage, demo_cfg):
    h, plan, book, model = toy_stage
    x = _all_pairs(plan, book)
    levels = core.transmit_batch(h, x, 0.0, demo_cfg)
    _, second = _detect(levels, plan, model, book, book, demo_cfg)
    assert second == [0, 1, 0, 1]
    # both decisions land in their antennas' columns
    got = sic.detect_sic_batch(
        core.level_values(levels, demo_cfg), plan, model, book, book)
    assert np.array_equal(_vectors(got, plan, book), x)


def test_detect_second_single_candidate():
    cfg = QuantizerConfig(bits=1, step=2.0)
    h = core.sample_channel(2, 2, np.random.default_rng(4))
    plan = sic.build_plan(h, 2)
    book1 = core.enumerate_symbols(core.bpsk(), 2)
    book2 = core.enumerate_symbols(core.bpsk(), 0)
    model = sic.learn_first_stage(plan, 0.0, 1, book1, book2, cfg)
    assert model.table.shape == (4, 1, 4)
    levels = core.transmit_batch(
        h, np.array([[1.0, -1.0]], dtype=complex), 0.0, cfg)
    values = core.level_values(levels, cfg)
    got = _vectors(sic.detect_sic_batch(values, plan, model, book1, book2),
                   plan, book1)
    (k1, k2), = _single_path_sic(values, plan, model)
    assert k2 == 0 and got.shape == (1, 2)
    assert np.array_equal(got[0, list(plan.first_indices)], book1.vectors[k1])


def test_detect_second_matches_bruteforce_oracle():
    rng = np.random.default_rng(88)
    cfg = QuantizerConfig(bits=1, step=0.5)
    h = core.sample_channel(4, 3, rng)
    plan = sic.build_plan(h, 2)
    book1 = core.enumerate_symbols(core.bpsk(), 2)
    book2 = core.enumerate_symbols(core.bpsk(), 1)
    model = sic.learn_first_stage(plan, 0.0, 1, book1, book2, cfg)
    levels = rng.integers(0, 2, size=(25, 8))
    first, second = _detect(levels, plan, model, book1, book2, cfg)
    values = core.level_values(levels, cfg)
    for y, k1, k2 in zip(values, first, second):
        # the closest noiseless output with stage one's decision substituted
        scores = []
        for x2 in book2.vectors:
            clean = plan.h1 @ book1.vectors[k1] + plan.h2 @ x2
            rep = core.level_values(
                core.quantize_levels(core.real_components(clean), cfg), cfg)
            scores.append(float(np.linalg.norm(y - rep)))
        assert k2 == min(range(book2.size), key=lambda k: (scores[k], k))


def test_partition_property():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n_t = int(rng.integers(2, 7))
        n_t1 = int(rng.integers(1, n_t + 1))
        h = core.sample_channel(n_t + 1, n_t, rng)
        first, second = sic.divide_symbols(h, n_t1)
        assert len(first) == n_t1
        assert sorted(first + second) == list(range(n_t))
        assert set(first).isdisjoint(second)


# ---------------------------------------------------------------------------
# framework properties


def _candidate_evaluations(values, plan, model, book1, book2):
    """Hypotheses scored by one detect_sic_batch call: stage one's
    nearest_center rows times centroids, plus stage two's candidate rows."""
    with mock.patch.object(
        sic, "nearest_center", wraps=sic.nearest_center
    ) as first, mock.patch.object(
        sic, "_candidate_sqdist", wraps=sic._candidate_sqdist
    ) as second:
        sic.detect_sic_batch(values, plan, model, book1, book2)
    return (sum(c.args[0].shape[0] * c.args[1].shape[0]
                for c in first.call_args_list)
            + sum(c.args[0].shape[0] * c.args[0].shape[1]
                  for c in second.call_args_list))


def test_candidate_evaluation_count_is_sum_of_subspaces():
    rng = np.random.default_rng(3)
    cfg = QuantizerConfig(bits=2, step=0.5)
    c = core.qpsk()
    h = core.sample_channel(8, 4, rng)
    n_t1 = 3
    plan = sic.build_plan(h, n_t1)
    book1 = core.enumerate_symbols(c, n_t1)
    book2 = core.enumerate_symbols(c, 4 - n_t1)
    model = sic.learn_first_stage(plan, 0.1, 2, book1, book2, cfg, rng)
    x = core.enumerate_symbols(c, 4).vectors[[7, 80, 201]]
    levels = core.transmit_batch(h, x, 0.1, cfg, rng)
    evaluated = _candidate_evaluations(
        core.level_values(levels, cfg), plan, model, book1, book2)
    assert evaluated == 3 * (c.size**n_t1 + c.size ** (4 - n_t1))


def test_whole_vector_split_reduces_to_plain_explicit_mcd():
    # n_t1 = n_t: no projection, one empty second hypothesis, and the same
    # noise stream as plain explicit training with matching sample count
    cfg = QuantizerConfig(bits=1, step=0.5)
    c = core.bpsk()
    n_t, samples = 3, 4
    h = core.sample_channel(5, n_t, np.random.default_rng(31))
    book = core.enumerate_symbols(c, n_t)
    sigma2 = 0.4

    plan = sic.build_plan(h, n_t)
    order = list(plan.first_indices)
    # the first group's candidates in plan order, as SIC's indices read them
    book1 = book
    book2 = core.enumerate_symbols(c, 0)
    assert np.array_equal(plan.w1, np.eye(10))

    fs = sic.learn_first_stage(
        plan, sigma2, samples, book1, book2, cfg,
        np.random.default_rng(500))
    explicit = training.learn_explicit(
        h[:, order] if order != list(range(n_t)) else h,
        sigma2, samples,
        book1, cfg, np.random.default_rng(500))
    cb = detection.centroids(explicit)
    assert np.allclose(fs.centroids, cb.centers, atol=1e-12)

    rng = np.random.default_rng(9)
    levels = rng.integers(0, 2, size=(200, 10))
    got = sic.detect_sic_batch(
        core.level_values(levels, cfg), plan, fs, book1, book2)
    direct = detection.detect_mcd_batch(core.level_values(levels, cfg), cb)
    assert np.array_equal(
        _vectors(got, plan, book1)[:, order], book1.vectors[direct])


def test_projection_basis_rotation_invariance():
    # any orthonormal basis of the left null space yields the same decisions
    rng = np.random.default_rng(15)
    cfg = QuantizerConfig(bits=2, step=0.5)
    c = core.bpsk()
    h = core.sample_channel(4, 3, rng)
    plan = sic.build_plan(h, 2)
    book1 = core.enumerate_symbols(c, 2)
    book2 = core.enumerate_symbols(c, 1)
    q, _ = np.linalg.qr(rng.normal(size=(plan.w1.shape[0],) * 2))
    rotated = sic.SicPlan(
        first_indices=plan.first_indices,
        second_indices=plan.second_indices,
        h1=plan.h1, h2=plan.h2, w1=q @ plan.w1, real_mode=plan.real_mode)
    m_base = sic.learn_first_stage(
        plan, 0.3, 3, book1, book2, cfg, np.random.default_rng(1000))
    m_rot = sic.learn_first_stage(
        rotated, 0.3, 3, book1, book2, cfg, np.random.default_rng(1000))
    xs = core.enumerate_symbols(c, 3).vectors
    levels = core.transmit_batch(h, xs, 0.3, cfg, np.random.default_rng(77))
    k_base, _ = _detect(levels, plan, m_base, book1, book2, cfg)
    k_rot, _ = _detect(levels, rotated, m_rot, book1, book2, cfg)
    assert k_base == k_rot


def test_batch_sic_matches_single_path():
    rng = np.random.default_rng(46)
    cfg = QuantizerConfig(bits=2, step=0.5)
    c = core.qpsk()
    h = core.sample_channel(5, 3, rng)
    plan = sic.build_plan(h, 2)
    book1 = core.enumerate_symbols(c, 2)
    book2 = core.enumerate_symbols(c, 1)
    model = sic.learn_first_stage(plan, 0.5, 2, book1, book2, cfg, rng)
    full_book = core.enumerate_symbols(c, 3)
    data = full_book.vectors[rng.integers(0, full_book.size, size=50)]
    levels = core.transmit_batch(h, data, 0.5, cfg, rng)
    first, second = _detect(levels, plan, model, book1, book2, cfg)
    want = _single_path_sic(core.level_values(levels, cfg), plan, model)
    assert list(zip(first, second)) == want


@pytest.mark.parametrize("samples_per_pair", [1, 2])
def test_chunked_stage_two_matches_per_vector_path(monkeypatch, samples_per_pair):
    # n_t1 = 1 of 4 QPSK antennas: K2 = 64 candidates per stage-one decision
    rng = np.random.default_rng(61)
    cfg = QuantizerConfig(bits=2, step=0.5)
    c = core.qpsk()
    h = core.sample_channel(6, 4, rng)
    plan = sic.build_plan(h, 1)
    book1 = core.enumerate_symbols(c, 1)
    book2 = core.enumerate_symbols(c, 3)
    model = sic.learn_first_stage(
        plan, 0.3, samples_per_pair, book1, book2, cfg, rng)
    assert model.table.shape == (4, 64, 12)
    # the table: every pair's noiseless receive point quantized on its own
    for k1, x1 in enumerate(book1.vectors):
        for k2, x2 in enumerate(book2.vectors):
            clean = plan.h1 @ x1 + plan.h2 @ x2
            want = core.level_values(
                core.quantize_levels(core.real_components(clean), cfg), cfg)
            assert np.array_equal(model.table[k1, k2], want)

    full_book = core.enumerate_symbols(c, 4)
    data = full_book.vectors[rng.integers(0, full_book.size, size=50)]
    levels = core.transmit_batch(h, data, 0.3, cfg, rng)
    row_bytes = model.table[0].nbytes
    monkeypatch.setattr(sic, "_GATHER_BYTES", 7 * row_bytes + 5)
    assert sic.stage_two_chunk(row_bytes) == 7
    first, second = _detect(levels, plan, model, book1, book2, cfg)
    assert len(first) == 50
    want = _single_path_sic(core.level_values(levels, cfg), plan, model)
    assert list(zip(first, second)) == want
