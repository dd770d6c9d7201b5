import functools
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        want = scipy.linalg.null_space(sic.real_expand(h2).T).T
        got = sic.projection_matrix(h2)
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


def _noiseless_projections(model, plan, k):
    """The projected training signals of candidate k with one sample per
    pair: its K2 stage-two candidates' values through the projector."""
    return core.level_values(model.table[k], model.cfg) @ plan.w1.T


def _marginal_pmf(model, plan, k):
    """Each distinct projected signal of candidate k with its probability."""
    projected = _noiseless_projections(model, plan, k)
    atoms = Counter(map(tuple, projected.tolist()))
    return {a: c / len(projected) for a, c in atoms.items()}


def test_first_stage_distinct_projections_split_mass():
    # interference column not aligned with any axis: the two second-stage
    # hypotheses survive the projection as distinct atoms
    cfg = QuantizerConfig(bits=1, step=2.0)
    h = np.array([[2.0 + 0.5j, 1.0 - 1.0j], [0.5 - 1.0j, -1.0 + 0.5j]])
    plan = sic.build_plan(h, 1)
    assert plan.second_indices == (1,)
    book1 = core.enumerate_symbols(core.bpsk(), 1)
    book2 = core.enumerate_symbols(core.bpsk(), 1)
    model = sic.learn_first_stage(plan, 0.0, 1, book1, book2, cfg)
    assert model.table.shape[:2] == (2, 2)
    for k in range(book1.size):
        assert sorted(_marginal_pmf(model, plan, k).values()) == [0.5, 0.5]


def test_first_stage_coinciding_projections_merge():
    # interference column [1, 0]: the projector drops both parts of antenna
    # 1, the only antenna the second symbol touches, so both hypotheses
    # collapse into one atom
    cfg = QuantizerConfig(bits=1, step=2.0)
    h = np.array([[0.5 + 0.25j, 1.0], [1.0 + 1.0j, 0.0]])
    plan = sic.build_plan(h, 1)
    assert plan.second_indices == (1,)
    book = core.enumerate_symbols(core.bpsk(), 1)
    model = sic.learn_first_stage(plan, 0.0, 1, book, book, cfg)
    for k in range(book.size):
        assert list(_marginal_pmf(model, plan, k).values()) == [1.0]


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
    for k in range(book1.size):
        atoms = np.unique(_noiseless_projections(model, plan, k), axis=0)
        spread = np.linalg.norm(atoms - atoms[0], axis=1).max()
        assert spread <= budget


def _assert_projected_means(model, levels, plan):
    """The model's centroids are, bit for bit, the centroids of the
    (K1, K2, l, d) ``levels`` stacked per first-stage candidate, projected
    by one K1 x d product, and within 1e-13 of the largest |centroid| of
    the means of the per-pair projections, the centroids' former bits."""
    k1, d1 = len(levels), plan.w1.shape[0]
    stacked = training.EmpiricalModel(
        levels.reshape(k1, -1, levels.shape[-1]), model.cfg)
    means = detection.centroids(
        stacked.level_sums(), stacked.samples_per_symbol,
        model.cfg).centers @ plan.w1.T
    assert model.centroids.tobytes() == means.tobytes()
    per_pair = (core.level_values(levels, model.cfg) @ plan.w1.T).reshape(
        k1, -1, d1).mean(axis=1)
    drift = np.abs(model.centroids - per_pair).max()
    assert drift <= 1e-13 * np.abs(model.centroids).max()


def test_first_stage_projections_match_complex_path():
    # the centroids of the same draws through the complex signal path
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
    _assert_projected_means(model, levels, plan)
    assert np.array_equal(
        model.table, core.quantize_levels(core.real_components(clean), cfg))


@st.composite
def _first_stage_cases(draw):
    """A split of 2 to 4 BPSK or QPSK antennas over more receive antennas
    than interferers, b in [1, 3] and l in {1, 2, 3}."""
    n_t = draw(st.integers(2, 4))
    n_t1 = draw(st.integers(1, n_t))
    return dict(
        constellation=draw(st.sampled_from([core.bpsk(), core.qpsk()])),
        n_t=n_t, n_t1=n_t1, n_r=draw(st.integers(n_t - n_t1 + 1, 6)),
        bits=draw(st.integers(1, 3)), samples=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**16)))


@pytest.mark.parametrize("block", [1, 7, 100])
@settings(max_examples=40, deadline=None)
@given(case=_first_stage_cases())
@example(case=dict(constellation=core.qpsk(), n_t=4, n_t1=3, n_r=4, bits=2,
                   samples=3, seed=41))
def test_first_stage_blocks_match_whole_stack_projection(block, case):
    # up to K1 = 64 first-stage candidates quantized in blocks of 1, 7 (the
    # last one partial) or 100 (one block) give the table, and the
    # centroids are the projected means of the whole (K1, K2, l, d) stack
    cfg = QuantizerConfig(case["bits"], 0.5)
    rng = np.random.default_rng(case["seed"])
    h = core.sample_channel(case["n_r"], case["n_t"], rng)
    plan = sic.build_plan(h, case["n_t1"])
    book1 = core.enumerate_symbols(case["constellation"], case["n_t1"])
    book2 = core.enumerate_symbols(
        case["constellation"], case["n_t"] - case["n_t1"])
    samples = case["samples"]

    def blocks(rows, row_bytes, budget, least):
        return (slice(i, i + block) for i in range(0, rows, block))

    with mock.patch.object(sic, "row_blocks", blocks):
        model = sic.learn_first_stage(
            plan, 0.4, samples, book1, book2, cfg, np.random.default_rng(6))
    clean = (book1.vectors @ plan.h1.T)[:, None, :] + (
        book2.vectors @ plan.h2.T)[None, :, :]
    table = core.quantize_levels(core.real_components(clean), cfg)
    if samples == 1:
        levels = table[:, :, None, :]
    else:
        levels = core.noisy_levels(
            lambda rows: clean[rows, :, None, :],
            (book1.size, book2.size, samples, case["n_r"]), 0.4,
            np.random.default_rng(6), cfg)
    assert np.array_equal(model.table, table)
    assert model.table.dtype == cfg.level_dtype
    _assert_projected_means(model, levels, plan)


@pytest.mark.parametrize("n_t1", [5, 1])
def test_first_stage_holds_only_table_and_centroids(n_t1):
    # the 5/1 and 1/5 splits of the K = 4096, n_r = 32 benchmark run: the
    # uint8 table (256 KiB) and the 512 KiB complex products of the larger
    # book with its channel, with one 512 KiB block of candidates' float64
    # sums, their levels and the quantizer's scratch, then the level sums
    # (512 KiB at K1 = 1024) and their product, the centroids (496 KiB),
    # but no K x d float64 values (2 MiB) nor K x d1 projections (1.94 MiB)
    cfg = QuantizerConfig(bits=2, step=0.5)
    h = core.sample_channel(32, 6, np.random.default_rng(12))
    plan = sic.build_plan(h, n_t1)
    book1 = core.enumerate_symbols(core.qpsk(), n_t1)
    book2 = core.enumerate_symbols(core.qpsk(), 6 - n_t1)
    tracemalloc.start()
    try:
        model = sic.learn_first_stage(plan, 0.0, 1, book1, book2, cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.table.nbytes == 4096 * 64
    assert peak < 1.8 * 2**20
    assert held < 2**20


def test_first_stage_rejects_bad_inputs():
    cfg = QuantizerConfig(bits=1, step=2.0)
    h = core.sample_channel(3, 2, np.random.default_rng(2))
    plan = sic.build_plan(h, 1)
    book = core.enumerate_symbols(core.bpsk(), 1)
    with pytest.raises(ValueError, match="samples_per_pair"):
        sic.learn_first_stage(plan, 0.0, 0, book, book, cfg)


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
        candidates = core.level_values(model.table[k1], model.cfg)
        d2 = [float(np.sum((y - t) ** 2)) for t in candidates]
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
    # 2x2 channel whose interference column [1, 0] nulls antenna 1: stage
    # one sees only antenna 2, (1 + 1j) x1
    h = np.array([[0.5 + 0.25j, 1.0], [1.0 + 1.0j, 0.0]])
    plan = sic.build_plan(h, 1)
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
    hits = 0
    for k, center in enumerate(model.centroids):
        # synthesize an observation projecting exactly onto the centroid:
        # antenna 2's parts both positive or both negative ([Re, Im] order)
        for levels in ([(1, 1, 1, 1)], [(1, 0, 1, 0)]):
            levels = np.array(levels)
            values = core.level_values(levels[0], demo_cfg)
            if np.array_equal(plan.w1 @ values, center):
                first, _ = _detect(levels, plan, model, book, book, demo_cfg)
                assert first == [k]
                hits += 1
    assert hits == len(model.centroids)


def test_detect_first_tie_breaks_to_smallest_index(demo_cfg):
    plan = sic.SicPlan(
        first_indices=(0,), second_indices=(1,),
        h1=np.zeros((1, 1)), h2=np.zeros((1, 1)),
        w1=np.eye(2))
    book = core.enumerate_symbols(core.bpsk(), 1)
    model = sic.FirstStageModel(
        centroids=np.array([[1.0, 0.0], [1.0, 2.0]]),
        table=np.zeros((2, 2, 2), dtype=demo_cfg.level_dtype), cfg=demo_cfg)
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
    cb = detection.centroids(explicit.level_sums(), samples, cfg)
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
        h1=plan.h1, h2=plan.h2, w1=q @ plan.w1)
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
            want = core.quantize_levels(core.real_components(clean), cfg)
            assert np.array_equal(model.table[k1, k2], want)

    full_book = core.enumerate_symbols(c, 4)
    data = full_book.vectors[rng.integers(0, full_book.size, size=50)]
    levels = core.transmit_batch(h, data, 0.3, cfg, rng)
    # stage two in near-equal blocks of at most 7 rows: 8 blocks, 7 and 6 rows
    row_bytes = 8 * model.table[0].size
    budget = 7 * row_bytes + 5
    assert core.block_rows(50, row_bytes, budget) == 7
    monkeypatch.setattr(
        sic, "row_blocks", functools.partial(core.row_blocks, budget=budget))
    first, second = _detect(levels, plan, model, book1, book2, cfg)
    assert len(first) == 50
    want = _single_path_sic(core.level_values(levels, cfg), plan, model)
    assert list(zip(first, second)) == want
