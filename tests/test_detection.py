import dataclasses
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantmimo import core, detection, training
from quantmimo.core import QuantizedVector, QuantizerConfig


def _qv(levels, bits=1, step=2.0):
    return QuantizedVector(tuple(levels), bits, step)


def _model(count_dicts, samples):
    return training.EmpiricalModel.from_counts(
        tuple(dict(d) for d in count_dicts), samples_per_symbol=samples)


@pytest.fixture
def demo_model(demo_channel, demo_cfg, demo_book):
    schedule = training.build_implicit_pilots(demo_book, 1)
    levels = core.transmit_batch(demo_channel, schedule.rows(), 0.0, demo_cfg)
    return training.learn_implicit(levels, demo_book, 1, demo_cfg)


# ---------------------------------------------------------------------------
# independent brute-force oracles (pure python loops over the model dicts)


def _oracle_neighbors(y, model):
    d2 = {
        t: sum((a - b) ** 2 for a, b in zip(y.levels, t.levels))
        for t in model.trained_vectors
    }
    d2_min = min(d2.values())
    members = [t for t in model.trained_vectors if d2[t] == d2_min]
    return members, y.step * d2_min**0.5


def _oracle_emld(y, model):
    members, _ = _oracle_neighbors(y, model)
    scores = [
        sum(model.counts[k].get(t, 0) for t in members)
        for k in range(model.size)
    ]
    return max(range(model.size), key=lambda k: (scores[k], -k))


def _oracle_mmd(y, model):
    scores = []
    for k in range(model.size):
        scores.append(sum(
            float(np.linalg.norm(y.values - t.values)) * c
            for t, c in model.counts[k].items()))
    return min(range(model.size), key=lambda k: (scores[k], k))


def _oracle_mcd(y, book):
    d = [float(np.linalg.norm(y.values - c)) for c in book.centers]
    return min(range(len(d)), key=lambda k: (d[k], k))


# ---------------------------------------------------------------------------
# neighbor sets


def test_neighbor_of_trained_vector_is_itself(demo_model):
    y = _qv((1, 0))
    members, r_min = detection.neighbor_set(y, demo_model)
    assert y in members and r_min == 0.0


def test_neighbor_set_worked_example(demo_model):
    members, r_min = detection.neighbor_set(_qv((1, 0)), demo_model)
    assert members == [_qv((1, 0))] and r_min == 0.0


def test_neighbor_set_equidistant_pair():
    model = _model([{_qv((1, 1)): 1}, {_qv((0, 0)): 1}], samples=1)
    members, r_min = detection.neighbor_set(_qv((1, 0)), model)
    assert set(members) == {_qv((1, 1)), _qv((0, 0))}
    assert r_min == pytest.approx(2.0)


def test_neighbor_set_rejects_empty_model():
    empty = _model([{}], samples=1)
    with pytest.raises(ValueError, match="no trained vectors"):
        detection.neighbor_set(_qv((0,)), empty)


# ---------------------------------------------------------------------------
# eMLD


def test_emld_worked_example(demo_model, demo_book):
    k = detection.detect_emld(_qv((1, 0)), demo_model)
    assert k == 2
    assert np.array_equal(demo_book.vectors[k], [-1, 1])


def test_emld_unique_support():
    model = _model([{_qv((1, 1)): 3}, {_qv((0, 0)): 3}], samples=3)
    assert detection.detect_emld(_qv((1, 1)), model) == 0
    assert detection.detect_emld(_qv((0, 0)), model) == 1


def test_emld_hand_scores():
    model = _model(
        [{_qv((1, 1)): 2}, {_qv((1, 1)): 1, _qv((0, 0)): 1}], samples=2)
    # scores for y = (1, 1): symbol 0 -> 1.0, symbol 1 -> 0.5
    assert detection.detect_emld(_qv((1, 1)), model) == 0


def test_emld_singleton_neighbor_equals_empirical_argmax():
    rng = np.random.default_rng(31)
    cfg = QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 2)
    h = core.sample_channel(3, 2, rng)
    model = training.learn_explicit(h, 0.6, 40, book, cfg, rng)
    for y in model.trained_vectors:
        members, r_min = detection.neighbor_set(y, model)
        if r_min == 0.0 and members == [y]:
            direct = max(
                range(book.size),
                key=lambda k: (model.counts[k].get(y, 0), -k))
            assert detection.detect_emld(y, model) == direct


def test_emld_tie_breaks_to_smallest_index():
    shared = {_qv((1, 1)): 1}
    model = _model([shared, shared, shared], samples=1)
    assert detection.detect_emld(_qv((1, 1)), model) == 0


# ---------------------------------------------------------------------------
# MMD


def test_mmd_worked_example(demo_model):
    assert detection.detect_mmd(_qv((1, 0)), demo_model) == 2


def test_mmd_hand_scores():
    model = _model(
        [{_qv((1, 1)): 2}, {_qv((1, 1)): 1, _qv((0, 0)): 1}], samples=2)
    # symbol 0 mean distance 0; symbol 1 mean distance 0.5 * 2 sqrt(2)
    assert detection.detect_mmd(_qv((1, 1)), model) == 0


def test_mmd_single_sample_collapses_to_nearest_trained():
    rng = np.random.default_rng(8)
    cfg = QuantizerConfig(bits=1, step=2.0)
    book = core.enumerate_symbols(core.bpsk(), 2)
    h = core.sample_channel(2, 2, rng)
    model = training.learn_explicit(h, 0.0, 1, book, cfg, rng)
    for _ in range(20):
        y = _qv(rng.integers(0, 2, size=4))
        got = detection.detect_mmd(y, model)
        only = [model.support(k)[0] for k in range(book.size)]
        nearest = min(
            range(book.size),
            key=lambda k: (np.linalg.norm(y.values - only[k].values), k))
        assert got == nearest


def test_mmd_rejects_empty_support():
    model = _model([{_qv((1, 1)): 1}, {}], samples=1)
    with pytest.raises(ValueError, match="empty trained support"):
        detection.detect_mmd(_qv((1, 1)), model)


# ---------------------------------------------------------------------------
# centroids and MCD


def test_centroid_single_vector():
    model = _model([{_qv((1, 0)): 4}], samples=4)
    book = detection.centroids(model)
    assert np.array_equal(book.centers[0], [1.0, -1.0])


def test_centroid_weighted_mean():
    model = _model([{_qv((1, 1)): 3, _qv((1, 0)): 1}], samples=4)
    book = detection.centroids(model)
    assert np.array_equal(book.centers[0], [1.0, 0.5])


def test_centroid_antipodality_is_exact():
    rng = np.random.default_rng(14)
    cfg = QuantizerConfig(bits=2, step=0.5)
    book = core.enumerate_symbols(core.qpsk(), 1)
    h = core.sample_channel(3, 1, rng)
    schedule = training.build_implicit_pilots(book, 11)
    levels = core.transmit_batch(h, schedule.rows(), 0.7, cfg, rng)
    model = training.learn_implicit(levels, book, 11, cfg)
    centers = detection.centroids(model).centers
    for k in range(book.size):
        assert np.array_equal(centers[book.size - 1 - k], -centers[k])


@st.composite
def _count_models(draw, steps):
    """from_counts models with a drawn step and rows per symbol that are
    uneven, or all equal to ``samples_per_symbol`` as in a trained model."""
    bits, dim = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    step = draw(steps)
    row = st.tuples(*[st.integers(0, (1 << bits) - 1)] * dim)
    counts = [
        {QuantizedVector(levels, bits, step): c for levels, c in draw(
            st.dictionaries(row, st.integers(1, 5), min_size=1, max_size=4)
        ).items()}
        for _ in range(draw(st.integers(1, 4)))]
    samples = draw(st.integers(1, 20))
    if draw(st.booleans()):
        samples = max(sum(d.values()) for d in counts)
        for d in counts:
            first = next(iter(d))
            d[first] += samples - sum(d.values())
    return _model(counts, samples=samples), counts


@settings(max_examples=80, deadline=None)
@given(case=_count_models(st.floats(1e-6, 1e6)),
       dtype=st.sampled_from([np.int64, np.uint8, np.int8]))
def test_centroids_are_integer_level_sums_at_any_step(case, dtype):
    model, counts = case
    # a model may hold narrow integer levels; the sums must not wrap
    model = dataclasses.replace(model, levels=model.levels.astype(dtype))
    cfg, dim = model.cfg, model.levels.shape[1]
    off = (1 << (cfg.bits - 1)) - 0.5
    want = []
    for per_symbol in counts:
        # exact python-int level sums over the symbol's rows
        rows = sum(per_symbol.values())
        sums = [sum(c * y.levels[j] for y, c in per_symbol.items())
                for j in range(dim)]
        want.append((np.array(sums, dtype=float) - rows * off) * cfg.step
                    / model.samples_per_symbol)
    got = detection.centroids(model).centers
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("dtype", [np.uint8, np.int8])
def test_centroids_of_narrow_levels_do_not_wrap(dtype):
    # 300 rows of level 7 sum to 2100, beyond either 8-bit range
    top, low = _qv((7, 7), bits=3, step=0.5), _qv((0, 1), bits=3, step=0.5)
    model = _model([{top: 300}, {low: 2, top: 1}], samples=300)
    narrow = dataclasses.replace(model, levels=model.levels.astype(dtype))
    want = detection.centroids(model).centers
    assert model.levels.dtype == np.int64
    assert want[0].tolist() == [1.75, 1.75]
    assert detection.centroids(narrow).centers.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(case=_count_models(st.floats(1e-6, 1e6)),
       block_rows=st.integers(1, 7),
       dtype=st.sampled_from([np.int64, np.uint8]))
def test_centroids_summed_in_blocks_equal_one_sum(case, block_rows, dtype):
    model, _ = case
    model = dataclasses.replace(model, levels=model.levels.astype(dtype))
    per_symbol = np.bincount(model.symbols, minlength=model.size)
    starts = np.cumsum(per_symbol) - per_symbol
    # the one-pass form: every level row widened to int64 at once
    sums = np.add.reduceat(
        model.levels.astype(np.int64), starts, axis=0)
    off = (1 << (model.cfg.bits - 1)) - 0.5
    want = ((sums - per_symbol[:, None] * off) * model.cfg.step
            / model.samples_per_symbol)
    # blocks of whole symbols, some symbols longer than a block
    block_bytes = 8 * model.levels.shape[1] * block_rows
    with mock.patch.object(detection, "_SUM_BYTES", block_bytes):
        got = detection.centroids(model).centers
    assert got.tobytes() == want.tobytes()


@settings(max_examples=80, deadline=None)
@given(case=_count_models(st.integers(-8, 8).map(lambda e: 2.0 ** e)))
def test_centroids_equal_value_sums_at_dyadic_steps(case):
    model, _ = case
    per_symbol = np.bincount(model.symbols, minlength=model.size)
    starts = np.cumsum(per_symbol) - per_symbol
    # the value-sum form the integer sums replaced
    sums = np.add.reduceat(
        core.level_values(model.levels, model.cfg), starts, axis=0)
    want = sums / model.samples_per_symbol
    assert detection.centroids(model).centers.tobytes() == want.tobytes()


def test_mcd_worked_example(demo_model):
    book = detection.centroids(demo_model)
    assert detection.detect_mcd(_qv((1, 0)), book) == 2


def test_mcd_exact_centroid_hit():
    book = detection.CentroidBook(
        centers=np.array([[1.0, 1.0], [0.25, -0.5], [-1.0, 0.0]]))
    y = _qv((1, 0))  # values (1, -1)
    nearest = _oracle_mcd(y, book)
    assert detection.detect_mcd(y, book) == nearest
    exact = detection.CentroidBook(centers=np.array([[0.5, 0.5], [1.0, -1.0]]))
    assert detection.detect_mcd(y, exact) == 1


def test_mcd_tie_breaks_to_smallest_index():
    book = detection.CentroidBook(centers=np.array([[2.0, 0.0], [-2.0, 0.0]]))
    y = _qv((1, 1), bits=1, step=2.0)  # values (1, 1): equidistant columns
    assert detection.detect_mcd(y, book) == 0


def test_one_bit_mcd_equals_hamming_rule_exhaustively():
    # every +-1 observation in dimension 4 against several +-1 codebooks
    rng = np.random.default_rng(99)
    for _ in range(10):
        centers = rng.choice([-1.0, 1.0], size=(4, 4))
        book = detection.CentroidBook(centers=centers)
        for bits in itertools.product((0, 1), repeat=4):
            y = _qv(bits, bits=1, step=2.0)
            hamming = [
                int(np.sum(np.sign(y.values) != np.sign(c))) for c in centers]
            ham_best = min(range(4), key=lambda k: (hamming[k], k))
            assert detection.detect_mcd(y, book) == ham_best


# ---------------------------------------------------------------------------
# cross-detector properties


def test_all_detectors_agree_on_unambiguous_noiseless_input():
    rng = np.random.default_rng(21)
    cfg = QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.qpsk(), 1)
    for _ in range(20):
        h = core.sample_channel(4, 1, rng)
        codewords = [
            core.quantize_vector(h @ x, cfg) for x in book.vectors]
        if len(set(codewords)) < book.size:
            continue  # skip ambiguous channels
        model = training.learn_explicit(h, 0.0, 1, book, cfg, rng)
        cb = detection.centroids(model)
        for k, y in enumerate(codewords):
            assert detection.detect_emld(y, model) == k
            assert detection.detect_mmd(y, model) == k
            assert detection.detect_mcd(y, cb) == k


def test_relabeling_equivariance():
    rng = np.random.default_rng(4)
    cfg = QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 2)
    h = core.sample_channel(3, 2, rng)
    model = training.learn_explicit(h, 0.4, 16, book, cfg, rng)
    perm = np.array([2, 0, 3, 1])
    permuted = training.EmpiricalModel.from_counts(
        tuple(model.counts[k] for k in perm),
        samples_per_symbol=model.samples_per_symbol)
    cb, cb_p = detection.centroids(model), detection.centroids(permuted)
    inverse = np.argsort(perm)
    for _ in range(50):
        y = _qv(rng.integers(0, 2, size=6), bits=1, step=0.5)
        for detect, m, m_p in (
            (detection.detect_emld, model, permuted),
            (detection.detect_mmd, model, permuted),
        ):
            base = detect(y, m)
            scores_unique = True  # only check tie-free observations
            if detect is detection.detect_emld:
                members, _ = detection.neighbor_set(y, m)
                scores = [
                    sum(m.counts[k].get(t, 0) for t in members)
                    for k in range(4)
                ]
                scores_unique = scores.count(max(scores)) == 1
            if scores_unique:
                assert detect(y, m_p) == inverse[base]
        assert detection.detect_mcd(y, cb_p) == inverse[
            detection.detect_mcd(y, cb)]


def test_batch_detectors_match_oracles():
    rng = np.random.default_rng(70)
    cfg = QuantizerConfig(bits=2, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 2)
    h = core.sample_channel(2, 2, rng)
    model = training.learn_explicit(h, 0.7, 9, book, cfg, rng)
    cb = detection.centroids(model)
    levels = rng.integers(0, 4, size=(40, 4))
    ys = core.vectors_from_levels(levels, cfg)
    emld = detection.detect_emld_batch(levels, model)
    mmd = detection.detect_mmd_batch(levels, model)
    mcd = detection.detect_mcd_batch(
        core.level_values(levels, cfg), cb)
    for i, y in enumerate(ys):
        assert emld[i] == _oracle_emld(y, model)
        assert mmd[i] == _oracle_mmd(y, model)
        assert mcd[i] == _oracle_mcd(y, cb)
        members, r_min = detection.neighbor_set(y, model)
        o_members, o_rmin = _oracle_neighbors(y, model)
        assert members == o_members and r_min == pytest.approx(o_rmin)
