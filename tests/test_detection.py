import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantmimo import core, detection, training
from quantmimo.core import QuantizerConfig

_ONE_BIT = QuantizerConfig(bits=1, step=2.0)


def _row(levels):
    """One observation as a one-row level matrix."""
    return np.array([levels], dtype=np.int64)


def _model(count_dicts, cfg=_ONE_BIT):
    """Model holding ``counts[k][y]`` copies of the level tuple y for every
    symbol k, as int64 level rows; every symbol's counts sum to the same L."""
    levels = [[y for y, c in d.items() for _ in range(c)] for d in count_dicts]
    return training.EmpiricalModel(
        levels=np.array(levels, dtype=np.int64), cfg=cfg)


def _emld(levels, model):
    return int(detection.detect_emld_batch(_row(levels), model)[0])


def _mmd(levels, model):
    return int(detection.detect_mmd_batch(_row(levels), model)[0])


def _mcd(levels, book, cfg=_ONE_BIT):
    values = core.level_values(_row(levels), cfg)
    return int(detection.detect_mcd_batch(values, book)[0])


@pytest.fixture
def demo_model(demo_channel, demo_cfg, demo_book):
    pilots = training.build_implicit_pilots(demo_book, 1)
    levels = core.transmit_batch(demo_channel, pilots, 0.0, demo_cfg)
    return training.learn_implicit(levels, demo_book, 1, demo_cfg)


# ---------------------------------------------------------------------------
# independent brute-force oracles (pure python loops over level tuples)


def _oracle_counts(model):
    """Per symbol, each trained level tuple (first-seen order) and its count."""
    out = [{} for _ in range(model.size)]
    for k, rows in enumerate(model.levels.tolist()):
        for row in rows:
            out[k][tuple(row)] = out[k].get(tuple(row), 0) + 1
    return out


def _oracle_neighbors(y, counts):
    trained = list(dict.fromkeys(t for per_symbol in counts for t in per_symbol))
    d2 = {t: sum((a - b) ** 2 for a, b in zip(y, t)) for t in trained}
    d2_min = min(d2.values())
    return [t for t in trained if d2[t] == d2_min], d2_min


def _oracle_emld(y, counts):
    members, _ = _oracle_neighbors(y, counts)
    scores = [sum(per_symbol.get(t, 0) for t in members) for per_symbol in counts]
    return max(range(len(counts)), key=lambda k: (scores[k], -k))


def _oracle_mmd(y, counts, cfg):
    values = core.level_values(np.array(y), cfg)
    scores = [
        sum(float(np.linalg.norm(values - core.level_values(np.array(t), cfg)))
            * c for t, c in per_symbol.items())
        for per_symbol in counts]
    return min(range(len(counts)), key=lambda k: (scores[k], k))


def _oracle_mcd(values, book):
    d = [float(np.linalg.norm(values - c)) for c in book.centers]
    return min(range(len(d)), key=lambda k: (d[k], k))


# ---------------------------------------------------------------------------
# eMLD


def test_emld_worked_example(demo_model, demo_book):
    k = _emld((1, 0), demo_model)
    assert k == 2
    assert np.array_equal(demo_book.vectors[k], [-1, 1])


def test_emld_unique_support():
    model = _model([{(1, 1): 3}, {(0, 0): 3}])
    assert _emld((1, 1), model) == 0
    assert _emld((0, 0), model) == 1


def test_emld_hand_scores():
    model = _model([{(1, 1): 2}, {(1, 1): 1, (0, 0): 1}])
    # scores for y = (1, 1): symbol 0 -> 1.0, symbol 1 -> 0.5
    assert _emld((1, 1), model) == 0


def test_emld_singleton_neighbor_equals_empirical_argmax():
    rng = np.random.default_rng(31)
    cfg = QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 2)
    h = core.sample_channel(3, 2, rng)
    model = training.learn_explicit(h, 0.6, 40, book, cfg, rng)
    counts = _oracle_counts(model)
    for y in dict.fromkeys(map(tuple, model.levels.reshape(-1, 6).tolist())):
        members, d2_min = _oracle_neighbors(y, counts)
        if d2_min == 0 and members == [y]:
            direct = max(
                range(book.size), key=lambda k: (counts[k].get(y, 0), -k))
            assert _emld(y, model) == direct


def test_emld_tie_breaks_to_smallest_index():
    shared = {(1, 1): 1}
    model = _model([shared, shared, shared])
    assert _emld((1, 1), model) == 0


# ---------------------------------------------------------------------------
# MMD


def test_mmd_worked_example(demo_model):
    assert _mmd((1, 0), demo_model) == 2


def test_mmd_hand_scores():
    model = _model([{(1, 1): 2}, {(1, 1): 1, (0, 0): 1}])
    # symbol 0 mean distance 0; symbol 1 mean distance 0.5 * 2 sqrt(2)
    assert _mmd((1, 1), model) == 0


def test_mmd_single_sample_collapses_to_nearest_trained():
    rng = np.random.default_rng(8)
    cfg = QuantizerConfig(bits=1, step=2.0)
    book = core.enumerate_symbols(core.bpsk(), 2)
    h = core.sample_channel(2, 2, rng)
    model = training.learn_explicit(h, 0.0, 1, book, cfg, rng)
    # one sample per symbol: row k is symbol k's only trained vector
    only = core.level_values(model.levels[:, 0], cfg)
    for _ in range(20):
        y = rng.integers(0, 2, size=4)
        got = _mmd(y, model)
        values = core.level_values(y, cfg)
        nearest = min(
            range(book.size),
            key=lambda k: (np.linalg.norm(values - only[k]), k))
        assert got == nearest


# ---------------------------------------------------------------------------
# centroids and MCD


def test_centroid_single_vector():
    model = _model([{(1, 0): 4}])
    book = detection.centroids(model)
    assert np.array_equal(book.centers[0], [1.0, -1.0])


def test_centroid_weighted_mean():
    model = _model([{(1, 1): 3, (1, 0): 1}])
    book = detection.centroids(model)
    assert np.array_equal(book.centers[0], [1.0, 0.5])


def test_centroid_antipodality_is_exact():
    rng = np.random.default_rng(14)
    cfg = QuantizerConfig(bits=2, step=0.5)
    book = core.enumerate_symbols(core.qpsk(), 1)
    h = core.sample_channel(3, 1, rng)
    pilots = training.build_implicit_pilots(book, 11)
    levels = core.transmit_batch(h, pilots, 0.7, cfg, rng)
    model = training.learn_implicit(levels, book, 11, cfg)
    centers = detection.centroids(model).centers
    for k in range(book.size):
        assert np.array_equal(centers[book.size - 1 - k], -centers[k])


@st.composite
def _count_models(draw, steps):
    """Models with a drawn step and ``samples_per_symbol`` rows per symbol,
    as in a trained model."""
    bits, dim = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cfg = QuantizerConfig(bits, draw(steps))
    row = st.tuples(*[st.integers(0, (1 << bits) - 1)] * dim)
    counts = [
        draw(st.dictionaries(row, st.integers(1, 5), min_size=1, max_size=4))
        for _ in range(draw(st.integers(1, 4)))]
    samples = max(sum(d.values()) for d in counts)
    for d in counts:
        first = next(iter(d))
        d[first] += samples - sum(d.values())
    return _model(counts, cfg=cfg), counts


@settings(max_examples=80, deadline=None)
@given(case=_count_models(st.floats(1e-6, 1e6)),
       dtype=st.sampled_from([np.int64, np.uint8, np.int8]))
def test_centroids_are_integer_level_sums_at_any_step(case, dtype):
    model, counts = case
    # a model may hold narrow integer levels; the sums must not wrap
    model = dataclasses.replace(model, levels=model.levels.astype(dtype))
    cfg, dim = model.cfg, model.levels.shape[2]
    off = (1 << (cfg.bits - 1)) - 0.5
    want = []
    for per_symbol in counts:
        # exact python-int level sums over the symbol's rows
        rows = sum(per_symbol.values())
        sums = [sum(c * y[j] for y, c in per_symbol.items())
                for j in range(dim)]
        want.append((np.array(sums, dtype=float) - rows * off) * cfg.step
                    / model.samples_per_symbol)
    got = detection.centroids(model).centers
    assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("dtype", [np.uint8, np.int8])
def test_centroids_of_narrow_levels_do_not_wrap(dtype):
    # 300 rows of level 7 sum to 2100, beyond either 8-bit range
    top, low = (7, 7), (0, 1)
    model = _model([{top: 300}, {low: 299, top: 1}],
                   cfg=QuantizerConfig(bits=3, step=0.5))
    narrow = dataclasses.replace(model, levels=model.levels.astype(dtype))
    want = detection.centroids(model).centers
    assert model.levels.dtype == np.int64
    assert want[0].tolist() == [1.75, 1.75]
    assert detection.centroids(narrow).centers.tobytes() == want.tobytes()


def test_centroids_never_widen_every_level_at_once():
    # the K = 4096, L = 16, d = 64 full search: the float64 sums, which
    # become the centers in place, fit; widening all 4 Mi levels to float64
    # at once would take 32 MiB
    k, d = 4096, 64
    levels = np.random.default_rng(6).integers(
        0, 4, size=(k, 16, d), dtype=np.uint8)
    model = training.EmpiricalModel(
        levels=levels, cfg=QuantizerConfig(bits=2, step=0.5))
    tracemalloc.start()
    try:
        detection.centroids(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * k * d + 64 * 1024


@settings(max_examples=80, deadline=None)
@given(case=_count_models(st.integers(-8, 8).map(lambda e: 2.0 ** e)))
def test_centroids_equal_value_sums_at_dyadic_steps(case):
    model, _ = case
    # the value-sum form the integer sums replaced
    sums = core.level_values(model.levels, model.cfg).sum(axis=1)
    want = sums / model.samples_per_symbol
    assert detection.centroids(model).centers.tobytes() == want.tobytes()


def test_mcd_worked_example(demo_model):
    book = detection.centroids(demo_model)
    assert _mcd((1, 0), book) == 2


def test_mcd_exact_centroid_hit():
    book = detection.CentroidBook(
        centers=np.array([[1.0, 1.0], [0.25, -0.5], [-1.0, 0.0]]))
    y = (1, 0)  # values (1, -1)
    nearest = _oracle_mcd(core.level_values(np.array(y), _ONE_BIT), book)
    assert _mcd(y, book) == nearest
    exact = detection.CentroidBook(centers=np.array([[0.5, 0.5], [1.0, -1.0]]))
    assert _mcd(y, exact) == 1


def test_mcd_tie_breaks_to_smallest_index():
    book = detection.CentroidBook(centers=np.array([[2.0, 0.0], [-2.0, 0.0]]))
    # levels (1, 1) are values (1, 1): equidistant columns
    assert _mcd((1, 1), book) == 0


def test_one_bit_mcd_equals_hamming_rule_exhaustively():
    # every +-1 observation in dimension 4 against several +-1 codebooks
    rng = np.random.default_rng(99)
    for _ in range(10):
        centers = rng.choice([-1.0, 1.0], size=(4, 4))
        book = detection.CentroidBook(centers=centers)
        for bits in itertools.product((0, 1), repeat=4):
            values = core.level_values(np.array(bits), _ONE_BIT)
            hamming = [
                int(np.sum(np.sign(values) != np.sign(c))) for c in centers]
            ham_best = min(range(4), key=lambda k: (hamming[k], k))
            assert _mcd(bits, book) == ham_best


# ---------------------------------------------------------------------------
# cross-detector properties


def test_all_detectors_agree_on_unambiguous_noiseless_input():
    rng = np.random.default_rng(21)
    cfg = QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.qpsk(), 1)
    for _ in range(20):
        h = core.sample_channel(4, 1, rng)
        # each noiseless receive point quantized on its own
        codewords = [
            tuple(core.quantize_levels(core.real_components(h @ x), cfg))
            for x in book.vectors]
        if len(set(codewords)) < book.size:
            continue  # skip ambiguous channels
        model = training.learn_explicit(h, 0.0, 1, book, cfg, rng)
        cb = detection.centroids(model)
        for k, y in enumerate(codewords):
            assert _emld(y, model) == k
            assert _mmd(y, model) == k
            assert _mcd(y, cb, cfg) == k


def test_relabeling_equivariance():
    rng = np.random.default_rng(4)
    cfg = QuantizerConfig(bits=1, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 2)
    h = core.sample_channel(3, 2, rng)
    model = training.learn_explicit(h, 0.4, 16, book, cfg, rng)
    perm = np.array([2, 0, 3, 1])
    counts = _oracle_counts(model)
    permuted = _model([counts[k] for k in perm], cfg=cfg)
    cb, cb_p = detection.centroids(model), detection.centroids(permuted)
    inverse = np.argsort(perm)
    for _ in range(50):
        y = tuple(rng.integers(0, 2, size=6).tolist())
        for detect, m, m_p in ((_emld, model, permuted),
                               (_mmd, model, permuted)):
            base = detect(y, m)
            scores_unique = True  # only check tie-free observations
            if detect is _emld:
                members, _ = _oracle_neighbors(y, counts)
                scores = [sum(counts[k].get(t, 0) for t in members)
                          for k in range(4)]
                scores_unique = scores.count(max(scores)) == 1
            if scores_unique:
                assert detect(y, m_p) == inverse[base]
        assert _mcd(y, cb_p, cfg) == inverse[_mcd(y, cb, cfg)]


def test_batch_detectors_match_oracles():
    rng = np.random.default_rng(70)
    cfg = QuantizerConfig(bits=2, step=0.5)
    book = core.enumerate_symbols(core.bpsk(), 2)
    h = core.sample_channel(2, 2, rng)
    model = training.learn_explicit(h, 0.7, 9, book, cfg, rng)
    cb = detection.centroids(model)
    levels = rng.integers(0, 4, size=(40, 4))
    values = core.level_values(levels, cfg)
    emld = detection.detect_emld_batch(levels, model)
    mmd = detection.detect_mmd_batch(levels, model)
    mcd = detection.detect_mcd_batch(values, cb)
    counts = _oracle_counts(model)
    for i, y in enumerate(map(tuple, levels.tolist())):
        assert emld[i] == _oracle_emld(y, counts)
        assert mmd[i] == _oracle_mmd(y, counts, cfg)
        assert mcd[i] == _oracle_mcd(values[i], cb)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([1, 2, 74, 75, 76, 300]), k=st.integers(1, 40),
       d=st.integers(1, 64), samples=st.integers(1, 7),
       seed=st.integers(0, 2**32 - 1))
def test_nearest_center_equals_out_of_place_expansion(n, k, d, samples, seed):
    # one-bit value rows against centers that are level means over
    # ``samples`` rows, with every center duplicated (exact ties) and some
    # observations on a center; BLAS picks its kernel by batch shape, and
    # m <= 75 and m = 300 rows take different ones
    rng = np.random.default_rng(seed)
    sums = rng.integers(0, samples + 1, size=(k, d))
    centers = core.level_values(sums, _ONE_BIT) if samples == 1 else (
        (sums - samples * 0.5) * _ONE_BIT.step / samples)
    centers = np.repeat(centers, 2, axis=0)
    values = core.level_values(rng.integers(0, 2, size=(n, d)), _ONE_BIT)
    values[::3] = centers[rng.integers(0, 2 * k, size=len(values[::3]))]
    # the three-term expression the in-place kernel replaced
    d2 = (np.einsum("nd,nd->n", values, values)[:, None]
          - 2.0 * values @ centers.T
          + np.einsum("kd,kd->k", centers, centers)[None, :])
    got = detection.nearest_center(values, centers)
    assert np.array_equal(got, np.argmin(d2, axis=1))


# K centers of d values: the blocked-product grid, whose one-block rows and
# block lengths around the block size take different BLAS kernels
_BLOCKED_GRID = [
    (k, d) for k in (16, 64, 256, 1024, 4096, 16384) for d in (8, 32, 64)
] + [(131_072, 8)]


@pytest.mark.parametrize("k, d", _BLOCKED_GRID)
def test_blocked_products_and_decisions_equal_whole_ones(k, d):
    # N = 1, 2, 3 and B - 1 to B + 2 rows for a B-row block of K float64
    # scores, and 2 B + 3: a naive split of B + 1 rows leaves a one-row
    # block (a matrix-vector product) and of B + 2 rows, at d = 64 and
    # K <= 256, a two-row one that a small-matrix kernel scores, both with
    # other bits, and at K = 131 072 the budget holds one row; the
    # near-equal blocks of at least two rows give the rows of the whole
    # product bit for bit, and nearest_center the decisions of the whole
    # three-term expansion
    rng = np.random.default_rng(k + d)
    centers = rng.normal(size=(k, d))
    center_norms = np.einsum("kd,kd->k", centers, centers)
    b = core.block_rows(10**9, 8 * k)
    assert b == max(2, core._BLOCK_BYTES // (8 * k))
    for n in (1, 2, 3, b - 1, b, b + 1, b + 2, 2 * b + 3):
        values = rng.normal(size=(n, d))
        whole = values @ centers.T
        blocked = np.concatenate(
            [values[rows] @ centers.T for rows in core.row_blocks(n, 8 * k)])
        assert blocked.tobytes() == whole.tobytes()
        d2 = (np.einsum("nd,nd->n", values, values)[:, None]
              - 2.0 * whole + center_norms)
        assert np.array_equal(
            detection.nearest_center(values, centers), np.argmin(d2, axis=1))


@pytest.mark.parametrize("k, d", _BLOCKED_GRID)
def test_sqdist_equals_former_in_place_expansion(k, d):
    # sqdist scales the row operand by -2 before the product; the kernel it
    # replaced scaled the product in place. Scaling by a power of two is
    # exact, so on the grid's row counts the distances keep every bit
    rng = np.random.default_rng(k * d)
    centers = rng.normal(size=(k, d))
    b = core.block_rows(10**9, 8 * k)
    for n in (1, 2, 3, b - 1, b, b + 1, b + 2, 2 * b + 3):
        values = rng.normal(size=(n, d))
        former = values @ centers.T
        former *= -2.0
        former += np.einsum("nd,nd->n", values, values)[:, None]
        former += np.einsum("kd,kd->k", centers, centers)
        assert core.sqdist(values, centers).tobytes() == former.tobytes()


def test_nearest_center_holds_one_distance_matrix():
    # MCD at K = 4096, d = 64 on a 200-row batch: seven blocks of 28 or 29
    # rows' float64 products, each turned into distances in place before
    # the next is made, next to the 4096 center norms, the 200 decisions, a
    # block's row norms and the ufunc buffer of the broadcast addition, but
    # no 200 x 4096 product (6.25 MiB) and no copy of the values
    rng = np.random.default_rng(8)
    values = rng.normal(size=(200, 64))
    centers = rng.normal(size=(4096, 64))
    assert core.block_rows(200, 8 * 4096) == 29
    tracemalloc.start()
    try:
        detection.nearest_center(values, centers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (29 * 4096 + 4096 + 200 + 29 + np.getbufsize()) + 16384


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(1, 32), d=st.integers(1, 64), n=st.integers(1, 12),
       s=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_sqdist_equals_difference_tensor(bits, d, n, s, seed):
    # the BLAS expansion against the N x S x d integer differences it
    # replaced, up to the exactness limit; the first rows hold the largest
    # possible distance
    while not core.sqdist_exact(bits, d):
        bits -= 1
    top = (1 << bits) - 1
    dtype = core.QuantizerConfig(bits, 0.5).level_dtype
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, top + 1, size=(n, d), dtype=np.int64)
    trained = rng.integers(0, top + 1, size=(s, d), dtype=np.int64)
    levels[0], trained[0] = 0, top
    diff = levels[:, None, :] - trained[None, :, :]
    got = core.sqdist(levels.astype(dtype), trained.astype(dtype))
    assert got.dtype == np.float64
    assert np.array_equal(got, np.einsum("nsd,nsd->ns", diff, diff))
    assert got[0, 0] == d * top * top


@pytest.mark.parametrize("bits, exact", [(23, True), (24, False)])
def test_sqdist_exactness_limit(bits, exact):
    # rows of n_r = 32 (d = 64) levels one apart in one entry, both at the
    # top level elsewhere: at b = 23 the distance is exactly 1, at b = 24
    # the expansion's terms pass 2**53 and it rounds
    top = (1 << bits) - 1
    a = np.full((1, 64), top, dtype=np.uint32)
    t = a.copy()
    t[0, 0] -= 1
    assert core.sqdist_exact(bits, 64) is exact
    assert bool(core.sqdist(a, t)[0, 0] == 1.0) is exact
