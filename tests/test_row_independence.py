"""Every batch detector decides each row from that row alone.

``harness._channel_counts``, which both ``ser`` and ``bound`` runs use,
detects each distinct observation of a data batch once and copies the
decision to the repeats. That gives the same counts only if a detector's
decision for a row does not depend on which other rows share its batch, or
where in the batch it sits.

MCD and MMD rank symbols by float sums whose matrix products BLAS evaluates
with a kernel chosen by the batch shape (a one-row batch takes the
matrix-vector kernel), so where two symbols tie exactly the rounding, and
with it the chosen index, can follow the batch: the batch-dependent tie
defect, which exact integer distances would remove. The test allows exactly
that and nothing more: a decision may differ only between two symbols whose
scores, evaluated row by row, agree to rounding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quantmimo import baselines, core, detection, sic, training


def _detectors(rng, bits, n_t, n_r, modulation, sigma2):
    """Per detector, a function from a level batch to its decisions (one
    symbol index per row) and, for MCD and MMD, one from a level batch to
    every row's symbol scores (lower wins)."""
    qcfg = core.QuantizerConfig(bits, 0.5)
    c = core.constellation(modulation)
    book = core.enumerate_symbols(c, n_t)
    h = core.sample_channel(n_r, n_t, rng)
    model = training.learn_explicit(h, sigma2, 3, book, qcfg, rng)
    trained, count_matrix = model.support_arrays
    cb = detection.centroids(model.level_sums(), 3, qcfg)
    n_t1 = int(rng.integers(1, n_t + 1))
    book1 = core.enumerate_symbols(c, n_t1)
    book2 = core.enumerate_symbols(c, n_t - n_t1)
    plan = sic.build_plan(h, n_t1)
    fs_model = sic.learn_first_stage(
        plan, sigma2, int(rng.integers(1, 3)), book1, book2, qcfg, rng)

    def values(levels):
        return core.level_values(levels, qcfg)

    def mcd_scores(levels):
        diff = values(levels)[:, None, :] - cb.centers
        return (diff * diff).sum(axis=2)

    def mmd_scores(levels):
        dist = qcfg.step * np.sqrt(core.sqdist(levels, trained))
        return (dist[:, :, None] * count_matrix).sum(axis=1)

    return {
        "emld": (lambda lv: detection.detect_emld_batch(lv, model), None),
        "mmd": (lambda lv: detection.detect_mmd_batch(lv, model), mmd_scores),
        "mcd": (lambda lv: detection.detect_mcd_batch(values(lv), cb),
                mcd_scores),
        "mld": (lambda lv: baselines.detect_mld_batch(
            lv, h, sigma2, book, qcfg), None),
        "sic": (lambda lv: sic.detect_sic_batch(
            values(lv), plan, fs_model, book1, book2), None),
        "zf": (lambda lv: baselines.detect_zf_batch(values(lv), h, c), None),
    }


@st.composite
def _batches(draw):
    bits = draw(st.integers(1, 3))
    n_t = draw(st.integers(1, 2))
    n_r = draw(st.integers(n_t, 3))
    modulation = draw(st.sampled_from(["bpsk", "qpsk"]))
    sigma2 = draw(st.sampled_from([0.05, 0.3, 1.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    receivers = _detectors(rng, bits, n_t, n_r, modulation, sigma2)
    # few distinct rows, drawn with repeats
    distinct = rng.integers(
        0, 1 << bits, size=(draw(st.integers(1, 8)), 2 * n_r))
    n = draw(st.integers(1, 30))
    levels = distinct[rng.integers(0, len(distinct), size=n)]
    order = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    subset = order[:draw(st.integers(1, n))]
    return receivers, levels, subset


@settings(max_examples=150, deadline=None)
@given(case=_batches())
def test_batch_detectors_are_row_independent(case):
    receivers, levels, subset = case
    rows = levels[subset]
    for name, (detect, scores) in receivers.items():
        want = detect(levels)[subset]
        got = detect(rows)
        differs = np.flatnonzero(
            (got != want).reshape(len(rows), -1).any(axis=1))
        if scores is None:
            assert differs.size == 0, name
            continue
        s = scores(rows[differs])
        i = np.arange(differs.size)
        assert np.allclose(s[i, got[differs]], s[i, want[differs]],
                           rtol=1e-12, atol=0.0), name
