import json
import math
import tracemalloc

import numpy as np
import pytest

from strokepred import explain
from strokepred.explain import (BATCH_SIZE, Explanation, RoiRanking,
                                SurrogateModel, _predict, apply_mask,
                                counterfactuals, explain_one, explain_pool,
                                explanation_json,
                                explanation_report, fit_surrogate,
                                gen_perturbations, perturbation_masks,
                                roi_pixel_sets)
from strokepred.rng import CounterRng

ROIS = (1, 2, 3, 4)


def _layout():
    """12x12 label image: 4 quadrant ROIs inside a zero border."""
    labels = np.zeros((12, 12), dtype=np.int64)
    labels[1:6, 1:6] = 1
    labels[1:6, 6:11] = 2
    labels[6:11, 1:6] = 3
    labels[6:11, 6:11] = 4
    rng = np.random.default_rng(0)
    original = rng.random((12, 12))
    contrast = original + 1.0  # differs on every pixel
    return labels, original, contrast


INDEX = roi_pixel_sets(_layout()[0])  # the layout's ROI index, over ROIS


def _sigmoid(z):
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1 + math.exp(z))


def _double(labels, original, b, coefs):
    """Classifier that is exactly logistic in the retained-ROI mask bits."""
    sets = roi_pixel_sets(labels)
    orig = original.ravel()

    def classifier(batch):
        out = []
        for img in np.asarray(batch):
            flat = img.ravel()
            z = b
            for j, roi in enumerate(ROIS):
                idx = sets[roi]
                z += coefs[j] * float(np.array_equal(flat[idx], orig[idx]))
            out.append(_sigmoid(z))
        return np.array(out)

    return classifier


# ---------------------------------------------------------------------------
# contrast selection (inside explain_pool)

MEAN_GAIN = 10.0


def _mean_logit_classifier(batch):
    """logit = 10 * (mean intensity - 0.5): exactly linear in the pixels, so
    an ROI's surrogate coefficient is 10 * sum over the ROI of
    (image - contrast) / pixel count."""
    means = np.round(np.asarray(batch, float).mean(axis=(1, 2)), 9)
    return 1.0 / (1.0 + np.exp(-MEAN_GAIN * (means - 0.5)))


def _linear_importance(labels, image, contrast):
    diff = np.asarray(image, float) - np.asarray(contrast, float)
    return np.array([MEAN_GAIN * diff[labels == roi].sum() / labels.size
                     for roi in ROIS])


def _explained_importance(expl):
    return np.array([expl.importance[roi] for roi in ROIS])


def test_select_contrast_matches_exhaustive_argmin():
    labels, _, _ = _layout()
    rng = np.random.default_rng(1)
    pool = {f"im{i:02d}": rng.random((12, 12)) for i in range(50)}
    probs = dict(zip(sorted(pool),
                     _mean_logit_classifier([pool[i] for i in sorted(pool)])))
    explanations, _ = explain_pool(_mean_logit_classifier, pool, labels,
                                   n_explain=3, n_perturb=64,
                                   with_counterfactuals=False)
    assert len(explanations) == 3
    for expl in explanations:
        others = sorted(i for i in pool if i != expl.image_id)
        want, runner_up = sorted(others, key=lambda i: (probs[i], i))[:2]
        got = _explained_importance(expl)
        image = pool[expl.image_id]
        assert np.allclose(got, _linear_importance(labels, image, pool[want]),
                           atol=1e-3)
        assert not np.allclose(
            got, _linear_importance(labels, image, pool[runner_up]), atol=0.05)
    # the explained image never contrasts with itself, even when it is the
    # lowest-probability image of the pool
    pool = {"a": np.full((12, 12), 0.6), "b": np.full((12, 12), 0.9)}
    (expl,), ranking = explain_pool(_mean_logit_classifier, pool, labels,
                                    n_explain=1, n_perturb=64,
                                    with_counterfactuals=False)
    assert expl.image_id == "a" and "self_contrast" not in expl.flags
    assert np.allclose(_explained_importance(expl),
                       _linear_importance(labels, pool["a"], pool["b"]),
                       atol=1e-3)


def test_select_contrast_tie_prefers_lowest_id():
    labels, _, _ = _layout()
    flat = np.full((12, 12), 0.2)
    shifted = flat.copy()  # same mean, so the same probability
    shifted[labels == 1] = 0.4
    shifted[labels == 2] = 0.0
    pool = {"b": flat, "a": shifted, "c": np.full((12, 12), 0.7)}
    explanations, _ = explain_pool(_mean_logit_classifier, pool, labels,
                                   n_explain=1, n_perturb=64,
                                   with_counterfactuals=False)
    (expl,) = explanations
    assert expl.image_id == "c"
    got = _explained_importance(expl)
    assert np.allclose(got, _linear_importance(labels, pool["c"], shifted),
                       atol=1e-3)
    assert not np.allclose(got, _linear_importance(labels, pool["c"], flat),
                           atol=0.05)


def test_select_contrast_flags_self_contrast_and_pool_of_one():
    labels, _, _ = _layout()
    pool = {"only": np.full((12, 12), 0.7)}
    explanations, ranking = explain_pool(_mean_logit_classifier, pool, labels,
                                         n_explain=1, n_perturb=64,
                                         with_counterfactuals=False)
    assert "self_contrast" in explanations[0].flags
    assert "self_contrast_only" in ranking.flags
    assert np.all(np.abs(_explained_importance(explanations[0])) <= 1e-9)
    with pytest.raises(ValueError):
        explain_pool(_mean_logit_classifier, {}, labels, n_explain=1,
                     n_perturb=64, with_counterfactuals=False)


# ---------------------------------------------------------------------------
# the ROI index


def test_roi_pixel_sets_is_every_nonzero_label_ascending_with_its_pixels():
    labels = np.array([[0, 7, 7, 2],
                       [5, 0, 2, 7],
                       [0, 5, 0, 0]], dtype=np.uint8)
    index = roi_pixel_sets(labels)
    assert list(index) == [2, 5, 7]
    assert all(type(roi) is int for roi in index)
    for roi, idx in index.items():
        assert idx.tolist() == np.flatnonzero(labels == roi).tolist()
    assert roi_pixel_sets(np.zeros((3, 3), dtype=np.int64)) == {}


@pytest.mark.parametrize("with_counterfactuals", [False, True])
def test_explain_pool_derives_the_roi_index_once(with_counterfactuals,
                                                 monkeypatch):
    labels, classifier, pool, _ = _pool_with_positive()
    calls = []

    def counted(label_image):
        calls.append(label_image)
        return roi_pixel_sets(label_image)

    monkeypatch.setattr(explain, "roi_pixel_sets", counted)
    explanations, _ = explain_pool(classifier, pool, labels, n_explain=2,
                                   n_perturb=20,
                                   with_counterfactuals=with_counterfactuals)
    assert len(explanations) == 2
    assert len(calls) == 1 and calls[0] is labels


def test_explain_pool_refuses_a_label_image_of_another_shape():
    labels, classifier, pool, _ = _pool_with_positive()
    with pytest.raises(ValueError, match="shape"):
        explain_pool(classifier, pool, labels[:6], n_explain=1, n_perturb=20,
                     with_counterfactuals=False)
    pool["im50"] = pool["im00"][:6]
    with pytest.raises(ValueError, match="shape"):
        explain_pool(classifier, pool, labels, n_explain=1, n_perturb=20,
                     with_counterfactuals=False)


# ---------------------------------------------------------------------------
# perturbations


def test_gen_perturbations_row_structure_and_reproducibility():
    labels, original, contrast = _layout()
    classifier = _double(labels, original, 0.0, (1.0, 1.0, 1.0, 1.0))
    masks = perturbation_masks(4, 40, seed=5)
    assert masks.shape == (40, 4) and masks.dtype == np.int64
    assert masks[0].tolist() == [1, 1, 1, 1]
    assert np.array_equal(masks[1:5], 1 - np.eye(4, dtype=np.int64))
    assert np.array_equal(perturbation_masks(4, 40, seed=5), masks)
    assert not np.array_equal(perturbation_masks(4, 40, seed=6)[5:],
                              masks[5:])
    probs = gen_perturbations(original, contrast, INDEX, classifier, masks)
    assert probs.shape == (40,) and probs.dtype == np.float64
    want = classifier(apply_mask(original, contrast, INDEX, masks))
    assert probs.tobytes() == want.tobytes()


def _loop_masks(r, n, seed):
    """The mask matrix drawn bit by bit, one scalar bernoulli(0.5) per bit."""
    masks = [tuple([1] * r)]
    masks += [tuple(0 if i == j else 1 for i in range(r)) for j in range(r)]
    rng = CounterRng(seed, "explain", "masks")
    while len(masks) < n:
        masks.append(tuple(int(rng.bernoulli(0.5)) for _ in range(r)))
    return masks


@pytest.mark.parametrize("r,n", [(1, 3), (1, 300), (20, 22), (20, 23),
                                 (20, 300)])
def test_gen_perturbations_masks_match_the_per_bit_loop(r, n):
    for seed in (0, 9):
        masks = perturbation_masks(r, n, seed)
        assert masks.dtype == np.int64
        assert list(map(tuple, masks.tolist())) == _loop_masks(r, n, seed)


def test_gen_perturbations_with_self_contrast_is_constant():
    labels, original, _ = _layout()
    classifier = _double(labels, original, -0.4, (2.0, 1.0, 0.5, 0.25))
    probs = gen_perturbations(original, original.copy(), INDEX, classifier,
                              perturbation_masks(4, 20, seed=1))
    assert np.all(probs == probs[0])


def test_apply_mask_zero_mask_copies_contrast_on_roi_pixels_only():
    labels, original, contrast = _layout()
    out = apply_mask(original, contrast, INDEX, [(0, 0, 0, 0)])[0]
    roi_pixels = labels > 0
    assert np.array_equal(out[roi_pixels], contrast[roi_pixels])
    assert np.array_equal(out[~roi_pixels], original[~roi_pixels])


def test_apply_mask_locality_single_bit_difference():
    labels, original, contrast = _layout()
    a = apply_mask(original, contrast, INDEX, [(1, 0, 1, 1)])[0]
    b = apply_mask(original, contrast, INDEX, [(1, 0, 0, 1)])[0]
    changed = a != b  # masks differ only in ROI 3
    assert changed.any()
    assert np.array_equal(changed, labels == 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_apply_mask_batch_matches_a_per_mask_loop(dtype):
    labels, original, contrast = _layout()
    original, contrast = original.astype(dtype), contrast.astype(dtype)
    draws = np.random.default_rng(3).integers(0, 2, size=(20, len(ROIS)))
    masks = [(1, 1, 1, 1), (0, 0, 0, 0), *map(tuple, draws.tolist())]
    batch = apply_mask(original, contrast, INDEX, masks)
    assert batch.shape == (len(masks), *original.shape)
    assert batch.dtype == dtype
    for got, mask in zip(batch, masks):
        want = original.copy()
        for bit, roi in zip(mask, ROIS):
            if bit == 0:
                want.ravel()[INDEX[roi]] = contrast.ravel()[INDEX[roi]]
        assert got.tobytes() == want.tobytes(), mask
    assert batch[0].tobytes() == original.tobytes()  # all ones: the image
    empty = apply_mask(original, contrast, INDEX, [])
    assert empty.shape == (0, *original.shape) and empty.dtype == dtype
    # mixed inputs: the dtype both promote to
    assert apply_mask(original, contrast.astype(np.float64), INDEX,
                      masks).dtype == np.float64


@pytest.mark.parametrize("bad", [np.nan, -0.25, 1.5])
def test_predict_refuses_probabilities_outside_the_unit_interval(bad):
    def classifier(batch):
        probs = np.full(len(batch), 0.5)
        probs[-1] = bad
        return probs

    with pytest.raises(ValueError, match="classifier probabilities"):
        _predict(classifier, 3, lambda s: np.zeros((len(range(3)[s]), 2, 2)))


def test_explain_pool_refuses_a_nan_probability():
    # a NaN is not a predicted negative that could become the contrast
    labels, classifier, pool, _ = _pool_with_positive()

    def nan_for_im99(batch):
        probs = np.asarray(classifier(batch), dtype=np.float64)
        contrast = pool["im99"]
        probs[[np.array_equal(img, contrast) for img in batch]] = np.nan
        return probs

    with pytest.raises(ValueError, match="classifier probabilities"):
        explain_pool(nan_for_im99, pool, labels, n_explain=1, n_perturb=20,
                     with_counterfactuals=False)


def test_gen_perturbations_validation():
    with pytest.raises(ValueError, match="must exceed"):
        perturbation_masks(4, 5, seed=0)  # needs > ROIs + 1


# ---------------------------------------------------------------------------
# surrogate fit


def test_fit_surrogate_recovers_analytic_coefficients():
    labels, original, contrast = _layout()
    b, coefs = -0.8, (2.0, -1.0, 0.5, 1.5)
    classifier = _double(labels, original, b, coefs)
    masks = perturbation_masks(4, 300, seed=2)
    model = fit_surrogate(masks, gen_perturbations(
        original, contrast, INDEX, classifier, masks))
    assert abs(model.intercept - b) <= 1e-3
    for got, want in zip(model.coefs, coefs):
        assert abs(got - want) <= 1e-3
    assert model.r2 is not None and model.r2 >= 0.999


def test_fit_surrogate_constant_classifier_gives_zero_coefs():
    model = fit_surrogate(np.array([[1, 1], [0, 1], [1, 0], [0, 0]]),
                          np.full(4, 0.7))
    assert all(abs(c) <= 1e-9 for c in model.coefs)
    assert model.intercept == pytest.approx(math.log(0.7 / 0.3), abs=1e-9)
    assert model.r2 is None
    assert "constant_response" in model.flags


def test_fit_surrogate_validation():
    three = np.array([[1, 0], [1, 1], [0, 1]])
    for masks, probs, match in [
            (np.ones((2, 3), dtype=np.int64), np.full(2, 0.5),
             "at least 4 rows"),  # too few rows for 3 ROIs
            (np.ones(4, dtype=np.int64), np.full(4, 0.5), "matrix"),
            (np.ones((4, 2), dtype=np.int64), np.full(3, 0.5),
             "one probability"),
            (three, np.array([0.5, 1.2, 0.5]), r"\[0, 1\]"),
            (three, np.array([0.5, np.nan, 0.5]), r"\[0, 1\]"),
            (np.array([[1, 2], [1, 1], [0, 1]]), np.full(3, 0.5), "0 or 1")]:
        with pytest.raises(ValueError, match=match):
            fit_surrogate(masks, probs)


def test_fit_surrogate_clamps_extreme_probabilities():
    model = fit_surrogate(np.array([[1], [0], [1], [0]]),
                          np.array([1.0, 0.0, 1.0, 0.0]))
    assert math.isfinite(model.intercept) and math.isfinite(model.coefs[0])


# ---------------------------------------------------------------------------
# counterfactuals


def _fitted_double(b, coefs, n=300, seed=3):
    labels, original, contrast = _layout()
    classifier = _double(labels, original, b, coefs)
    masks = perturbation_masks(4, n, seed)
    model = fit_surrogate(masks, gen_perturbations(
        original, contrast, INDEX, classifier, masks))
    return labels, original, contrast, classifier, model


def test_counterfactuals_match_brute_force_and_fidelity_bound():
    b, coefs = -3.2, (2.0, 1.0, 0.5, 1.5)  # all-ones logit 1.8 -> p 0.86
    labels, original, contrast, classifier, model = _fitted_double(b, coefs)
    rows = counterfactuals(original, contrast, INDEX, classifier, model)
    # brute force: every <=2-ROI replacement, keep those crossing 0.5
    want = []
    from itertools import combinations
    for k in (1, 2):
        for combo in combinations(range(4), k):
            mask = tuple(0 if j in combo else 1 for j in range(4))
            img = apply_mask(original, contrast, INDEX, [mask])[0]
            p = float(classifier(img[None])[0])
            if p < 0.5:
                want.append((tuple(ROIS[j] for j in combo), p))
    assert [(r.replaced, pytest.approx(r.classifier_prob)) for r in rows] \
        == sorted(want, key=lambda t: (len(t[0]), t[1], t[0]))
    assert rows  # the double was built so something crosses
    for row in rows:
        assert row.fidelity_error == abs(row.classifier_prob - row.surrogate_prob)
        assert row.fidelity_error <= 1e-3


def test_surrogate_faithful_on_every_two_roi_mask():
    b, coefs = -1.0, (1.2, 0.8, 0.4, 1.6)
    labels, original, contrast, classifier, model = _fitted_double(b, coefs)
    from itertools import combinations
    worst = 0.0
    for k in (0, 1, 2):
        for combo in combinations(range(4), k):
            mask = tuple(0 if j in combo else 1 for j in range(4))
            img = apply_mask(original, contrast, INDEX, [mask])[0]
            p = float(classifier(img[None])[0])
            worst = max(worst, abs(p - model.predict_prob(mask)))
    assert worst <= 1e-3


def test_counterfactuals_empty_when_nothing_crosses():
    b, coefs = 2.0, (0.1, 0.1, 0.1, 0.1)  # prediction stays above 0.5
    labels, original, contrast, classifier, model = _fitted_double(b, coefs)
    assert counterfactuals(original, contrast, INDEX, classifier, model) == []


def test_counterfactuals_keep_the_base_the_explanation_gated_on():
    """A classifier whose last bits depend on the batch size, as a network's
    GEMMs do, puts the unchanged image at 0.5 + 1e-9 in a perturbation batch
    and 0.5 - 1e-9 alone; the explanation that passed its gate must not
    fail on a second, single-image prediction."""
    labels, original, contrast = _layout()
    orig = original.ravel()

    def classifier(batch):
        batch = np.asarray(batch)
        near = 0.5 + (1e-9 if len(batch) > 1 else -1e-9)
        return np.array([near if np.array_equal(img.ravel()[INDEX[1]],
                                                orig[INDEX[1]]) else 0.1
                         for img in batch])

    expl = explain_one("edge", original, contrast, INDEX,
                       classifier, n=50, seed=7, with_counterfactuals=True)
    assert expl.base_probability == 0.5 + 1e-9
    assert "not_predicted_positive" not in expl.flags
    assert {row.replaced for row in expl.counterfactual_rows} == {
        (1,), (1, 2), (1, 3), (1, 4)}


def _swap_inputs(n_rois):
    """64x64 image, contrast and the ROI index of a label image striped into
    ``n_rois`` ROIs, and a flat surrogate."""
    index = roi_pixel_sets((np.arange(64 * 64) % n_rois + 1).reshape(64, 64))
    rng = np.random.default_rng(n_rois)
    original = rng.random((64, 64))
    surrogate = SurrogateModel(intercept=2.0, coefs=(0.0,) * n_rois, r2=None)
    return original, original + 1.0, index, surrogate


def _counterfactual_peak(n_rois):
    original, contrast, index, surrogate = _swap_inputs(n_rois)

    def classifier(batch):
        return np.full(len(batch), 0.9)

    tracemalloc.start()
    try:
        rows = counterfactuals(original, contrast, index, classifier,
                               surrogate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == []
    return peak


def test_counterfactual_swaps_are_held_one_batch_at_a_time():
    # 136 swaps of 16 ROIs and 210 of 20 both fill one 128-image batch
    assert _counterfactual_peak(20) <= 1.1 * _counterfactual_peak(16)


def test_counterfactuals_score_the_swaps_in_batch_size_batches():
    original, contrast, index, surrogate = _swap_inputs(20)
    sizes = []

    def classifier(batch):
        sizes.append(len(batch))
        return np.full(len(batch), 0.2)

    rows = counterfactuals(original, contrast, index, classifier, surrogate)
    assert sizes == [BATCH_SIZE, 210 - BATCH_SIZE]
    assert len(rows) == 210


# ---------------------------------------------------------------------------
# explanations


def test_explain_one_null_contrast_nullity():
    labels, original, _ = _layout()
    classifier = _double(labels, original, 0.5, (2.0, 1.0, 0.5, 0.25))
    expl = explain_one("img", original, original.copy(), INDEX, classifier,
                       n=50, seed=4)
    assert "self_contrast" in expl.flags
    assert "constant_response" in expl.flags
    assert expl.r2 is None
    assert all(abs(w) <= 1e-9 for w in expl.importance.values())


def test_explain_one_fields_and_json_round_trip():
    b, coefs = -3.2, (2.0, 1.0, 0.5, 1.5)
    labels, original, contrast = _layout()
    classifier = _double(labels, original, b, coefs)
    expl = explain_one("s0007", original, contrast, INDEX,
                       classifier, n=200, seed=5)
    assert expl.image_id == "s0007"
    assert expl.base_probability == pytest.approx(_sigmoid(b + sum(coefs)))
    assert set(expl.importance) == set(ROIS)
    payload = json.loads(json.dumps(explanation_json(expl)))
    assert payload["image_id"] == "s0007"
    assert len(payload["importance"]) == 4
    for row_obj, row in zip(payload["counterfactuals"], expl.counterfactual_rows):
        assert row_obj["fidelity_error"] == row.fidelity_error


def test_explanation_report_mentions_equation_and_counterfactuals():
    b, coefs = -3.2, (2.0, 1.0, 0.5, 1.5)
    labels, original, contrast = _layout()
    classifier = _double(labels, original, b, coefs)
    expl = explain_one("s0007", original, contrast, INDEX,
                       classifier, n=200, seed=5)
    text = explanation_report(expl, roi_names={1: "front_left"})
    assert "logit = " in text
    assert "front_left" in text
    assert "fidelity error" in text


def test_explain_one_flags_non_positive_base():
    b, coefs = -6.0, (1.0, 1.0, 1.0, 1.0)
    labels, original, contrast = _layout()
    classifier = _double(labels, original, b, coefs)
    expl = explain_one("x", original, contrast, INDEX,
                       classifier, n=50, seed=6)
    assert "not_predicted_positive" in expl.flags
    assert expl.counterfactual_rows == ()


# ---------------------------------------------------------------------------
# aggregation and ranking


def _pool_with_positive(n_extra=6):
    labels, original, contrast = _layout()
    b, coefs = -3.2, (2.0, 1.0, 0.5, 1.5)
    classifier = _double(labels, original, b, coefs)
    pool = {"im00": original}  # the intact image, p = sigmoid(1.8)
    rng = np.random.default_rng(7)
    for i in range(1, n_extra + 1):
        # partially swapped images score lower; all-zeros mask is the floor
        mask = tuple(int(v) for v in rng.integers(0, 2, size=4))
        pool[f"im{i:02d}"] = apply_mask(original, contrast, INDEX,
                                        [mask])[0]
    pool["im99"] = apply_mask(original, contrast, INDEX,
                              [(0, 0, 0, 0)])[0]
    return labels, classifier, pool, coefs


def test_aggregate_importance_recovers_coefficient_order():
    labels, classifier, pool, coefs = _pool_with_positive()
    _, ranking = explain_pool(classifier, pool, labels, n_explain=1,
                              n_perturb=200, seed=0,
                              with_counterfactuals=False)
    assert ranking.n_explanations == 1
    # true order by coefficient: roi1 (2.0), roi4 (1.5), roi2 (1.0), roi3 (0.5)
    assert ranking.rois == (1, 4, 2, 3)
    assert ranking.rois[:2] == (1, 4)
    for roi, want in zip(ROIS, coefs):
        assert abs(ranking.mean_importance[roi] - want) <= 5e-3


def test_aggregate_importance_flags_small_pool_and_requires_positive():
    labels, classifier, pool, _ = _pool_with_positive()
    _, ranking = explain_pool(classifier, pool, labels, n_explain=50,
                              n_perturb=120, seed=0,
                              with_counterfactuals=False)
    assert any(f.startswith("explained_all_") for f in ranking.flags)
    with pytest.raises(ValueError):
        explain_pool(classifier, {"a": pool["im99"]}, labels, n_explain=1,
                     n_perturb=64, with_counterfactuals=False)


@pytest.mark.parametrize("n_explain", [0, -3])
def test_explain_pool_refuses_a_non_positive_image_count(n_explain):
    # a negative count used to slice positives[:-3], and 0 ranked by NaN means
    labels, classifier, pool, _ = _pool_with_positive()
    with pytest.raises(ValueError, match="n_explain"):
        explain_pool(classifier, pool, labels, n_explain=n_explain,
                     n_perturb=120, with_counterfactuals=False)


def test_ranking_stable_across_perturbation_seeds():
    labels, classifier, pool, _ = _pool_with_positive()
    _, r0 = explain_pool(classifier, pool, labels, n_explain=2,
                         n_perturb=150, seed=0, with_counterfactuals=False)
    _, r1 = explain_pool(classifier, pool, labels, n_explain=2,
                         n_perturb=150, seed=1, with_counterfactuals=False)

    def spearman(order_a, order_b):
        ra = {roi: i for i, roi in enumerate(order_a)}
        rb = {roi: i for i, roi in enumerate(order_b)}
        a = np.array([ra[roi] for roi in ROIS], dtype=float)
        b = np.array([rb[roi] for roi in ROIS], dtype=float)
        return float(np.corrcoef(a, b)[0, 1])

    assert spearman(r0.rois, r1.rois) >= 0.8


def test_roi_ranking_tie_breaks_by_label():
    ranking = RoiRanking.from_means({3: 0.5, 1: 0.5, 2: 0.9, 4: -0.1}, 1)
    assert ranking.rois == (2, 1, 3, 4)
