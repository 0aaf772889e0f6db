"""Byte pins of the explainer's output.  ``explain_pool`` runs with
counterfactuals on a fixed pool, the gm-roi and hybrid-gm-roi renders of
the render-pin cohort, scored by a fixed numpy classifier, at one
perturbation count below ``BATCH_SIZE`` and one above it.  The hashes
cover every explanation's ``explanation_json`` and the ranking; a
refactor of the explainer must leave them unchanged."""

import hashlib
import json

import numpy as np
import pytest

from strokepred import explain, glyphs, pipeline
from strokepred.pipeline import CohortData, RunConfig
from strokepred.synthcohort import SynthConfig, default_truth

N_PERTURB = (64, 200)  # one below BATCH_SIZE, one above it
N_EXPLAIN = 4
GAIN = 40.0

# sha256 of (explanation_json of each explanation, then the ranking)
PINS = {
    "gm-roi/64":
        "b6a6febb7505d2d74a6b7980642e94558fd5a31ab5025097cd1e7bc8594e219c",
    "gm-roi/200":
        "e55878ea9af466346a1de89817767a6f30bdb7297bf57f7ddc871a96f8c5c291",
    "hybrid-gm-roi/64":
        "7106a8c77afdc424993d44eabcca766dac57681a5063f1d67857af2177bac6cb",
    "hybrid-gm-roi/200":
        "3b1218b30da03951bb34d45b745701a1afeda4712050eb90f34748f7045453a6",
}


def test_the_pinned_counts_straddle_the_batch_size():
    assert min(N_PERTURB) < explain.BATCH_SIZE < max(N_PERTURB)


@pytest.fixture(scope="module")
def cohort():
    config = SynthConfig(seed=37, n_subjects=10, dims=(24, 24, 24))
    return CohortData.from_memory(config, default_truth())


def _roi_mean_classifier(label_image, pool):
    """A sigmoid of fixed weights on the ROI means, centred on the pool's
    median logit so that about half of the pool is predicted positive."""
    index = explain.roi_pixel_sets(label_image)
    weights = np.cos(1.7 * np.arange(len(index)))

    def logits(batch):
        flat = np.asarray(batch, dtype=np.float64).reshape(len(batch), -1)
        means = np.stack([flat[:, idx].mean(axis=1)
                          for idx in index.values()], axis=1)
        return means @ weights

    centre = float(np.median(logits(np.stack(list(pool.values())))))

    def classifier(batch):
        return 1.0 / (1.0 + np.exp(-GAIN * (logits(batch) - centre)))

    return classifier


def _digest(explanations, ranking) -> str:
    h = hashlib.sha256()
    for expl in explanations:
        h.update(json.dumps(explain.explanation_json(expl)).encode() + b"\n")
    h.update(repr((ranking.rois,
                   [ranking.mean_importance[roi] for roi in ranking.rois],
                   ranking.n_explanations, ranking.flags)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("variant", ["gm-roi", "hybrid-gm-roi"])
@pytest.mark.parametrize("n_perturb", N_PERTURB)
def test_explain_pool_writes_its_pinned_bytes(cohort, variant, n_perturb):
    config = RunConfig(variant=variant, image_size=40, channels=(4, 8))
    built = pipeline.build_variant(
        cohort, config, *glyphs.normalizers_from_records(cohort.records))
    pool = dict(built.images)
    classifier = _roi_mean_classifier(built.label_image, pool)
    explanations, ranking = explain.explain_pool(
        classifier, pool, built.label_image, n_explain=N_EXPLAIN,
        n_perturb=n_perturb, seed=3, with_counterfactuals=True)
    assert len(explanations) == N_EXPLAIN
    assert any(expl.counterfactual_rows for expl in explanations)
    key = f"{variant}/{n_perturb}"
    assert _digest(explanations, ranking) == PINS[key], key
