"""Perturbation-based ROI importance for image classifiers.

An explained image is perturbed by swapping whole ROIs (pixel sets taken
from a low-probability contrast image), a ridge regression on the logit of
the classifier output over those perturbations gives per-ROI coefficients,
and counterfactual rows report which small ROI swaps flip the prediction.
Masks use 1 = original content retained, so positive coefficients support
the predicted class.

Which pixels belong to which ROI is the ROI index, ``roi_pixel_sets`` of the
pool's label image; ``explain_pool`` derives it once and hands it down, and
every mask bit follows its order.

An explanation works on one (n, r) int64 mask matrix from
``perturbation_masks``: row 0 keeps every ROI, rows 1..r each replace one
ROI, and the remaining rows are random.  ``gen_perturbations`` returns one
probability per mask row, not a summary, since the benchmark's layer trace
counts its rows as ``explain.perturbations``; ``fit_surrogate`` regresses
those probabilities on the matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Mapping, Sequence

import numpy as np

from .rng import CounterRng

PROB_CLAMP = 1e-4  # logit() needs probabilities away from {0, 1}
RIDGE = 1e-3  # surrogate penalty on the mask coefficients
THRESHOLD = 0.5  # predicted-positive cut-off for explaining and flipping
# Images per classifier call. It stays 128 because it fixes the batch size
# of the dense head's GEMV, whose sums (so the probabilities' last bits)
# depend on it; the conv working set does not, as ``learn.forward`` runs
# the conv stack by image chunks.
BATCH_SIZE = 128

Classifier = Callable[[np.ndarray], np.ndarray]  # (m, h, w) -> (m,) probs
RoiIndex = Mapping[int, np.ndarray]  # ROI label -> flat pixel indices


def _predict(classifier: Classifier, n: int,
             batch: Callable[[slice], np.ndarray]) -> np.ndarray:
    """Probabilities of ``n`` images, built by ``batch(s)`` per index slice
    ``s`` of ``BATCH_SIZE`` and scored before the next batch is built."""
    chunks = [np.zeros(0)]
    for i in range(0, n, BATCH_SIZE):
        chunks.append(np.atleast_1d(np.asarray(
            classifier(batch(slice(i, i + BATCH_SIZE))), dtype=np.float64)))
    probs = np.concatenate(chunks)
    if probs.shape != (n,):
        raise ValueError("classifier returned a wrong-shaped batch")
    if len(probs) and not (probs.min() >= 0 and probs.max() <= 1):  # NaN too
        raise ValueError("classifier probabilities must lie in [0, 1]")
    return probs


def roi_pixel_sets(label_image: np.ndarray) -> dict[int, np.ndarray]:
    """The ROI index of a label image: every nonzero label, ascending, with
    the flat indices of its pixels."""
    flat = np.asarray(label_image).ravel()
    return {int(roi): np.flatnonzero(flat == roi)
            for roi in np.unique(flat) if roi != 0}


def apply_mask(image: np.ndarray, contrast: np.ndarray, index: RoiIndex,
               masks: np.ndarray) -> np.ndarray:
    """The (m, h, w) batch of ``image`` under each row of the (m, r) mask
    array: row i has exactly the pixels of the ROIs whose bit in
    ``masks[i]`` is 0 replaced by ``contrast``'s pixels.  The batch has the
    callers' dtype, ``np.result_type(image, contrast)``; it is filled with
    the image, then with one copy per ROI over every mask that swaps that
    ROI."""
    image, contrast = np.asarray(image), np.asarray(contrast)
    out = np.empty((len(masks), *image.shape),
                   dtype=np.result_type(image, contrast))
    out[...] = image
    flat, cflat = out.reshape(len(masks), image.size), contrast.ravel()
    kept = np.asarray(masks, dtype=bool).reshape(len(masks), len(index))
    for j, idx in enumerate(index.values()):
        swapped = np.flatnonzero(~kept[:, j])
        if len(swapped):
            flat[np.ix_(swapped, idx)] = cflat[idx]
    return out


def perturbation_masks(r: int, n: int, seed: int) -> np.ndarray:
    """The (n, r) int64 mask matrix over r ROIs: the all-ones row, every
    single-ROI replacement (``1 - eye(r)``), then random rows with each bit
    independently 0 with probability 0.5."""
    if n < r + 2:
        raise ValueError(f"n={n} must exceed number of ROIs + 1 ({r + 1})")
    draws = CounterRng(seed, "explain", "masks").uniforms((n - r - 1) * r)
    # uniform() < 0.5 is bernoulli(0.5), one draw per bit, row by row
    return np.vstack([np.ones((1, r), dtype=np.int64),
                      1 - np.eye(r, dtype=np.int64),
                      (draws.reshape(n - r - 1, r) < 0.5).astype(np.int64)])


def gen_perturbations(image: np.ndarray, contrast: np.ndarray,
                      index: RoiIndex, classifier: Classifier,
                      masks: np.ndarray) -> np.ndarray:
    """The classifier's probability for each row of ``masks``, scored in
    batches of ``BATCH_SIZE`` of the callers' dtype (``apply_mask``)."""
    return _predict(classifier, len(masks), lambda s: apply_mask(
        image, contrast, index, masks[s]))


# ---------------------------------------------------------------------------
# Surrogate model


@dataclass(frozen=True)
class SurrogateModel:
    intercept: float
    coefs: tuple[float, ...]  # aligned with the mask bit order
    r2: float | None  # on logits; None when the response is constant
    flags: tuple[str, ...] = ()

    def predict_prob(self, mask: Sequence[int]) -> float:
        # scalar math.exp, not learn.sigmoid: the two differ in the last bit
        # on some logits, and this value is written to explanation files
        z = self.intercept + float(np.dot(self.coefs, np.asarray(mask, float)))
        return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else \
            math.exp(z) / (1.0 + math.exp(z))


def fit_surrogate(masks: np.ndarray, probs: np.ndarray) -> SurrogateModel:
    """Ridge least squares (penalty ``RIDGE``) of logit(p) on the bits of
    the (n, r) mask matrix, intercept free."""
    x, p = np.asarray(masks), np.asarray(probs, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("masks must be an (n, r) matrix")
    n, r = x.shape
    if n < r + 1:
        raise ValueError(f"need at least {r + 1} rows for {r} ROIs")
    if p.shape != (n,):
        raise ValueError("need one probability per mask row")
    if not np.isin(x, (0, 1)).all():
        raise ValueError("mask bits must be 0 or 1")
    if not (p.min() >= 0 and p.max() <= 1):  # NaN too
        raise ValueError("probabilities must lie in [0, 1]")
    p = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.log(p / (1.0 - p))
    a = np.hstack([np.ones((n, 1)), x])
    penalty = np.diag([0.0] + [RIDGE] * r)  # intercept unpenalized
    theta = np.linalg.solve(a.T @ a + penalty, a.T @ y)
    if not np.all(np.isfinite(theta)):
        raise ArithmeticError("surrogate solve produced non-finite coefficients")
    resid = y - a @ theta
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    flags = ()
    if np.ptp(y) == 0.0:  # exactly constant response: R^2 is undefined
        r2 = None
        flags = ("constant_response",)
    else:
        r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return SurrogateModel(intercept=float(theta[0]),
                          coefs=tuple(float(c) for c in theta[1:]),
                          r2=r2, flags=flags)


# ---------------------------------------------------------------------------
# Counterfactuals


@dataclass(frozen=True)
class CounterfactualRow:
    replaced: tuple[int, ...]  # ROI labels swapped to contrast content
    classifier_prob: float
    surrogate_prob: float
    fidelity_error: float  # |classifier_prob - surrogate_prob| by construction


def counterfactuals(image: np.ndarray, contrast: np.ndarray,
                    index: RoiIndex, classifier: Classifier,
                    surrogate: SurrogateModel) -> list[CounterfactualRow]:
    """All <=2-ROI replacements whose classifier probability drops below
    ``THRESHOLD``, sorted by fewest ROIs then lowest probability.  The
    unchanged image is not predicted again, as logits differ in the last
    bits between batch sizes.  The classifier sees batches of the callers'
    dtype (``apply_mask``)."""
    rois = tuple(index)
    r = len(rois)
    combos = [(j,) for j in range(r)] + list(combinations(range(r), 2))
    masks = np.ones((len(combos), r), dtype=np.int64)
    for mask, combo in zip(masks, combos):
        mask[list(combo)] = 0
    # scored here, not by gen_perturbations: the layer trace counts its rows
    probs = _predict(classifier, len(masks), lambda s: apply_mask(
        image, contrast, index, masks[s]))

    rows = []
    for combo, mask, prob in zip(combos, masks, probs):
        if prob < THRESHOLD:
            sur = surrogate.predict_prob(mask)
            rows.append(CounterfactualRow(
                replaced=tuple(rois[j] for j in combo),
                classifier_prob=float(prob),
                surrogate_prob=float(sur),
                fidelity_error=abs(float(prob) - float(sur))))
    rows.sort(key=lambda row: (len(row.replaced), row.classifier_prob,
                               row.replaced))
    return rows


# ---------------------------------------------------------------------------
# Explanations and aggregation


@dataclass(frozen=True)
class Explanation:
    image_id: str
    base_probability: float
    rois: tuple[int, ...]
    importance: dict[int, float]  # roi label -> surrogate coefficient
    counterfactual_rows: tuple[CounterfactualRow, ...]
    r2: float | None
    intercept: float = 0.0
    flags: tuple[str, ...] = ()


def explain_one(image_id: str, image: np.ndarray, contrast: np.ndarray,
                index: RoiIndex, classifier: Classifier, n: int,
                seed: int = 0, with_counterfactuals: bool = True,
                ) -> Explanation:
    masks = perturbation_masks(len(index), n, seed)
    probs = gen_perturbations(image, contrast, index, classifier, masks)
    surrogate = fit_surrogate(masks, probs)
    base = float(probs[0])  # all-ones mask comes first
    flags = list(surrogate.flags)
    if np.array_equal(image, contrast):
        flags.append("self_contrast")
    cf: tuple[CounterfactualRow, ...] = ()
    if with_counterfactuals:
        if base >= THRESHOLD:
            cf = tuple(counterfactuals(image, contrast, index, classifier,
                                       surrogate))
        else:
            flags.append("not_predicted_positive")
    rois = tuple(index)
    return Explanation(image_id=image_id, base_probability=base, rois=rois,
                       importance=dict(zip(rois, surrogate.coefs)),
                       counterfactual_rows=cf, r2=surrogate.r2,
                       intercept=surrogate.intercept, flags=tuple(flags))


@dataclass(frozen=True)
class RoiRanking:
    rois: tuple[int, ...]  # descending mean importance, ties -> lower label
    mean_importance: dict[int, float]
    n_explanations: int
    flags: tuple[str, ...] = ()

    @classmethod
    def from_means(cls, means: Mapping[int, float], n_explanations: int,
                   flags: Sequence[str] = ()) -> "RoiRanking":
        order = sorted(means, key=lambda roi: (-means[roi], roi))
        return cls(rois=tuple(order), mean_importance=dict(means),
                   n_explanations=n_explanations, flags=tuple(flags))


def explain_pool(classifier: Classifier,
                 pool: Mapping[str, np.ndarray],
                 label_image: np.ndarray,
                 n_explain: int,
                 n_perturb: int,
                 seed: int = 0,
                 *, with_counterfactuals: bool,
                 ) -> tuple[list[Explanation], RoiRanking]:
    """Explain the first n_explain predicted positives (by id) over the ROI
    index of ``label_image``; the contrast per image is the lowest-probability
    other image.  Returns the per-image explanations and the
    mean-coefficient ranking over them."""
    if not pool:
        raise ValueError("empty image pool")
    if n_explain < 1:
        raise ValueError(f"n_explain={n_explain} must be >= 1")
    if {np.shape(img) for img in pool.values()} != {np.shape(label_image)}:
        raise ValueError("pool images and the label image must share a shape")
    index = roi_pixel_sets(label_image)
    rois = tuple(index)
    ids = sorted(pool)
    probs = _predict(classifier, len(ids),
                     lambda s: np.stack([pool[i] for i in ids[s]]))
    prob_of = dict(zip(ids, probs))
    positives = [i for i in ids if prob_of[i] >= THRESHOLD]
    if not positives:
        raise ValueError("no predicted-positive images to explain")
    flags = []
    if len(positives) < n_explain:
        flags.append(f"explained_all_{len(positives)}_of_{n_explain}")
    explained = positives[:n_explain]

    out = []
    total = np.zeros(len(rois))
    for idx, eid in enumerate(explained):
        others = [i for i in ids if i != eid]
        contrast_id = min(others, key=lambda i: (prob_of[i], i)) if others else eid
        expl = explain_one(eid, pool[eid], pool[contrast_id], index,
                           classifier, n=n_perturb,
                           seed=seed * 1_000_003 + idx,
                           with_counterfactuals=with_counterfactuals)
        if "self_contrast" in expl.flags:
            flags.append(f"self_contrast_{eid}")
        total += np.array([expl.importance[roi] for roi in rois])
        out.append(expl)
    means = {roi: float(v / len(explained)) for roi, v in zip(rois, total)}
    return out, RoiRanking.from_means(means, len(explained), flags)


# ---------------------------------------------------------------------------
# ROI-count selection


@dataclass(frozen=True)
class RoiCountCurve:
    rows: tuple[tuple[int, float, float], ...]  # (k, mean val loss, accuracy)
    best_k: int


# ---------------------------------------------------------------------------
# Emission


def explanation_json(expl: Explanation) -> dict:
    return {
        "image_id": expl.image_id,
        "base_probability": expl.base_probability,
        "intercept": expl.intercept,
        "r2": expl.r2,
        "flags": list(expl.flags),
        "importance": {str(roi): expl.importance[roi] for roi in expl.rois},
        "counterfactuals": [
            {"replaced": list(row.replaced),
             "classifier_prob": row.classifier_prob,
             "surrogate_prob": row.surrogate_prob,
             "fidelity_error": row.fidelity_error}
            for row in expl.counterfactual_rows],
    }


def explanation_report(expl: Explanation,
                       roi_names: Mapping[int, str] | None = None) -> str:
    """Human-readable explanation: regression terms by descending magnitude,
    then the counterfactual table with fidelity errors."""
    def name(roi: int) -> str:
        return roi_names[roi] if roi_names and roi in roi_names else f"roi{roi:02d}"

    lines = [f"image {expl.image_id}: predicted probability "
             f"{expl.base_probability:.2f}"]
    if expl.flags:
        lines.append("flags: " + ", ".join(expl.flags))
    terms = [f"{expl.importance[roi]:+.2f} {name(roi)}"
             for roi in sorted(expl.rois,
                               key=lambda roi: (-abs(expl.importance[roi]), roi))]
    lines.append(f"logit = {expl.intercept:+.2f} " + " ".join(terms))
    if expl.r2 is not None:
        lines.append(f"fit R^2 on logits: {expl.r2:.4f}")
    if expl.counterfactual_rows:
        lines.append("counterfactuals (<= 2 ROIs swapped, prediction flips):")
        for row in expl.counterfactual_rows:
            swapped = "+".join(name(roi) for roi in row.replaced)
            lines.append(f"  {swapped:<24} classifier {row.classifier_prob:.2f}"
                         f"  surrogate {row.surrogate_prob:.2f}"
                         f"  fidelity error {row.fidelity_error:.2f}")
    else:
        lines.append("counterfactuals: none within 2 ROI swaps")
    return "\n".join(lines)
