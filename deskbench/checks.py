"""Correctness checks on the program's outputs, computed apart from it.

Every check returns a list of problems (empty when the output is right), so
the runner can count each failed check as a failed operation.  The checks
use numpy and the benchmark's own readers, never the program's code paths
for the quantity being checked.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from itertools import combinations
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# cohort-render: mass conservation of rendered images

MASS_RTOL = 1e-6  # float32 pixels, float64 sums; probe error was <= 1.1e-9


def displayed_mass(volume: np.ndarray, variant: str, atlas: np.ndarray,
                   tracts: np.ndarray) -> float:
    """Sum of the voxels a variant displays: every slice for stitched, the
    four most-dorsal slices dropped for hybrid-stitched, voxels with an atlas
    (gm) or tract (wm) label for the ROI variants."""
    data = np.asarray(volume, dtype=np.float64)
    if variant == "stitched":
        return float(data.sum())
    if variant == "hybrid-stitched":
        return float(data[:, :, :data.shape[2] - 4].sum())
    labels = tracts if "wm-roi" in variant else atlas
    return float(data[labels > 0].sum())


def glyph_area(variant: str, full_shape, plain_shape, dims) -> int:
    """Pixels of the three glyph boxes on the full-resolution canvas.

    Hybrid-stitched draws into three freed slice cells.  A hybrid ROI canvas
    is the plain ROI canvas plus a reserved bottom strip split into three
    equal boxes, so the strip height is the difference of the two heights.
    """
    nx, ny, _ = dims
    if variant == "hybrid-stitched":
        return 3 * nx * ny
    if plain_shape is None:
        return 0
    height, width = full_shape
    plain_h, plain_w = plain_shape
    if width != plain_w or height <= plain_h:
        return 0
    return (height - plain_h) * 3 * (width // 3)


def check_render(variant: str, pixels: np.ndarray, full_shape, mass: float,
                 glyph_px: int = 0) -> list[str]:
    """One subject's network-input image for one variant.

    Area-average downsampling keeps mass: mean pixel x full canvas area is
    the sum of every displayed voxel.  Hybrid images carry the glyphs as
    extra mass, positive and at most one unit per glyph-box pixel."""
    p = np.asarray(pixels)
    if not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0:
        return [f"{variant}: pixels outside [0, 1]"]
    area = full_shape[0] * full_shape[1]
    rendered = float(p.astype(np.float64).mean()) * area
    if not variant.startswith("hybrid"):
        if abs(rendered - mass) > MASS_RTOL * max(mass, 1.0):
            return [f"{variant}: rendered mass {rendered:.6f} != displayed "
                    f"voxel mass {mass:.6f}"]
        return []
    excess = rendered - mass
    slack = MASS_RTOL * max(rendered, 1.0)
    if not (excess > slack and excess <= glyph_px + slack):
        return [f"{variant}: glyph mass {excess:.6f} not in (0, {glyph_px}]"]
    return []


# ---------------------------------------------------------------------------
# desk-run: the written cohort, re-derived from its VOL1 bytes

VOL_HEADER = 32


def read_vol1(path) -> np.ndarray:
    """VOL1 file -> array indexed [x, y, z]: 32-byte header (magic, three
    u32 dims, dtype code 0 = float32 / 1 = uint16), x-fastest payload."""
    raw = Path(path).read_bytes()
    if len(raw) < VOL_HEADER or raw[:4] != b"VOL1":
        raise ValueError(f"{path}: not a VOL1 file")
    nx, ny, nz, code = struct.unpack_from("<IIIB", raw, 4)
    dtype = {0: "<f4", 1: "<u2"}.get(code)
    if dtype is None:
        raise ValueError(f"{path}: dtype code {code}")
    if len(raw) != VOL_HEADER + nx * ny * nz * np.dtype(dtype).itemsize:
        raise ValueError(f"{path}: payload size does not match dims")
    flat = np.frombuffer(raw, dtype=dtype, offset=VOL_HEADER)
    return flat.reshape(nz, ny, nx).transpose(2, 1, 0)


def truth_score(loads: dict, severity: str, recovery_time: float,
                truth: dict) -> float:
    damage = sum(b * loads[r] for r, b in zip(truth["causal_rois"],
                                               truth["betas"]))
    return (truth["base"] - damage - truth["gamma"][severity]
            + truth["delta"] * math.log1p(recovery_time))


def severity_of(total_load: float, thresholds) -> str:
    for name, t in zip(("severe", "moderate", "mild"), thresholds):
        if total_load >= t:
            return name
    return "normal"


NOISE_MULTIPLE = 6.0  # |score - noiseless rule| <= 6 noise sd (p ~ 2e-9)


def check_cohort(cohort_dir, cohort_cfg: dict, truth: dict) -> list[str]:
    """Recompute each subject's left lesion size, causal-ROI loads and
    severity from the VOL1 bytes, and its score from the truth rule."""
    cohort_dir = Path(cohort_dir)
    manifest = json.loads((cohort_dir / "manifest.json").read_text())
    atlas = read_vol1(cohort_dir / manifest["atlas_path"])
    dims = tuple(cohort_cfg["dims"])
    problems = []
    if atlas.shape != dims:
        return [f"atlas dims {atlas.shape} != {dims}"]
    if len(manifest["subjects"]) != cohort_cfg["n_subjects"]:
        return [f"{len(manifest['subjects'])} subjects written"]
    roi_voxels = np.bincount(atlas.ravel(), minlength=atlas.max() + 1)
    half = dims[0] // 2
    for row in manifest["subjects"]:
        sid = row["id"]
        volume = read_vol1(cohort_dir / row["volume"])
        lesion = read_vol1(cohort_dir / row["lesion"])
        if volume.dtype != np.float32 or volume.shape != dims \
                or volume.min() < 0 or volume.max() > 1:
            problems.append(f"{sid}: bad intensity volume")
            continue
        if lesion.shape != dims or lesion.max(initial=0) > 1:
            problems.append(f"{sid}: bad lesion volume")
            continue
        hit = lesion == 1
        if int(hit[:half].sum()) != row["left_lesion_size"]:
            problems.append(f"{sid}: left_lesion_size {row['left_lesion_size']}"
                            f" != {int(hit[:half].sum())}")
        hits = np.bincount(atlas[hit], minlength=len(roi_voxels))
        loads = {r: int(hits[r]) / int(roi_voxels[r])
                 for r in truth["causal_rois"]}
        total = sum(loads[r] for r in truth["causal_rois"])
        expected = severity_of(total, cohort_cfg["severity_thresholds"])
        if row["severity"] not in (expected, "unknown"):
            problems.append(f"{sid}: severity {row['severity']} != {expected}")
        noiseless = truth_score(loads, row["severity"], row["recovery_time"],
                                truth)
        if not abs(row["score"] - noiseless) <= NOISE_MULTIPLE * truth["noise_sd"]:
            problems.append(f"{sid}: score {row['score']:.3f} is "
                            f"{row['score'] - noiseless:+.3f} off the rule")
    return problems


# ---------------------------------------------------------------------------
# desk-run: the lock box and held-out quality

def check_audit(path) -> list[str]:
    """Exactly one unlock, and no request for the sealed group before it."""
    entries = [json.loads(line) for line in Path(path).read_text().splitlines()
               if line.strip()]
    seqs = [e["seq"] for e in entries]
    if seqs != list(range(1, len(entries) + 1)):
        return ["audit sequence numbers are not 1..n"]
    sealed = {g for e in entries if e["op"] == "seal" for g in e["groups"]}
    if len(sealed) != 1:
        return [f"audit seals groups {sorted(sealed)}"]
    unlocks = [i for i, e in enumerate(entries) if e["op"] == "unlock"]
    if len(unlocks) != 1:
        return [f"audit has {len(unlocks)} unlocks"]
    early = [e for e in entries[:unlocks[0]]
             if e["op"] != "seal" and sealed & set(e.get("groups", []))]
    if early:
        return [f"sealed group requested before the unlock by "
                f"{early[0].get('caller')!r}"]
    return []


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_auc(run_dir, margin: float) -> list[str]:
    aucs = [float(r["auc"]) for r in read_rows(Path(run_dir) / "per_seed.csv")]
    mean = sum(aucs) / len(aucs) if aucs else 0.0
    if not mean >= 0.5 + margin:
        return [f"held-out AUC {mean:.3f} below {0.5 + margin:.3f}"]
    return []


# ---------------------------------------------------------------------------
# explain-select: explanations of a classifier whose logit is known exactly


def roi_means(images: np.ndarray, label_image: np.ndarray, rois) -> np.ndarray:
    """(n, R) mean pixel of each ROI's pixel set."""
    flat = np.asarray(images, dtype=np.float64).reshape(len(images), -1)
    lab = np.asarray(label_image).ravel()
    return np.stack([flat[:, lab == r].mean(axis=1) for r in rois], axis=1)


# Every masked image's logit stays within 2 * LOGIT_SPREAD of 0, inside the
# explainer's probability clamp.
LOGIT_SPREAD = 4.0


class LinearLogit:
    """logit(image) = bias + sum_r w_r * mean_r(image): swapping ROI r for
    the contrast's pixels changes the logit by exactly
    w_r * (mean_r(contrast) - mean_r(image))."""

    def __init__(self, pool: dict, label_image: np.ndarray):
        self.label_image = np.asarray(label_image)
        self.rois = tuple(int(v) for v in np.unique(self.label_image) if v != 0)
        r = len(self.rois)
        signs = np.where(np.arange(r) % 2 == 0, 1.0, -1.0)
        base_w = signs * (1.0 + np.arange(r) / r)
        means = roi_means(np.stack([pool[i] for i in sorted(pool)]),
                          self.label_image, self.rois)
        centre = means.mean(axis=0)
        reach = float(np.sum(np.abs(base_w) * np.abs(means - centre).max(axis=0)))
        self.w = base_w * (LOGIT_SPREAD / reach if reach > 0 else 1.0)
        # cut between the two middle pool logits: about half the pool is
        # positive and no pool logit sits on the decision boundary
        raw = np.sort((means - centre) @ self.w)
        k = len(raw) // 2
        self.bias = float(-(raw[k - 1] + raw[k]) / 2 - self.w @ centre)

    def logit(self, images: np.ndarray) -> np.ndarray:
        return self.bias + roi_means(images, self.label_image, self.rois) @ self.w

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        return 1.0 / (1.0 + np.exp(-self.logit(batch)))


COEF_RTOL = 1e-3  # ridge 1e-3 shrinks exact coefficients by ~1e-4
R2_MIN = 1.0 - 1e-6


def check_linear_explanations(model: LinearLogit, pool: dict, explanations,
                              n_explain: int) -> list[str]:
    """explain_pool on a LinearLogit: contrast and explained ids, every
    coefficient, R^2, and the exact counterfactual set."""
    ids = sorted(pool)
    logits = dict(zip(ids, model.logit(np.stack([pool[i] for i in ids]))))
    want = [i for i in ids if logits[i] >= 0.0][:n_explain]
    got = [e.image_id for e in explanations]
    if got != want:
        return [f"explained {got} != predicted positives {want}"]
    problems = []
    for expl in explanations:
        eid = expl.image_id
        contrast = min((i for i in ids if i != eid),
                       key=lambda i: (logits[i], i))
        m = roi_means(np.stack([pool[eid], pool[contrast]]),
                      model.label_image, model.rois)
        exact = model.w * (m[0] - m[1])  # logit lost by swapping each ROI
        coefs = np.array([expl.importance[r] for r in model.rois])
        tol = COEF_RTOL * np.abs(exact).max() + 1e-12
        if np.abs(coefs - exact).max() > tol:
            problems.append(f"{eid}: coefficients off by "
                            f"{np.abs(coefs - exact).max():.3g}")
        if expl.r2 is None or expl.r2 < R2_MIN:
            problems.append(f"{eid}: R^2 {expl.r2} on an exactly linear logit")
        flips = set()
        for size in (1, 2):
            for combo in combinations(range(len(model.rois)), size):
                if logits[eid] - exact[list(combo)].sum() < 0.0:
                    flips.add(tuple(model.rois[j] for j in combo))
        found = {tuple(row.replaced) for row in expl.counterfactual_rows}
        if found != flips:
            problems.append(f"{eid}: counterfactuals {sorted(found)} != "
                            f"{sorted(flips)}")
    return problems


# ---------------------------------------------------------------------------
# explain-select: internal consistency of the CNN run's written outputs


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def check_explain_dir(out_dir) -> list[str]:
    """roi_ranking.csv is the mean of the per-image JSON importances, in
    descending order; every counterfactual row's surrogate probability and
    fidelity error follow from its JSON's surrogate."""
    out_dir = Path(out_dir)
    docs = [json.loads(p.read_text())
            for p in sorted((out_dir / "explanations").glob("*.json"))]
    if not docs:
        return ["no explanation JSONs"]
    problems = []
    rois = sorted(int(r) for r in docs[0]["importance"])
    means = {r: sum(d["importance"][str(r)] for d in docs) / len(docs)
             for r in rois}
    rows = read_rows(out_dir / "roi_ranking.csv")
    got = [int(row["roi"]) for row in rows]
    if got != sorted(rois, key=lambda r: (-means[r], r)):
        problems.append(f"ranking order {got} is not by mean importance")
    for row in rows:
        r = int(row["roi"])
        if r not in means or not _close(float(row["mean_importance"]),
                                        means[r], 1e-9):
            problems.append(f"ranking row for ROI {r} != mean of the JSONs")
    for doc in docs:
        for cf in doc["counterfactuals"]:
            kept = [v for k, v in doc["importance"].items()
                    if int(k) not in cf["replaced"]]
            sur = _sigmoid(doc["intercept"] + sum(kept))
            if not _close(cf["surrogate_prob"], sur, 1e-9):
                problems.append(f"{doc['image_id']}: surrogate_prob of "
                                f"{cf['replaced']} does not recompute")
            if not _close(cf["fidelity_error"],
                          abs(cf["classifier_prob"] - cf["surrogate_prob"]),
                          1e-9):
                problems.append(f"{doc['image_id']}: fidelity_error of "
                                f"{cf['replaced']} does not recompute")
    return problems


def check_selection_dir(out_dir, counts) -> list[str]:
    """best k is the argmin of roi_curve.csv (ties to the smaller k) and
    selection.json names the top best-k ROIs of roi_ranking.csv."""
    out_dir = Path(out_dir)
    curve = [(int(r["k"]), float(r["mean_val_loss"]))
             for r in read_rows(out_dir / "roi_curve.csv")]
    if [k for k, _ in curve] != list(counts):
        return [f"curve rows {[k for k, _ in curve]} != k grid {list(counts)}"]
    best_k = min(curve, key=lambda kv: (kv[1], kv[0]))[0]
    selection = json.loads((out_dir / "selection.json").read_text())
    ranking = [int(r["roi"]) for r in read_rows(out_dir / "roi_ranking.csv")]
    problems = []
    if selection["best_k"] != best_k:
        problems.append(f"best_k {selection['best_k']} != argmin {best_k}")
    if [r["label"] for r in selection["rois"]] != ranking[:best_k]:
        problems.append("selection is not the top best_k of the ranking")
    return problems
