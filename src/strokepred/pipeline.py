"""End-to-end experiment orchestration.

A run takes a cohort (in memory or on disk) through three steps, each on
the one value the step before it returned.  ``prepare_run`` makes a
``PreparedRun``, in order: the image variant's layout (``VariantData``),
which refuses what it cannot draw before any other work; the partition,
with group 5 sealed in its lock box; and the tabular encoding whose
normalizers come from the training groups (1-3) only.
``fit_run`` fixes every model and touches groups 1-4 only: it picks a
learning rate by 4-fold cross-validation over groups 1-4 (``group_cv``),
trains one model per seed on groups 1-3 and calibrates it on group 4; its
``FittedRun`` holds each seed's checkpoint, temperature and validation loss
once, with the box still sealed.  IRLS is deterministic, so one logistic fit
serves every seed.  ``evaluate_run`` unlocks the box exactly once; its
``RunResult`` is the fitted run plus each seed's group-5 logits, the
held-out rows that ``emit_run`` writes as ``predictions.csv`` and derives
every report from.  ``run_experiment`` is the three steps in a row.  Every
fit follows ``learn.train``'s fixed protocol (RMSprop, class weights from
the training labels); each CV fit, here and in ``roi_count_sweep``, uses
seed ``CV_SEED`` = 1.  ``explain`` and ``select-rois`` prepare the same run,
rank ROIs on the development pool (groups 1-4) through ``rank_rois``, and
``roi_count_sweep`` derives each top-k run from it, on the same partition
and box.  Images render through the lock box: ``assemble`` and ``rank_rois``
render, once per layout, only the subjects of the groups the box has just
granted, so no group-5 volume is read before the unlock.  All file output is
CSV/JSON/SVG with deterministic content; only the audit log carries
wall-clock timestamps.  ``jobs`` applies in ``fit_run`` only: up to that
many of its CV fits, then of its seed fits, run at a time through
``evalharness.ordered_map``, which returns them in order, so no output
depends on it; ``roi_count_sweep`` runs one fit at a time.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import core, evalharness, explain, glyphs, imaging, learn
from .core import CohortManifest, LabelVolume, SubjectRecord, Volume3D
from .evalharness import METRIC_COLS, Calibrator, LockBox, SplitPlan
from .imaging import RoiImageSpec, StitchSpec
from .learn import ArrayDataset, CnnConfig, ModelParams, TabularEncoding, TrainConfig
from .synthcohort import (SynthConfig, TruthModel, cohort_records, gen_atlas,
                          gen_subject)

VARIANTS = ("stitched", "gm-roi", "wm-roi",
            "hybrid-stitched", "hybrid-gm-roi", "hybrid-wm-roi")
FUSION_KINDS = ("early_fusion", "daft")
TRAIN_GROUPS = (1, 2, 3)
VAL_GROUP = 4
TEST_GROUP = 5
CV_GROUPS = (1, 2, 3, 4)
CV_SEED = 1  # the seed of every cross-validation fit
PARTITION_SEED = 0  # the seed of every run's partition


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    variant: str = "gm-roi"
    model: str = "lightweight"
    seeds: tuple[int, ...] = tuple(range(1, 21))
    image_size: int = 64
    channels: tuple[int, ...] = (4, 8, 16)
    train: TrainConfig = field(default_factory=TrainConfig)
    roi_labels: tuple[int, ...] | None = None  # None = every atlas ROI

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.model not in learn.MODEL_KINDS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.model in FUSION_KINDS and self.variant.startswith("hybrid"):
            raise ConfigError(
                "fusion models take tabular input separately; hybrid variants "
                "already carry it as glyphs")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be nonempty and distinct")
        if self.model != "logistic":
            try:
                self.cnn  # the network rule is CnnConfig's
            except ValueError as exc:
                raise ConfigError(f"network of {self.model!r}: {exc}") from None
        if self.roi_labels is not None and (
                not self.roi_labels or self.variant.endswith("stitched")):
            raise ConfigError(
                f"roi_labels {list(self.roi_labels)} on {self.variant!r}: name "
                "at least one ROI of an ROI variant, or null for every ROI")
        if self.roi_labels:
            repeated = sorted({v for v in self.roi_labels
                               if self.roi_labels.count(v) > 1})
            bad = sorted({v for v in self.roi_labels if v <= 0})
            problems = [f"{what} {labels}" for what, labels in (
                ("repeated", repeated), ("not positive", bad)) if labels]
            if problems:
                raise ConfigError(f"roi_labels {list(self.roi_labels)}: "
                                  + "; ".join(problems))

    @property
    def cnn(self) -> CnnConfig:
        return CnnConfig(input_hw=(self.image_size, self.image_size),
                         channels=self.channels)

    @classmethod
    def from_json_dict(cls, d: dict) -> "RunConfig":
        return core.from_json_object(cls, d, "run config")


def paper_preset(config: RunConfig) -> RunConfig:
    """Full-scale constants: 256x256 inputs, 6 blocks, 200 epochs."""
    return replace(config, image_size=256,
                   channels=(8, 16, 32, 64, 128, 256),
                   train=replace(config.train, lrs=(1e-4, 5e-4, 1e-5),
                                 max_epochs=200))


# ---------------------------------------------------------------------------
# Cohort access


def _read_kind(kind: type, path: Path, dims: tuple[int, int, int],
               label_names=None):
    """Read a VOL1 file that must hold a ``kind`` volume of the manifest's
    ``dims``; a file of the other kind is refused at its dtype code, one of
    other dims at its dims."""
    volume = core.read_volume(path, label_names)
    if not isinstance(volume, kind):
        raise core.FormatError(
            f"{path} holds a {type(volume).__name__}, not a {kind.__name__}",
            16)
    if volume.dims != dims:
        raise core.FormatError(
            f"{path} holds dims {volume.dims}, not the manifest's {dims}", 4)
    return volume


@dataclass(frozen=True)
class CohortData:
    dims: tuple[int, int, int]
    atlas: LabelVolume  # grey-matter style ROI parcels
    tracts: LabelVolume | None
    records: tuple[SubjectRecord, ...]
    volume_of: Callable[[str], Volume3D]

    @classmethod
    def from_memory(cls, config: SynthConfig, truth: TruthModel,
                    ) -> "CohortData":
        atlas = gen_atlas(config, "rois")
        tracts = gen_atlas(config, "tracts")
        records = cohort_records(config, truth, atlas)
        # subject i of the cohort is synthesised from seed i
        seed_of = {r.id: i for i, r in enumerate(records)}

        def volume_of(subject_id: str) -> Volume3D:
            return gen_subject(config, truth, seed_of[subject_id], atlas)[0]

        return cls(dims=config.dims, atlas=atlas, tracts=tracts,
                   records=tuple(records), volume_of=volume_of)

    @classmethod
    def from_directory(cls, path: str | Path) -> "CohortData":
        path = Path(path)
        manifest = CohortManifest.load(path)
        dims = manifest.dims
        atlas = _read_kind(LabelVolume, path / manifest.atlas_path, dims,
                           manifest.atlas_labels)
        tracts = None
        if manifest.tract_atlas_path is not None:
            tracts = _read_kind(LabelVolume, path / manifest.tract_atlas_path,
                                dims, manifest.tract_labels)
        volume_paths = dict(manifest.volume_paths)

        def volume_of(subject_id: str) -> Volume3D:
            return _read_kind(Volume3D, path / volume_paths[subject_id], dims)

        return cls(dims=dims, atlas=atlas, tracts=tracts,
                   records=tuple(manifest.subjects), volume_of=volume_of)

    def labels_for(self, variant: str) -> LabelVolume:
        if "wm-roi" in variant:
            if self.tracts is None:
                raise ConfigError(
                    f"cohort has no tract atlas for variant {variant!r}")
            return self.tracts
        return self.atlas


# ---------------------------------------------------------------------------
# Variant image building


def fit_roi_spec(atlas: LabelVolume, labels: Sequence[int],
                 reserved_fraction: float = 0.0) -> imaging.RoiTilePlan:
    """Choose a canvas that holds all ROI tiles, near-square, plus an
    optional reserved bottom strip sized as a fraction of the tile area.
    Returns the tile plan for that canvas; its ``spec`` is the layout."""
    labels = tuple(int(v) for v in labels)
    boxes = imaging.roi_crops(atlas, labels)
    gap = imaging.TILE_GAP
    area = sum((x1 - x0 + gap) * (y1 - y0 + gap)
               for _, _, x0, x1, y0, y1 in boxes)
    max_w = max(x1 - x0 for _, _, x0, x1, _, _ in boxes)
    width = max(max_w + 2 * gap, int(math.sqrt(area * 1.3)) + 1)
    height = max(width, imaging.shelf_pack(boxes, width)[1])
    reserved = int(round(height * reserved_fraction))
    spec = RoiImageSpec(roi_labels=labels,
                        canvas=(height + reserved, width),
                        reserved_bottom=reserved)
    return imaging.plan_roi_tiles(atlas, spec)


def downsample_labels(label_image: np.ndarray, size: int) -> np.ndarray:
    """Nearest-pixel label shrink (labels cannot be averaged)."""
    h, w = label_image.shape
    rows = np.minimum(((np.arange(size) + 0.5) * h / size).astype(np.int64), h - 1)
    cols = np.minimum(((np.arange(size) + 0.5) * w / size).astype(np.int64), w - 1)
    return np.asarray(label_image)[np.ix_(rows, cols)]


def roi_label_canvas(plan: imaging.RoiTilePlan) -> np.ndarray:
    """(h, w) label image marking each tile rectangle with its ROI label."""
    h, w = plan.spec.canvas
    out = np.zeros((h, w), dtype=np.uint16)
    for (label, _z, x0, x1, y0, y1, row0, col0) in plan.tiles:
        out[row0:row0 + (y1 - y0), col0:col0 + (x1 - x0)] = label
    return out


@dataclass(frozen=True)
class VariantData:
    """A variant's network inputs, rendered on demand, and the explainer's
    label map.  ``render(id, encoding)`` reads one subject's volume and
    renders it with the layout and the encoding's train-only normalizers
    (None once all are rendered); ``images_of`` renders a subject on its
    first request and keeps the image in ``images``."""

    label_image: np.ndarray  # (S, S) ROI labels at input resolution
    full_shape: tuple[int, int]
    render: Callable[[str, TabularEncoding], np.ndarray] | None
    images: dict[str, np.ndarray] = field(default_factory=dict)  # (S, S) f32

    @classmethod
    def of(cls, cohort: CohortData, config: RunConfig) -> "VariantData":
        """The configured variant's layout, unrendered: no volume is read.  It refuses what the variant cannot draw: no tract atlas, no
        ROI labels or one with no voxels, a canvas under ``image_size``, or
        glyph boxes under 6 px."""
        target = (config.image_size, config.image_size)
        hybrid = config.variant.startswith("hybrid")
        by_id = {r.id: r for r in cohort.records}

        if config.variant.endswith("stitched"):
            nz = cohort.dims[2]
            spec = StitchSpec(cohort.dims,
                              tuple(range(nz - 4, nz)) if hybrid else ())
            label_full = imaging.stitched_label_image(
                cohort.labels_for("gm-roi"), spec)
            rois = ""
            boxes = glyphs.glyph_cell_boxes(spec) if hybrid else None

            def draw(volume, record, encoding):
                if hybrid:
                    return glyphs.hybrid_stitched(
                        volume, spec, boxes, record, encoding.size_ref,
                        encoding.time_ref, target)
                return imaging.downsample(imaging.stitch(volume, spec), *target)
        else:
            atlas = cohort.labels_for(config.variant)
            labels = config.roi_labels or tuple(sorted(atlas.label_names))
            if not labels:
                raise ConfigError(f"variant {config.variant!r}: the cohort's "
                                  "atlas has no ROI labels to lay out")
            missing = sorted(set(labels) - set(atlas.present_labels()))
            if missing:
                raise ConfigError(f"variant {config.variant!r}: ROI labels "
                                  f"{missing} have no voxels in the cohort's "
                                  "atlas")
            plan = fit_roi_spec(atlas, labels,
                                reserved_fraction=0.22 if hybrid else 0.0)
            pmap = imaging.PixelMap.compile(plan, atlas)
            label_full = roi_label_canvas(plan)
            rois = f" of {len(labels)} ROIs"
            try:
                boxes = glyphs.glyph_strip_boxes(plan.spec) if hybrid else None
            except imaging.LayoutError as exc:  # as wide as the tiles
                raise ConfigError(
                    f"variant {config.variant!r}, layout{rois}: {exc}; naming "
                    "more ROIs in roi_labels widens the glyph strip, "
                    "image_size does not help") from exc

            def draw(volume, record, encoding):
                if hybrid:
                    return glyphs.hybrid_roi(
                        volume, pmap, boxes, record, encoding.size_ref,
                        encoding.time_ref, target)
                return imaging.downsample(imaging.roi_image(volume, pmap),
                                          *target)

        h, w = label_full.shape  # every render is downsampled from this
        if min(h, w) < config.image_size:
            raise ConfigError(
                f"variant {config.variant!r}: the layout{rois} is {h}x{w} px, "
                f"smaller than image_size {config.image_size}")

        def render(subject_id: str, encoding: TabularEncoding) -> np.ndarray:
            return draw(cohort.volume_of(subject_id), by_id[subject_id],
                        encoding)

        return cls(label_image=downsample_labels(label_full, config.image_size),
                   full_shape=label_full.shape, render=render)

    def images_of(self, ids: Sequence[str],
                  encoding: TabularEncoding) -> list[np.ndarray]:
        """The images of ``ids`` in order, rendering those not yet held with
        ``encoding``: the one encoding of the run that holds the layout."""
        for i in ids:
            if i not in self.images:
                self.images[i] = self.render(i, encoding)
        return [self.images[i] for i in ids]


def build_variant(cohort: CohortData, config: RunConfig,
                  size_ref: float, time_ref: float) -> VariantData:
    """Render every subject's image for the configured variant, downsampled
    to the square network input.  The result drops its renderer, so no
    pixel map outlives the call."""
    data = VariantData.of(cohort, config)
    data.images_of(sorted(r.id for r in cohort.records),
                   TabularEncoding(size_ref, time_ref))
    return replace(data, render=None)


# ---------------------------------------------------------------------------
# The prepared run and dataset assembly under its lock box


@dataclass(frozen=True)
class PreparedRun:
    """One sealed session: the cohort and config, the partition and its
    lock box, the train-only tabular encoding and the variant, unrendered
    (None for the logistic model, which has no images)."""

    cohort: CohortData
    config: RunConfig
    plan: SplitPlan
    box: LockBox
    encoding: TabularEncoding
    variant_data: VariantData | None

    def records_of(self, groups: Sequence[int]) -> list[SubjectRecord]:
        """The records of ``groups``, in cohort order."""
        want = set(groups)
        return [r for r in self.cohort.records
                if self.plan.assignment[r.id] in want]


def assemble(run: PreparedRun, groups: Sequence[int],
             caller: str) -> ArrayDataset:
    """Gather one group subset as an ArrayDataset; every call is audited
    first, and renders only the images of the groups it was just granted.
    Every model but the image-only one takes the tabular features."""
    run.box.request(groups, caller)
    records = run.records_of(groups)
    labels = np.array([core.outcome_label(r.score) for r in records],
                      dtype=np.float64)
    images = None
    if run.variant_data is not None:
        images = np.stack(run.variant_data.images_of(
            [r.id for r in records], run.encoding))
    tabular = None
    if run.config.model != "lightweight":
        tabular = run.encoding.design(records).astype(np.float64)
    return ArrayDataset(images=images, tabular=tabular, labels=labels)


def concat_datasets(parts: Sequence[ArrayDataset]) -> ArrayDataset:
    def cat(field_name):
        vals = [getattr(p, field_name) for p in parts]
        if any(v is None for v in vals):
            return None
        return np.concatenate(vals)

    return ArrayDataset(images=cat("images"), tabular=cat("tabular"),
                        labels=np.concatenate([p.labels for p in parts]))


def _require_both_classes(records: Sequence[SubjectRecord],
                          plan: SplitPlan) -> None:
    """Refuse a partition whose seed-fit training groups (1-3, taken
    together) or calibration group (4) lack an outcome class; every
    3-group CV fold then holds both classes too.  Reads groups 1-4 only."""
    problems = []
    for name, groups in (("groups 1-3", TRAIN_GROUPS),
                         (f"group {VAL_GROUP}", (VAL_GROUP,))):
        labels = [core.outcome_label(r.score) for r in records
                  if plan.assignment[r.id] in groups]
        aphasic = sum(labels)
        if aphasic in (0, len(labels)):
            problems.append(f"{name}: {aphasic} aphasic, "
                            f"{len(labels) - aphasic} non-aphasic")
    if problems:
        raise ConfigError("training needs both outcome classes in groups 1-3 "
                          f"and in group {VAL_GROUP}; " + "; ".join(problems))


def prepare_run(cohort: CohortData, config: RunConfig,
                audit_path: str | Path | None = None) -> PreparedRun:
    """Lay out the configured variant unrendered, refusing a layout it
    cannot draw before any work; partition; seal group 5 in a lock box
    (audited to ``audit_path`` if given); derive the glyph and tabular
    normalizers from the training groups only, as one audited access."""
    layout = None if config.model == "logistic" else \
        VariantData.of(cohort, config)
    plan = evalharness.stratified_partition(cohort.records, k=5,
                                            seed=PARTITION_SEED)
    _require_both_classes(cohort.records, plan)
    box = LockBox(plan, audit_path)
    box.request(TRAIN_GROUPS, "feature-normalizers")
    encoding = TabularEncoding(*glyphs.normalizers_from_records(
        [r for r in cohort.records if plan.assignment[r.id] in TRAIN_GROUPS]))
    return PreparedRun(cohort, config, plan, box, encoding, layout)


# ---------------------------------------------------------------------------
# Training drivers


# (phase, lr, fold or seed, epoch, val_loss); phase "cv" names the
# validation fold's group, phase "seed" the training seed
CurveRow = tuple[str, float, int, int, float]


def _curve_rows(phase: str, lr: float, index: int,
                val_losses: Sequence[float]) -> list[CurveRow]:
    return [(phase, lr, index, epoch, loss)
            for epoch, loss in enumerate(val_losses, 1)]


def group_cv(run: PreparedRun, caller: str, jobs: int = 1,
             ) -> tuple[float, dict[float, list[float]], list[tuple]]:
    """Leave-one-group-out CV over groups 1-4 on the configured lr grid,
    every fit seeded with ``CV_SEED`` and up to ``jobs`` fits at a time.
    Returns the best lr, the per-lr fold losses and, in (lr, fold) order,
    each fit's (lr, validation group, validation fold, best-epoch params,
    per-epoch validation losses).  Group g's fold is one access, audited as
    ``{caller}-fold-{g}``, and every fold is granted before any fit."""
    folds = [assemble(run, [g], f"{caller}-fold-{g}") for g in CV_GROUPS]

    def fit(lr: float, i: int) -> tuple[float, tuple]:
        params, losses = learn.train(
            run.config.model, concat_datasets(folds[:i] + folds[i + 1:]),
            folds[i], run.config.train, lr, CV_SEED, run.config.cnn)
        return min(losses), (lr, CV_GROUPS[i], folds[i], params, losses)

    return evalharness.cross_validate(fit, len(folds), run.config.train.lrs,
                                      jobs)


@dataclass(frozen=True)
class FittedRun(PreparedRun):
    """A prepared run with every model fixed on groups 1-4; its box is
    still sealed.  Each seed's fit is stated once, in seed order."""

    best_lr: float
    cv_losses: dict[float, list[float]]
    learning_curves: tuple[CurveRow, ...]  # CV fits, then seed fits
    checkpoints: dict[int, ModelParams]
    calibrators: dict[int, Calibrator]  # group-4 temperatures
    val_losses: dict[int, float]  # balanced group-4 loss of the checkpoint


@dataclass(frozen=True)
class RunResult(FittedRun):
    """A fitted run, its box unlocked, plus each seed's raw group-5 logits,
    the rows every report is derived from.  A seed's probabilities are
    ``calibrators[seed].apply`` of its logits."""

    held_out: tuple[SubjectRecord, ...]  # group 5, in cohort order
    labels: np.ndarray  # held_out's outcomes
    logits: dict[int, np.ndarray]  # seed -> held_out's logits, in seed order

    @property
    def aggregate(self) -> dict[str, tuple[float, float]]:
        """Per-metric (mean, SE) of the seeds' group-5 metrics."""
        return evalharness.seed_aggregate(
            [evalharness.metrics(self.calibrators[seed].apply(z), self.labels)
             for seed, z in self.logits.items()])


def fit_run(run: PreparedRun, jobs: int = 1) -> FittedRun:
    """Fix every model on groups 1-4, running up to ``jobs`` fits at a time:
    the CV folds, then the seeds.  One forward of each fixed model on group 4
    gives both its temperature and its balanced validation loss."""
    config = run.config
    if config.model == "logistic":
        best_lr, cv_losses, curves = config.train.lrs[0], {}, []
    else:
        best_lr, cv_losses, fits = group_cv(run, "cv", jobs)
        curves = [row for lr, group, _, _, losses in fits
                  for row in _curve_rows("cv", lr, group, losses)]

    train_set = assemble(run, TRAIN_GROUPS, "seed-training")
    val_set = assemble(run, [VAL_GROUP], "validation-calibration")
    weights = learn.class_weights_from_labels(train_set.labels)

    if config.model == "logistic":
        # IRLS is deterministic and has no epochs: one fit serves every seed
        fit = learn.logistic_fit(train_set.tabular, train_set.labels), []
        seed_fits = [fit] * len(config.seeds)
    else:
        seed_fits = evalharness.ordered_map(
            lambda seed: learn.train(config.model, train_set, val_set,
                                     config.train, best_lr, seed, config.cnn),
            config.seeds, jobs)
    checkpoints, calibrators, val_losses = {}, {}, {}
    for seed, (params, losses) in zip(config.seeds, seed_fits):
        curves.extend(_curve_rows("seed", best_lr, seed, losses))
        logits = learn.forward(params, val_set.images, val_set.tabular)
        checkpoints[seed] = params
        calibrators[seed] = evalharness.fit_temperature(logits, val_set.labels)
        val_losses[seed] = learn.class_weighted_bce(logits, val_set.labels,
                                                    weights)
    return FittedRun(**vars(run), best_lr=best_lr, cv_losses=cv_losses,
                     learning_curves=tuple(curves), checkpoints=checkpoints,
                     calibrators=calibrators, val_losses=val_losses)


def evaluate_run(run: FittedRun) -> RunResult:
    """Unlock the box, once, and take every seed's fixed model's logits on
    group 5, one audited access per seed."""
    run.box.unlock("final evaluation on the held-out group")
    logits = {}
    for seed, params in run.checkpoints.items():
        test_set = assemble(run, [TEST_GROUP], f"seed-{seed}-final-eval")
        logits[seed] = learn.forward(params, test_set.images, test_set.tabular)
    return RunResult(**vars(run), held_out=tuple(run.records_of([TEST_GROUP])),
                     labels=test_set.labels, logits=logits)


def run_experiment(cohort: CohortData, config: RunConfig,
                   audit_path: str | Path | None = None,
                   jobs: int = 1) -> RunResult:
    """The full protocol for one (variant, model) cell: prepare, fit up to
    ``jobs`` seeds at a time, then unlock and evaluate."""
    return evaluate_run(fit_run(prepare_run(cohort, config, audit_path), jobs))


# ---------------------------------------------------------------------------
# ROI importance and count selection on top of a run


def rank_rois(params: ModelParams, run: PreparedRun, n_explain: int,
              n_perturb: int, seed: int, with_counterfactuals: bool = False,
              ) -> tuple[list[explain.Explanation], explain.RoiRanking]:
    """Explain an image model on the development pool (groups 1-4, audited
    as ``roi-ranking``) and rank the ROIs by mean importance."""
    run.box.request(CV_GROUPS, "roi-ranking")
    ids = sorted(r.id for r in run.records_of(CV_GROUPS))
    # float32 renders
    pool = dict(zip(ids, run.variant_data.images_of(ids, run.encoding)))
    return explain.explain_pool(
        lambda batch: learn.predict_proba(params, batch), pool,
        run.variant_data.label_image, n_explain=n_explain,
        n_perturb=n_perturb, seed=seed,
        with_counterfactuals=with_counterfactuals)


def require_roi_selection(config: RunConfig) -> None:
    """ROI-count selection re-renders only the top-k ROIs, so it needs the
    image-only model on an ROI variant: a stitched image shows every slice
    whatever k is, and every k would score the same."""
    if config.model != "lightweight":
        raise ConfigError("ROI selection needs the lightweight image model; "
                          f"this run uses {config.model!r}")
    if config.variant.endswith("stitched"):
        raise ConfigError(
            f"ROI selection needs an ROI variant; {config.variant!r} images "
            "do not depend on the ROI count")


def roi_count_sweep(run: PreparedRun, ranking: explain.RoiRanking,
                    counts: Sequence[int], sweep_epochs: int | None = None,
                    ) -> explain.RoiCountCurve:
    """Fig-2-style selection: for each distinct k, in ascending order, lay
    out the top-k ROI images and cross-validate over groups 1-4; k*
    minimizes mean balanced val loss, ties going to the smaller k.

    Each k is the run with the top-k config and layout, on the run's
    partition, box and train-only encoding.  Only groups 1-4 are touched,
    so the box may already be unlocked; every fold access is logged in it."""
    config = run.config
    require_roi_selection(config)
    lr = config.train.lrs[0]  # the sweep cross-validates one lr
    epochs = config.train.max_epochs if sweep_epochs is None else sweep_epochs
    sweep_config = replace(config, train=replace(
        config.train, lrs=(lr,), max_epochs=epochs))

    def curve_row(k: int) -> tuple[int, float, float]:
        # k's renders and fits are freed before the next k is laid out
        k_config = replace(sweep_config, roi_labels=ranking.rois[:k])
        k_run = replace(run, config=k_config,
                        variant_data=VariantData.of(run.cohort, k_config))
        _, losses, fits = group_cv(k_run, f"roi-sweep-k{k}")
        accs = [evalharness.metrics(learn.predict_proba(params, val.images),
                                    val.labels).balanced_accuracy
                for _, _, val, params, _ in fits]
        return k, float(np.mean(losses[lr])), float(np.mean(accs))

    rows = [curve_row(k) for k in sorted(set(counts))]
    best_k = min(rows, key=lambda row: (row[1], row[0]))[0]
    return explain.RoiCountCurve(rows=tuple(rows), best_k=best_k)


# ---------------------------------------------------------------------------
# Emission


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


def write_csv(path: str | Path, header: Sequence[str],
              rows: Sequence[Sequence]) -> None:
    """One row per line; a field that holds a comma, a quote or a newline
    is quoted (ROI names come from the cohort's manifest)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def emit_run(result: RunResult, out_dir: str | Path) -> dict[str, str]:
    """Write the CSV reports, checkpoints, and index; returns name -> path.
    Each seed's reports are computed once from its held-out rows, which
    ``predictions.csv`` holds: ``seed, subject, label, severity, logit,
    prob`` in seed, then cohort order, ``logit`` and ``prob`` written as
    ``repr(float(v))``, which reads back exactly."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    labels, severities = result.labels, [r.severity for r in result.held_out]
    probs = {seed: result.calibrators[seed].apply(z)
             for seed, z in result.logits.items()}
    tests = {seed: evalharness.metrics(p, labels) for seed, p in probs.items()}
    subgroups = {seed: evalharness.subgroup_metrics(p, labels, severities)
                 for seed, p in probs.items()}
    sweeps = {seed: [acc for _, acc in evalharness.threshold_sweep(p, labels)]
              for seed, p in probs.items()}
    aggregate = evalharness.seed_aggregate(list(tests.values()))
    subgroup_mean = evalharness.seed_aggregate(list(subgroups.values()))

    tables = {
        "per_seed": (
            ["seed", *METRIC_COLS, "temperature", "val_loss", "flags"],
            [[seed] + [getattr(row, m) for m in METRIC_COLS]
             + [result.calibrators[seed].temperature,
                result.val_losses[seed], "|".join(row.flags)]
             for seed, row in tests.items()]),
        "summary": (
            ["variant", "model", "metric", "mean", "se"],
            [[cfg.variant, cfg.model, m, *aggregate[m]] for m in METRIC_COLS]),
        "subgroup": (
            ["seed", *METRIC_COLS],
            [[seed] + [getattr(row, m) for m in METRIC_COLS]
             for seed, row in subgroups.items()]
            + [["mean"] + [subgroup_mean[m][0] for m in METRIC_COLS]]),
        "thresholds": (
            ["seed"] + [f"t_{t:g}" for t in evalharness.SWEEP_THRESHOLDS],
            [[seed, *accs] for seed, accs in sweeps.items()]
            + [["mean"] + [float(np.mean(accs))
                           for accs in zip(*sweeps.values())]]),
        "predictions": (
            ["seed", "subject", "label", "severity", "logit", "prob"],
            [[seed, r.id, int(y), r.severity, repr(float(z)), repr(float(q))]
             for seed, p in probs.items()
             for r, y, z, q in zip(result.held_out, labels,
                                   result.logits[seed], p)]),
        "learning_curves": (
            ["phase", "lr", "fold_or_seed", "epoch", "val_loss"],
            result.learning_curves),
    }
    files = {}
    for name, (header, rows) in tables.items():
        write_csv(out / f"{name}.csv", header, rows)
        files[name] = f"{name}.csv"

    ck_dir = out / "checkpoints"
    ck_dir.mkdir(exist_ok=True)
    names = {f"seed-{seed:03d}.ckp": params
             for seed, params in result.checkpoints.items()}
    for stale in ck_dir.glob("seed-*.ckp"):  # left by an earlier run
        if stale.name not in names:
            stale.unlink()
    for name, params in names.items():
        learn.write_checkpoint(params, ck_dir / name)
    files["checkpoints"] = "checkpoints"
    if result.box.audit_path:
        files["audit"] = result.box.audit_path.name

    meta = {
        "config": asdict(cfg),
        "best_lr": result.best_lr,
        "cv_losses": {str(k): v for k, v in result.cv_losses.items()},
        "balance": {
            "max_smd": result.plan.balance.max_smd,
            "objective": result.plan.balance.objective,
            "severity_counts": {c: {str(g): n for g, n in per.items()}
                                for c, per in
                                result.plan.balance.severity_counts.items()},
        },
        "files": files,
    }
    (out / "index.json").write_text(json.dumps(meta, indent=2, sort_keys=True)
                                    + "\n")
    files["index"] = "index.json"
    return files


def write_curve_csv(curve: explain.RoiCountCurve, path: str | Path) -> None:
    write_csv(path, ["k", "mean_val_loss", "val_balanced_accuracy"],
              [list(row) for row in curve.rows])


def write_curve_svg(curve: explain.RoiCountCurve, path: str | Path) -> None:
    """Minimal two-series polyline chart (loss and accuracy vs k)."""
    w, h, pad = 480, 300, 40
    ks = [row[0] for row in curve.rows]
    series = {"loss": [row[1] for row in curve.rows],
              "accuracy": [row[2] for row in curve.rows]}
    lo = min(min(v) for v in series.values())
    hi = max(max(v) for v in series.values())
    span = (hi - lo) or 1.0

    def sx(k):
        return pad + (k - ks[0]) / max(1, ks[-1] - ks[0]) * (w - 2 * pad)

    def sy(v):
        return h - pad - (v - lo) / span * (h - 2 * pad)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
             f'<rect width="{w}" height="{h}" fill="white"/>',
             f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" '
             'stroke="black"/>',
             f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" '
             'stroke="black"/>']
    for name, color in (("loss", "#c0392b"), ("accuracy", "#2471a3")):
        pts = " ".join(f"{sx(k):.1f},{sy(v):.1f}"
                       for k, v in zip(ks, series[name]))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
    for k in ks:
        parts.append(f'<text x="{sx(k):.1f}" y="{h - pad + 16}" '
                     f'font-size="11" text-anchor="middle">{k}</text>')
    parts.append(f'<text x="{w - pad}" y="{pad}" font-size="11" '
                 f'text-anchor="end" fill="#c0392b">balanced val loss</text>')
    parts.append(f'<text x="{w - pad}" y="{pad + 14}" font-size="11" '
                 f'text-anchor="end" fill="#2471a3">val balanced accuracy'
                 f' (best k = {curve.best_k})</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def write_ranking_csv(ranking: explain.RoiRanking, path: str | Path,
                      roi_names: Mapping[int, str] | None = None) -> None:
    rows = [[roi,
             roi_names.get(roi, f"roi{roi:02d}") if roi_names else f"roi{roi:02d}",
             ranking.mean_importance[roi]]
            for roi in ranking.rois]
    write_csv(path, ["roi", "name", "mean_importance"], rows)
