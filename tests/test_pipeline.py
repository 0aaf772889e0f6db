"""Orchestration tests on a small in-memory cohort."""

import csv
import gc
import json
import math
import threading
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from strokepred import (core, evalharness, explain, glyphs, imaging, learn,
                        pipeline)
from strokepred.explain import RoiRanking
from strokepred.learn import TrainConfig
from strokepred.pipeline import CohortData, ConfigError, RunConfig
from strokepred.rng import CounterRng
from strokepred.synthcohort import (SynthConfig, default_truth, gen_atlas,
                                    write_cohort)

TINY = SynthConfig(seed=5, n_subjects=60, dims=(32, 32, 32), n_rois=10,
                   n_tracts=6)
FAST = TrainConfig(lrs=(1e-3,), max_epochs=3, batch_size=16)


@pytest.fixture(scope="module")
def tiny_cohort():
    return CohortData.from_memory(TINY, default_truth())


def fast_config(**kw):
    base = dict(variant="gm-roi", model="lightweight", seeds=(1, 2),
                image_size=32, channels=(4, 8), train=FAST)
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# RunConfig


def test_config_rejects_unknown_variant():
    with pytest.raises(ConfigError):
        fast_config(variant="roi")


def test_config_rejects_unknown_model():
    with pytest.raises(ConfigError):
        fast_config(model="resnet")


@pytest.mark.parametrize("model", ["early_fusion", "daft"])
@pytest.mark.parametrize("variant", ["hybrid-stitched", "hybrid-gm-roi",
                                     "hybrid-wm-roi"])
def test_config_rejects_fusion_on_hybrid(model, variant):
    # glyphs already carry the tabular features into the image
    with pytest.raises(ConfigError):
        fast_config(variant=variant, model=model)


def test_config_allows_fusion_on_plain_variants():
    fast_config(variant="gm-roi", model="daft")
    fast_config(variant="stitched", model="early_fusion")


def test_config_requires_pool_divisibility():
    with pytest.raises(ConfigError):
        fast_config(image_size=36, channels=(4, 8, 16))  # 36 % 8 != 0


def test_config_rejects_duplicate_seeds():
    with pytest.raises(ConfigError):
        fast_config(seeds=(1, 1, 2))


@pytest.mark.parametrize("roi_labels,named", [
    ((1, 1), "roi_labels [1, 1]: repeated [1]"),
    ((0, -3), "roi_labels [0, -3]: not positive [-3, 0]"),
    ((4, 0, 4, 2, 2), "roi_labels [4, 0, 4, 2, 2]: repeated [2, 4]; "
     "not positive [0]"),
])
def test_config_refuses_repeated_or_non_positive_roi_labels(roi_labels,
                                                            named):
    with pytest.raises(ConfigError) as exc:
        fast_config(roi_labels=roi_labels)
    assert str(exc.value) == named


def test_config_logistic_skips_divisibility():
    fast_config(model="logistic", image_size=37)


def test_config_json_round_trip():
    config = fast_config(variant="hybrid-gm-roi", roi_labels=(1, 2, 3))
    back = RunConfig.from_json_dict(json.loads(json.dumps(asdict(config))))
    assert back == config


def _json_round_trip(config, tmp_path):
    doc = json.loads(json.dumps(asdict(config)))
    return core.from_json_object(type(config), doc, "config")


def _checkpoint_round_trip(cnn, tmp_path):
    path = tmp_path / "seed-001.ckp"
    learn.write_checkpoint(learn.build_params("lightweight", cnn=cnn), path)
    return learn.read_checkpoint(path).cnn


@pytest.mark.parametrize("config,round_trip", [
    (SynthConfig(seed=9, n_subjects=30, dims=(16, 20, 24),
                 lesion_radius=(2.5, 6.0), left_bias=0.7), _json_round_trip),
    (default_truth(), _json_round_trip),
    (RunConfig(variant="hybrid-wm-roi", seeds=(3, 1), roi_labels=(2, 5),
               train=TrainConfig(lrs=(5e-4, 2e-3), max_epochs=7,
                                 batch_size=8)), _json_round_trip),
    (learn.CnnConfig(input_hw=(32, 16), channels=(2, 4, 8)),
     _checkpoint_round_trip),
], ids=["synth", "truth", "run", "cnn-checkpoint"])
def test_config_round_trips_through_json_by_its_annotations(config,
                                                           round_trip,
                                                           tmp_path):
    # repr tells a list from a tuple and an int from a float
    back = round_trip(config, tmp_path)
    assert back == config and repr(back) == repr(config)


def test_run_config_trains_on_the_training_defaults():
    assert RunConfig().train == TrainConfig() == TrainConfig(
        lrs=(3e-3, 1e-3), max_epochs=24, batch_size=16)


def test_paper_preset_constants():
    config = pipeline.paper_preset(fast_config())
    assert config.image_size == 256
    assert len(config.channels) == 6
    assert config.train.max_epochs == 200
    assert config.train.lrs == (1e-4, 5e-4, 1e-5)
    assert config.seeds == (1, 2)  # the caller's seeds stay
    assert config.image_size % 2 ** len(config.channels) == 0


# ---------------------------------------------------------------------------
# layout helpers


def test_auto_grid_exact_cover():
    for nz, grid in ((4, (2, 2)), (17, (1, 17)), (24, (4, 6)), (36, (6, 6)),
                     (60, (6, 10)), (64, (8, 8)), (100, (10, 10))):
        rows, cols = imaging.StitchSpec((8, 8, nz)).grid
        assert (rows, cols) == grid and rows * cols == nz
        assert rows <= cols  # wide, never tall


def test_fit_roi_spec_plan_fits(tiny_cohort):
    labels = tuple(sorted(tiny_cohort.atlas.label_names))
    plan = pipeline.fit_roi_spec(tiny_cohort.atlas, labels)
    planned = {t[0] for t in plan.tiles}
    assert planned == set(labels)
    assert plan.spec.reserved_bottom == 0
    assert plan == imaging.plan_roi_tiles(tiny_cohort.atlas, plan.spec)


def test_fit_roi_spec_reserved_fraction(tiny_cohort):
    labels = tuple(sorted(tiny_cohort.atlas.label_names))
    plain = pipeline.fit_roi_spec(tiny_cohort.atlas, labels).spec
    plan = pipeline.fit_roi_spec(tiny_cohort.atlas, labels,
                                 reserved_fraction=0.25)
    spec = plan.spec
    base_h = plain.canvas[0]
    assert spec.reserved_bottom == round(base_h * 0.25)
    assert spec.canvas[0] == base_h + spec.reserved_bottom
    assert plan == imaging.plan_roi_tiles(tiny_cohort.atlas, spec)  # fits


def _probe_fit_roi_spec(atlas, labels, reserved_fraction):
    """Reference for ``fit_roi_spec``: the canvas sizing it replaced.  It
    probes a square canvas with a tile-by-tile shelf packing that stops at
    the first tile past the canvas bottom, and on overflow packs again
    without a bottom to find the height.  Returns (canvas, reserved, tiles)."""
    crops = imaging.roi_crops(atlas, labels)
    gap = 1
    area = sum((x1 - x0 + gap) * (y1 - y0 + gap)
               for _, _, x0, x1, y0, y1 in crops)
    max_w = max(x1 - x0 for _, _, x0, x1, _, _ in crops)
    width = max(max_w + 2 * gap, int(math.sqrt(area * 1.3)) + 1)

    def pack(usable_h):  # tiles, or None when one passes usable_h
        tiles, row, col, shelf = [], 0, 0, 0
        for (label, z, x0, x1, y0, y1) in crops:
            th, tw = y1 - y0, x1 - x0
            if col + tw > width:
                row += shelf + gap
                col, shelf = 0, 0
            if row + th > usable_h:
                return None
            tiles.append((label, z, x0, x1, y0, y1, row, col))
            col += tw + gap
            shelf = max(shelf, th)
        return tiles

    height = width
    if pack(width) is None:
        height = max(t[6] + t[5] - t[4] for t in pack(math.inf))
    reserved = int(round(height * reserved_fraction))
    return (height + reserved, width), reserved, tuple(pack(height))


@pytest.mark.parametrize("dims", [(32, 32, 32), (40, 48, 36)])
@pytest.mark.parametrize("kind", ["rois", "tracts"])
@pytest.mark.parametrize("reserved_fraction", [0.0, 0.22])
@pytest.mark.parametrize("top_k", [None, 4])
def test_fit_roi_spec_matches_probe_sizing(dims, kind, reserved_fraction,
                                           top_k):
    atlas = gen_atlas(replace(TINY, dims=dims), kind)
    labels = tuple(sorted(atlas.label_names))
    if top_k is not None:  # importance order, not label order
        labels = labels[::-3][:top_k]
    plan = pipeline.fit_roi_spec(atlas, labels, reserved_fraction)
    canvas, reserved, tiles = _probe_fit_roi_spec(atlas, labels,
                                                  reserved_fraction)
    assert plan.spec == imaging.RoiImageSpec(
        roi_labels=labels, canvas=canvas, reserved_bottom=reserved)
    assert plan.tiles == tiles


@pytest.mark.parametrize("variant", ["gm-roi", "hybrid-gm-roi"])
def test_roi_build_plans_tiles_once(tiny_cohort, monkeypatch, variant):
    calls = []
    plan_roi_tiles = imaging.plan_roi_tiles

    def counting(atlas, spec):
        calls.append(spec)
        return plan_roi_tiles(atlas, spec)

    monkeypatch.setattr(imaging, "plan_roi_tiles", counting)
    pipeline.build_variant(tiny_cohort, fast_config(variant=variant),
                           2000.0, 900.0)
    assert len(calls) == 1  # the plan that sizes the canvas also renders


def test_six_variants_build_each_atlas_crop_table_once(monkeypatch):
    import functools
    builds = []
    table = core.LabelVolume.crop_table.func

    def counting(atlas):
        builds.append(atlas)
        return table(atlas)

    counted = functools.cached_property(counting)
    counted.__set_name__(core.LabelVolume, "crop_table")
    monkeypatch.setattr(core.LabelVolume, "crop_table", counted)
    cohort = CohortData.from_memory(replace(TINY, n_subjects=10),
                                    default_truth())
    for variant in pipeline.VARIANTS:
        pipeline.build_variant(cohort, fast_config(variant=variant),
                               2000.0, 900.0)
    assert sorted(map(id, builds)) == sorted([id(cohort.atlas),
                                              id(cohort.tracts)])


def test_downsample_labels_matches_loop_oracle():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 7, size=(37, 53)).astype(np.uint16)
    out = pipeline.downsample_labels(img, 16)
    for i in range(16):
        for j in range(16):
            si = min(int((i + 0.5) * 37 / 16), 36)
            sj = min(int((j + 0.5) * 53 / 16), 52)
            assert out[i, j] == img[si, sj]


def test_roi_label_canvas_marks_tiles(tiny_cohort):
    labels = tuple(sorted(tiny_cohort.atlas.label_names))
    plan = pipeline.fit_roi_spec(tiny_cohort.atlas, labels)
    canvas = pipeline.roi_label_canvas(plan)
    covered = np.zeros(canvas.shape, dtype=bool)
    for (label, _z, x0, x1, y0, y1, r0, c0) in plan.tiles:
        rect = canvas[r0:r0 + (y1 - y0), c0:c0 + (x1 - x0)]
        assert (rect == label).all()
        covered[r0:r0 + (y1 - y0), c0:c0 + (x1 - x0)] = True
    assert (canvas[~covered] == 0).all()


# ---------------------------------------------------------------------------
# variant building


@pytest.mark.parametrize("variant", pipeline.VARIANTS)
def test_build_variant_shapes_and_determinism(tiny_cohort, variant):
    config = fast_config(variant=variant)
    a = pipeline.build_variant(tiny_cohort, config, 2000.0, 900.0)
    b = pipeline.build_variant(tiny_cohort, config, 2000.0, 900.0)
    assert sorted(a.images) == [r.id for r in tiny_cohort.records]
    for sid, img in a.images.items():
        assert img.shape == (32, 32)
        assert img.dtype == np.float32
        assert np.array_equal(img, b.images[sid])  # bit-identical rebuild
    assert a.label_image.shape == (32, 32)
    assert np.array_equal(a.label_image, b.label_image)


@pytest.mark.parametrize("variant", pipeline.VARIANTS)
def test_every_render_is_a_float32_square_in_the_unit_range(tiny_cohort,
                                                            variant):
    encoding = learn.TabularEncoding(
        *glyphs.normalizers_from_records(tiny_cohort.records))
    data = pipeline.VariantData.of(tiny_cohort, fast_config(variant=variant))
    for img in data.images_of([r.id for r in tiny_cohort.records], encoding):
        assert img.dtype == np.float32 and img.shape == (32, 32)
        assert 0.0 <= img.min() and img.max() <= 1.0


def test_stitched_label_image_matches_direct(tiny_cohort):
    config = fast_config(variant="stitched")
    data = pipeline.build_variant(tiny_cohort, config, 2000.0, 900.0)
    spec = imaging.StitchSpec(tiny_cohort.dims)
    expected = pipeline.downsample_labels(
        imaging.stitched_label_image(tiny_cohort.atlas, spec), 32)
    assert np.array_equal(data.label_image, expected)


def test_hybrid_differs_from_plain_only_when_glyphs(tiny_cohort):
    plain = pipeline.build_variant(tiny_cohort, fast_config(variant="stitched"),
                                   2000.0, 900.0)
    hybrid = pipeline.build_variant(
        tiny_cohort, fast_config(variant="hybrid-stitched"), 2000.0, 900.0)
    sid = tiny_cohort.records[0].id
    assert not np.array_equal(plain.images[sid], hybrid.images[sid])


def test_build_variant_wm_uses_tract_atlas(tiny_cohort):
    data = pipeline.build_variant(tiny_cohort, fast_config(variant="wm-roi"),
                                  2000.0, 900.0)
    tract_labels = set(tiny_cohort.tracts.label_names)
    present = set(np.unique(data.label_image)) - {0}
    assert present <= tract_labels


def test_labels_for_missing_tracts_raises(tiny_cohort):
    bare = CohortData(dims=tiny_cohort.dims, atlas=tiny_cohort.atlas,
                      tracts=None, records=tiny_cohort.records,
                      volume_of=tiny_cohort.volume_of)
    with pytest.raises(ConfigError):
        bare.labels_for("wm-roi")


def test_roi_subset_changes_canvas(tiny_cohort):
    full = pipeline.VariantData.of(tiny_cohort, fast_config())
    sub = pipeline.VariantData.of(tiny_cohort,
                                  fast_config(roi_labels=(1, 2, 3)))
    assert set(np.unique(sub.label_image)) - {0} <= {1, 2, 3}
    assert sub.full_shape[0] < full.full_shape[0]


def test_variant_data_renders_each_subject_once_on_request(tiny_cohort):
    reads = []

    def volume_of(subject_id):
        reads.append(subject_id)
        return tiny_cohort.volume_of(subject_id)

    cohort = replace(tiny_cohort, volume_of=volume_of)
    config = fast_config(variant="hybrid-gm-roi")
    data = pipeline.VariantData.of(cohort, config)
    assert reads == [] and data.images == {}  # the layout reads no volume
    encoding = learn.TabularEncoding(2000.0, 900.0)
    ids = [r.id for r in tiny_cohort.records]
    first = data.images_of(ids[3:5], encoding)
    again = data.images_of(ids[:5], encoding)
    assert reads == ids[3:5] + ids[:3]
    assert again[3] is first[0] and again[4] is first[1]
    full = pipeline.build_variant(tiny_cohort, config, 2000.0, 900.0)
    for sid, img in zip(ids[:5], again):
        assert np.array_equal(img, full.images[sid])


def test_build_variant_keeps_no_tile_plan(tiny_cohort, monkeypatch):
    # a renderer left on the result would keep the layout's pixel map alive
    # as long as the images; the plan goes with the layout step
    plans, maps = [], []
    fit_roi_spec = pipeline.fit_roi_spec
    compile_map = imaging.PixelMap.compile

    def recording(*args, **kwargs):
        plan = fit_roi_spec(*args, **kwargs)
        plans.append(weakref.ref(plan))
        return plan

    def recording_map(plan, atlas):
        pmap = compile_map(plan, atlas)
        maps.append(weakref.ref(pmap))
        return pmap

    monkeypatch.setattr(pipeline, "fit_roi_spec", recording)
    monkeypatch.setattr(imaging.PixelMap, "compile", recording_map)
    data = pipeline.build_variant(
        tiny_cohort, fast_config(variant="hybrid-gm-roi"), 2000.0, 900.0)
    gc.collect()
    assert len(plans) == 1 and plans[0]() is None
    assert len(maps) == 1 and maps[0]() is None
    assert data.render is None
    assert sorted(data.images) == sorted(r.id for r in tiny_cohort.records)


# ---------------------------------------------------------------------------
# dataset assembly


def test_assemble_lightweight_has_images_only(tiny_cohort):
    run = pipeline.prepare_run(tiny_cohort, fast_config())
    ds = pipeline.assemble(run, (1, 2), "test")
    assert ds.images is not None and ds.tabular is None
    want = [r.id for r in tiny_cohort.records
            if run.plan.assignment[r.id] in (1, 2)]
    assert len(ds.labels) == len(want)
    by_id = {r.id: r for r in tiny_cohort.records}
    expected = [core.outcome_label(by_id[i].score) for i in want]
    assert list(ds.labels) == expected
    built = pipeline.build_variant(tiny_cohort, run.config,
                                   run.encoding.size_ref, run.encoding.time_ref)
    assert np.array_equal(ds.images[0], built.images[want[0]])


def test_assemble_fusion_and_logistic_tabular(tiny_cohort):
    run = pipeline.prepare_run(tiny_cohort, fast_config(model="early_fusion"))
    fusion = pipeline.assemble(run, (1,), "f")
    assert fusion.images is not None and fusion.tabular is not None
    run = pipeline.prepare_run(tiny_cohort, fast_config(model="logistic"))
    logit = pipeline.assemble(run, (1,), "l")
    assert logit.images is None and logit.tabular is not None
    assert logit.tabular.shape[1] == run.encoding.dim


def test_assemble_is_audited(tiny_cohort):
    run = pipeline.prepare_run(tiny_cohort, fast_config(model="logistic"))
    pipeline.assemble(run, (1, 3), "probe")
    last = run.box.entries[-1]
    assert last["op"] == "access"
    assert last["caller"] == "probe"


def test_concat_datasets_none_propagation():
    a = learn.ArrayDataset(images=None, tabular=np.ones((2, 3)),
                           labels=np.array([0.0, 1.0]))
    b = learn.ArrayDataset(images=None, tabular=np.zeros((1, 3)),
                           labels=np.array([1.0]))
    out = pipeline.concat_datasets([a, b])
    assert out.images is None
    assert out.tabular.shape == (3, 3)
    assert list(out.labels) == [0.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# full runs


@pytest.fixture(scope="module")
def tiny_run(tiny_cohort):
    return pipeline.run_experiment(tiny_cohort, fast_config())


def test_run_audit_protocol(tiny_run, tmp_path):
    path = tmp_path / "audit.jsonl"
    path.write_text("".join(json.dumps(e) + "\n"
                            for e in tiny_run.box.entries))
    scan = evalharness.audit_scan(path)
    assert scan["n_unlocks"] == 1
    assert scan["n_violations"] == 0
    assert scan["pre_unlock_lockbox_accesses"] == 0


def _tree_bytes(root):
    return {str(f.relative_to(root)): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


def test_run_result_fields(tiny_run):
    assert tiny_run.best_lr == 1e-3
    assert set(tiny_run.checkpoints) == {1, 2}
    assert set(tiny_run.aggregate) == set(pipeline.METRIC_COLS)
    # the held-out rows: group 5 in cohort order, one logit per subject
    held_out = [r for r in tiny_run.cohort.records
                if tiny_run.plan.assignment[r.id] == pipeline.TEST_GROUP]
    assert held_out and list(tiny_run.held_out) == held_out
    assert tiny_run.labels.tolist() == [core.outcome_label(r.score)
                                        for r in held_out]
    for logits in tiny_run.logits.values():
        assert logits.shape == (len(held_out),)
    # each seed's fitted state and logits are held once, keyed and ordered
    # by seed
    for fitted in (tiny_run.checkpoints, tiny_run.calibrators,
                   tiny_run.val_losses, tiny_run.logits):
        assert list(fitted) == [1, 2]
    assert all(c.temperature > 0 for c in tiny_run.calibrators.values())


def test_run_is_deterministic(tiny_cohort, tiny_run, tmp_path):
    again = pipeline.run_experiment(tiny_cohort, fast_config())
    assert list(again.logits) == list(tiny_run.logits)
    for seed, logits in tiny_run.logits.items():
        assert again.logits[seed].tobytes() == logits.tobytes()
    assert again.calibrators == tiny_run.calibrators
    assert again.val_losses == tiny_run.val_losses
    d1, d2 = tmp_path / "a", tmp_path / "b"
    pipeline.emit_run(tiny_run, d1)
    pipeline.emit_run(again, d2)
    assert _tree_bytes(d1) == _tree_bytes(d2)


@pytest.mark.parametrize("model",
                         ["lightweight", "early_fusion", "daft", "logistic"])
def test_parallel_run_matches_sequential(tiny_cohort, model):
    config = fast_config(model=model)
    seq = pipeline.run_experiment(tiny_cohort, config)
    par = pipeline.run_experiment(tiny_cohort, config, jobs=2)
    assert list(par.logits) == list(seq.logits)
    for seed, logits in seq.logits.items():
        assert par.logits[seed].tobytes() == logits.tobytes()
        assert par.checkpoints[seed].vector.tobytes() == \
            seq.checkpoints[seed].vector.tobytes()
    assert par.calibrators == seq.calibrators
    assert par.val_losses == seq.val_losses
    assert par.learning_curves == seq.learning_curves
    assert par.best_lr == seq.best_lr
    assert par.cv_losses == seq.cv_losses


def test_learning_curves_hold_every_fit_epoch(tiny_run, tmp_path):
    cfg = tiny_run.config
    epochs = cfg.train.max_epochs
    rows = tiny_run.learning_curves
    cv = [r for r in rows if r[0] == "cv"]
    assert len(cv) == len(cfg.train.lrs) * 4 * epochs
    for lr, per_fold in tiny_run.cv_losses.items():
        for group, loss in zip((1, 2, 3, 4), per_fold):
            curve = [r for r in cv if r[1] == lr and r[2] == group]
            assert [r[3] for r in curve] == list(range(1, epochs + 1))
            assert min(r[4] for r in curve) == loss
    for seed, val_loss in tiny_run.val_losses.items():
        # the checkpoint's own group-4 loss is its best epoch's, bit for bit
        curve = [r for r in rows if r[0] == "seed" and r[2] == seed]
        assert [r[3] for r in curve] == list(range(1, epochs + 1))
        assert {r[1] for r in curve} == {tiny_run.best_lr}
        assert min(r[4] for r in curve) == val_loss
    assert len(rows) == len(cv) + len(tiny_run.logits) * epochs
    pipeline.emit_run(tiny_run, tmp_path)
    lines = (tmp_path / "learning_curves.csv").read_text().splitlines()
    assert lines[0] == "phase,lr,fold_or_seed,epoch,val_loss"
    assert len(lines) == 1 + len(rows)


# ---------------------------------------------------------------------------
# the unlock seam: fit_run touches groups 1-4 only, evaluate_run unlocks once

PRE_UNLOCK = [("seal", None), ("access", "feature-normalizers"),
              *[("access", f"cv-fold-{g}") for g in (1, 2, 3, 4)],
              ("access", "seed-training"),
              ("access", "validation-calibration")]


def _ops(box):
    return [(e["op"], e.get("caller")) for e in box.entries]


def test_fit_run_reads_no_held_out_subject(tiny_cohort):
    # every model is fixed, and group 5 never rendered, before the unlock
    plan = evalharness.stratified_partition(
        tiny_cohort.records, k=5, seed=pipeline.PARTITION_SEED)
    held_out = {i for i, g in plan.assignment.items() if g == 5}
    assert held_out

    def volume_of(subject_id):
        if subject_id in held_out:
            raise AssertionError(f"read held-out subject {subject_id}")
        return tiny_cohort.volume_of(subject_id)

    cohort = replace(tiny_cohort, volume_of=volume_of)
    fitted = pipeline.fit_run(pipeline.prepare_run(cohort, fast_config()))
    assert _ops(fitted.box) == PRE_UNLOCK
    assert list(fitted.checkpoints) == list(fitted.calibrators) == \
        list(fitted.val_losses) == [1, 2]
    assert not held_out & set(fitted.variant_data.images)


def test_evaluate_run_unlocks_once(tiny_cohort):
    fitted = pipeline.fit_run(pipeline.prepare_run(
        tiny_cohort, fast_config(model="logistic")))
    result = pipeline.evaluate_run(fitted)
    assert _ops(result.box) == PRE_UNLOCK[:2] + PRE_UNLOCK[-2:] + [
        ("unlock", None), ("access", "seed-1-final-eval"),
        ("access", "seed-2-final-eval")]
    with pytest.raises(evalharness.LockBoxProtocolError):
        pipeline.evaluate_run(fitted)


def test_run_logistic_model(tiny_cohort):
    res = pipeline.run_experiment(tiny_cohort,
                                  fast_config(model="logistic", seeds=(1,)))
    # tabular features carry real signal
    assert res.aggregate["auc"][0] > 0.5
    params = res.checkpoints[1]
    assert params.kind == "logistic"


def test_emit_run_files(tiny_run, tmp_path):
    files = pipeline.emit_run(tiny_run, tmp_path)
    for rel in files.values():
        assert (tmp_path / rel).exists()
    header = (tmp_path / "thresholds.csv").read_text().splitlines()[0]
    cols = header.split(",")
    assert cols[0] == "seed"
    assert cols[1:] == [f"t_{t:g}" for t in np.arange(1, 10) / 10]
    doc = json.loads((tmp_path / "index.json").read_text())
    assert RunConfig.from_json_dict(doc["config"]) == tiny_run.config
    ckp = learn.read_checkpoint(tmp_path / "checkpoints" / "seed-001.ckp")
    assert np.array_equal(ckp.vector, tiny_run.checkpoints[1].vector)


def test_predictions_csv_reproduces_per_seed_csv(tiny_run, tmp_path):
    # every reported number is a view of the held-out rows: the written
    # rows alone give back each seed's per_seed.csv fields, and its
    # subgroup.csv and thresholds.csv rows, byte for byte
    pipeline.emit_run(tiny_run, tmp_path)

    def read(name):
        with open(tmp_path / name, newline="") as fh:
            return list(csv.DictReader(fh))

    rows = read("predictions.csv")
    per_seed, subgroup, thresholds = (
        {r["seed"]: r for r in read(name)}
        for name in ("per_seed.csv", "subgroup.csv", "thresholds.csv"))
    held_out = [r for r in tiny_run.cohort.records
                if tiny_run.plan.assignment[r.id] == pipeline.TEST_GROUP]
    assert list(rows[0]) == ["seed", "subject", "label", "severity", "logit",
                             "prob"]
    assert [int(r["seed"]) for r in rows] == [
        seed for seed in tiny_run.config.seeds for _ in held_out]
    assert list(per_seed) == [str(seed) for seed in tiny_run.config.seeds]
    for seed, want in per_seed.items():
        mine = [r for r in rows if r["seed"] == seed]
        assert [r["subject"] for r in mine] == [r.id for r in held_out]
        severities = [r["severity"] for r in mine]
        assert severities == [r.severity for r in held_out]
        labels = np.array([int(r["label"]) for r in mine])
        assert labels.tolist() == [core.outcome_label(r.score)
                                   for r in held_out]
        logits = np.array([float(r["logit"]) for r in mine])
        probs = np.array([float(r["prob"]) for r in mine])
        assert np.array_equal(
            tiny_run.calibrators[int(seed)].apply(logits), probs)
        row = evalharness.metrics(probs, labels)
        sub = evalharness.subgroup_metrics(probs, labels, severities)
        for m in pipeline.METRIC_COLS:
            assert format(getattr(row, m), ".10g") == want[m]
            assert format(getattr(sub, m), ".10g") == subgroup[seed][m]
        assert "|".join(row.flags) == want["flags"]
        for t, acc in evalharness.threshold_sweep(probs, labels):
            assert format(acc, ".10g") == thresholds[seed][f"t_{t:g}"]


def test_summary_csv_matches_aggregate(tiny_run, tmp_path):
    pipeline.emit_run(tiny_run, tmp_path)
    for line in (tmp_path / "summary.csv").read_text().splitlines()[1:]:
        variant, model, metric, mean, se = line.split(",")
        assert variant == tiny_run.config.variant
        got = tiny_run.aggregate[metric]
        assert float(mean) == pytest.approx(got[0], rel=1e-9)
        assert float(se) == pytest.approx(got[1], rel=1e-9, abs=1e-12)


def test_ranking_csv_quotes_a_name_that_holds_a_comma_or_a_quote(tmp_path):
    ranking = RoiRanking.from_means({1: 0.5, 2: 0.25, 3: 0.125}, 1)
    names = {1: "left, frontal", 2: 'the "angular" gyrus', 3: "plain"}
    path = tmp_path / "roi_ranking.csv"
    pipeline.write_ranking_csv(ranking, path, names)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["roi", "name", "mean_importance"],
                    ["1", "left, frontal", "0.5"],
                    ["2", 'the "angular" gyrus', "0.25"],
                    ["3", "plain", "0.125"]]
    assert path.read_text().splitlines()[3] == "3,plain,0.125"


def test_group_cv_returns_every_fit_in_fit_order(tiny_cohort):
    config = fast_config(train=replace(FAST, lrs=(1e-3, 3e-3), max_epochs=2))
    run = pipeline.prepare_run(tiny_cohort, config)
    best_lr, losses, fits = pipeline.group_cv(run, "probe")
    assert [e["caller"] for e in run.box.entries if e["op"] == "access"][1:] == [
        f"probe-fold-{g}" for g in (1, 2, 3, 4)]
    assert [(lr, g) for lr, g, *_ in fits] == [
        (lr, g) for lr in (1e-3, 3e-3) for g in (1, 2, 3, 4)]
    for lr, group, val, params, curve in fits:
        assert len(curve) == 2 and losses[lr][group - 1] == min(curve)
        assert len(val) == sum(1 for g in run.plan.assignment.values()
                               if g == group)
        assert params.kind == "lightweight"
    assert best_lr == min(losses, key=lambda lr: (np.mean(losses[lr]), lr))
    # every fit is seeded with CV_SEED: the first one retrains to the byte
    lr, group, val, params, curve = fits[0]
    train_set = pipeline.concat_datasets([f[2] for f in fits[1:4]])
    again, again_curve = learn.train("lightweight", train_set, val,
                                     config.train, lr, pipeline.CV_SEED,
                                     config.cnn)
    assert np.array_equal(again.vector, params.vector)
    assert again_curve == curve


def test_group_cv_runs_two_fits_at_once_and_returns_the_serial_records(
        tiny_cohort, monkeypatch):
    # a stand-in fit that returns only once a second fit is in flight: it
    # completes at jobs=2 only if two fits really run at the same time
    config = fast_config(train=replace(FAST, lrs=(1e-3, 3e-3), max_epochs=2))
    barrier = threading.Barrier(2, timeout=10)
    grants_at_fit = []

    def stand_in(kind, train_set, val_set, cfg, lr, seed, cnn):
        grants_at_fit.append([e["caller"] for e in run.box.entries
                              if e["op"] == "access"])
        if barrier is not None:
            barrier.wait()
        return (lr, len(train_set.labels)), [lr, len(val_set.labels) / 100]

    monkeypatch.setattr(pipeline.learn, "train", stand_in)
    records = {}
    for jobs in (2, 1):
        run = pipeline.prepare_run(tiny_cohort, config)
        best_lr, losses, fits = pipeline.group_cv(run, "probe", jobs)
        records[jobs] = (best_lr, losses,
                         [(lr, g, val.labels.tolist(), params, curve)
                          for lr, g, val, params, curve in fits])
        barrier = None
    assert records[2] == records[1]
    assert [(lr, g) for lr, g, *_ in records[2][2]] == [
        (lr, g) for lr in (1e-3, 3e-3) for g in (1, 2, 3, 4)]
    # every fold access is granted before the first fit starts
    folds = [f"probe-fold-{g}" for g in (1, 2, 3, 4)]
    assert len(grants_at_fit) == 16
    assert all(grants[1:] == folds for grants in grants_at_fit)


def test_an_roi_layout_smaller_than_the_input_is_refused_before_its_folds(
        tiny_cohort, monkeypatch):
    # ROI 6 of the tiny atlas tiles into a 32x28 canvas, under the 32 px input
    with pytest.raises(ConfigError, match=r"'gm-roi'.* of 1 ROIs is 32x28 px"
                                          r".*image_size 32"):
        pipeline.prepare_run(tiny_cohort, fast_config(roi_labels=(6,)))
    run = pipeline.prepare_run(tiny_cohort, fast_config(seeds=(1,)))
    cv_calls = []
    monkeypatch.setattr(pipeline, "group_cv",
                        lambda k_run, caller: cv_calls.append(caller))
    ranking = RoiRanking.from_means({6: 1.0, 5: 0.5, 10: 0.25},
                                    n_explanations=1)
    with pytest.raises(ConfigError, match="of 1 ROIs is 32x28 px"):
        pipeline.roi_count_sweep(run, ranking, counts=(1, 2))
    assert cv_calls == []
    assert not any("roi-sweep" in e.get("caller", "") for e in run.box.entries)


def _ranking(cohort):
    return RoiRanking.from_means(
        {lab: float(-lab) for lab in sorted(cohort.atlas.label_names)},
        n_explanations=1)


def test_rank_rois_scores_float32_batches(tiny_cohort, monkeypatch):
    # the renders are float32, and so is the pool batch the classifier
    # receives: no float64 copy is made on the way.  Each explained image's
    # masks go to the model's scorer for that (image, contrast) pair, which
    # draws no composite image
    run = pipeline.prepare_run(tiny_cohort, fast_config(seeds=(1,)))
    params = learn.build_params("lightweight", cnn=run.config.cnn,
                                rng=CounterRng(1, "init"))
    pool, rows = [], []
    swap_scorer = learn.swap_scorer

    def pool_proba(params, images):
        pool.append((images.dtype, len(images)))
        return np.full(len(images), 0.75)

    def spied(params, label_image):
        scorer = swap_scorer(params, label_image)

        def pair(image, contrast):
            assert image.dtype == contrast.dtype == np.float32
            score = scorer(image, contrast)

            def scored(masks):
                probs = score(masks)
                assert probs.shape == (len(masks),)
                rows.append(len(masks))
                return np.full(len(masks), 0.75)  # every swap is scored

            return scored

        return pair

    monkeypatch.setattr(pipeline.learn, "predict_proba", pool_proba)
    monkeypatch.setattr(pipeline.learn, "swap_scorer", spied)
    monkeypatch.setattr(pipeline.explain, "apply_mask", None)  # never drawn
    n_rois = len(explain.roi_pixel_sets(run.variant_data.label_image))
    pipeline.rank_rois(params, run, n_explain=2, n_perturb=n_rois + 2,
                       seed=0, with_counterfactuals=True)
    assert {dtype for dtype, _ in pool} == {np.dtype(np.float32)}
    assert sum(n for _, n in pool) == len(run.records_of(pipeline.CV_GROUPS))
    # per explained image its perturbations and its swaps
    n_swaps = n_rois + n_rois * (n_rois - 1) // 2
    assert sum(rows) == 2 * (n_rois + 2 + n_swaps)


def test_roi_count_sweep_runs(tiny_cohort):
    run = pipeline.prepare_run(tiny_cohort, fast_config(seeds=(1,)))
    curve = pipeline.roi_count_sweep(run, _ranking(tiny_cohort),
                                     counts=(3, 4), sweep_epochs=2)
    assert [row[0] for row in curve.rows] == [3, 4]
    assert curve.best_k in (3, 4)
    for _k, loss, acc in curve.rows:
        assert np.isfinite(loss)
        assert 0.0 <= acc <= 1.0


def _sweep_at_fixed_losses(cohort, monkeypatch, loss_of_k, counts):
    """roi_count_sweep with each k's cross-validation replaced by a
    stand-in returning ``loss_of_k[k]``; returns the ranking, the curve and
    the ROI labels each k's run was laid out with, in call order."""
    run = pipeline.prepare_run(cohort, fast_config(seeds=(1,)))
    lr = run.config.train.lrs[0]
    val = learn.ArrayDataset(images=np.zeros((2, 32, 32)), tabular=None,
                             labels=np.array([0.0, 1.0]))
    layouts = []

    def group_cv(k_run, caller):
        k = len(k_run.config.roi_labels)
        layouts.append((k, k_run.config.roi_labels))
        return lr, {lr: [loss_of_k[k]] * 4}, [(lr, 4, val, None, [])]

    monkeypatch.setattr(pipeline, "group_cv", group_cv)
    monkeypatch.setattr(pipeline.learn, "predict_proba",
                        lambda params, images: np.array([0.2, 0.8]))
    ranking = _ranking(cohort)
    curve = pipeline.roi_count_sweep(run, ranking, counts=counts)
    return ranking, curve, layouts


def test_roi_count_sweep_ties_go_to_the_smaller_k(tiny_cohort, monkeypatch):
    _, curve, _ = _sweep_at_fixed_losses(
        tiny_cohort, monkeypatch, {2: 0.25, 3: 0.25, 4: 0.25}, [4, 2, 3])
    assert curve.best_k == 2
    assert curve.rows == ((2, 0.25, 1.0), (3, 0.25, 1.0), (4, 0.25, 1.0))


def test_roi_count_sweep_dedups_and_sorts_the_counts(tiny_cohort,
                                                     monkeypatch):
    # a strictly falling loss picks the largest count
    _, curve, layouts = _sweep_at_fixed_losses(
        tiny_cohort, monkeypatch, {k: 1.0 - 0.05 * k for k in range(10)},
        [5, 3, 5, 4, 3])
    assert [k for k, _ in layouts] == [row[0] for row in curve.rows] == \
        [3, 4, 5]
    assert curve.best_k == 5
    _, one, _ = _sweep_at_fixed_losses(tiny_cohort, monkeypatch, {7: 0.5},
                                       [7])
    assert one.best_k == 7


def test_roi_count_sweep_lays_out_the_top_k_rois(tiny_cohort, monkeypatch):
    ranking, _, layouts = _sweep_at_fixed_losses(
        tiny_cohort, monkeypatch, {2: 0.3, 3: 0.2}, [2, 3])
    assert layouts == [(k, ranking.rois[:k]) for k in (2, 3)]


@pytest.mark.parametrize("unlocked", [False, True])
def test_roi_count_sweep_shares_the_run_session(unlocked, tiny_cohort,
                                                tiny_run, monkeypatch):
    # every k derives from the run: no new partition, no new lock box, and
    # each fold access lands in the run's own audit log, k by k
    run = tiny_run if unlocked else pipeline.prepare_run(tiny_cohort,
                                                         fast_config())

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep made its own session")

    monkeypatch.setattr(evalharness, "stratified_partition", refuse)
    monkeypatch.setattr(evalharness.LockBox, "__init__", refuse)
    before = len(run.box.entries)
    curve = pipeline.roi_count_sweep(run, _ranking(tiny_cohort),
                                     counts=(3, 4), sweep_epochs=1)
    assert [row[0] for row in curve.rows] == [3, 4]
    assert [(e["op"], e["caller"]) for e in run.box.entries[before:]] == [
        ("access", f"roi-sweep-k{k}-fold-{g}") for k in (3, 4)
        for g in (1, 2, 3, 4)]


def test_curve_emitters(tiny_cohort, tmp_path):
    from strokepred.explain import RoiCountCurve
    curve = RoiCountCurve(rows=((3, 0.5, 0.7), (4, 0.4, 0.75), (5, 0.45, 0.72)),
                          best_k=4)
    pipeline.write_curve_csv(curve, tmp_path / "c.csv")
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "k,mean_val_loss,val_balanced_accuracy"
    assert len(lines) == 4
    pipeline.write_curve_svg(curve, tmp_path / "c.svg")
    svg = (tmp_path / "c.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert "best k = 4" in svg


# ---------------------------------------------------------------------------
# directory round trip


def test_cohort_directory_round_trip(tmp_path):
    small = SynthConfig(seed=11, n_subjects=12, dims=(16, 16, 16), n_rois=5,
                        n_tracts=3)
    truth = default_truth()
    write_cohort(small, truth, tmp_path)
    mem = CohortData.from_memory(small, truth)
    disk = CohortData.from_directory(tmp_path)
    assert disk.dims == small.dims
    assert [r.id for r in disk.records] == [r.id for r in mem.records]
    assert np.array_equal(disk.atlas.labels, mem.atlas.labels)
    assert disk.atlas.label_names == mem.atlas.label_names
    sid = mem.records[3].id
    assert np.allclose(disk.volume_of(sid).data, mem.volume_of(sid).data,
                       atol=1e-7)


@pytest.mark.parametrize("variant", ["stitched", "hybrid-stitched"])
def test_roi_count_sweep_rejects_stitched_before_any_work(variant):
    # stitched images ignore the ROI list, so every k would score the same;
    # nothing is rendered or read before the refusal
    with pytest.raises(ConfigError, match="ROI variant"):
        run = pipeline.PreparedRun(None, fast_config(variant=variant), None,
                                   None, None, None)
        pipeline.roi_count_sweep(run, None, counts=(3,))


# ---------------------------------------------------------------------------
# a held-out group without severe or moderate subjects

SPARSE = SynthConfig(seed=4, n_subjects=40)  # group 5 deals none of either


def test_run_survives_empty_held_out_subgroup(tmp_path):
    cohort = CohortData.from_memory(SPARSE, default_truth())
    plan = evalharness.stratified_partition(cohort.records, k=5, seed=0)
    held_out = [r for r in cohort.records if plan.assignment[r.id] == 5]
    severities = [r.severity for r in held_out]
    assert not {"severe", "moderate"} & set(severities)
    empty = evalharness.subgroup_metrics(np.full(len(held_out), 0.5),
                                         np.zeros(len(held_out)), severities)
    assert empty.flags == ("empty-subgroup",)

    result = pipeline.run_experiment(cohort, fast_config(model="logistic"))
    assert [r.severity for r in result.held_out] == severities
    for seed, logits in result.logits.items():
        probs = result.calibrators[seed].apply(logits)
        assert np.isfinite(evalharness.metrics(
            probs, result.labels).balanced_accuracy)
        subgroup = evalharness.subgroup_metrics(probs, result.labels,
                                                severities)
        assert all(math.isnan(getattr(subgroup, m))
                   for m in pipeline.METRIC_COLS)
    pipeline.emit_run(result, tmp_path)
    rows = (tmp_path / "subgroup.csv").read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["1", "2", "mean"]
    assert all(set(r.split(",")[1:]) == {"nan"} for r in rows)
    for name in ("per_seed.csv", "summary.csv"):
        assert "nan" not in (tmp_path / name).read_text()
