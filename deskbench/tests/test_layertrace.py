"""The tracer counts calls at every binding of a wrapped function, restores
the program afterwards, and leaves every output bit-identical."""

import json
from dataclasses import replace

import numpy as np
import pytest

import checks
import layertrace
import workloads
from conftest import BENCH
from strokepred import explain, glyphs, imaging, learn, pipeline, synthcohort


@pytest.fixture(scope="module")
def cohort():
    config = synthcohort.SynthConfig(seed=11, n_subjects=20, dims=(24, 24, 24))
    truth = synthcohort.TruthModel.from_json_dict(workloads.TRUTH)
    return pipeline.CohortData.from_memory(config, truth)


CONFIG = pipeline.RunConfig(
    variant="hybrid-gm-roi", seeds=(1, 2), image_size=32, channels=(4, 8),
    train=learn.TrainConfig(lrs=(3e-3, 1e-3), max_epochs=2))


def _desk(cohort):
    """Render, train and explain: every layer the benchmark wraps."""
    result = pipeline.run_experiment(cohort, CONFIG)
    stitched = pipeline.build_variant(
        cohort, replace(CONFIG, variant="hybrid-stitched"), 900.0, 400.0)
    data = result.variant_data
    model = checks.LinearLogit(data.images, data.label_image)
    explanations, ranking = explain.explain_pool(
        model, data.images, data.label_image, n_explain=2, n_perturb=32,
        with_counterfactuals=True)
    return result, stitched, explanations, ranking


def test_wrappers_leave_outputs_bit_identical(cohort):
    plain = _desk(cohort)
    with layertrace.Tracer() as tracer:
        traced = _desk(cohort)
    for a, b in ((plain[0].variant_data, traced[0].variant_data),
                 (plain[1], traced[1])):
        assert sorted(a.images) == sorted(b.images)
        for sid in a.images:
            assert np.array_equal(a.images[sid], b.images[sid])
    for seed in CONFIG.seeds:
        assert np.array_equal(plain[0].checkpoints[seed].vector,
                              traced[0].checkpoints[seed].vector)
    assert plain[0].aggregate == traced[0].aggregate
    assert plain[0].cv_losses == traced[0].cv_losses
    assert [explain.explanation_json(e) for e in plain[2]] == \
        [explain.explanation_json(e) for e in traced[2]]
    assert plain[3] == traced[3]

    stats = tracer.metrics()
    # 20 subjects generated twice each (records, then one render), by name
    # from pipeline; stitch reached through its by-name import in glyphs
    assert stats["synthcohort.gen_subject.calls"] == 40
    assert stats["synthcohort.gen_subject.per_subject"] == 2
    assert stats["imaging.stitch.calls"] == 20
    assert stats["glyphs.hybrid_stitched.calls"] == 20
    assert stats["learn.train.calls"] == 10  # 2 lrs x 4 folds + 2 seeds
    assert stats["learn.backward.samples"] > 0
    assert stats["explain.perturbations"] == 64
    assert 0 < stats["pipeline.build_variant.self_s"] < stats["pipeline.build_variant.s"]


def test_uninstall_restores_every_binding():
    originals = (synthcohort.gen_subject, pipeline.gen_subject,
                 imaging.stitch, glyphs.stitch, learn.forward)
    tracer = layertrace.Tracer()
    with tracer:
        assert pipeline.gen_subject is synthcohort.gen_subject
        assert pipeline.gen_subject is not originals[1]
        assert glyphs.stitch is imaging.stitch is not originals[3]
        with pytest.raises(RuntimeError):
            tracer.install()
    assert (synthcohort.gen_subject, pipeline.gen_subject, imaging.stitch,
            glyphs.stitch, learn.forward) == originals


def test_self_time_excludes_wrapped_children(cohort):
    with layertrace.Tracer() as tracer:
        pipeline.build_variant(cohort, replace(CONFIG, variant="gm-roi"),
                               900.0, 400.0)
    # gen_subject (volumes), plan_roi_tiles, roi_image and downsample are
    # all called directly by build_variant and call nothing wrapped
    build = tracer.stats.pop("pipeline.build_variant")
    assert tracer.stats["synthcohort.gen_subject"].calls == 20
    children = sum(st.s for st in tracer.stats.values())
    assert build.self_s == pytest.approx(build.s - children, abs=1e-9)


def test_every_per_layer_metric_is_reported():
    values = layertrace.Tracer().metrics()
    names = {name for name, _ in layertrace.PER_LAYER}
    micro = {n for n in names if ".b16." in n or ".b128." in n}
    assert set(values) == names - micro - {"trace.overhead_s"}


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(layertrace.PER_LAYER)
