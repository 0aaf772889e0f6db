"""Each correctness check passes on the program's real output and fails on
a planted fault."""

import json

import numpy as np
import pytest

import checks
import workloads
from strokepred import explain, imaging, pipeline, synthcohort

TINY = dict(n_subjects=10, dims=(24, 24, 24))


@pytest.fixture(scope="module")
def tiny_cohort():
    config = synthcohort.SynthConfig(seed=5, **TINY)
    truth = synthcohort.TruthModel.from_json_dict(workloads.TRUTH)
    return pipeline.CohortData.from_memory(config, truth)


def _render_problems(cohort, variant, plain_shape=None):
    data = pipeline.build_variant(
        cohort, pipeline.RunConfig(variant=variant, image_size=32,
                                   channels=(4,)), 900.0, 400.0)
    glyph_px = checks.glyph_area(variant, data.full_shape, plain_shape,
                                 cohort.dims)
    problems = []
    for sid, pixels in data.images.items():
        mass = checks.displayed_mass(cohort.volume_of(sid).data, variant,
                                     cohort.atlas.labels, cohort.tracts.labels)
        problems += checks.check_render(variant, pixels, data.full_shape,
                                        mass, glyph_px)
    return data, problems


def test_render_checks_pass_on_every_variant(tiny_cohort):
    shapes = {}
    for variant in pipeline.VARIANTS:
        plain = shapes.get(variant.replace("hybrid-", ""))
        data, problems = _render_problems(tiny_cohort, variant, plain)
        shapes[variant] = data.full_shape
        assert problems == [], variant


def test_dropped_roi_tile_fails_mass_check(tiny_cohort, monkeypatch):
    plan_roi_tiles = imaging.plan_roi_tiles

    def drop_last_tile(atlas, spec):
        plan = plan_roi_tiles(atlas, spec)
        return imaging.RoiTilePlan(spec=plan.spec, tiles=plan.tiles[:-1])

    monkeypatch.setattr(imaging, "plan_roi_tiles", drop_last_tile)
    _, problems = _render_problems(tiny_cohort, "gm-roi")
    assert problems and "rendered mass" in problems[0]


def test_glyph_mass_outside_the_boxes_fails():
    pixels = np.full((4, 4), 0.5, dtype=np.float32)  # mass 8 on a 4x4 canvas
    assert checks.check_render("hybrid-gm-roi", pixels, (4, 4), 6.0, 2) == []
    assert checks.check_render("hybrid-gm-roi", pixels, (4, 4), 5.0, 2)
    assert checks.check_render("hybrid-gm-roi", pixels, (4, 4), 8.0, 2)
    assert checks.check_render("gm-roi", pixels * 3, (4, 4), 24.0)


def _written_cohort(tmp_path):
    cfg = workloads.cohort_config(seed=3, n_subjects=10)
    cfg["dims"] = [24, 24, 24]
    synthcohort.write_cohort(synthcohort.SynthConfig.from_json_dict(cfg),
                             synthcohort.TruthModel.from_json_dict(
                                 workloads.TRUTH), tmp_path / "cohort")
    return tmp_path / "cohort", cfg


def test_cohort_check_passes_and_catches_a_wrong_record(tmp_path):
    cohort_dir, cfg = _written_cohort(tmp_path)
    assert checks.check_cohort(cohort_dir, cfg, workloads.TRUTH) == []

    manifest_path = cohort_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["subjects"][0]["left_lesion_size"] += 1
    manifest["subjects"][1]["score"] += 40.0
    manifest_path.write_text(json.dumps(manifest))
    problems = checks.check_cohort(cohort_dir, cfg, workloads.TRUTH)
    assert any("left_lesion_size" in p for p in problems)
    assert any("off the rule" in p for p in problems)


def test_vol1_reader_matches_the_written_bytes(tmp_path):
    cohort_dir, _ = _written_cohort(tmp_path)
    atlas = checks.read_vol1(cohort_dir / "atlas.vol")
    config = synthcohort.SynthConfig.from_json_dict(
        {**workloads.cohort_config(3, 10), "dims": [24, 24, 24]})
    assert np.array_equal(atlas, synthcohort.gen_atlas(config, "rois").labels)
    (tmp_path / "bad.vol").write_bytes(b"VOL2" + bytes(28))
    with pytest.raises(ValueError):
        checks.read_vol1(tmp_path / "bad.vol")


def _audit(tmp_path, ops):
    lines = [{"seq": 1, "op": "seal", "groups": [5], "time": "0"}]
    for op, groups in ops:
        lines.append({"seq": len(lines) + 1, "op": op, "groups": groups,
                      "caller": "test", "time": "0"})
    path = tmp_path / "audit.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in lines))
    return path


def test_audit_check_catches_a_pre_unlock_sealed_request(tmp_path):
    good = [("access", [1, 2, 3]), ("access", [4]), ("unlock", []),
            ("access", [5])]
    assert checks.check_audit(_audit(tmp_path, good)) == []
    early = [("access", [1, 2, 3]), ("access", [4, 5]), ("unlock", []),
             ("access", [5])]
    assert "before the unlock" in checks.check_audit(_audit(tmp_path, early))[0]
    twice = good + [("unlock", [])]
    assert "2 unlocks" in checks.check_audit(_audit(tmp_path, twice))[0]


def test_auc_margin(tmp_path):
    (tmp_path / "per_seed.csv").write_text("seed,auc\n1,0.60\n2,0.52\n")
    assert checks.check_auc(tmp_path, 0.05) == []
    assert checks.check_auc(tmp_path, 0.07)


@pytest.fixture(scope="module")
def linear_case():
    rng = np.random.default_rng(0)
    label_image = np.repeat(np.arange(1, 7), 6).reshape(6, 6)
    label_image[0, 0] = 0
    pool = {f"s{i:02d}": rng.random((6, 6)).astype(np.float32)
            for i in range(16)}
    model = checks.LinearLogit(pool, label_image)
    explanations, ranking = explain.explain_pool(
        model, pool, label_image, n_explain=5, n_perturb=64, seed=0,
        with_counterfactuals=True)
    return model, pool, explanations, ranking


def test_linear_logit_explanations_are_exact(linear_case):
    model, pool, explanations, _ = linear_case
    assert any(e.counterfactual_rows for e in explanations)
    assert checks.check_linear_explanations(model, pool, explanations, 5) == []


def test_linear_check_catches_a_wrong_coefficient(linear_case):
    model, pool, explanations, _ = linear_case
    first = explanations[0]
    roi = first.rois[0]
    bad = explain.Explanation(
        image_id=first.image_id, base_probability=first.base_probability,
        rois=first.rois,
        importance={**first.importance, roi: first.importance[roi] * 1.1},
        counterfactual_rows=first.counterfactual_rows, r2=first.r2,
        intercept=first.intercept, flags=first.flags)
    problems = checks.check_linear_explanations(
        model, pool, [bad] + explanations[1:], 5)
    assert "coefficients" in problems[0]


def _explain_dir(tmp_path, explanations, ranking):
    """The files ``strokepred explain`` writes, from the same helpers."""
    (tmp_path / "explanations").mkdir()
    for expl in explanations:
        (tmp_path / "explanations" / f"{expl.image_id}.json").write_text(
            json.dumps(explain.explanation_json(expl)))
    pipeline.write_ranking_csv(ranking, tmp_path / "roi_ranking.csv")
    return tmp_path


def test_explain_dir_check_catches_a_perturbed_ranking_row(tmp_path, linear_case):
    _, _, explanations, ranking = linear_case
    out = _explain_dir(tmp_path, explanations, ranking)
    assert checks.check_explain_dir(out) == []

    lines = (out / "roi_ranking.csv").read_text().splitlines()
    roi, name, value = lines[2].split(",")
    lines[2] = f"{roi},{name},{float(value) * (1 + 1e-6):.10g}"
    (out / "roi_ranking.csv").write_text("\n".join(lines) + "\n")
    assert any("ranking row" in p for p in checks.check_explain_dir(out))


def test_explain_dir_check_catches_a_wrong_counterfactual(tmp_path, linear_case):
    _, _, explanations, ranking = linear_case
    out = _explain_dir(tmp_path, explanations, ranking)
    path = next(p for p in sorted((out / "explanations").glob("*.json"))
                if json.loads(p.read_text())["counterfactuals"])
    doc = json.loads(path.read_text())
    doc["counterfactuals"][0]["surrogate_prob"] += 1e-3
    path.write_text(json.dumps(doc))
    assert any("surrogate_prob" in p for p in checks.check_explain_dir(out))


def test_selection_check(tmp_path):
    ranking = explain.RoiRanking.from_means({1: 0.1, 2: 0.5, 3: 0.3, 4: 0.2}, 1)
    pipeline.write_ranking_csv(ranking, tmp_path / "roi_ranking.csv")
    curve = explain.RoiCountCurve(rows=((2, 0.6, 0.7), (3, 0.5, 0.7),
                                        (4, 0.5, 0.8)), best_k=3)
    pipeline.write_curve_csv(curve, tmp_path / "roi_curve.csv")

    def select(best_k, rois):
        (tmp_path / "selection.json").write_text(json.dumps(
            {"best_k": best_k, "rois": [{"label": r} for r in rois]}))
        return checks.check_selection_dir(tmp_path, (2, 3, 4))

    assert select(3, [2, 3, 4]) == []
    assert select(4, [2, 3, 4, 1])  # tie must go to the smaller k
    assert select(3, [2, 3, 1])

