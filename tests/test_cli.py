"""CLI behavior: exit codes, file outputs, idempotence."""

import json
import platform
import re
import resource
import shutil
import subprocess
import sys
import types
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from strokepred import cli, core, evalharness, explain, learn, pipeline
from strokepred.cli import (EXIT_CONFIG, EXIT_LOCKBOX, EXIT_OK, main,
                            parse_seeds)
from strokepred.rng import CounterRng
from strokepred.synthcohort import default_truth

RUN_CFG = {"run": {"image_size": 32, "channels": [4, 8],
                   "train": {"lrs": [1e-3], "max_epochs": 3}}}


def test_parse_seeds_forms():
    assert parse_seeds("1-4") == (1, 2, 3, 4)
    assert parse_seeds("7") == (7,)
    assert parse_seeds("1,5,9") == (1, 5, 9)
    assert parse_seeds("1-3,8") == (1, 2, 3, 8)


def test_parse_seeds_empty_rejected():
    with pytest.raises(cli.ConfigError):
        parse_seeds(",")


@pytest.mark.parametrize("text,part", [("1-", "'1-'"), ("2,x", "'x'"),
                                       ("1,5-3", "'5-3'")])
def test_parse_seeds_names_the_part_it_refuses(text, part):
    with pytest.raises(cli.ConfigError, match=part):
        parse_seeds(text)


def test_run_refuses_a_reversed_seed_range_before_any_work(tmp_path, capsys):
    out = tmp_path / "r"
    code = main(["run", "--cohort", str(tmp_path / "no-cohort"),
                 "--out", str(out), "--seeds", "1,5-3"])
    assert code == EXIT_CONFIG
    assert "range '5-3'" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def cohort_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    code = main(["synth", "--out", str(out), "--subjects", "80",
                 "--dims", "32", "--seed", "5"])
    assert code == EXIT_OK
    return out


@pytest.fixture(scope="module")
def run_dir(cohort_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "cfg.json"
    cfg.write_text(json.dumps(RUN_CFG))
    code = main(["run", "--cohort", str(cohort_dir), "--out", str(out / "r"),
                 "--seeds", "1,2", "--config", str(cfg), "--force"])
    assert code == EXIT_OK
    return out / "r"


def test_synth_writes_manifest(cohort_dir):
    assert (cohort_dir / "manifest.json").exists()
    assert (cohort_dir / "atlas.vol").exists()


def test_synth_prints_summary(cohort_dir, capsys, tmp_path):
    main(["synth", "--out", str(tmp_path / "c2"), "--subjects", "80",
          "--dims", "32", "--seed", "5"])
    out = capsys.readouterr().out
    assert "aphasic fraction" in out
    assert "severity distribution" in out


def test_synth_refuses_nonempty_without_force(cohort_dir):
    assert main(["synth", "--out", str(cohort_dir), "--subjects", "80",
                 "--dims", "32", "--seed", "5"]) == EXIT_CONFIG


def test_synth_force_is_idempotent(cohort_dir, tmp_path):
    before = (cohort_dir / "manifest.json").read_bytes()
    code = main(["synth", "--out", str(cohort_dir), "--subjects", "80",
                 "--dims", "32", "--seed", "5", "--force"])
    assert code == EXIT_OK
    assert (cohort_dir / "manifest.json").read_bytes() == before


@pytest.mark.parametrize("cohort,argv", [
    ({"dims": [16, 16, 16], "n_rois": 800}, []),
    ({"n_rois": 800}, ["--dims", "16"]),  # 64^3 holds them, 16^3 does not
], ids=["config", "dims-override"])
def test_synth_refuses_rois_a_hemisphere_cannot_hold(cohort, argv, tmp_path,
                                                      capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cohort": cohort}))
    out = tmp_path / "c"
    assert main(["synth", "--out", str(out), "--config", str(cfg),
                 *argv]) == EXIT_CONFIG
    assert ("n_rois 800 puts 788 ROI sites in the right hemisphere, which "
            "holds 740 brain voxels") in capsys.readouterr().err
    assert not out.exists()


def test_synth_force_leaves_only_the_new_cohorts_subject_files(tmp_path):
    out = tmp_path / "c"
    synth = ["synth", "--out", str(out), "--dims", "16"]
    assert main([*synth, "--subjects", "30"]) == EXIT_OK
    assert main([*synth, "--subjects", "12", "--force"]) == EXIT_OK
    manifest = core.CohortManifest.load(out)
    for sub, paths in (("volumes", manifest.volume_paths),
                       ("lesions", manifest.lesion_paths)):
        assert sorted(f"{sub}/{p.name}" for p in (out / sub).iterdir()) \
            == sorted(paths.values())


def _without_tract_atlas(cohort):
    doc = json.loads((cohort / "manifest.json").read_text())
    doc["tract_atlas_path"], doc["tract_labels"] = None, {}
    (cohort / "manifest.json").write_text(json.dumps(doc))


def _with_empty_tract_atlas(cohort):
    doc = json.loads((cohort / "manifest.json").read_text())
    doc["tract_labels"] = {}
    (cohort / "manifest.json").write_text(json.dumps(doc))
    dims = tuple(doc["dims"])
    core.write_volume(core.LabelVolume(dims, np.zeros(dims, np.uint16)),
                      cohort / "tracts.vol")


TINY_SYNTH = ("--subjects", "10", "--dims", "16")


@pytest.mark.parametrize("run_cfg,edit,named,synth", [
    ({"variant": "gm-roi", "roi_labels": [2, 99]}, None,
     ["'gm-roi'", "ROI labels [99]"], TINY_SYNTH),
    ({"variant": "wm-roi"}, _without_tract_atlas,
     ["no tract atlas for variant 'wm-roi'"], TINY_SYNTH),
    ({"variant": "hybrid-wm-roi"}, _with_empty_tract_atlas,
     ["'hybrid-wm-roi'", "no ROI labels"], TINY_SYNTH),
    # cohorts with both outcome classes in groups 1-4, so only the layout
    # can stop the run before the seal
    ({"roi_labels": [6]}, None,
     ["the layout of 1 ROIs is 34x34 px, smaller than image_size 64"],
     ("--subjects", "100", "--dims", "32", "--seed", "12")),
    ({"variant": "hybrid-gm-roi", "roi_labels": [1], "image_size": 8,
      "channels": [4]}, None,
     ["variant 'hybrid-gm-roi', layout of 1 ROIs: glyph boxes of 4px are "
      "too small to draw into; naming more ROIs in roi_labels widens the "
      "glyph strip, image_size does not help"],
     ("--subjects", "100", "--dims", "20", "--seed", "3")),
], ids=["roi-99", "no-tract-atlas", "empty-tract-atlas", "canvas-too-small",
        "glyph-boxes-too-small"])
def test_run_refuses_an_roi_variant_it_cannot_lay_out(run_cfg, edit, named,
                                                      synth, tmp_path, capsys):
    cohort = tmp_path / "c"
    assert main(["synth", "--out", str(cohort), *synth]) == EXIT_OK
    if edit is not None:
        edit(cohort)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"run": run_cfg}))
    capsys.readouterr()
    out = tmp_path / "r"
    run = ["run", "--cohort", str(cohort), "--out", str(out), "--seeds", "1",
           "--config", str(cfg)]
    assert main(run) == EXIT_CONFIG
    err = capsys.readouterr().err
    for text in named:
        assert text in err
    assert not (out / "audit.jsonl").exists()
    # nothing was sealed, so the same command fails the same way
    assert main(run) == EXIT_CONFIG
    assert capsys.readouterr().err == err


def test_run_outputs(run_dir):
    for name in ("per_seed.csv", "summary.csv", "subgroup.csv",
                 "thresholds.csv", "index.json", "audit.jsonl"):
        assert (run_dir / name).exists(), name
    assert (run_dir / "checkpoints" / "seed-001.ckp").exists()


def test_run_threshold_table_has_nine_columns(run_dir):
    header = (run_dir / "thresholds.csv").read_text().splitlines()[0]
    assert len(header.split(",")) == 10  # seed + 9 thresholds


def test_run_audit_single_unlock(run_dir):
    from strokepred.evalharness import audit_scan
    scan = audit_scan(run_dir / "audit.jsonl")
    assert scan["n_unlocks"] == 1
    assert scan["pre_unlock_lockbox_accesses"] == 0
    assert scan["n_violations"] == 0


def test_run_rerun_is_bit_identical(cohort_dir, run_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(RUN_CFG))
    out2 = tmp_path / "r2"
    code = main(["run", "--cohort", str(cohort_dir), "--out", str(out2),
                 "--seeds", "1,2", "--config", str(cfg)])
    assert code == EXIT_OK
    assert _without_audit_times(_tree_bytes(out2)) == \
        _without_audit_times(_tree_bytes(run_dir))


def _without_audit_times(tree: dict[str, bytes]) -> dict[str, bytes]:
    lines = tree.pop("audit.jsonl").decode().splitlines()
    tree["audit.jsonl"] = [{k: v for k, v in json.loads(line).items()
                            if k != "time"} for line in lines]
    return tree


@pytest.mark.parametrize("model",
                         ["lightweight", "early_fusion", "daft", "logistic"])
def test_run_jobs_leave_every_file_unchanged(model, cohort_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(RUN_CFG))
    trees = []
    for jobs in ("1", "2"):
        out = tmp_path / f"r{jobs}"
        assert main(["run", "--cohort", str(cohort_dir), "--out", str(out),
                     "--model", model, "--seeds", "1,2", "--config", str(cfg),
                     "--jobs", jobs]) == EXIT_OK
        trees.append(_without_audit_times(_tree_bytes(out)))
    assert trees[0] == trees[1]


def test_run_refuses_zero_jobs_before_any_work(tmp_path, capsys):
    out = tmp_path / "r"
    code = main(["run", "--cohort", str(tmp_path / "no-cohort"),
                 "--out", str(out), "--jobs", "0"])
    assert code == EXIT_CONFIG
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("roi_labels,named", [
    ([1, 1], "roi_labels [1, 1]: repeated [1]"),
    ([0, -3], "roi_labels [0, -3]: not positive [-3, 0]"),
], ids=["repeated", "non-positive"])
def test_run_refuses_bad_roi_labels_before_any_work(roi_labels, named,
                                                     cohort_dir, tmp_path,
                                                     capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"run": {**RUN_CFG["run"],
                                       "roi_labels": roi_labels}}))
    out = tmp_path / "r"
    code = main(["run", "--cohort", str(cohort_dir), "--out", str(out),
                 "--seeds", "1", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_run_prints_the_partition_warnings(tmp_path, capsys):
    # 40 subjects deal fewer than 5 of some severity categories
    cohort = tmp_path / "c"
    assert main(["synth", "--out", str(cohort), "--subjects", "40",
                 "--dims", "16", "--seed", "7"]) == EXIT_OK
    assert main(["run", "--cohort", str(cohort), "--out", str(tmp_path / "r"),
                 "--model", "logistic", "--seeds", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    records = pipeline.CohortData.from_directory(cohort).records
    plan = evalharness.stratified_partition(records, k=5, seed=0)
    assert plan.balance.warnings
    for warning in plan.balance.warnings:
        assert f"partition warning: {warning}\n" in out


def test_paper_preset_keeps_the_seed_flag():
    args = cli.build_parser().parse_args(
        ["run", "--cohort", "c", "--preset", "paper", "--seeds", "1-2"])
    config = cli._run_config(args, {})
    assert config.seeds == (1, 2)
    assert config.image_size == 256


def test_run_refuses_nonempty_without_force(cohort_dir, run_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(RUN_CFG))
    assert main(["run", "--cohort", str(cohort_dir), "--out", str(run_dir),
                 "--seeds", "1", "--config", str(cfg)]) == EXIT_CONFIG


def test_run_rejects_fusion_hybrid_combo(cohort_dir, tmp_path):
    assert main(["run", "--cohort", str(cohort_dir),
                 "--out", str(tmp_path / "x"), "--variant", "hybrid-gm-roi",
                 "--model", "daft", "--seeds", "1"]) == EXIT_CONFIG


def test_run_rejects_bad_variant_via_argparse(cohort_dir, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--cohort", str(cohort_dir), "--out", str(tmp_path / "x"),
              "--variant", "nope", "--seeds", "1"])
    assert exc.value.code == EXIT_CONFIG


def test_run_missing_cohort_dir(tmp_path):
    assert main(["run", "--cohort", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "x"), "--seeds", "1"]) == EXIT_CONFIG


@pytest.mark.parametrize("key,value", [("subjects", "oops"),
                                       ("subjects", [1, 2]),
                                       ("dims", 5),
                                       ("atlas_labels", {"one": "roi01"})])
def test_run_refuses_a_malformed_manifest(key, value, cohort_dir, tmp_path,
                                          capsys):
    cohort = tmp_path / "cohort"
    cohort.mkdir()
    doc = json.loads((cohort_dir / "manifest.json").read_text())
    doc[key] = value
    (cohort / "manifest.json").write_text(json.dumps(doc))
    out = tmp_path / "r"
    assert main(["run", "--cohort", str(cohort), "--out", str(out),
                 "--seeds", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert repr(key) in err and str(cohort / "manifest.json") in err
    assert not out.exists()
    assert [p.name for p in cohort.iterdir()] == ["manifest.json"]


@pytest.mark.parametrize("key", ["atlas_labels", "tract_labels"])
@pytest.mark.parametrize("command", ["run", "explain", "select-rois"])
def test_a_label_name_with_a_control_character_is_refused(
        command, key, cohort_dir, run_dir, tmp_path, capsys):
    # the csv module does not quote "\r", so the name would split its row
    # of roi_ranking.csv; the manifest is refused before any work
    cohort = tmp_path / "cohort"
    cohort.mkdir()
    doc = json.loads((cohort_dir / "manifest.json").read_text())
    doc[key][min(doc[key])] = "c\rd"
    (cohort / "manifest.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    flags = ["--seeds", "1"] if command == "run" else ["--run", str(run_dir)]
    assert main([command, "--cohort", str(cohort), "--out", str(out),
                 *flags]) == EXIT_CONFIG
    err = capsys.readouterr().err
    for text in (str(cohort / "manifest.json"), repr(key), repr("c\rd")):
        assert text in err
    assert not out.exists()


def test_run_refuses_a_partition_with_an_empty_group(cohort_dir, tmp_path,
                                                    capsys):
    cohort = tmp_path / "cohort"
    shutil.copytree(cohort_dir, cohort)
    doc = json.loads((cohort / "manifest.json").read_text())
    doc["subjects"] = [next(r for r in doc["subjects"] if r["severity"] == sev)
                       for sev in ("severe", "moderate", "mild", "normal")]
    (cohort / "manifest.json").write_text(json.dumps(doc))
    assert main(["run", "--cohort", str(cohort), "--out",
                 str(tmp_path / "r"), "--seeds", "1"]) == EXIT_CONFIG
    assert "cohort of 4 subjects leaves groups [5] of 5 empty" \
        in capsys.readouterr().err


@pytest.mark.parametrize("key", ["volume", "atlas_path"])
def test_run_refuses_a_volume_file_of_the_wrong_kind(key, cohort_dir, tmp_path,
                                                     monkeypatch, capsys):
    # a subject's lesion labels as its volume, or its volume as the atlas
    cohort = tmp_path / "cohort"
    shutil.copytree(cohort_dir, cohort)
    doc = json.loads((cohort / "manifest.json").read_text())
    group_of = _group_of(cohort_dir)  # a subject read before any training
    row = next(r for r in doc["subjects"] if group_of[r["id"]] != 5)
    if key == "volume":
        wrong = row["volume"] = row["lesion"]
    else:
        wrong = doc["atlas_path"] = row["volume"]
    (cohort / "manifest.json").write_text(json.dumps(doc))
    monkeypatch.setattr(learn, "train", _fail_if_trained)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(RUN_CFG))
    assert main(["run", "--cohort", str(cohort), "--out", str(tmp_path / "r"),
                 "--seeds", "1", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(cohort / wrong) in err and "byte offset 16" in err


@pytest.mark.parametrize("key", ["volume", "atlas_path"])
def test_run_refuses_a_volume_file_of_other_dims(key, cohort_dir, tmp_path,
                                                 monkeypatch, capsys):
    # a subject's volume, or the atlas, cut to 30 slices in a 32^3 cohort
    cohort = tmp_path / "cohort"
    shutil.copytree(cohort_dir, cohort)
    doc = json.loads((cohort / "manifest.json").read_text())
    group_of = _group_of(cohort_dir)  # a subject read before any training
    row = next(r for r in doc["subjects"] if group_of[r["id"]] != 5)
    path = cohort / (row["volume"] if key == "volume" else doc["atlas_path"])
    volume = core.read_volume(path)
    if key == "volume":
        cut = core.Volume3D((32, 32, 30), volume.data[:, :, :30])
    else:
        cut = core.LabelVolume((32, 32, 30), volume.labels[:, :, :30])
    core.write_volume(cut, path)
    monkeypatch.setattr(learn, "train", _fail_if_trained)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(RUN_CFG))
    assert main(["run", "--cohort", str(cohort), "--out", str(tmp_path / "r"),
                 "--seeds", "1", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(path) in err and "byte offset 4" in err
    assert "(32, 32, 30), not the manifest's (32, 32, 32)" in err


@pytest.mark.parametrize("bad_id", ["", ".", "..", "../../escaped-s0001",
                                    "a\\b", "sub/s0001"])
def test_run_refuses_a_subject_id_that_is_not_a_file_name(
        bad_id, cohort_dir, tmp_path, capsys):
    # explain names its files after the ids, so "../x" would write outside
    # --out
    cohort = tmp_path / "cohort"
    cohort.mkdir()
    doc = json.loads((cohort_dir / "manifest.json").read_text())
    doc["subjects"][3]["id"] = bad_id
    (cohort / "manifest.json").write_text(json.dumps(doc))
    out = tmp_path / "r"
    assert main(["run", "--cohort", str(cohort), "--out", str(out),
                 "--seeds", "1"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    for text in (str(cohort / "manifest.json"), "subject 3", repr(bad_id)):
        assert text in err
    assert not out.exists()
    # the ids synth writes pass
    assert all(re.fullmatch(r"s\d{4}", r.id) for r in
               core.CohortManifest.load(cohort_dir).subjects)


def test_run_refuses_a_training_group_without_both_classes(tmp_path,
                                                          capsys):
    # 99 of these 100 subjects are aphasic; none of groups 1-3 is not
    cohort = tmp_path / "c"
    assert main(["synth", "--out", str(cohort), "--subjects", "100",
                 "--dims", "16", "--seed", "3"]) == EXIT_OK
    capsys.readouterr()
    out = tmp_path / "r"
    run = ["run", "--cohort", str(cohort), "--out", str(out),
           "--model", "logistic", "--seeds", "1-3"]
    assert main(run) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "groups 1-3: 59 aphasic, 0 non-aphasic" in err
    assert not (out / "audit.jsonl").exists()
    # nothing was sealed, so the same command fails the same way
    assert main(run) == EXIT_CONFIG
    assert capsys.readouterr().err == err


def test_force_rerun_keeps_only_its_own_checkpoints(cohort_dir, tmp_path):
    out = tmp_path / "r"
    run = ["run", "--cohort", str(cohort_dir), "--out", str(out),
           "--model", "logistic"]
    assert main([*run, "--seeds", "1-3"]) == EXIT_OK
    assert main([*run, "--seeds", "2", "--force"]) == EXIT_OK
    assert sorted(p.name for p in (out / "checkpoints").iterdir()) == \
        ["seed-002.ckp"]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_logistic_run_fits_once_for_every_seed(jobs, cohort_dir, tmp_path,
                                               monkeypatch):
    fits = []
    logistic_fit = learn.logistic_fit

    def counting(x, y):
        fits.append(len(y))
        return logistic_fit(x, y)

    monkeypatch.setattr(learn, "logistic_fit", counting)
    out = tmp_path / "r"
    assert main(["run", "--cohort", str(cohort_dir), "--out", str(out),
                 "--model", "logistic", "--seeds", "1-3",
                 "--jobs", jobs]) == EXIT_OK
    assert len(fits) == 1
    checkpoints = [p.read_bytes()
                   for p in sorted((out / "checkpoints").iterdir())]
    assert len(checkpoints) == 3 and len(set(checkpoints)) == 1


def test_run_has_no_roi_sweep_flag(tmp_path):
    # select-rois ranks the ROIs of a finished run
    with pytest.raises(SystemExit) as exc:
        main(["run", "--cohort", str(tmp_path), "--roi-sweep"])
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize("doc,key", [([1, 2], "config"),
                                     ({"balance": [1]}, "balance")])
def test_report_refuses_a_malformed_index(doc, key, run_dir, tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    index = json.loads((run_dir / "index.json").read_text())
    if isinstance(doc, dict):
        doc = {**index, **doc}
    (run / "index.json").write_text(json.dumps(doc))
    assert main(["report", "--run", str(run)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert repr(key) in err and str(run / "index.json") in err
    assert [p.name for p in run.iterdir()] == ["index.json"]


def test_report_names_the_line_of_a_malformed_summary(run_dir, tmp_path,
                                                      capsys):
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(run_dir / "index.json", run)
    summary = run / "summary.csv"
    summary.write_text("variant,model,metric,mean,se\n"
                       "gm-roi,lightweight,auc\n")
    assert main(["report", "--run", str(run)]) == EXIT_CONFIG
    assert f"{summary} line 2" in capsys.readouterr().err


def test_explain_command(cohort_dir, run_dir, tmp_path, capsys):
    out = tmp_path / "expl"
    code = main(["explain", "--cohort", str(cohort_dir), "--run", str(run_dir),
                 "--out", str(out), "--n-explain", "2", "--n-perturb", "40"])
    assert code == EXIT_OK
    assert (out / "roi_ranking.csv").exists()
    files = sorted((out / "explanations").iterdir())
    assert any(f.suffix == ".json" for f in files)
    assert any(f.suffix == ".txt" for f in files)
    doc = json.loads(next(f for f in files if f.suffix == ".json").read_text())
    assert "importance" in doc and "base_probability" in doc
    assert "missing from the" not in capsys.readouterr().out  # no thin ROI


def test_explain_force_keeps_only_its_own_explanations(cohort_dir, run_dir,
                                                       tmp_path):
    out, fresh = tmp_path / "e", tmp_path / "fresh"
    explain = ["explain", "--cohort", str(cohort_dir), "--run", str(run_dir),
               "--n-perturb", "40"]
    assert main([*explain, "--out", str(out), "--n-explain", "4"]) == EXIT_OK
    assert len(list((out / "explanations").iterdir())) == 8
    (out / "notes.md").write_text("kept")
    (out / "explanations" / "notes.md").write_text("kept")
    assert main([*explain, "--out", str(out), "--n-explain", "2",
                 "--force"]) == EXIT_OK
    assert main([*explain, "--out", str(fresh), "--n-explain", "2"]) == EXIT_OK
    tree = _tree_bytes(out)
    assert tree.pop("notes.md") == tree.pop("explanations/notes.md") == b"kept"
    assert tree == _tree_bytes(fresh)
    assert len(list((fresh / "explanations").iterdir())) == 4


def test_explain_prints_the_ranking_flags(cohort_dir, run_dir, tmp_path,
                                         capsys):
    # far more images asked for than the pool has predicted positives
    code = main(["explain", "--cohort", str(cohort_dir), "--run", str(run_dir),
                 "--out", str(tmp_path / "e"), "--n-explain", "500",
                 "--n-perturb", "40"])
    assert code == EXIT_OK
    flags = re.search(r"^ranking flags: (.*)$", capsys.readouterr().out,
                      re.MULTILINE).group(1).split(", ")
    assert any(re.fullmatch(r"explained_all_\d+_of_500", f) for f in flags)


def test_explain_missing_checkpoint_seed(cohort_dir, run_dir, tmp_path):
    assert main(["explain", "--cohort", str(cohort_dir), "--run", str(run_dir),
                 "--out", str(tmp_path / "e"), "--seed", "99"]) == EXIT_CONFIG


@pytest.mark.parametrize("command", ["explain", "select-rois"])
def test_a_seed_the_run_did_not_train_is_refused(command, cohort_dir, run_dir,
                                                 tmp_path, monkeypatch,
                                                 capsys):
    # a rerun with fewer seeds leaves the old checkpoints beside its index
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    doc = json.loads((run / "index.json").read_text())
    doc["config"]["seeds"] = [1]
    (run / "index.json").write_text(json.dumps(doc))
    assert (run / "checkpoints" / "seed-002.ckp").exists()
    monkeypatch.setattr(cli.learn, "read_checkpoint", _fail_if_called)
    out = tmp_path / "out"
    code = main([command, "--cohort", str(cohort_dir), "--run", str(run),
                 "--out", str(out), "--seed", "2"])
    assert code == EXIT_CONFIG
    assert "seed 2 is not one of the seeds [1]" in capsys.readouterr().err
    assert not out.exists()


def test_explain_rejects_non_run_dir(cohort_dir, tmp_path):
    assert main(["explain", "--cohort", str(cohort_dir),
                 "--run", str(tmp_path), "--out", str(tmp_path / "e"),
                 ]) == EXIT_CONFIG


def test_select_rois_command(cohort_dir, run_dir, tmp_path):
    out = tmp_path / "sel"
    code = main(["select-rois", "--cohort", str(cohort_dir),
                 "--run", str(run_dir), "--out", str(out),
                 "--counts", "3-4", "--n-explain", "2", "--n-perturb", "40",
                 "--sweep-epochs", "2"])
    assert code == EXIT_OK
    doc = json.loads((out / "selection.json").read_text())
    assert doc["best_k"] in (3, 4)
    assert len(doc["rois"]) == doc["best_k"]
    assert (out / "roi_curve.csv").exists()
    assert (out / "roi_curve.svg").exists()


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(f.relative_to(root)): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


def test_explain_and_select_rois_reruns_are_bit_identical(cohort_dir, run_dir,
                                                          tmp_path):
    before = _tree_bytes(run_dir)
    commands = {
        "explain": ["--n-explain", "2", "--n-perturb", "40"],
        "select-rois": ["--counts", "3-4", "--n-explain", "2",
                        "--n-perturb", "40", "--sweep-epochs", "1"],
    }
    for command, flags in commands.items():
        outs = [tmp_path / f"{command}-{i}" for i in (1, 2)]
        for out in outs:
            assert main([command, "--cohort", str(cohort_dir),
                         "--run", str(run_dir), "--out", str(out),
                         *flags]) == EXIT_OK
        first, second = (_tree_bytes(out) for out in outs)
        assert first, command
        assert first == second, command
    assert _tree_bytes(run_dir) == before  # both only read the run


def test_report_command(run_dir, capsys):
    assert main(["report", "--run", str(run_dir)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "balanced_accuracy" in out
    assert "unlock" in out


def test_violating_script_exits_with_lockbox_code():
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).parent / "violate_lockbox.py")],
        capture_output=True, text=True)
    assert proc.returncode == EXIT_LOCKBOX
    assert "blocked" in proc.stderr


def test_entry_point_help():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize("variant", ["stitched", "hybrid-stitched"])
def test_select_rois_rejects_stitched_run(variant, tmp_path, capsys):
    # refused from the run's index alone: no cohort is read, nothing written
    run = tmp_path / "run"
    run.mkdir()
    config = cli.RunConfig(variant=variant, seeds=(1,))
    (run / "index.json").write_text(json.dumps({"config": asdict(config)}))
    code = main(["select-rois", "--cohort", str(tmp_path / "no-cohort"),
                 "--run", str(run), "--out", str(tmp_path / "sel")])
    assert code == EXIT_CONFIG
    assert "ROI variant" in capsys.readouterr().err
    assert not (tmp_path / "sel").exists()


def test_explain_rejects_checkpoint_with_list_header(cohort_dir, run_dir,
                                                     tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    header = b"[1, 2]"
    (run / "checkpoints" / "seed-001.ckp").write_bytes(
        b"CKP1" + len(header).to_bytes(4, "little") + header)
    code = main(["explain", "--cohort", str(cohort_dir), "--run", str(run),
                 "--out", str(tmp_path / "e")])
    assert code == EXIT_CONFIG
    assert "byte offset 8" in capsys.readouterr().err


@pytest.mark.parametrize("command,doc,key", [
    ("synth", {"cohort": {"n_subject": 10}}, "n_subject"),
    ("synth", {"cohort": [1]}, "cohort config must be a JSON object"),
    ("synth", {"truth": {"beta": [1.0]}}, "beta"),
    ("synth", {"cohrt": {"dims": [16, 16, 16]}}, "cohrt"),
    ("run", {"run": {"train": {"lrs": [0.01], "epochs": 3}}}, "epochs"),
    ("run", {"run": {"variants": "gm-roi"}}, "variants"),
    ("run", {"run": {"train": None}}, "train"),
    # sections the config file no longer holds
    ("run", {"roi_counts": 5}, "roi_counts"),
    ("run", {"roi_counts": []}, "roi_counts"),
    ("run", {"roi_counts": [3, 0]}, "roi_counts"),
    ("run", {"explain": [12]}, "explain"),
    ("run", {"explain": {"n_explian": 4}}, "explain"),
    ("run", {"explain": {"n_perturb": "160"}}, "explain"),
    # keys the training config no longer holds
    ("run", {"run": {"threshold": 0.5}}, "threshold"),
    ("run", {"run": {"train": {"optimizer": "sgd"}}}, "optimizer"),
    ("run", {"run": {"train": {"class_weights": [1, 1]}}}, "class_weights"),
    ("run", {"run": {"train": {"seed": 2}}}, "'seed'"),
    # an empty ROI list, and one that a stitched image would ignore
    ("run", {"run": {"roi_labels": []}}, "roi_labels"),
    ("run", {"run": {"variant": "stitched", "roi_labels": [1, 2]}},
     "roi_labels"),
    # keys the run config no longer holds
    ("run", {"run": {"grid": [8, 8]}}, "grid"),
    ("run", {"run": {"partition_seed": 0}}, "partition_seed"),
    ("run", {"run": {"jobs": 2}}, "jobs"),
    # integer fields hold integers, unconverted
    ("synth", {"cohort": {"seed": "5"}}, "seed"),
    ("synth", {"cohort": {"n_subjects": 10.0}}, "n_subjects"),
    ("synth", {"cohort": {"lesion_count": [1.5, 2]}}, "lesion_count"),
    ("run", {"run": {"channels": [4, "8"]}}, "channels"),
    # a scalar integer field takes no list
    ("synth", {"cohort": {"seed": [5]}}, "seed"),
    ("run", {"run": {"train": {"max_epochs": [3]}}}, "max_epochs"),
    ("synth", {"cohort": {"dims": 5}}, "dims"),
    # values the generator cannot use
    ("synth", {"truth": {**asdict(default_truth()),
                         "causal_rois": [1, 2, 25]}}, "causal_rois"),
    ("synth", {"cohort": {"recovery_range": [0, 1000]}}, "recovery_range"),
    ("synth", {"cohort": {"recovery_range": [50, 5]}}, "recovery_range"),
    ("synth", {"cohort": {"n_tracts": 0}}, "n_tracts"),
    # a repeated lr would train the same CV fits twice
    ("run", {"run": {"train": {"lrs": [0.01, 0.01]}}}, "distinct"),
    # a network that cannot be built is refused before the cohort is read
    ("run", {"run": {"channels": []}}, "channels must be nonempty"),
    ("run", {"run": {"channels": [0]}}, "channels must be nonempty"),
    ("run", {"run": {"channels": [4, -1]}}, "channels must be nonempty"),
    # a repeated causal ROI would be charged twice, a stray gamma key ignored
    ("synth", {"truth": {**asdict(default_truth()), "causal_rois": [1, 1],
                         "betas": [38, 30]}}, "repeat ROIs [1]"),
    ("synth", {"truth": {**asdict(default_truth()),
                         "gamma": {**default_truth().gamma, "Severe": 12}}},
     "unknown categories ['Severe']"),
    ("run", {"run": {"image_size": 0, "channels": [4]}}, "input 0x0"),
])
def test_bad_config_file_exits_2_and_names_the_key(command, doc, key, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    where = (["--out", str(tmp_path / "c")] if command == "synth" else
             ["--cohort", str(tmp_path / "no-cohort"),
              "--out", str(tmp_path / "r")])
    assert main([command, *where, "--config", str(cfg)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "c").exists() and not (tmp_path / "r").exists()


# ``json`` parses NaN and +-Infinity, 1e400 overflows to inf, and a 400-digit
# integer has no float.  A NaN noise_sd would draw no noise, and a NaN lr
# would train until the loss is NaN.
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400",
                                     "1" + "0" * 400])
@pytest.mark.parametrize("command,key", [("synth", "noise_sd"),
                                         ("run", "lrs")])
def test_a_non_finite_config_number_is_refused_before_any_output(
        command, key, literal, tmp_path, capsys):
    if command == "synth":
        doc = {"truth": {**asdict(default_truth()), "noise_sd": "@"}}
        where = ["--out", str(tmp_path / "out")]
    else:
        doc = {"run": {"train": {"lrs": ["@"]}}}
        where = ["--cohort", str(tmp_path / "no-cohort"),
                 "--out", str(tmp_path / "out")]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc).replace('"@"', literal))
    assert main([command, *where, "--config", str(cfg)]) == EXIT_CONFIG
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("which", ["run_dir"])
def test_index_lists_every_file_the_run_wrote(which, request):
    run = request.getfixturevalue(which)
    files = json.loads((run / "index.json").read_text())["files"]
    # every file but the index itself
    assert sorted([*files.values(), "index.json"]) == sorted(
        p.name for p in run.iterdir())


@pytest.mark.parametrize("path,key", [(("train",), "optimizer"),
                                      (("train",), "class_weights"),
                                      (("train",), "seed"),
                                      ((), "threshold"),
                                      ((), "grid"),
                                      ((), "partition_seed"),
                                      ((), "jobs")])
def test_explain_refuses_a_run_index_with_a_removed_key(path, key, cohort_dir,
                                                        run_dir, tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.setattr(cli.pipeline, "prepare_run", _fail_if_called)
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    doc = json.loads((run / "index.json").read_text())
    section = doc["config"]
    for name in path:
        section = section[name]
    section[key] = None
    (run / "index.json").write_text(json.dumps(doc))
    out = tmp_path / "e"
    code = main(["explain", "--cohort", str(cohort_dir), "--run", str(run),
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,flags,key", [
    ("explain", ["--n-explain", "0"], "n_explain"),
    ("explain", ["--n-explain", "-3"], "n_explain"),
    ("explain", ["--n-perturb", "0"], "n_perturb"),
    ("select-rois", ["--n-explain", "0"], "n_explain"),
    ("select-rois", ["--counts", "0-3"], "--counts"),
    ("select-rois", ["--sweep-epochs", "0"], "--sweep-epochs"),
])
def test_non_positive_ranking_settings_are_refused_before_any_work(
        command, flags, key, cohort_dir, run_dir, tmp_path, monkeypatch,
        capsys):
    monkeypatch.setattr(cli.pipeline, "prepare_run", _fail_if_called)
    out = tmp_path / "out"
    code = main([command, "--cohort", str(cohort_dir), "--run", str(run_dir),
                 "--out", str(out), *flags])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["explain", "select-rois"])
def test_too_few_perturbations_are_refused_before_the_ranking(
        command, cohort_dir, run_dir, tmp_path, monkeypatch, capsys):
    # the all-ones mask and one mask per ROI need n_perturb >= ROIs + 2
    monkeypatch.setattr(cli.pipeline, "rank_rois", _fail_if_trained)
    out = tmp_path / "out"
    code = main([command, "--cohort", str(cohort_dir), "--run", str(run_dir),
                 "--out", str(out), "--n-perturb", "2"])
    assert code == EXIT_CONFIG
    assert re.search(r"n_perturb 2 must exceed the \d+ ROIs",
                     capsys.readouterr().err)
    assert list(out.iterdir()) == []


def test_select_rois_refuses_a_reversed_count_range(cohort_dir, run_dir,
                                                   tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(cli.pipeline, "prepare_run", _fail_if_called)
    out = tmp_path / "out"
    code = main(["select-rois", "--cohort", str(cohort_dir),
                 "--run", str(run_dir), "--out", str(out), "--counts", "4-3"])
    assert code == EXIT_CONFIG
    assert "range '4-3'" in capsys.readouterr().err
    assert not out.exists()


def _fail_if_called(*args, **kwargs):
    raise AssertionError("work done before the --out check")


def _fail_if_trained(*args, **kwargs):
    raise AssertionError("work done before the ROI count check")


def test_select_rois_rejects_too_many_rois_before_explaining(
        cohort_dir, run_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.pipeline, "rank_rois", _fail_if_trained)
    monkeypatch.setattr(cli.pipeline, "roi_count_sweep", _fail_if_trained)
    code = main(["select-rois", "--cohort", str(cohort_dir),
                 "--run", str(run_dir), "--out", str(tmp_path / "sel"),
                 "--counts", "3-99"])
    assert code == EXIT_CONFIG
    assert re.search(r"ROI count 99 exceeds the \d+ ROIs in the rendered "
                     r"label map", capsys.readouterr().err)


@pytest.fixture(scope="module")
def thin_roi_run(tmp_path_factory):
    """A cohort on which one of the 20 atlas ROIs, ROI 3, is too thin to
    survive the hybrid-gm-roi label map's downsampling, and a run directory
    without training: its index and an untrained checkpoint."""
    root = tmp_path_factory.mktemp("thin-roi")
    cohort = root / "cohort"
    assert main(["synth", "--out", str(cohort), "--subjects", "120",
                 "--dims", "40", "--seed", "471"]) == EXIT_OK
    atlas = pipeline.CohortData.from_directory(cohort).atlas
    assert len(atlas.label_names) == 20
    run = root / "run"
    (run / "checkpoints").mkdir(parents=True)
    config = cli.RunConfig(variant="hybrid-gm-roi", seeds=(1,))
    (run / "index.json").write_text(json.dumps({"config": asdict(config)}))
    params = learn.build_params("lightweight", cnn=config.cnn,
                                rng=CounterRng(1, "init", "lightweight"))
    learn.write_checkpoint(params, run / "checkpoints" / "seed-001.ckp")
    return cohort, run, atlas.label_names


def test_select_rois_counts_the_rois_of_the_label_map(thin_roi_run, tmp_path,
                                                     monkeypatch, capsys):
    # no ranking of the thin-ROI cohort can reach k = 20
    cohort, run, _ = thin_roi_run
    monkeypatch.setattr(cli.pipeline, "rank_rois", _fail_if_trained)
    code = main(["select-rois", "--cohort", str(cohort), "--run", str(run),
                 "--out", str(tmp_path / "sel"), "--counts", "3,20"])
    assert code == EXIT_CONFIG
    assert ("ROI count 20 exceeds the 19 ROIs in the rendered label map"
            in capsys.readouterr().err)


def test_explain_names_the_rois_missing_from_the_label_map(
        thin_roi_run, tmp_path, monkeypatch, capsys):
    cohort, run, names = thin_roi_run
    ranked = []

    def rank_rois(params, prepared, *args):
        rois = explain.roi_pixel_sets(prepared.variant_data.label_image)
        ranked.extend(rois)
        return [], explain.RoiRanking.from_means(dict.fromkeys(rois, 0.0), 0)

    monkeypatch.setattr(cli.pipeline, "rank_rois", rank_rois)
    out = tmp_path / "e"
    code = main(["explain", "--cohort", str(cohort), "--run", str(run),
                 "--out", str(out)])
    assert code == EXIT_OK
    assert ranked == [roi for roi in sorted(names) if roi != 3]
    assert ("ROIs missing from the 64x64 label map of 'hybrid-gm-roi', so "
            f"not ranked: {names[3]}\n") in capsys.readouterr().out
    assert len((out / "roi_ranking.csv").read_text().splitlines()) == 20


def _cohort_without_volumes(monkeypatch):
    """Make every cohort the CLI opens fail on its first volume read."""
    from_directory = pipeline.CohortData.from_directory

    def opened(path):
        return replace(from_directory(path), volume_of=_fail_if_called)

    monkeypatch.setattr(pipeline.CohortData, "from_directory",
                        staticmethod(opened))


@pytest.mark.parametrize("command", ["explain", "select-rois"])
def test_nonempty_out_is_refused_before_any_work(command, cohort_dir, run_dir,
                                                 tmp_path, monkeypatch,
                                                 capsys):
    _cohort_without_volumes(monkeypatch)
    monkeypatch.setattr(cli.pipeline, "roi_count_sweep", _fail_if_called)
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("x")
    code = main([command, "--cohort", str(cohort_dir), "--run", str(run_dir),
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert "--force" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]


# ---------------------------------------------------------------------------
# the entry point's allocator policy

STEP_FAULT_BOUND = 5000  # minor faults over 5 steps; ~25k when memory is returned


def _kernel_step(params, images, labels):
    learn.backward(params, images[:16], None, labels[:16])
    learn.forward(params, images)
    learn.forward(params, images[:5])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator policy is glibc's mallopt")
def test_entry_point_keeps_kernel_temporaries_mapped(tmp_path):
    """Once ``main`` has run, repeated conv steps reuse the pages their
    temporaries freed instead of faulting fresh ones in."""
    assert main(["report", "--run", str(tmp_path / "none")]) == EXIT_CONFIG
    cnn = pipeline.RunConfig().cnn
    gen = np.random.default_rng(0)
    images = gen.random((128, *cnn.input_hw), dtype=np.float32)
    labels = np.tile([0.0, 1.0], 64)
    params = learn.build_params("lightweight", cnn=cnn,
                                rng=CounterRng(1, "init", "lightweight"))
    _kernel_step(params, images, labels)  # the first step maps the pages
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        _kernel_step(params, images, labels)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < STEP_FAULT_BOUND


def _cdll_raises(name):
    raise OSError("no libc")


@pytest.mark.parametrize("fake_cdll", [
    _cdll_raises,
    lambda name: types.SimpleNamespace(),
    lambda name: types.SimpleNamespace(mallopt=lambda param, value: 0),
], ids=["no-libc", "no-mallopt", "mallopt-rejects"])
def test_main_runs_unchanged_without_mallopt(fake_cdll, run_dir, tmp_path,
                                             monkeypatch):
    argvs = (["report", "--run", str(run_dir)],
             ["report", "--run", str(tmp_path / "none")])
    want = [main(argv) for argv in argvs]
    assert want == [EXIT_OK, EXIT_CONFIG]
    monkeypatch.setattr(cli.ctypes, "CDLL", fake_cdll)
    assert [main(argv) for argv in argvs] == want


# ---------------------------------------------------------------------------
# volumes are read only through the lock box


def _record_reads(monkeypatch) -> list[tuple[str, object]]:
    """One event list, in order, of every lock-box grant ("grant", groups),
    the unlock ("unlock", None) and every volume read ("read", subject id)
    of the cohorts the CLI opens."""
    events = []
    request, unlock = evalharness.LockBox.request, evalharness.LockBox.unlock
    from_directory = pipeline.CohortData.from_directory

    def granted(self, groups, caller):
        request(self, groups, caller)
        events.append(("grant", frozenset(groups)))

    def unlocked(self, reason):
        unlock(self, reason)
        events.append(("unlock", None))

    def opened(path):
        cohort = from_directory(path)

        def volume_of(subject_id):
            events.append(("read", subject_id))
            return cohort.volume_of(subject_id)

        return replace(cohort, volume_of=volume_of)

    monkeypatch.setattr(evalharness.LockBox, "request", granted)
    monkeypatch.setattr(evalharness.LockBox, "unlock", unlocked)
    monkeypatch.setattr(pipeline.CohortData, "from_directory",
                        staticmethod(opened))
    return events


def _group_of(cohort_dir) -> dict[str, int]:
    records = pipeline.CohortData.from_directory(cohort_dir).records
    return evalharness.stratified_partition(records, k=5, seed=0).assignment


def _reads_after_grants(events, group_of) -> list[str]:
    """The ids read, in order; each one after a grant of its group."""
    granted, reads = set(), []
    for op, what in events:
        if op == "grant":
            granted |= what
        elif op == "read":
            assert group_of[what] in granted, f"{what} read before its grant"
            reads.append(what)
    return reads


def test_run_reads_each_volume_once_after_its_grant(cohort_dir, tmp_path,
                                                    monkeypatch):
    group_of = _group_of(cohort_dir)
    events = _record_reads(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(RUN_CFG))
    assert main(["run", "--cohort", str(cohort_dir), "--out",
                 str(tmp_path / "r"), "--seeds", "1",
                 "--config", str(cfg)]) == EXIT_OK
    reads = _reads_after_grants(events, group_of)
    assert sorted(reads) == sorted(group_of)  # every subject, once
    unlock = events.index(("unlock", None))
    before = {group_of[i] for op, i in events[:unlock] if op == "read"}
    after = {group_of[i] for op, i in events[unlock:] if op == "read"}
    assert before == {1, 2, 3, 4} and after == {5}


@pytest.mark.parametrize("command,flags", [
    ("explain", ["--n-explain", "2", "--n-perturb", "40"]),
    ("select-rois", ["--counts", "3-4", "--n-explain", "2",
                     "--n-perturb", "40", "--sweep-epochs", "1"]),
])
def test_ranking_reads_no_held_out_volume(command, flags, cohort_dir, run_dir,
                                          tmp_path, monkeypatch):
    group_of = _group_of(cohort_dir)
    events = _record_reads(monkeypatch)
    assert main([command, "--cohort", str(cohort_dir), "--run", str(run_dir),
                 "--out", str(tmp_path / "out"), *flags]) == EXIT_OK
    reads = _reads_after_grants(events, group_of)
    assert {group_of[i] for i in reads} == {1, 2, 3, 4}
    assert ("unlock", None) not in events
