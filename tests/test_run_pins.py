"""Byte pins of ``strokepred run``'s output directory.  Each cell runs on a
small synthesized cohort, at two seeds and two epochs, with ``--jobs 1``
and ``--jobs 2``.  The hash covers the six CSVs, every checkpoint,
``index.json`` and ``audit.jsonl`` without its ``time`` values.

The hashes were taken at commit 95f6b7c, before the logistic model was
fitted once per run.  Checkpoints and metrics hold BLAS results, so the
hashes are those of numpy 2.4.6 with OpenBLAS 0.3.31 on x86-64; a refactor
of the run must leave them unchanged there.  The same cohort checks that
the seed fits run with no CV fit's record still held."""

import gc
import hashlib
import json
import weakref
from pathlib import Path

import pytest

from strokepred import learn, pipeline
from strokepred.cli import EXIT_OK, main

CONFIG = {"run": {"image_size": 16, "channels": [4, 8],
                  "train": {"lrs": [1e-3, 1e-2], "max_epochs": 2}}}

# sha256 of every file of the run directory, see _digest
PINS = {
    "gm-roi/lightweight":
        "d764fa3c0943832ce260549d52119170b0cf77a2308407784c674c102b2753a8",
    "gm-roi/daft":
        "2de55ba5217062922234cee816e3d1865b652706936a70b3d036e36853287ea3",
    "gm-roi/logistic":
        "25e25459bd2b412dc6caff4e3ebce88e227dc488a5f76a788754e43d85362666",
}


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert main(["synth", "--out", str(out), "--subjects", "60",
                 "--dims", "32", "--seed", "5"]) == EXIT_OK
    config = out / "config.json"
    config.write_text(json.dumps(CONFIG))
    return out, config


def _digest(run_dir: Path) -> str:
    """Relative path and bytes of every file, in path order, with the audit
    log's entries re-serialized without ``time``."""
    h = hashlib.sha256()
    paths = sorted(p for p in run_dir.rglob("*") if p.is_file())
    assert [p.name for p in paths] == [
        "audit.jsonl", "seed-001.ckp", "seed-002.ckp", "index.json",
        "learning_curves.csv", "per_seed.csv", "predictions.csv",
        "subgroup.csv", "summary.csv", "thresholds.csv"]
    for path in paths:
        data = path.read_bytes()
        if path.name == "audit.jsonl":
            entries = [{k: v for k, v in json.loads(line).items()
                        if k != "time"} for line in data.decode().splitlines()]
            data = json.dumps(entries, sort_keys=True).encode()
        h.update(path.relative_to(run_dir).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("key", sorted(PINS))
def test_run_writes_its_pinned_bytes(cohort, key, jobs, tmp_path):
    cohort_dir, config = cohort
    variant, model = key.split("/")
    out = tmp_path / "run"
    assert main(["run", "--cohort", str(cohort_dir), "--out", str(out),
                 "--variant", variant, "--model", model, "--seeds", "1,2",
                 "--config", str(config), "--jobs", jobs]) == EXIT_OK
    assert _digest(out) == PINS[key], key


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_the_seed_fits_hold_no_cv_record(cohort, jobs, tmp_path,
                                         monkeypatch):
    # a CV record holds its validation fold's images and best-epoch model;
    # only its (lr, group, losses) outlive group_cv, as curve rows
    folds, seed_fits = [], []
    group_cv, train = pipeline.group_cv, learn.train

    def watched_cv(*args):
        best_lr, losses, fits = group_cv(*args)
        folds.extend(weakref.ref(val.images) for _, _, val, _, _ in fits)
        return best_lr, losses, fits

    def watched_train(*args):
        if folds:  # a seed fit: the CV is done
            gc.collect()
            seed_fits.append([ref() is None for ref in folds])
        return train(*args)

    monkeypatch.setattr(pipeline, "group_cv", watched_cv)
    monkeypatch.setattr(learn, "train", watched_train)
    cohort_dir, config = cohort
    out = tmp_path / "run"
    assert main(["run", "--cohort", str(cohort_dir), "--out", str(out),
                 "--variant", "gm-roi", "--model", "lightweight",
                 "--seeds", "1,2", "--config", str(config),
                 "--jobs", jobs]) == EXIT_OK
    assert seed_fits == [[True] * 8] * 2  # 2 lrs x 4 folds, 2 seeds
    assert _digest(out) == PINS["gm-roi/lightweight"]
