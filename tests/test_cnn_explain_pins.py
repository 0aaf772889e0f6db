"""Byte pins of ``strokepred explain`` and ``strokepred select-rois`` on a
trained CNN.  A one-seed lightweight run on the run-pin cohort (60
subjects at 32³, synth seed 5), at 16x16 with channels (4, 8) and six
epochs, gives the checkpoint; ``explain`` scores 150 perturbations per
image (a full batch of ``BATCH_SIZE`` and a short one) with
counterfactuals, and ``select-rois`` sweeps k = 3, 4.  The hash covers
every file each command writes.

The hashes were taken at commit 38e44aa, where every mask was drawn as an
image and scored by ``learn.forward``.  They hold BLAS results, so they are
those of numpy 2.4.6 with OpenBLAS 0.3.31 on x86-64; a change to how the
explainer scores its masks must leave them unchanged there."""

import hashlib
import json
from pathlib import Path

import pytest

from strokepred.cli import EXIT_OK, main

CONFIG = {"run": {"image_size": 16, "channels": [4, 8],
                  "train": {"lrs": [3e-3, 1e-2], "max_epochs": 6}}}
EXPLAIN = ["--n-explain", "3", "--n-perturb", "150"]
SELECT = ["--counts", "3-4", "--sweep-epochs", "1", "--n-explain", "2",
          "--n-perturb", "40"]

# sha256 of every file a command writes, see _digest
PINS = {
    "gm-roi/explain":
        "a7e6711f81247c1890865974f7a83c5643a19f9408eae3c58a36965001ce8f04",
    "gm-roi/select-rois":
        "202428b05378132e2c3f4fc46afce0e66a136f95ca8ba579303202ca9b0a8b8f",
    "hybrid-gm-roi/explain":
        "2376ca50a4f18e5eb4aac3d4a707c8a78aef5331949bc667265aac4dd9837518",
    "hybrid-gm-roi/select-rois":
        "9870a92127f0849e2c398108991e87e0595110e525fab846a6f4f23bc48825a0",
}


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    out = tmp_path_factory.mktemp("cohort")
    assert main(["synth", "--out", str(out), "--subjects", "60",
                 "--dims", "32", "--seed", "5"]) == EXIT_OK
    config = out / "config.json"
    config.write_text(json.dumps(CONFIG))
    return out, config


@pytest.fixture(scope="module")
def runs(cohort, tmp_path_factory):
    cohort_dir, config = cohort
    out = {}
    for variant in ("gm-roi", "hybrid-gm-roi"):
        out[variant] = tmp_path_factory.mktemp(variant) / "run"
        assert main(["run", "--cohort", str(cohort_dir), "--out",
                     str(out[variant]), "--variant", variant, "--model",
                     "lightweight", "--seeds", "1",
                     "--config", str(config)]) == EXIT_OK
    return out


def _digest(out: Path) -> str:
    """Relative path and bytes of every file, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(PINS))
def test_cnn_explanations_write_their_pinned_bytes(cohort, runs, key,
                                                   tmp_path):
    variant, command = key.split("/")
    out = tmp_path / "out"
    flags = EXPLAIN if command == "explain" else SELECT
    assert main([command, "--cohort", str(cohort[0]), "--run",
                 str(runs[variant]), "--out", str(out), *flags]) == EXIT_OK
    if command == "explain":  # the pin covers counterfactual rows
        assert any(json.loads(p.read_text())["counterfactuals"]
                   for p in (out / "explanations").glob("*.json"))
    assert _digest(out) == PINS[key], key
