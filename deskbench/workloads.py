"""The three desk-run workloads.

Each workload has a set-up (timed as ``setup_s``, repeated by the runner), a
round of operations (timed as ``wall_s``, repeated for the run length) and
checks that run outside both.  Every operation goes through the program's
public API or its in-process CLI, ``strokepred.cli.main``; the benchmark
makes the inputs from its seed and hands the program only those inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path

import checks
from strokepred import cli, evalharness, explain, glyphs, pipeline, synthcohort

# The outcome rule and severity cut-offs the benchmark writes into every
# cohort's config; the checks recompute records from these, not from the
# program's defaults.
TRUTH = {
    "causal_rois": [1, 2, 3],
    "betas": [38.0, 30.0, 24.0],
    "gamma": {"severe": 12.0, "moderate": 8.0, "mild": 4.0, "normal": 0.0,
              "unknown": 6.0},
    "delta": 2.0,
    "noise_sd": 5.0,
    "base": 62.0,
}
SEVERITY_THRESHOLDS = [0.55, 0.3, 0.1]
HEADLINE_VARIANT = "hybrid-gm-roi"


def cohort_config(seed: int, n_subjects: int, edge: int = 64) -> dict:
    return {"seed": seed, "n_subjects": n_subjects, "dims": [edge] * 3,
            "severity_thresholds": SEVERITY_THRESHOLDS}


def run_config(seeds, max_epochs: int, lrs=None) -> dict:
    """The headline cell with fewer epochs, on the program's default lr grid
    unless ``lrs`` is given."""
    train = replace(pipeline.RunConfig().train, max_epochs=max_epochs)
    if lrs is not None:
        train = replace(train, lrs=tuple(lrs))
    return {"variant": HEADLINE_VARIANT, "model": "lightweight",
            "seeds": list(seeds), "train": train.to_json_dict()}


class OpFailed(Exception):
    """An operation raised or the CLI returned a non-zero exit code."""


def strokepred(*argv: str) -> None:
    """Run one CLI command in process; its console output is discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise OpFailed(f"strokepred {argv[0]} exited {code}: "
                       f"{err.getvalue().strip()}")


def fsync_tree(root: Path) -> None:
    """Flush what set-up wrote, so its write-back is not paid for later."""
    for dirpath, _dirs, files in os.walk(root):
        for name in files + ["."]:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def train_normalizers(records) -> tuple[float, float]:
    plan = evalharness.stratified_partition(records, k=5, seed=0)
    return glyphs.normalizers_from_records(
        [r for r in records if plan.assignment[r.id] in pipeline.TRAIN_GROUPS])


@dataclass
class Workload:
    """``operations`` lists a round's named operations; ``check`` returns the
    problems found in one operation's output."""

    seed: int
    SETUPS = 3  # set-ups per untraced run; their median is setup_s

    def setup(self, work: Path):
        raise NotImplementedError

    def settle(self, state) -> list[str]:
        """Untimed, after each set-up: flush and check what it produced."""
        return []

    def operations(self, state, out: Path) -> list[tuple[str, object]]:
        raise NotImplementedError

    def check(self, state, out: Path, name: str, result) -> list[str]:
        return []

    def final_checks(self, state, work: Path) -> list[tuple[str, object]]:
        """Untimed operations made once per run, after the rounds: named
        callables that return problems, like ``check``."""
        return []


# ---------------------------------------------------------------------------


class CohortRender(Workload):
    """Set-up builds an in-memory cohort; a round renders all six variants
    with train-group normalizers.  Synthesis and rendering do all the work."""

    N_SUBJECTS = 12
    SETUPS = 7  # a set-up takes well under a second

    def setup(self, work):
        config = synthcohort.SynthConfig.from_json_dict(
            cohort_config(self.seed, self.N_SUBJECTS))
        truth = synthcohort.TruthModel.from_json_dict(TRUTH)
        cohort = pipeline.CohortData.from_memory(config, truth)
        return {"cohort": cohort, "refs": train_normalizers(cohort.records)}

    def settle(self, state):
        ids = [r.id for r in state["cohort"].records]
        if len(set(ids)) != self.N_SUBJECTS:
            return [f"{len(set(ids))} distinct subjects, not {self.N_SUBJECTS}"]
        return []

    def operations(self, state, out):
        size_ref, time_ref = state["refs"]

        def build(variant):
            return lambda: pipeline.build_variant(
                state["cohort"], pipeline.RunConfig(variant=variant),
                size_ref, time_ref)

        return [(variant, build(variant)) for variant in pipeline.VARIANTS]

    def _masses(self, state) -> dict:
        if "masses" not in state:
            cohort = state["cohort"]
            state["masses"] = {
                sid: {v: checks.displayed_mass(cohort.volume_of(sid).data, v,
                                               cohort.atlas.labels,
                                               cohort.tracts.labels)
                      for v in pipeline.VARIANTS}
                for sid in sorted(r.id for r in cohort.records)}
        return state["masses"]

    def check(self, state, out, name, result):
        masses = self._masses(state)
        if sorted(result.images) != sorted(masses):
            return [f"{name}: rendered {len(result.images)} subjects"]
        glyph_px = 0
        if name.startswith("hybrid"):
            plain_name = name[len("hybrid-"):]
            plain = state.get("shapes", {}).get(plain_name)
            if plain is None and plain_name != "stitched":
                raise LookupError(f"{name}: no {plain_name} render to size "
                                  "the glyph strip against")
            glyph_px = checks.glyph_area(name, result.full_shape, plain,
                                         state["cohort"].dims)
        else:
            state.setdefault("shapes", {})[name] = result.full_shape
        problems = []
        for sid, pixels in result.images.items():
            problems += checks.check_render(name, pixels, result.full_shape,
                                            masses[sid][name], glyph_px)
        return problems


# ---------------------------------------------------------------------------


class DeskRun(Workload):
    """Set-up writes a cohort with ``strokepred synth``; a round is
    ``strokepred run`` on the headline cell with two seeds.  Conv/pool
    training does most of the work; rendering reads VOL1 files."""

    N_SUBJECTS, EDGE = 120, 48
    EPOCHS = 3
    AUC_MARGIN = 0.1

    def setup(self, work):
        config = work / "config.json"
        config.write_text(json.dumps({
            "cohort": cohort_config(self.seed, self.N_SUBJECTS, self.EDGE),
            "truth": TRUTH,
            "run": run_config((1, 2), self.EPOCHS)}))
        strokepred("synth", "--out", work / "cohort", "--config", config)
        return {"work": work, "config": config}

    def settle(self, state):
        fsync_tree(state["work"])
        return checks.check_cohort(
            state["work"] / "cohort",
            cohort_config(self.seed, self.N_SUBJECTS, self.EDGE), TRUTH)

    def operations(self, state, out):
        return [("run", lambda: strokepred(
            "run", "--cohort", state["work"] / "cohort", "--out", out / "run",
            "--config", state["config"], "--jobs", "1"))]

    def check(self, state, out, name, result):
        return (checks.check_audit(out / "run" / "audit.jsonl")
                + checks.check_auc(out / "run", self.AUC_MARGIN))


# ---------------------------------------------------------------------------


class ExplainSelect(Workload):
    """Set-up writes a cohort and trains a short one-seed run; a round is
    ``strokepred explain`` with counterfactuals, then ``select-rois`` over a
    short k grid.  Both re-read and re-render the cohort, select-rois once
    more per k."""

    N_SUBJECTS, EDGE = 120, 40
    # one lr above the default grid: at 3e-3 the 3-epoch model predicted no
    # positives on some cohorts, and explain needs predicted positives
    EPOCHS, LRS = 3, (1e-2,)
    N_EXPLAIN, N_PERTURB = 12, 256  # the explain command's defaults
    SELECT_PERTURB = 160  # the select-rois command's default
    COUNTS = (3, 4)

    def setup(self, work):
        config = work / "config.json"
        config.write_text(json.dumps({
            "cohort": cohort_config(self.seed, self.N_SUBJECTS, self.EDGE),
            "truth": TRUTH,
            "run": run_config((1,), self.EPOCHS, self.LRS)}))
        strokepred("synth", "--out", work / "cohort", "--config", config)
        strokepred("run", "--cohort", work / "cohort", "--out", work / "run",
                   "--config", config, "--jobs", "1")
        return {"work": work}

    def settle(self, state):
        fsync_tree(state["work"])
        return checks.check_audit(state["work"] / "run" / "audit.jsonl")

    def operations(self, state, out):
        work = state["work"]
        common = ("--cohort", work / "cohort", "--run", work / "run",
                  "--n-explain", self.N_EXPLAIN)
        counts = f"{self.COUNTS[0]}-{self.COUNTS[-1]}"
        return [
            ("explain", lambda: strokepred(
                "explain", *common, "--n-perturb", self.N_PERTURB,
                "--out", out / "explain")),
            ("select-rois", lambda: strokepred(
                "select-rois", *common, "--n-perturb", self.SELECT_PERTURB,
                "--counts", counts, "--sweep-epochs", "1",
                "--out", out / "select")),
        ]

    def check(self, state, out, name, result):
        if name == "explain":
            return checks.check_explain_dir(out / "explain")
        return checks.check_selection_dir(out / "select", self.COUNTS)

    def final_checks(self, state, work):
        return [("linear-logit explain", lambda: self._linear_check(state))]

    def _linear_check(self, state):
        """Explain a classifier whose logit is known exactly, on the pool
        and label map the CLI's explain command uses."""
        cohort = pipeline.CohortData.from_directory(state["work"] / "cohort")
        plan = evalharness.stratified_partition(cohort.records, k=5, seed=0)
        size_ref, time_ref = train_normalizers(cohort.records)
        data = pipeline.build_variant(
            cohort, pipeline.RunConfig(variant=HEADLINE_VARIANT),
            size_ref, time_ref)
        dev = set(pipeline.TRAIN_GROUPS) | {pipeline.VAL_GROUP}
        pool = {i: img for i, img in data.images.items()
                if plan.assignment[i] in dev}
        model = checks.LinearLogit(pool, data.label_image)
        explanations, _ = explain.explain_pool(
            model, pool, data.label_image, n_explain=self.N_EXPLAIN,
            n_perturb=self.N_PERTURB, seed=0, with_counterfactuals=True)
        return checks.check_linear_explanations(model, pool, explanations,
                                                self.N_EXPLAIN)


WORKLOADS = {"cohort-render": CohortRender, "desk-run": DeskRun,
             "explain-select": ExplainSelect}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed=seed)

