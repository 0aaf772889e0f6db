"""Command-line entry points.

Subcommands: synth (generate a cohort directory), run (train and evaluate
one variant/model cell), explain (per-image ROI explanations for a finished
run), select-rois (rank the ROIs of a finished run and sweep the ROI count),
report (summarize a run).

Exit codes: 0 success, 2 configuration or input error, 3 lock-box protocol
violation, 4 numeric abort during optimization.

The entry point keeps freed memory in the process. Every conv forward and
backward allocates megabytes of temporaries (im2col columns, activations,
pooled maps). By default glibc returns them to the kernel after each call,
by trimming the heap top or unmapping the block, so the next call faults
the same pages back in, zeroed: about 4e5 minor faults and 1 s of system
time per desk-run. ``main`` therefore tells malloc to serve these blocks
from the heap and never trim it. This is glibc-only and changes no
arithmetic; where libc has no ``mallopt`` it does nothing. Importing
``strokepred`` leaves the allocator alone: only the application sets
process-wide malloc policy.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import core, evalharness, explain, learn, pipeline, synthcohort
from .evalharness import LockBoxError
from .learn import NumericAbort
from .pipeline import ConfigError, RunConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_LOCKBOX = 3
EXIT_NUMERIC = 4

CONFIG_SECTIONS = ("cohort", "truth", "run")

# mallopt(3) parameters. Blocks below the mmap threshold come from the heap,
# so freeing them unmaps nothing; 32 MiB is the largest threshold glibc
# accepts on 64-bit (it rejects more with 0 and leaves the threshold where
# it was), above the largest hot array: a training step's 2.4 MB im2col
# matrix, or a batch of 128 perturbed images that ``explain`` draws where
# ``learn.swap_scorer`` cannot score it undrawn (2.1 MB of float32 at 64x64).
# A trim threshold of -1 means "never trim": the heap top stays mapped.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 * 1024 * 1024


def parse_seeds(text: str) -> tuple[int, ...]:
    """"1-20" or "1,3,9" or a mix ("1-5,8"); a part that is not an integer
    or an ascending range is refused by name."""
    out: list[int] = []
    for part in filter(None, (p.strip() for p in text.split(","))):
        cut = part.find("-", 1)  # past a leading minus sign
        ends = (part, part) if cut < 0 else (part[:cut], part[cut + 1:])
        try:
            lo, hi = map(int, ends)
        except ValueError:
            raise ConfigError(f"{part!r} in {text!r} is not an integer or a "
                              "range a-b") from None
        if hi < lo:
            raise ConfigError(f"range {part!r} in {text!r} runs backwards")
        out.extend(range(lo, hi + 1))
    if not out:
        raise ConfigError(f"no seeds in {text!r}")
    return tuple(out)


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    for key in doc:
        if key not in CONFIG_SECTIONS:
            raise ConfigError(f"unknown config file key {key!r}")
    return doc


def _ensure_out_dir(path: Path, force: bool) -> Path:
    if path.exists() and any(path.iterdir()) and not force:
        raise ConfigError(
            f"output directory {path} is not empty; pass --force to reuse it")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _default_run_dir() -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return Path("runs") / f"run-{stamp}"


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    doc = _load_config_file(args.config)
    config = synthcohort.SynthConfig.from_json_dict(doc.get("cohort", {}))
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.subjects is not None:
        overrides["n_subjects"] = args.subjects
    if args.dims is not None:
        overrides["dims"] = (args.dims,) * 3
    config = replace(config, **overrides)
    truth = synthcohort.TruthModel.from_json_dict(doc["truth"]) \
        if "truth" in doc else synthcohort.default_truth()
    synthcohort.require_atlas_rois(config, truth)

    out = _ensure_out_dir(Path(args.out), args.force)
    manifest = synthcohort.write_cohort(config, truth, out)

    records = manifest.subjects
    n = len(records)
    aphasic = sum(core.outcome_label(r.score) for r in records)
    print(f"cohort written to {out} ({n} subjects, dims "
          f"{'x'.join(str(d) for d in config.dims)})")
    print(f"aphasic fraction: {aphasic / n:.3f} ({aphasic}/{n})")
    counts = {c: 0 for c in core.SEVERITY_CATEGORIES}
    for r in records:
        counts[r.severity] += 1
    print("severity distribution: "
          + ", ".join(f"{c}={counts[c]}" for c in core.SEVERITY_CATEGORIES))
    return EXIT_OK


# ---------------------------------------------------------------------------
# run


def _run_config(args, doc: dict) -> RunConfig:
    config = RunConfig.from_json_dict(doc.get("run", {}))
    overrides = {}
    if args.variant is not None:
        overrides["variant"] = args.variant
    if args.model is not None:
        overrides["model"] = args.model
    if args.seeds is not None:
        overrides["seeds"] = parse_seeds(args.seeds)
    if overrides:
        config = replace(config, **overrides)
    if getattr(args, "preset", None) == "paper":
        config = pipeline.paper_preset(config)
    return config


def cmd_run(args) -> int:
    doc = _load_config_file(args.config)
    config = _run_config(args, doc)
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    cohort = pipeline.CohortData.from_directory(args.cohort)
    out = _ensure_out_dir(Path(args.out) if args.out else _default_run_dir(),
                          args.force)

    result = pipeline.run_experiment(cohort, config,
                                     audit_path=out / "audit.jsonl",
                                     jobs=args.jobs)
    for warning in result.plan.balance.warnings:
        print(f"partition warning: {warning}")
    pipeline.emit_run(result, out)

    aggregate = result.aggregate  # recomputed from the rows on each read
    bal, auc_v = aggregate["balanced_accuracy"], aggregate["auc"]
    print(f"run complete: {config.variant} / {config.model}, "
          f"{len(config.seeds)} seed(s), lr {result.best_lr:g}")
    print(f"balanced accuracy {bal[0]:.3f} +/- {bal[1]:.3f}, "
          f"auc {auc_v[0]:.3f} +/- {auc_v[1]:.3f}")
    scan = evalharness.audit_scan(out / "audit.jsonl")
    print(f"audit: {scan['n_entries']} entries, {scan['n_unlocks']} unlock(s), "
          f"{scan['pre_unlock_lockbox_accesses']} pre-unlock held-out "
          f"access(es)")
    print(f"reports in {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# shared run-directory plumbing for explain / select-rois


def _load_run(run_dir: Path) -> tuple[RunConfig, dict]:
    index_path = run_dir / "index.json"
    if not index_path.exists():
        raise ConfigError(f"{run_dir} has no index.json (not a run directory)")
    doc = json.loads(index_path.read_text())
    if not isinstance(doc, dict) or not isinstance(doc.get("config"), dict):
        raise ConfigError(f"{index_path}: key 'config' must hold a JSON object")
    return RunConfig.from_json_dict(doc["config"]), doc


def _load_checkpoint(run_dir: Path, config: RunConfig,
                     seed: int | None) -> tuple[int, learn.ModelParams]:
    seed = config.seeds[0] if seed is None else seed
    if seed not in config.seeds:
        raise ConfigError(f"seed {seed} is not one of the seeds "
                          f"{list(config.seeds)} of the run in {run_dir}")
    path = run_dir / "checkpoints" / f"seed-{seed:03d}.ckp"
    if not path.exists():
        raise ConfigError(f"no checkpoint for seed {seed} under {run_dir}")
    params = learn.read_checkpoint(path)
    if params.kind != config.model:
        raise ConfigError(f"checkpoint is a {params.kind!r} model but the run "
                          f"config says {config.model!r}")
    if params.cnn is not None and params.cnn.input_hw != (config.image_size,
                                                          config.image_size):
        raise ConfigError(
            f"checkpoint expects {params.cnn.input_hw} inputs but the variant "
            f"renders {config.image_size}x{config.image_size}")
    return seed, params


def _rank_run_rois(args, counts=(), with_counterfactuals=False):
    """The set-up that explain and select-rois share, each refusal before
    the work it guards.  Load the run, check its model (and, given a grid
    of ROI counts to select from, its variant) and the ranking flags; load
    the cohort and the checkpoint and create --out; prepare the run, name
    the ROIs of the layout that are too thin to survive in its rendered
    label map, and check the counts and n_perturb (the all-ones mask plus
    one mask per ROI) against the ROIs that do; rank them and write
    roi_ranking.csv.  Returns the seed, --out, the prepared run, the
    explanations, the ranking and ROI names."""
    run_dir = Path(args.run)
    config, _doc = _load_run(run_dir)
    if config.model != "lightweight":
        raise ConfigError("ROI ranking needs the lightweight image model; "
                          f"this run uses {config.model!r}")
    if counts:
        pipeline.require_roi_selection(config)
    for key in ("n_explain", "n_perturb"):
        if getattr(args, key) < 1:
            raise ConfigError(f"explain setting {key!r} must be a positive "
                              "integer")
    cohort = pipeline.CohortData.from_directory(args.cohort)
    seed, params = _load_checkpoint(run_dir, config, args.seed)
    out = _ensure_out_dir(Path(args.out), args.force)

    # only groups 1-4 are read and rendered, so the box keeps no audit file
    run = pipeline.prepare_run(cohort, config)
    names = cohort.labels_for(config.variant).label_names
    rois = explain.roi_pixel_sets(run.variant_data.label_image)
    missing = sorted(set(config.roi_labels or names) - set(rois))
    if missing:
        print(f"ROIs missing from the {config.image_size}x{config.image_size}"
              f" label map of {config.variant!r}, so not ranked: "
              + ", ".join(names.get(r, str(r)) for r in missing))
    n_rois = len(rois)
    if counts and max(counts) > n_rois:
        raise ConfigError(f"ROI count {max(counts)} exceeds the {n_rois} "
                          "ROIs in the rendered label map")
    if args.n_perturb < n_rois + 2:
        raise ConfigError(f"n_perturb {args.n_perturb} must exceed the "
                          f"{n_rois} ROIs in the rendered label map + 1")
    explanations, ranking = pipeline.rank_rois(
        params, run, args.n_explain, args.n_perturb, args.explain_seed,
        with_counterfactuals)
    if ranking.flags:
        print("ranking flags: " + ", ".join(ranking.flags))
    pipeline.write_ranking_csv(ranking, out / "roi_ranking.csv", names)
    return seed, out, run, explanations, ranking, names


def cmd_explain(args) -> int:
    seed, out, _, explanations, ranking, names = _rank_run_rois(
        args, with_counterfactuals=True)
    files = {}
    for expl_obj in explanations:
        files[f"{expl_obj.image_id}.json"] = json.dumps(
            explain.explanation_json(expl_obj), indent=2, sort_keys=True)
        files[f"{expl_obj.image_id}.txt"] = explain.explanation_report(
            expl_obj, roi_names=names)
    expl_dir = out / "explanations"
    expl_dir.mkdir(exist_ok=True)
    for stale in [*expl_dir.glob("*.json"), *expl_dir.glob("*.txt")]:
        if stale.name not in files:  # left by an earlier explain
            stale.unlink()
    for name, text in files.items():
        (expl_dir / name).write_text(text + "\n")

    print(f"explained {len(explanations)} image(s) from run seed {seed}")
    top = ranking.rois[:5]
    print("top ROIs: " + ", ".join(names.get(r, str(r)) for r in top))
    print(f"reports in {out}")
    return EXIT_OK


def cmd_select_rois(args) -> int:
    counts = parse_seeds(args.counts)  # same "3-10" syntax
    if min(counts) < 1:
        raise ConfigError("--counts must hold positive integers")
    if args.sweep_epochs is not None and args.sweep_epochs < 1:
        raise ConfigError("--sweep-epochs must be a positive integer")
    _, out, run, _, ranking, names = _rank_run_rois(args, counts)
    curve = pipeline.roi_count_sweep(run, ranking, counts=counts,
                                     sweep_epochs=args.sweep_epochs)
    pipeline.write_curve_csv(curve, out / "roi_curve.csv")
    pipeline.write_curve_svg(curve, out / "roi_curve.svg")
    chosen = ranking.rois[:curve.best_k]
    (out / "selection.json").write_text(json.dumps(
        {"best_k": curve.best_k,
         "rois": [{"label": int(r), "name": names.get(r, str(r))}
                  for r in chosen]},
        indent=2, sort_keys=True) + "\n")
    print(f"best k = {curve.best_k}: "
          + ", ".join(names.get(r, str(r)) for r in chosen))
    print(f"reports in {out}")
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    config, doc = _load_run(run_dir)
    print(f"run: {config.variant} / {config.model}, "
          f"{len(config.seeds)} seed(s), best lr {doc.get('best_lr')}")
    balance = core.check_json(
        doc.get("balance", {}), core.field_types(evalharness.BalanceReport),
        f"{run_dir / 'index.json'} key 'balance'")
    if balance:
        worst = max(balance.get("max_smd", {}).values(), default=0.0)
        print(f"partition: worst covariate SMD {worst:.4f}, "
              f"objective {balance.get('objective', 0.0):.4f}")
    summary = run_dir / "summary.csv"
    if summary.exists():
        lines = summary.read_text().splitlines()
        for number, line in enumerate(lines[1:], start=2):
            try:
                _, _, metric, mean, se = line.split(",")
                mean, se = float(mean), float(se)
            except ValueError as exc:
                raise ConfigError(f"{summary} line {number}: {exc}") from None
            print(f"  {metric:>18s}: {mean:.3f} +/- {se:.3f}")
    audit = run_dir / "audit.jsonl"
    if audit.exists():
        scan = evalharness.audit_scan(audit)
        print(f"audit: {scan['n_entries']} entries, "
              f"{scan['n_unlocks']} unlock(s), "
              f"{scan['pre_unlock_lockbox_accesses']} pre-unlock held-out "
              f"access(es)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_ranking_flags(parser, n_perturb: int) -> None:
    parser.add_argument("--n-explain", type=int, default=12)
    parser.add_argument("--n-perturb", type=int, default=n_perturb)
    parser.add_argument("--explain-seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="strokepred",
        description="Synthetic stroke-outcome prediction pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic cohort directory")
    sp.add_argument("--out", required=True)
    sp.add_argument("--config", help="JSON config file (cohort/truth keys)")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--subjects", type=int)
    sp.add_argument("--dims", type=int, help="cubic volume edge length")
    sp.add_argument("--force", action="store_true",
                    help="reuse a non-empty output directory")
    sp.set_defaults(func=cmd_synth)

    rp = sub.add_parser("run", help="train and evaluate one variant/model")
    rp.add_argument("--cohort", required=True, help="cohort directory")
    rp.add_argument("--out", help="run directory (default: runs/run-<UTC>)")
    rp.add_argument("--config", help="JSON config file (run key)")
    rp.add_argument("--variant", choices=pipeline.VARIANTS)
    rp.add_argument("--model", choices=learn.MODEL_KINDS)
    rp.add_argument("--seeds", help='e.g. "1-20" or "1,3,9"')
    rp.add_argument("--preset", choices=["paper"],
                    help="full-scale constants (256x256, 6 blocks, 200 epochs)")
    rp.add_argument("--jobs", type=int, default=1,
                    help="concurrent fits: the CV folds, then the seeds")
    rp.add_argument("--force", action="store_true")
    rp.set_defaults(func=cmd_run)

    ep = sub.add_parser("explain", help="per-image ROI explanations")
    ep.add_argument("--cohort", required=True)
    ep.add_argument("--run", required=True, help="finished run directory")
    ep.add_argument("--out", required=True)
    ep.add_argument("--seed", type=int, help="checkpoint seed (default first)")
    _add_ranking_flags(ep, n_perturb=256)
    ep.add_argument("--force", action="store_true")
    ep.set_defaults(func=cmd_explain)

    kp = sub.add_parser("select-rois", help="ROI-count selection curve")
    kp.add_argument("--cohort", required=True)
    kp.add_argument("--run", required=True)
    kp.add_argument("--out", required=True)
    kp.add_argument("--seed", type=int)
    kp.add_argument("--counts", default="3-10", help='k grid, e.g. "3-10"')
    kp.add_argument("--sweep-epochs", type=int,
                    help="shorter training for the sweep only")
    _add_ranking_flags(kp, n_perturb=160)
    kp.add_argument("--force", action="store_true")
    kp.set_defaults(func=cmd_select_rois)

    tp = sub.add_parser("report", help="print a finished run's summary")
    tp.add_argument("--run", required=True)
    tp.set_defaults(func=cmd_report)
    return p


def _keep_freed_memory() -> None:
    """Make glibc's malloc keep the memory it frees (see the module
    docstring). A no-op where libc has no ``mallopt``; safe to repeat."""
    try:
        mallopt = ctypes.CDLL(None).mallopt  # the libc already loaded
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # a libc that rejects a setting returns 0 and keeps its own value
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, -1)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LockBoxError as exc:
        print(f"lock-box violation: {exc}", file=sys.stderr)
        return EXIT_LOCKBOX
    except NumericAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError, OSError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
