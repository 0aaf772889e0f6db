"""Per-layer timing of strokepred from outside the program.

A ``Tracer`` wraps the public functions of the program's modules and counts
calls, inclusive busy time (``s``) and self time (``self_s``: inclusive time
minus the time spent in wrapped callees).  Nothing inside the program is
changed: each wrapper is installed at every module attribute that binds the
function (``pipeline`` imports ``gen_subject`` by name, ``glyphs`` imports
``stitch``, ``roi_image`` and ``downsample`` by name) and removed again by
``uninstall``.  ``rng`` is not wrapped: per-draw calls are too fine to time
from outside, so their cost lands in the callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
from strokepred.core import Volume3D

LAYERS = {
    "synthcohort": ("gen_subject", "gen_atlas"),
    "core": ("read_volume", "write_volume"),
    "imaging": ("stitch", "roi_image", "downsample", "plan_roi_tiles"),
    "glyphs": ("render_glyphs", "hybrid_roi", "hybrid_stitched"),
    "pipeline": ("build_variant", "assemble", "run_experiment",
                 "roi_count_sweep"),
    "learn": ("train", "backward", "forward", "rmsprop_step",
              "write_checkpoint", "read_checkpoint"),
    "evalharness": ("stratified_partition", "cross_validate",
                    "fit_temperature", "metrics"),
    "explain": ("explain_pool", "gen_perturbations", "apply_mask",
                "fit_surrogate", "counterfactuals"),
    "cli": ("main",),
}
PROGRAM_MODULES = ("core", "rng", "synthcohort", "imaging", "glyphs", "learn",
                   "evalharness", "explain", "pipeline", "cli")
MICRO_KINDS = ("lightweight", "logistic", "early_fusion", "daft")

# (metric name, unit) in report order; ``trace.overhead_s`` and the
# microbenchmarks are filled in by the runner.
PER_LAYER = (
    [("synthcohort.gen_subject.calls", "count"),
     ("synthcohort.gen_subject.s", "s"),
     ("synthcohort.gen_subject.per_subject", "ratio"),
     ("synthcohort.gen_atlas.calls", "count"),
     ("synthcohort.gen_atlas.s", "s"),
     ("core.read_volume.calls", "count"),
     ("core.read_volume.s", "s"),
     ("core.read_volume.mb", "MB"),
     ("core.read_volume.per_subject", "ratio"),
     ("core.write_volume.calls", "count"),
     ("core.write_volume.s", "s"),
     ("core.write_volume.mb", "MB")]
    + [(f"imaging.{f}.{m}", u)
       for f in LAYERS["imaging"] for m, u in (("calls", "count"), ("s", "s"))]
    + [(f"glyphs.{f}.{m}", u)
       for f in LAYERS["glyphs"] for m, u in (("calls", "count"), ("s", "s"))]
    + [("pipeline.build_variant.calls", "count"),
       ("pipeline.build_variant.s", "s"),
       ("pipeline.build_variant.self_s", "s"),
       ("pipeline.assemble.calls", "count"),
       ("pipeline.assemble.s", "s"),
       ("pipeline.run_experiment.s", "s"),
       ("pipeline.roi_count_sweep.s", "s"),
       ("learn.train.calls", "count"),
       ("learn.train.s", "s"),
       ("learn.backward.calls", "count"),
       ("learn.backward.samples", "count"),
       ("learn.backward.s", "s"),
       ("learn.forward.calls", "count"),
       ("learn.forward.samples", "count"),
       ("learn.forward.s", "s"),
       ("learn.forward.samples_per_train_sample", "ratio"),
       ("learn.rmsprop_step.calls", "count"),
       ("learn.rmsprop_step.s", "s"),
       ("learn.write_checkpoint.s", "s"),
       ("learn.read_checkpoint.s", "s"),
       ("evalharness.stratified_partition.s", "s"),
       ("evalharness.cross_validate.s", "s"),
       ("evalharness.fit_temperature.calls", "count"),
       ("evalharness.fit_temperature.s", "s"),
       ("evalharness.metrics.calls", "count"),
       ("evalharness.metrics.s", "s")]
    + [(f"explain.{f}.{m}", u)
       for f in LAYERS["explain"] for m, u in (("calls", "count"), ("s", "s"))]
    + [("explain.perturbations", "count"),
       ("explain.ms_per_perturbation", "ms"),
       ("cli.main.calls", "count"),
       ("cli.main.s", "s"),
       ("cli.main.self_s", "s")]
    + [(f"learn.backward.b16.{kind}.ms", "ms") for kind in MICRO_KINDS]
    + [("learn.forward.b128.ms", "ms"),
       ("trace.overhead_s", "s")]
)


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    items: int = 0  # samples, bytes or perturbation rows, per function
    keys: set = field(default_factory=set)  # distinct subjects or files
    keyed_calls: int = 0  # calls that touched a keyed item


def _arguments(sig: inspect.Signature, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_gen_subject(stat, a, result):
    stat.keys.add((a["config"].seed, a["subject_seed"]))
    stat.keyed_calls += 1


def _count_read_volume(stat, a, result):
    stat.items += os.path.getsize(a["path"])
    if isinstance(result, Volume3D):  # a subject's intensity volume
        stat.keys.add(os.path.realpath(a["path"]))
        stat.keyed_calls += 1


def _count_write_volume(stat, a, result):
    stat.items += os.path.getsize(a["path"])


def _count_samples(stat, a, result):
    batch = a["images"] if a["images"] is not None else a["tabular"]
    stat.items += len(batch)


def _count_rows(stat, a, result):
    stat.items += len(result)


COUNTERS = {
    "synthcohort.gen_subject": _count_gen_subject,
    "core.read_volume": _count_read_volume,
    "core.write_volume": _count_write_volume,
    "learn.backward": _count_samples,
    "learn.forward": _count_samples,
    "explain.gen_perturbations": _count_rows,
}


class Tracer:
    """Wraps the LAYERS functions while installed; ``stats`` holds the totals."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._child_time: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        counter = COUNTERS.get(key)
        sig = inspect.signature(fn)
        stack = self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                stat.calls += 1
                stat.s += dt
                stat.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if counter is not None:
                counter(stat, _arguments(sig, args, kwargs), result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"strokepred.{m}")
                   for m in PROGRAM_MODULES]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"strokepred.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def metrics(self) -> dict[str, float]:
        """Every PER_LAYER value the wrappers measure (no microbenchmarks)."""
        def stat(key):
            return self.stats.get(key, Stat())

        out = {}
        for name, _unit in PER_LAYER:
            key, _, metric = name.rpartition(".")
            st = stat(key)
            if metric in ("calls", "s", "self_s"):
                out[name] = getattr(st, metric)
            elif metric == "samples":
                out[name] = st.items
            elif metric == "mb":
                out[name] = st.items / 1e6
            elif metric == "per_subject":
                out[name] = st.keyed_calls / len(st.keys) if st.keys else 0.0
        fwd, bwd = stat("learn.forward"), stat("learn.backward")
        out["learn.forward.samples_per_train_sample"] = (
            fwd.items / bwd.items if bwd.items else 0.0)
        rows = stat("explain.gen_perturbations").items
        out["explain.perturbations"] = rows
        out["explain.ms_per_perturbation"] = (
            1000.0 * stat("explain.explain_pool").s / rows if rows else 0.0)
        return out


# Each microbenchmark repeats its call until both limits are reached.
MICRO_MIN_SECONDS = 0.4
MICRO_MIN_REPS = 5


def _median_ms(fn) -> float:
    fn()  # warm-up: first-call allocations are not the steady cost
    times = []
    start = time.perf_counter()
    while (len(times) < MICRO_MIN_REPS
           or time.perf_counter() - start < MICRO_MIN_SECONDS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * statistics.median(times)


def microbench() -> dict[str, float]:
    """Backward at batch 16 per model kind and forward at batch 128 for the
    lightweight CNN, on fixed inputs, with the program's default network
    (the run's untraced program)."""
    from strokepred import learn, pipeline
    from strokepred.rng import CounterRng

    gen = np.random.default_rng(12345)
    cnn = pipeline.RunConfig().cnn
    tab_dim = learn.TabularEncoding(size_ref=1.0, time_ref=1.0).dim
    images = gen.random((128, *cnn.input_hw), dtype=np.float32)
    tabular = gen.random((128, tab_dim))
    labels = np.tile([0.0, 1.0], 64)
    out = {}
    for kind in MICRO_KINDS:
        fused = kind in pipeline.FUSION_KINDS
        params = learn.build_params(kind, cnn=cnn,
                                    tabular_dim=tab_dim if fused else None,
                                    rng=CounterRng(1, "init", kind))
        tab = tabular[:16] if fused else None
        out[f"learn.backward.b16.{kind}.ms"] = _median_ms(
            lambda: learn.backward(params, images[:16], tab, labels[:16]))
    params = learn.build_params("lightweight", cnn=cnn,
                                rng=CounterRng(1, "init", "lightweight"))
    out["learn.forward.b128.ms"] = _median_ms(
        lambda: learn.forward(params, images))
    return out
