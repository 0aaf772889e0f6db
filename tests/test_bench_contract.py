"""The benchmark's hold on the program: every function ``deskbench`` traces
still exists, every parameter its counters read is still there, a
synthesized cohort passes the benchmark's independent recomputation, and
the benchmark's own tests pass.

Tier-1 does not collect ``deskbench/tests``, so this guard lives here.  It
loads ``deskbench/layertrace.py`` and ``deskbench/checks.py`` by path and
checks them against the installed ``strokepred`` package without running
any workload, then runs ``deskbench/tests`` in a subprocess (about 3 s), so
that a change that breaks a pin of the benchmark (a constructor its checks
call, a call shape it patches) fails here too.
"""

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from strokepred.cli import main
from strokepred.synthcohort import default_truth

ROOT = Path(__file__).resolve().parents[1]


def _deskbench_module(stem: str):
    name = f"deskbench_{stem}"
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "deskbench" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses resolve their module here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


_TRACE = _deskbench_module("layertrace")
LAYERS = _TRACE.LAYERS

# parameters each counted function's counter reads from its bound arguments
# (gen_perturbations' counter reads only the length of its result)
COUNTED_PARAMS = {
    ("learn", "forward"): ("images", "tabular"),
    ("learn", "backward"): ("images", "tabular"),
    ("core", "read_volume"): ("path",),
    ("core", "write_volume"): ("path",),
    ("synthcohort", "gen_subject"): ("config", "subject_seed"),
    ("explain", "gen_perturbations"): (),
}


def test_every_counter_is_covered_here():
    assert set(_TRACE.COUNTERS) == {f"{layer}.{name}"
                                    for layer, name in COUNTED_PARAMS}


@pytest.mark.parametrize("layer,name", [(layer, name)
                                        for layer, names in LAYERS.items()
                                        for name in names])
def test_every_traced_layer_is_a_program_callable(layer, name):
    module = importlib.import_module(f"strokepred.{layer}")
    assert callable(getattr(module, name, None)), f"strokepred.{layer}.{name}"


@pytest.mark.parametrize("key,params", sorted(COUNTED_PARAMS.items()))
def test_counted_functions_keep_the_parameters_their_counters_read(key, params):
    layer, name = key
    assert name in LAYERS[layer]
    fn = getattr(importlib.import_module(f"strokepred.{layer}"), name)
    have = inspect.signature(fn).parameters
    missing = [p for p in params if p not in have]
    assert missing == [], f"strokepred.{layer}.{name} lost {missing}"


def test_a_synthesized_cohort_passes_the_benchmarks_recomputation(tmp_path):
    # odd, non-cubic dims and causal ROIs other than the default 1, 2, 3
    cohort = {"seed": 471, "n_subjects": 30, "dims": [33, 28, 25],
              "severity_thresholds": [0.4, 0.2, 0.05]}
    truth = {**asdict(default_truth()), "causal_rois": [2, 5, 7]}
    config = tmp_path / "cohort.json"
    config.write_text(json.dumps({"cohort": cohort, "truth": truth}))
    assert main(["synth", "--out", str(tmp_path / "c"),
                 "--config", str(config)]) == 0
    checks = _deskbench_module("checks")
    assert checks.check_cohort(tmp_path / "c", cohort, truth) == []


def test_the_benchmarks_own_tests_pass():
    # deskbench/tests/conftest.py puts this tree's src/ first on sys.path
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "deskbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
