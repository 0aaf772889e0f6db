"""Desk-run benchmark for strokepred.

    python3 deskbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``).  Workloads: cohort-render, desk-run, explain-select (see
README.md).  With ``--trace 0`` the run sets up several times (median
``setup_s``), then repeats rounds of the workload's operations for ``S``
seconds of timed work (median ``wall_s``) and reports ``peak_rss_mb``.
With ``--trace 1`` it sets up once with every layer wrapped, runs untraced
rounds for ``S`` seconds, then one wrapped round, and reports the per-layer
metrics instead.  Outputs are checked
outside every timed phase; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread: the load comes from this one process on a 2-CPU machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK_ROOT = HERE.parent / ".deskbench_work"


class Tally:
    """Operations attempted, failed (raised, or output failed a check), and
    whether every output that was checked passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add(self, problems: list[str], raised: bool = False) -> None:
        self.attempted += 1
        if problems or raised:
            self.failed += 1
            for line in problems[:5]:
                print(f"  FAILED: {line}", file=sys.stderr)
        if problems and not raised:
            self.correct = False


def _raised(tally: Tally, name: str, exc: Exception) -> None:
    print(f"  {name} raised:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)
    tally.add([f"{name}: {exc}"], raised=True)


def checked(tally: Tally, name: str, check) -> None:
    """Count one operation by its check; a check that raises counts the
    operation as failed, like an operation that raises."""
    try:
        problems = check()
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted
        _raised(tally, name, exc)
    else:
        tally.add(problems)


def timed_setup(wl, work: Path, tally: Tally, tracer=None) -> tuple[object, float]:
    """One set-up, counted as one operation; the state is None if it raised."""
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    try:
        with tracer or nullcontext():
            state = wl.setup(work)
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted
        elapsed = time.perf_counter() - t0
        _raised(tally, "set-up", exc)
        return None, elapsed
    elapsed = time.perf_counter() - t0
    checked(tally, "set-up", partial(wl.settle, state))
    return state, elapsed


def timed_round(wl, state, out: Path, tally: Tally, tracer=None) -> float:
    """One round of operations; only the operations are timed, then each
    result is checked."""
    out.mkdir(parents=True)
    ops = wl.operations(state, out)
    results = []
    elapsed = 0.0
    for name, op in ops:
        t0 = time.perf_counter()
        try:
            with tracer or nullcontext():
                results.append((name, op(), None))
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            results.append((name, None, exc))
        elapsed += time.perf_counter() - t0
    for name, result, exc in results:
        if exc is not None:
            _raised(tally, name, exc)
        else:
            checked(tally, name, partial(wl.check, state, out, name, result))
    _remove(out)
    return elapsed


def _remove(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def run_rounds(wl, state, work: Path, tally: Tally, seconds: float) -> list[float]:
    """Whole rounds until ``seconds`` of timed work; at least one."""
    walls = []
    while not walls or sum(walls) < seconds:
        walls.append(timed_round(wl, state, work / f"round-{len(walls)}", tally))
    return walls


def run_final_checks(wl, state, work: Path, tally: Tally) -> None:
    for name, check in wl.final_checks(state, work):
        checked(tally, name, check)


def measure(wl, work: Path, seconds: float, tally: Tally) -> dict:
    """Untraced run.  If the last set-up raised there are no rounds, and the
    result has no ``wall_s``."""
    setup_times = []
    state = None
    for i in range(wl.SETUPS):
        if i:
            _remove(work / f"setup-{i - 1}")
        state, elapsed = timed_setup(wl, work / f"setup-{i}", tally)
        setup_times.append(elapsed)
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    if state is not None:
        walls = run_rounds(wl, state, work, tally, seconds)
        run_final_checks(wl, state, work, tally)
        print(f"{len(walls)} rounds {[round(w, 3) for w in walls]}")
        metrics = {"wall_s": (statistics.median(walls), "s"), **metrics}
    print(f"{len(setup_times)} set-ups {[round(s, 3) for s in setup_times]}")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    return metrics


def trace(wl, work: Path, seconds: float, tally: Tally) -> dict:
    """Traced run.  If the set-up raised there are no rounds, and the result
    has no ``trace.overhead_s``."""
    import layertrace

    tracer = layertrace.Tracer()
    state, _ = timed_setup(wl, work / "setup-0", tally, tracer)
    values = {}
    if state is not None:
        walls = run_rounds(wl, state, work, tally, seconds)
        traced = timed_round(wl, state, work / "traced", tally, tracer)
        run_final_checks(wl, state, work, tally)
        values["trace.overhead_s"] = traced - statistics.median(walls)
    values.update(tracer.metrics())
    values.update(layertrace.microbench())
    return {name: (values[name], unit) for name, unit in layertrace.PER_LAYER
            if name in values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="cohort-render, desk-run or explain-select")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "strokepred" / "__init__.py").is_file():
        print(f"error: no strokepred sources under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}")
    wl = workloads.make(args.workload, args.seed)
    tally = Tally()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        run = trace if args.trace else measure
        metrics = run(wl, work, args.seconds, tally)
    finally:
        _remove(work)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
