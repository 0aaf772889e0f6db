"""The runner counts every failure as a failed operation and still ends
with its JSON result."""

import json

import pytest

import run
import workloads


class Flaky(workloads.Workload):
    """Set-ups, operations and checks that raise on demand."""

    SETUPS = 2

    def __init__(self, fail: str):
        super().__init__(seed=0)
        self.fail = fail
        self.setups = 0

    def _maybe(self, where):
        if self.fail == where:
            raise RuntimeError(f"planted failure in {where}")

    def setup(self, work):
        self.setups += 1
        if self.fail == "first setup" and self.setups == 1:
            raise RuntimeError("planted failure in the first set-up")
        self._maybe("setup")
        return {}

    def settle(self, state):
        self._maybe("settle")
        return []

    def operations(self, state, out):
        return [("op", lambda: self._maybe("op"))]

    def check(self, state, out, name, result):
        self._maybe("check")
        return []

    def final_checks(self, state, work):
        return [("final", lambda: self._maybe("final") or [])]


@pytest.mark.parametrize("fail, failed", [
    (None, 0), ("first setup", 1), ("settle", 2), ("op", None),
    ("check", None), ("final", 1)])
def test_failures_are_counted(tmp_path, fail, failed):
    tally = run.Tally()
    metrics = run.measure(Flaky(fail), tmp_path / "work", 0.0, tally)
    # 2 set-ups, one round of one operation, one final check
    assert tally.attempted == 4
    assert tally.failed == (1 if failed is None else failed)
    assert tally.correct
    assert set(metrics) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_a_run_without_a_working_setup_still_reports(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(workloads, "make", lambda name, seed: Flaky("setup"))
    assert run.main(["--workload", "desk-run", "--seed", "1",
                     "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert set(result["metrics"]) == {"setup_s", "peak_rss_mb"}
    assert not (tmp_path / "work").exists()


def test_a_failed_check_is_incorrect(tmp_path):
    class Wrong(Flaky):
        def check(self, state, out, name, result):
            return ["planted wrong output"]

    tally = run.Tally()
    run.measure(Wrong(None), tmp_path / "work", 0.0, tally)
    assert (tally.attempted, tally.failed, tally.correct) == (4, 1, False)
