"""Tests for the resilient runner: retries, timeouts, crash recovery,
keep-going degradation, and checkpoint/resume."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import (ExperimentError, ExperimentTimeoutError,
                          HbmSimError, UnknownExperimentError)
from repro.experiments import registry, runner
from repro.experiments.__main__ import main
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import backoff_delay, run_resilient

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool path requires the fork start method")

MARKER_ENV = "HBMSIM_TEST_MARKER"


def _result(experiment_id: str) -> ExperimentResult:
    return ExperimentResult(experiment_id=experiment_id,
                            title=experiment_id, text=f"ran {experiment_id}")


# Chaos experiments must live at module level so fork workers inherit
# them through the monkeypatched registry.
def _chaos_ok(scale: float) -> ExperimentResult:
    return _result("chaos-ok")


def _chaos_ok2(scale: float) -> ExperimentResult:
    return _result("chaos-ok2")


def _chaos_bad(scale: float) -> ExperimentResult:
    raise RuntimeError("injected failure")


def _chaos_flaky(scale: float) -> ExperimentResult:
    """Fail until the marker file exists, creating it on the way out."""
    marker = Path(os.environ[MARKER_ENV])
    if not marker.exists():
        marker.write_text("seen")
        raise RuntimeError("flaky: first attempt")
    return _result("chaos-flaky")


def _chaos_crash(scale: float) -> ExperimentResult:
    """Kill the worker process outright on the first attempt."""
    marker = Path(os.environ[MARKER_ENV])
    if not marker.exists():
        marker.write_text("seen")
        os._exit(97)
    return _result("chaos-crash")


def _chaos_sleep(scale: float) -> ExperimentResult:
    import time
    time.sleep(30.0)
    return _result("chaos-sleep")


@pytest.fixture()
def chaos_registry(monkeypatch, tmp_path):
    for name, fn in [("chaos-ok", _chaos_ok), ("chaos-ok2", _chaos_ok2),
                     ("chaos-bad", _chaos_bad),
                     ("chaos-flaky", _chaos_flaky),
                     ("chaos-crash", _chaos_crash),
                     ("chaos-sleep", _chaos_sleep)]:
        monkeypatch.setitem(registry.EXPERIMENTS, name, fn)
    monkeypatch.setenv(MARKER_ENV, str(tmp_path / "marker"))
    return tmp_path


class TestInlinePath:
    def test_keep_going_returns_partial_results(self, chaos_registry):
        records = run_resilient(["chaos-ok", "chaos-bad", "chaos-ok2"],
                                keep_going=True)
        assert [r.status for r in records] == ["ok", "failed", "ok"]
        assert records[0].result.text == "ran chaos-ok"
        assert records[1].result is None
        assert "RuntimeError" in records[1].error
        assert "injected failure" in records[1].error
        assert records[1].attempts == 1

    def test_fail_fast_raises_experiment_error(self, chaos_registry):
        with pytest.raises(ExperimentError) as excinfo:
            run_resilient(["chaos-ok", "chaos-bad"])
        assert excinfo.value.experiment_id == "chaos-bad"
        assert isinstance(excinfo.value, HbmSimError)

    def test_retry_recovers_flaky_experiment(self, chaos_registry):
        records = run_resilient(["chaos-flaky"], retries=2,
                                retry_delay=0.01)
        assert records[0].status == "retried"
        assert records[0].attempts == 2
        assert records[0].result.text == "ran chaos-flaky"

    def test_retries_exhausted_keeps_failure(self, chaos_registry):
        records = run_resilient(["chaos-bad"], retries=2,
                                retry_delay=0.01, keep_going=True)
        assert records[0].status == "failed"
        assert records[0].attempts == 3

    def test_unknown_id_rejected_before_running(self, chaos_registry):
        with pytest.raises(UnknownExperimentError):
            run_resilient(["chaos-ok", "no-such-exp"])

    def test_argument_validation(self, chaos_registry):
        with pytest.raises(ValueError):
            run_resilient(["chaos-ok"], retries=-1)
        with pytest.raises(ValueError):
            run_resilient(["chaos-ok"], timeout=0)
        with pytest.raises(HbmSimError):
            run_resilient(["chaos-ok"], resume=True)

    def test_backoff_is_deterministic_and_exponential(self):
        first = backoff_delay("fig05", 1, base=0.25)
        again = backoff_delay("fig05", 1, base=0.25)
        second = backoff_delay("fig05", 2, base=0.25)
        assert first == again
        assert 0.25 <= first <= 0.375
        assert 0.5 <= second <= 0.75
        assert backoff_delay("fig07", 1, base=0.25) != first


@needs_fork
class TestPoolPath:
    def test_worker_crash_is_retried(self, chaos_registry):
        records = run_resilient(
            ["chaos-ok", "chaos-crash", "chaos-ok2"],
            jobs=2, retries=1, retry_delay=0.01, keep_going=True)
        assert [r.experiment_id for r in records] \
            == ["chaos-ok", "chaos-crash", "chaos-ok2"]
        by_id = {r.experiment_id: r for r in records}
        assert by_id["chaos-crash"].status == "retried"
        assert by_id["chaos-crash"].attempts == 2
        # Survivors are unaffected by the crashed sibling.
        assert by_id["chaos-ok"].status == "ok"
        assert by_id["chaos-ok2"].status == "ok"

    def test_worker_crash_without_retry_fails(self, chaos_registry):
        records = run_resilient(["chaos-crash"], jobs=1, timeout=30.0,
                                keep_going=True)
        assert records[0].status == "failed"
        assert "worker" in records[0].error.lower()

    def test_timeout_kills_hung_experiment(self, chaos_registry):
        records = run_resilient(["chaos-sleep", "chaos-ok"], jobs=2,
                                timeout=1.0, keep_going=True)
        by_id = {r.experiment_id: r for r in records}
        assert by_id["chaos-sleep"].status == "timeout"
        assert "timed out" in by_id["chaos-sleep"].error.lower()
        assert by_id["chaos-ok"].status == "ok"

    def test_timeout_fail_fast_raises(self, chaos_registry):
        with pytest.raises(ExperimentTimeoutError):
            run_resilient(["chaos-sleep"], jobs=1, timeout=0.5)


class TestCheckpointResume:
    def test_resume_reruns_only_failures(self, chaos_registry, tmp_path):
        run_dir = tmp_path / "run"
        first = run_resilient(["chaos-ok", "chaos-bad"], keep_going=True,
                              run_dir=run_dir)
        assert [r.status for r in first] == ["ok", "failed"]
        # "Fix" the failure, then resume: the survivor must come back
        # from its checkpoint without re-executing.
        registry.EXPERIMENTS["chaos-bad"] = _chaos_ok
        second = run_resilient(["chaos-ok", "chaos-bad"], keep_going=True,
                               run_dir=run_dir, resume=True)
        assert [r.status for r in second] == ["cached", "ok"]
        assert second[0].result.text == "ran chaos-ok"
        assert (run_dir / "records.json").exists()

    def test_resume_requires_matching_manifest(self, chaos_registry,
                                               tmp_path):
        run_dir = tmp_path / "run"
        run_resilient(["chaos-ok"], scale=0.5, keep_going=True,
                      run_dir=run_dir)
        with pytest.raises(HbmSimError):
            run_resilient(["chaos-ok"], scale=1.0, keep_going=True,
                          run_dir=run_dir, resume=True)

    def test_fresh_run_clears_stale_checkpoints(self, chaos_registry,
                                                tmp_path):
        run_dir = tmp_path / "run"
        run_resilient(["chaos-ok"], keep_going=True, run_dir=run_dir)
        # Without --resume, the same run-dir starts from scratch.
        records = run_resilient(["chaos-ok"], keep_going=True,
                                run_dir=run_dir)
        assert records[0].status == "ok"


class TestDeterministicSequence:
    def test_identical_chaos_runs_identical_records(self, chaos_registry,
                                                    tmp_path, monkeypatch):
        sequences = []
        for attempt in ("a", "b"):
            monkeypatch.setenv(MARKER_ENV,
                               str(tmp_path / f"marker-{attempt}"))
            records = run_resilient(
                ["chaos-ok", "chaos-flaky", "chaos-bad", "chaos-ok2"],
                retries=1, retry_delay=0.01, keep_going=True)
            sequences.append([(r.experiment_id, r.status, r.attempts)
                              for r in records])
        assert sequences[0] == sequences[1]
        assert sequences[0] == [
            ("chaos-ok", "ok", 1), ("chaos-flaky", "retried", 2),
            ("chaos-bad", "failed", 2), ("chaos-ok2", "ok", 1)]


class TestCliExitCodes:
    def test_unknown_id_suggests_and_exits_2(self, capsys):
        code = main(["fig9"])
        captured = capsys.readouterr()
        assert code == 2
        assert "did you mean" in captured.err
        assert "fig09" in captured.err

    def test_keep_going_partial_exit_1(self, chaos_registry, capsys):
        code = main(["chaos-ok", "chaos-bad", "--keep-going"])
        captured = capsys.readouterr()
        assert code == 1
        assert "ran chaos-ok" in captured.out
        assert "FAILED" in captured.out
        assert "RuntimeError" in captured.err
        assert "1 failed" in captured.err

    def test_fail_fast_exit_1(self, chaos_registry, capsys):
        code = main(["chaos-bad"])
        captured = capsys.readouterr()
        assert code == 1
        assert "injected failure" in captured.err

    def test_resume_flag_requires_run_dir(self, chaos_registry, capsys):
        code = main(["chaos-ok", "--resume"])
        assert code == 2


def _live_pids_mentioning(token):
    """Live (non-zombie) PIDs whose command line contains ``token``;
    forked workers keep the CLI's argv."""
    pids = []
    for proc_dir in Path("/proc").iterdir():
        if not proc_dir.name.isdigit():
            continue
        try:
            cmdline = (proc_dir / "cmdline").read_bytes()
            state = (proc_dir / "stat").read_text().rsplit(")", 1)[1]
        except OSError:
            continue
        if token.encode() in cmdline and state.split()[0] != "Z":
            pids.append(int(proc_dir.name))
    return pids


@needs_fork
@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="finds worker processes through /proc")
def test_sigkilled_cli_leaves_no_workers(tmp_path):
    """Workers of a SIGKILL'd ``-j 2`` run exit on their own, the one
    stuck in a hung experiment included."""
    run_dir = tmp_path / "orphan-run"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(registry.__file__).parents[2])
    env["HBMSIM_FAULTS"] = json.dumps(
        {"seed": 1, "stall_experiments": {"table1": 600}})
    cli = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "table2", "table1",
         "-j", "2", "--run-dir", str(run_dir)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        # table2 done means table1 holds a worker in its 600 s stall.
        done = run_dir / "results" / "0000-table2.pkl"
        deadline = time.monotonic() + 120.0
        while not done.exists() and time.monotonic() < deadline:
            assert cli.poll() is None, "CLI exited early"
            time.sleep(0.1)
        assert done.exists(), "table2 never finished"
        workers = [pid for pid in _live_pids_mentioning(str(run_dir))
                   if pid != cli.pid]
        assert workers
        cli.send_signal(signal.SIGKILL)
        cli.wait(timeout=30)
        deadline = time.monotonic() + 3 * runner._ORPHAN_POLL_S
        while time.monotonic() < deadline and \
                set(workers) & set(_live_pids_mentioning(str(run_dir))):
            time.sleep(0.1)
        assert not set(workers) & set(_live_pids_mentioning(str(run_dir)))
    finally:
        cli.kill()
        cli.wait(timeout=30)
        for pid in set(workers) & set(_live_pids_mentioning(str(run_dir))):
            os.kill(pid, signal.SIGKILL)
