"""ResilientPool submission/cancellation tests (satellite: the pool's
``cancel()`` must release the slot immediately by killing the worker,
not wait out a timeout)."""

import multiprocessing
import time

import pytest

from repro.errors import HbmSimError, UnknownExperimentError
from repro.experiments import registry
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ResilientPool

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool requires the fork start method")

pytestmark = needs_fork


def _pool_quick(scale: float) -> ExperimentResult:
    return ExperimentResult(experiment_id="pool-quick",
                            title="pool-quick", text="ran pool-quick")


def _pool_nap(scale: float) -> ExperimentResult:
    time.sleep(1.0)
    return ExperimentResult(experiment_id="pool-nap",
                            title="pool-nap", text="ran pool-nap")


def _pool_hang(scale: float) -> ExperimentResult:
    time.sleep(60.0)
    return ExperimentResult(experiment_id="pool-hang",
                            title="pool-hang", text="ran pool-hang")


@pytest.fixture()
def pool_registry(monkeypatch):
    monkeypatch.setitem(registry.EXPERIMENTS, "pool-quick", _pool_quick)
    monkeypatch.setitem(registry.EXPERIMENTS, "pool-nap", _pool_nap)
    monkeypatch.setitem(registry.EXPERIMENTS, "pool-hang", _pool_hang)


@pytest.fixture()
def pool(pool_registry):
    pool = ResilientPool(slots=2)
    yield pool
    pool.shutdown()


class TestSubmit:
    def test_submit_returns_a_job_the_pool_completes(self, pool):
        job = pool.submit("pool-quick")
        assert job.record.status == "pending"
        assert list(pool.completed()) == [job]
        assert job.record.status == "ok"
        assert job.record.result.text == "ran pool-quick"

    def test_submit_validates_arguments(self, pool):
        with pytest.raises(UnknownExperimentError):
            pool.submit("no-such-experiment")
        with pytest.raises(ValueError):
            pool.submit("pool-quick", retries=-1)
        with pytest.raises(ValueError):
            pool.submit("pool-quick", timeout=0)


class TestCancel:
    def test_cancel_running_releases_the_slot_immediately(self, pool):
        """The slot must be usable right away — not after pool-hang's
        60 s sleep — because cancel kills the worker process."""
        started = time.monotonic()
        hung = pool.submit("pool-hang")
        quick = pool.submit("pool-quick")
        jobs = pool.completed()
        assert next(jobs) is quick  # pool-hang now occupies a slot
        (worker,) = [w for w in pool._workers if w.job is hung]
        assert pool.cancel(hung.invocation_id)
        assert not worker.process.is_alive()
        assert hung.record.status == "cancelled"
        assert hung.record.attempts == 1
        assert hung.exception is not None
        # Both slots are free again: a second hang cannot starve a
        # quick job queued behind it.
        second = pool.submit("pool-hang")
        follow = pool.submit("pool-quick")
        assert next(jobs) is hung
        assert next(jobs) is follow
        assert follow.record.status == "ok"
        assert pool.cancel(second.invocation_id)
        assert list(jobs) == [second]
        assert time.monotonic() - started < 30.0

    def test_cancel_pending_never_occupies_a_worker(self, pool):
        hung = pool.submit("pool-hang")
        quick = pool.submit("pool-quick")
        jobs = pool.completed()
        assert next(jobs) is quick
        queued = pool.submit("pool-quick")
        assert pool.cancel(queued.invocation_id)
        assert queued.record.status == "cancelled"
        assert queued.record.attempts == 0
        # Dropping a queued job leaves the running one alone.
        (worker,) = [w for w in pool._workers if w.job is hung]
        assert worker.process.is_alive()
        assert pool.cancel(hung.invocation_id)
        assert list(jobs) == [queued, hung]

    def test_cancel_unknown_or_finished_returns_false(self, pool):
        job = pool.submit("pool-quick")
        list(pool.completed())
        assert not pool.cancel(job.invocation_id)
        assert not pool.cancel(12345)

    def test_cancel_wins_a_race_with_completion(self, pool):
        """Once cancel() returns True the record terminates
        'cancelled', even if the worker's reply was already in the
        pipe."""
        quick = pool.submit("pool-quick")
        napping = pool.submit("pool-nap")
        jobs = pool.completed()
        assert next(jobs) is quick
        time.sleep(2.0)  # pool-nap's reply is now waiting, unread
        assert pool.cancel(napping.invocation_id)
        assert list(jobs) == [napping]
        assert napping.record.status == "cancelled"
        assert napping.record.result is None


class TestShutdown:
    def test_shutdown_finalizes_unfinished_jobs(self, pool):
        hung = pool.submit("pool-hang")
        quick = pool.submit("pool-quick")
        assert next(pool.completed()) is quick
        queued = pool.submit("pool-quick")
        (worker,) = [w for w in pool._workers if w.job is hung]
        started = time.monotonic()
        pool.shutdown()
        assert time.monotonic() - started < 30.0
        assert not worker.process.is_alive()
        assert hung.record.status == "cancelled"
        assert queued.record.status == "cancelled"
        assert quick.record.status == "ok"

    def test_submit_after_shutdown_rejected(self, pool_registry):
        pool = ResilientPool(slots=1)
        pool.shutdown()
        with pytest.raises(HbmSimError):
            pool.submit("pool-quick")
        pool.shutdown()  # idempotent
