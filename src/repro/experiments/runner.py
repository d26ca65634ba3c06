"""Resilient experiment runner: timeouts, retries, crash recovery,
checkpoint/resume.

The paper's multi-hour sweeps on real FPGA platforms survive board
hangs and host crashes because the harness around them does.  This
module is that harness for the simulated experiments:

- **Per-experiment timeouts** — a hung experiment (e.g. an injected
  platform stall) is killed, not waited on, and its worker respawned.
- **Bounded retries** — failed attempts retry with exponential backoff
  plus a *deterministic* jitter derived from ``(experiment id,
  attempt)``, so two identical chaos runs produce the identical retry
  schedule.
- **Worker-crash recovery** — a worker process dying mid-experiment
  (the ``BrokenProcessPool`` failure mode of a shared pool) only fails
  that experiment's attempt: the pool respawns the worker and the
  surviving experiments keep their results.
- **Graceful degradation** — ``keep_going=True`` returns partial
  results plus one structured :class:`RunRecord` per requested
  invocation (status ``ok``/``retried``/``timeout``/``failed``/
  ``cached`` with the captured traceback); otherwise the first
  exhausted experiment raises an
  :class:`~repro.errors.ExperimentError` subclass carrying the same
  information across the process boundary.
- **Checkpoint/resume** — with ``run_dir`` every completed
  :class:`~repro.experiments.base.ExperimentResult` is persisted
  atomically; ``resume=True`` re-runs only the invocations without a
  persisted result, so an interrupted sweep restarts where it stopped.

Timeout enforcement requires the ability to *kill* a running
experiment, which ``concurrent.futures`` cannot do, so the pool here is
a small dedicated one: one pipe-connected worker process per slot,
respawned on crash or timeout.  Workers apply any active fault plan
(:mod:`repro.faults`) — both the worker-level chaos knobs and, through
the bender interpreter, the device-level ones.

The pool is :class:`ResilientPool`, driven by the calling thread:
``submit`` queues an invocation, :meth:`ResilientPool.completed` runs
the scheduler and yields each invocation once it is terminal, and
``cancel`` kills the worker running an invocation and frees its slot at
once — how a failed shard stops its siblings.
"""

from __future__ import annotations

import ctypes
import json
import multiprocessing
import os
import pickle
import signal
import tempfile
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.dram.seeding import hash_pattern, uniform_for
from repro.errors import (ExperimentError, ExperimentTimeoutError,
                          HbmSimError, WorkerCrashError)
from repro.experiments.base import ExperimentResult

#: Default base delay (seconds) for the exponential retry backoff.
DEFAULT_RETRY_DELAY = 0.25

#: How often an idle worker checks whether its pool process is gone
#: (workers cannot rely on pipe EOF: sibling forks inherit the parent
#: ends, so a SIGKILL'd pool leaves the pipe open).
_ORPHAN_POLL_S = 2.0

#: ``prctl`` option: signal to deliver when the parent process dies.
_PR_SET_PDEATHSIG = 1

#: Checkpoint schema version (bump on layout changes).
_RUN_DIR_SCHEMA = 1

#: Namespace tag for the deterministic backoff jitter.
_TAG_BACKOFF = 0xBACC0FF


@dataclass
class RunRecord:
    """Outcome of one requested experiment invocation.

    One record per *invocation* (duplicate ids get one record each, in
    request order), whatever happened to it.
    """

    experiment_id: str
    #: Position in the requested id list (stable across retries).
    index: int
    #: "ok" | "retried" | "timeout" | "failed" | "cached" | "cancelled"
    status: str = "pending"
    #: Wall seconds of the successful attempt (sum of all attempts for
    #: failures); 0.0 for cached results.
    elapsed: float = 0.0
    attempts: int = 0
    #: Captured traceback (or summary) of the last failed attempt.
    error: Optional[str] = None
    result: Optional[ExperimentResult] = None

    @property
    def succeeded(self) -> bool:
        return self.status in ("ok", "retried", "cached")

    def summary(self) -> Dict[str, Any]:
        """JSON-serializable view (no result payload)."""
        return {
            "experiment_id": self.experiment_id,
            "index": self.index,
            "status": self.status,
            "elapsed": round(self.elapsed, 4),
            "attempts": self.attempts,
            "error": self.error,
        }


def backoff_delay(experiment_id: str, attempt: int,
                  base: float = DEFAULT_RETRY_DELAY) -> float:
    """Exponential backoff with deterministic jitter.

    ``base * 2**(attempt-1) * (1 + u/2)`` where ``u`` derives from the
    experiment id and attempt number — no wall-clock or global RNG, so
    a re-run reproduces the exact schedule.
    """
    if base <= 0:
        return 0.0
    u = uniform_for(_TAG_BACKOFF, hash_pattern(experiment_id), attempt)
    return base * (2.0 ** max(0, attempt - 1)) * (1.0 + 0.5 * u)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _worker_main(conn) -> None:
    """Worker loop: receive (id, scale, attempt, shard), reply outcome.

    Replies ``("ok", elapsed, result)`` or ``("error", elapsed,
    payload)`` where payload carries the exception identity as strings
    (the exception object itself may not pickle).  Exits on ``None``, a
    closed pipe, or orphaning.

    The orphan check matters because sibling workers forked later
    inherit this worker's parent-side pipe end, so a SIGKILL'd parent
    does not reliably EOF the pipe; without the ppid poll an idle worker
    would block in ``recv`` forever, leaking a process per killed run.
    A worker busy in a hung experiment never polls, so on Linux it also
    asks the kernel to kill it when its parent dies.
    """
    from repro import faults
    from repro.experiments import registry

    parent_pid = os.getppid()
    _die_with_parent(parent_pid)
    while True:
        try:
            while not conn.poll(_ORPHAN_POLL_S):
                if os.getppid() != parent_pid:
                    return  # parent died without a shutdown
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        experiment_id, scale, attempt, shard = task
        start = time.perf_counter()
        try:
            faults.apply_worker_faults(faults.active_plan(),
                                       experiment_id, attempt)
            result = registry.run_experiment(experiment_id, scale,
                                             shard=shard)
            conn.send(("ok", time.perf_counter() - start, result))
        except BaseException as exc:  # noqa: BLE001 — must cross the pipe
            payload = {
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            }
            try:
                conn.send(("error", time.perf_counter() - start, payload))
            except (OSError, ValueError):
                return


def _die_with_parent(parent_pid: int) -> None:
    """SIGKILL this process when its parent dies (Linux; no-op elsewhere)."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        return
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        return  # pragma: no cover - the idle-worker ppid poll remains
    if os.getppid() != parent_pid:  # the parent died before prctl
        os._exit(1)


def _fork_context():
    """Fork when available (workers inherit registry monkeypatches and
    installed fault plans); fall back to the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class _Worker:
    """One pipe-connected worker process (respawnable pool slot)."""

    def __init__(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        self.process = ctx.Process(target=_worker_main,
                                   args=(child_conn,), daemon=True)
        self.process.start()
        child_conn.close()
        self.job: Optional["PoolJob"] = None
        self.deadline: Optional[float] = None

    def assign(self, job: "PoolJob") -> None:
        self.job = job
        self.deadline = (time.monotonic() + job.timeout
                         if job.timeout is not None else None)
        record = job.record
        self.conn.send((record.experiment_id, job.scale, record.attempts,
                        job.shard))

    def kill(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5.0)
        if self.process.is_alive():  # pragma: no cover - stuck in kernel
            self.process.kill()
            self.process.join(timeout=5.0)

    def shutdown(self) -> None:
        try:
            self.conn.send(None)
        except (OSError, BrokenPipeError):
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# Checkpoint directory
# ----------------------------------------------------------------------

class _RunDir:
    """Checkpoint layout: manifest + one pickled result per invocation."""

    def __init__(self, root: Path, ids: Sequence[str],
                 scale: float, resume: bool) -> None:
        self.root = Path(root)
        self.results = self.root / "results"
        manifest = {"schema": _RUN_DIR_SCHEMA, "ids": list(ids),
                    "scale": scale}
        existing = self._load_manifest()
        if resume:
            if existing is not None and existing != manifest:
                raise HbmSimError(
                    f"run dir {self.root} was created for a different "
                    f"sweep (ids/scale mismatch); refusing to resume")
        elif existing is not None:
            # Fresh run into an existing dir: drop stale checkpoints so
            # a later --resume cannot mix results from two sweeps.
            for stale in self.results.glob("*.pkl"):
                stale.unlink(missing_ok=True)
        self.results.mkdir(parents=True, exist_ok=True)
        self._write_json(self.root / "manifest.json", manifest)

    def _load_manifest(self) -> Optional[dict]:
        try:
            payload = json.loads(
                (self.root / "manifest.json").read_text())
        except (OSError, ValueError):
            return None
        return {"schema": payload.get("schema"),
                "ids": payload.get("ids"), "scale": payload.get("scale")}

    def _result_path(self, index: int, experiment_id: str) -> Path:
        return self.results / f"{index:04d}-{experiment_id}.pkl"

    def load(self, index: int,
             experiment_id: str) -> Optional[ExperimentResult]:
        """A previously persisted result, or None (corrupt = miss)."""
        path = self._result_path(index, experiment_id)
        try:
            with path.open("rb") as handle:
                result = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            return None
        if not isinstance(result, ExperimentResult) \
                or result.experiment_id != experiment_id:
            return None
        return result

    def store(self, index: int, result: ExperimentResult) -> None:
        """Atomically persist one completed result."""
        path = self._result_path(index, result.experiment_id)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                        prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def write_records(self, records: Sequence[RunRecord]) -> None:
        """Persist the per-invocation record summaries (records.json)."""
        self._write_json(self.root / "records.json", {
            "schema": _RUN_DIR_SCHEMA,
            "records": [record.summary() for record in records],
        })

    @staticmethod
    def _write_json(path: Path, payload: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent),
                                        prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------

def run_resilient(experiment_ids: Sequence[str], scale: float = 1.0,
                  jobs: int = 1, timeout: Optional[float] = None,
                  retries: int = 0, keep_going: bool = False,
                  retry_delay: float = DEFAULT_RETRY_DELAY,
                  run_dir: Optional[os.PathLike] = None,
                  resume: bool = False,
                  shard: Optional[str] = None) -> List[RunRecord]:
    """Run experiments under the resilience policy; one record per id.

    Records come back in request order regardless of completion order.
    With ``keep_going=False`` (the default) the first experiment that
    exhausts its attempts raises :class:`~repro.errors.ExperimentError`
    (or its timeout/crash refinement); with ``keep_going=True`` every
    invocation gets a record and partial results are returned.

    ``timeout`` (seconds) applies per attempt and requires process
    isolation, so it forces the pool path even for ``jobs=1``.

    ``shard`` (an ``"i/n"`` string) restricts every invocation to that
    slice of its sweep — the per-record results are then *partials*
    (see :mod:`repro.experiments.sharding`).  Without it, shardable
    experiments are fanned out across the pool slots automatically at
    ``jobs > 1`` and merged back transparently, so each record still
    carries the full (byte-identical) result.
    """
    from repro.experiments import registry

    ids = list(experiment_ids)
    registry.validate_ids(ids)
    if retries < 0:
        raise ValueError("retries must be non-negative")
    if timeout is not None and timeout <= 0:
        raise ValueError("timeout must be positive")
    if resume and run_dir is None:
        raise HbmSimError("--resume requires --run-dir")

    records = [RunRecord(experiment_id, index)
               for index, experiment_id in enumerate(ids)]
    checkpoint = (_RunDir(Path(run_dir), ids, scale, resume)
                  if run_dir is not None else None)

    todo: List[RunRecord] = []
    for record in records:
        if checkpoint is not None and resume:
            cached = checkpoint.load(record.index, record.experiment_id)
            if cached is not None:
                record.status = "cached"
                record.result = cached
                continue
        todo.append(record)

    try:
        if todo:
            if timeout is None and jobs <= 1:
                _run_inline(todo, scale, shard, retries, keep_going,
                            retry_delay, checkpoint)
            else:
                _run_pool(todo, scale, shard, jobs, timeout, retries,
                          keep_going, retry_delay, checkpoint)
    finally:
        if checkpoint is not None:
            checkpoint.write_records(records)
    return records


def _record_success(record: RunRecord, result: ExperimentResult,
                    checkpoint: Optional[_RunDir]) -> None:
    record.status = "ok" if record.attempts == 1 else "retried"
    record.result = result
    record.error = None
    if checkpoint is not None:
        checkpoint.store(record.index, result)


def _run_inline(todo: List[RunRecord], scale: float, shard: Optional[str],
                retries: int, keep_going: bool, retry_delay: float,
                checkpoint: Optional[_RunDir]) -> None:
    """Serial in-process execution (no timeout enforcement possible)."""
    from repro import faults
    from repro.experiments import registry

    for record in todo:
        while True:
            record.attempts += 1
            start = time.perf_counter()
            try:
                faults.apply_worker_faults(faults.active_plan(),
                                           record.experiment_id,
                                           record.attempts)
                result = registry.run_experiment(record.experiment_id,
                                                 scale, shard=shard)
            except Exception as exc:  # noqa: BLE001 — chaos boundary
                record.elapsed += time.perf_counter() - start
                record.error = traceback.format_exc()
                if record.attempts <= retries:
                    time.sleep(backoff_delay(record.experiment_id,
                                             record.attempts, retry_delay))
                    continue
                record.status = "failed"
                if not keep_going:
                    raise ExperimentError(
                        record.experiment_id, record.attempts,
                        type(exc).__name__, str(exc), record.error)
                break
            record.elapsed += time.perf_counter() - start
            _record_success(record, result, checkpoint)
            break


def _available_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def _prewarm_calibration() -> None:
    """Calibrate every chip once in the parent before forking workers.

    Forked workers inherit the parent's ``make_chip`` memo, so warming
    it here turns N-per-worker calibration-cache loads (the jobs>1
    slowdown: every worker repeated the whole chip setup) into zero.
    Best-effort: a failure here surfaces later in whichever experiment
    actually needs the chip, with its normal error handling.
    """
    try:
        from repro.chips.profiles import all_chips
        all_chips()
    except Exception:  # noqa: BLE001 — warming must never kill the run
        pass


# ----------------------------------------------------------------------
# Kill-capable worker pool, driven by the calling thread
# ----------------------------------------------------------------------

@dataclass
class PoolJob:
    """One invocation submitted to a :class:`ResilientPool`.

    ``record`` is live: the scheduler counts attempts and elapsed time
    on it as attempts run, and the job is done once the record leaves
    ``"pending"``.  Failures and cancellations also carry the matching
    typed exception in ``exception``.
    """

    invocation_id: int
    record: RunRecord
    scale: float
    shard: Optional[str]
    timeout: Optional[float]
    retries: int
    retry_delay: float
    #: Monotonic time before which the job must not be (re)assigned.
    not_before: float = 0.0
    exception: Optional[ExperimentError] = None


class ResilientPool:
    """Kill-capable worker pool; the calling thread runs its scheduler.

    ``submit`` queues an invocation.  :meth:`completed` assigns pending
    jobs to idle slots (honouring retry backoff), recovers crashed
    workers, enforces per-attempt deadlines, and yields each job once it
    is terminal; the caller may submit or cancel between yields.
    ``cancel`` acts at once: a pending job is dropped without occupying
    a slot, a running one has its worker killed and the slot respawned.
    """

    def __init__(self, slots: int = 1) -> None:
        if slots < 1:
            raise ValueError("slots must be >= 1")
        self._ctx = _fork_context()
        self._workers = [_Worker(self._ctx) for _ in range(slots)]
        self._pending: Deque[PoolJob] = deque()
        self._finished: Deque[PoolJob] = deque()
        self._next_id = 0
        self._closed = False

    # -- public API -------------------------------------------------------

    def submit(self, experiment_id: str, scale: float = 1.0, *,
               timeout: Optional[float] = None, retries: int = 0,
               retry_delay: float = DEFAULT_RETRY_DELAY,
               shard: Optional[str] = None,
               record: Optional[RunRecord] = None) -> PoolJob:
        """Queue one invocation; returns its :class:`PoolJob`.

        ``record`` lets a caller supply the (index-bearing) record the
        scheduler should fill in; by default a fresh one indexed by the
        invocation id is created.  ``shard`` is validated here, so a
        malformed one fails at submission, not in a worker.
        """
        from repro.experiments import registry
        from repro.experiments.sharding import ShardSpec

        registry.validate_ids([experiment_id])
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        ShardSpec.parse(shard)
        if self._closed:
            raise HbmSimError("pool is shut down")
        if record is None:
            record = RunRecord(experiment_id, self._next_id)
        job = PoolJob(self._next_id, record, scale, shard, timeout,
                      retries, retry_delay)
        self._next_id += 1
        self._pending.append(job)
        return job

    def cancel(self, invocation_id: int) -> bool:
        """Cancel an invocation; returns False when unknown or done.

        The record terminates with status ``"cancelled"``, even when the
        worker's reply is already waiting in the pipe.
        """
        for job in self._pending:
            if job.invocation_id == invocation_id:
                self._pending.remove(job)
                self._cancelled(job)
                return True
        for worker in self._workers:
            job = worker.job
            if job is not None and job.invocation_id == invocation_id:
                self._respawn(worker)
                self._cancelled(job)
                return True
        return False

    def completed(self) -> Iterator[PoolJob]:
        """Run the scheduler, yielding each job once it is terminal.

        Returns when no job is pending or running.  Idle slots are
        refilled before every yield, so workers never wait on the
        caller.
        """
        while True:
            self._assign()
            if self._finished:
                yield self._finished.popleft()
            elif self._pending or any(worker.job is not None
                                      for worker in self._workers):
                self._poll()
            else:
                return

    def shutdown(self) -> None:
        """Stop the workers; unfinished jobs finalize as ``"cancelled"``."""
        if self._closed:
            return
        self._closed = True
        while self._pending:
            self._cancelled(self._pending.popleft())
        for worker in self._workers:
            if worker.job is not None:
                self._cancelled(worker.job)
                worker.kill()
            else:
                worker.shutdown()

    # -- scheduler internals ----------------------------------------------

    def _cancelled(self, job: PoolJob) -> None:
        record = job.record
        record.status = "cancelled"
        record.error = record.error or "cancelled before completion"
        job.exception = ExperimentError(
            record.experiment_id, max(1, record.attempts), "Cancelled",
            "invocation cancelled before completion")
        self._finished.append(job)

    def _retry_or_fail(self, job: PoolJob, status: str, error: str,
                       exception: ExperimentError) -> None:
        record = job.record
        record.error = error
        if record.attempts <= job.retries:
            job.not_before = time.monotonic() + backoff_delay(
                record.experiment_id, record.attempts, job.retry_delay)
            self._pending.append(job)
        else:
            record.status = status
            job.exception = exception
            self._finished.append(job)

    def _respawn(self, worker: _Worker) -> None:
        worker.kill()
        self._workers[self._workers.index(worker)] = _Worker(self._ctx)

    def _assign(self) -> None:
        now = time.monotonic()
        for worker in self._workers:
            if worker.job is not None:
                continue
            job = next((job for job in self._pending
                        if job.not_before <= now), None)
            if job is None:
                return
            self._pending.remove(job)
            job.record.attempts += 1
            worker.assign(job)

    def _poll(self) -> None:
        """Wait for the earliest of a reply, a deadline, or a pending job
        leaving backoff while a slot sits idle; then process it."""
        now = time.monotonic()
        busy = [w for w in self._workers if w.job is not None]
        waits = [w.deadline - now for w in busy if w.deadline is not None]
        if self._pending and len(busy) < len(self._workers):
            waits.append(min(job.not_before for job in self._pending) - now)
        wait_for = max(0.0, min(waits)) if waits else None
        if busy:
            try:
                ready = mp_connection.wait([w.conn for w in busy],
                                           timeout=wait_for)
            except OSError:  # a conn died mid-wait; the next pass recovers
                ready = []
            for worker in busy:
                if worker.conn in ready:
                    self._handle_reply(worker)
        else:
            time.sleep(wait_for or 0.0)
        self._enforce_deadlines()

    def _handle_reply(self, worker: _Worker) -> None:
        job = worker.job
        assert job is not None
        record = job.record
        try:
            kind, elapsed, payload = worker.conn.recv()
        except (EOFError, OSError):
            # Worker died without replying: the pool's broken-process
            # failure mode.  Respawn the slot and retry just this job;
            # survivors are unaffected.
            exitcode = worker.process.exitcode
            self._respawn(worker)
            self._retry_or_fail(
                job, "failed",
                f"worker crashed (exit code {exitcode}) while "
                f"running {record.experiment_id!r}",
                WorkerCrashError(record.experiment_id, record.attempts,
                                 exitcode))
            return
        worker.job = None
        worker.deadline = None
        record.elapsed += elapsed
        if kind == "ok":
            record.status = "ok" if record.attempts == 1 else "retried"
            record.result = payload
            record.error = None
            self._finished.append(job)
        else:
            self._retry_or_fail(
                job, "failed", payload["traceback"],
                ExperimentError(record.experiment_id, record.attempts,
                                payload["type"], payload["message"],
                                payload["traceback"]))

    def _enforce_deadlines(self) -> None:
        now = time.monotonic()
        for worker in list(self._workers):
            job = worker.job
            if job is None or worker.deadline is None \
                    or worker.deadline > now:
                continue
            record = job.record
            record.elapsed += job.timeout or 0.0
            self._respawn(worker)
            self._retry_or_fail(
                job, "timeout",
                f"timed out after {job.timeout:g}s (attempt "
                f"{record.attempts})",
                ExperimentTimeoutError(record.experiment_id,
                                       record.attempts, job.timeout or 0.0))


class _ShardGroup:
    """Aggregation state of one invocation fanned out across shards."""

    def __init__(self, record: RunRecord, count: int) -> None:
        self.record = record
        self.count = count
        self.partials: List[Optional[ExperimentResult]] = [None] * count
        self.job_ids: List[int] = []
        self.done = 0
        self.elapsed = 0.0
        self.attempts = 0
        self.failed = False


def _shard_fanout(experiment_id: str, jobs: int) -> int:
    """Fan-out width for one invocation (1 = run unsharded).

    Sharding is transparent for results (the merged report is byte-
    identical) and for fault plans: every experiment's measurement
    engine is fault-deterministic per sweep unit, and worker-fault
    injection retries shards independently, so a fan-out under an
    active plan merges the same bits as an unsharded run.
    """
    if jobs <= 1:
        return 1
    from repro.experiments import registry
    units = registry.shard_units(experiment_id)
    if units is None:
        return 1
    return max(1, min(jobs, units))


def _run_pool(todo: List[RunRecord], scale: float, shard: Optional[str],
              jobs: int, timeout: Optional[float], retries: int,
              keep_going: bool, retry_delay: float,
              checkpoint: Optional[_RunDir]) -> None:
    """Kill-capable worker-pool execution with crash recovery.

    Shardable experiments (see ``registry.SHARDABLE``) fan out across
    the slots as independent shard jobs — each with the full retry/
    timeout policy — and merge back into one record once every shard
    succeeds, so ``-j N`` scales inside a single long experiment rather
    than stopping at experiment granularity.
    """
    from repro.experiments import registry

    fanouts = {
        record.index: (_shard_fanout(record.experiment_id, jobs)
                       if shard is None else 1)
        for record in todo}
    # More workers than runnable cores only adds fork and context-switch
    # cost: the pool keeps its process-isolation semantics (crash
    # recovery, timeout kills) at any slot count, so cap fan-out at the
    # CPUs the scheduler will actually grant us.
    slots = max(1, min(jobs, sum(fanouts.values()), _available_cores()))
    if slots <= 1:
        # No parallelism available: sharding would only add merge cost.
        fanouts = {index: 1 for index in fanouts}
    else:
        _prewarm_calibration()
    pool = ResilientPool(slots)
    policy: Dict[str, Any] = {"timeout": timeout, "retries": retries,
                              "retry_delay": retry_delay}
    #: shard-job invocation id -> (group, shard index).
    groups: Dict[int, Tuple[_ShardGroup, int]] = {}
    try:
        for record in todo:
            count = fanouts[record.index]
            if count <= 1:
                pool.submit(record.experiment_id, scale, shard=shard,
                            record=record, **policy)
                continue
            group = _ShardGroup(record, count)
            for shard_index in range(count):
                job = pool.submit(record.experiment_id, scale,
                                  shard=f"{shard_index}/{count}", **policy)
                groups[job.invocation_id] = (group, shard_index)
                group.job_ids.append(job.invocation_id)
        for job in pool.completed():
            entry = groups.get(job.invocation_id)
            if entry is None:
                record = job.record
                if record.succeeded:
                    if checkpoint is not None:
                        checkpoint.store(record.index, record.result)
                elif not keep_going:
                    raise job.exception
                continue
            group, shard_index = entry
            shard_record = job.record
            # The invocation's wall time is its slowest shard; its
            # attempt count the worst shard's (so "retried" surfaces).
            group.elapsed = max(group.elapsed, shard_record.elapsed)
            group.attempts = max(group.attempts, shard_record.attempts)
            if group.failed:
                continue  # sibling of an already-failed fan-out
            record = group.record
            if shard_record.succeeded:
                group.partials[shard_index] = shard_record.result
                group.done += 1
                if group.done == group.count:
                    merged = registry.merge_shard_results(
                        record.experiment_id, group.partials, scale)
                    record.elapsed = group.elapsed
                    record.attempts = max(1, group.attempts)
                    _record_success(record, merged, checkpoint)
            else:
                group.failed = True
                for invocation_id in group.job_ids:
                    if invocation_id != job.invocation_id:
                        pool.cancel(invocation_id)
                record.status = shard_record.status
                record.attempts = max(1, group.attempts)
                record.elapsed = group.elapsed
                record.error = shard_record.error
                if not keep_going:
                    raise job.exception
    finally:
        pool.shutdown()
