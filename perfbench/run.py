"""hbmsim benchmark: times the CLI from outside, traces its layers inside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-suite --seed 1 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

``--trace 0`` sets up the benchmark, then runs the workload's CLI
command as fresh processes until ``--seconds`` is spent and prints the
end-to-end metrics: medians over the runs, in seconds normalised to a
fixed host speed (``hostspeed.py``).  ``--trace 1`` runs the CLI
once, then the same workload in-process with every layer wrapped
(``trace_run.py``) and prints the per-layer metrics.  Both modes check
the outputs; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check
makes the exit status 1.  All scratch files go to ``.perfbench/`` in the
repository root.  README.md in this directory describes the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from hostspeed import HostSpeed  # noqa: E402
from trace_run import failing_cases, sha16  # noqa: E402
from workloads import SCRUBBED_ENV, WORKLOADS, Workload  # noqa: E402

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUPS = 3

#: Every run must end within 180 s; leave room to report.
DEADLINE_S = 170.0

_HEADER = re.compile(r"^=== (?P<id>\S+): (?P<rest>.*) ===$", re.M)
_OK_TAIL = re.compile(r" \(\d+\.\ds, scale [^,)]+\)$")


class BenchError(Exception):
    """The benchmark itself could not run (not a program failure)."""


@dataclass
class Sample:
    """One finished process: exit status, wall, tree CPU, tree peak RSS.

    ``speed`` scales its raw seconds to the host speed of
    ``hostspeed.NOMINAL_S``.
    """

    status: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    speed: float

    @property
    def norm_wall_s(self) -> float:
        return self.wall_s * self.speed

    @property
    def norm_cpu_s(self) -> float:
        return self.cpu_s * self.speed


class Bench:
    """Scratch space and deadline of one benchmark run."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.tmp = work / "tmp"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.host = HostSpeed()

    def env(self, cache: Path, extra: Dict[str, str]) -> Dict[str, str]:
        env = {key: value for key, value in os.environ.items()
               if key not in SCRUBBED_ENV}
        env.update(PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8",
                   TMPDIR=str(self.tmp),
                   HBMSIM_CACHE_DIR=str(cache), **extra)
        return env

    def spawn(self, args: Sequence[str], env: Dict[str, str]) -> Sample:
        """Run ``python args...`` to exit; rusage covers its whole tree."""
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            pid = os.posix_spawn(
                sys.executable, [sys.executable, *args], env,
                file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                              (os.POSIX_SPAWN_DUP2, err.fileno(), 2)],
                setpgroup=0)
            pidfd = os.pidfd_open(pid)
            try:
                ready, __, __ = select.select(
                    [pidfd], [], [], max(0.0, self.deadline - time.time()))
                wall = time.perf_counter() - start
                if not ready:
                    os.killpg(pid, signal.SIGKILL)
                __, status, usage = os.wait4(pid, 0)
            finally:
                os.close(pidfd)
                stop_group(pid)
        if not ready:
            raise BenchError(f"timed out: python {' '.join(args)}")
        return Sample(os.waitstatus_to_exitcode(status), wall,
                      usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0,
                      out_path.read_text("utf-8", errors="replace"),
                      err_path.read_text("utf-8", errors="replace"),
                      self.host.factor_after(wall))


def stop_group(pgid: int) -> None:
    """Kill whatever the finished process left running in its group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    # Members were orphaned to init; give it time to reap them.
    for __ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise BenchError(f"process group {pgid} survived SIGKILL")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# -- output checks --------------------------------------------------------


def experiment_reports(stdout: str, ids: Sequence[str]
                       ) -> Tuple[Dict[str, str], List[str]]:
    """Report sha per requested experiment, plus the ids that failed.

    A report is the text between its ``=== id: title (X.Xs, scale S)
    ===`` header and the next header; the header carries wall time, so
    it is left out of the sha.  A header without that exact tail (a
    failure, a retry or a resume note) marks the experiment failed.
    """
    headers = list(_HEADER.finditer(stdout))
    shas: Dict[str, str] = {}
    failed: List[str] = []
    for index, header in enumerate(headers):
        end = headers[index + 1].start() - 2 if index + 1 < len(headers) \
            else len(stdout) - 1
        if _OK_TAIL.search(header.group("rest")):
            shas[header.group("id")] = sha16(stdout[header.end() + 1:end])
        else:
            failed.append(header.group("id"))
    failed += [key for key in ids if key not in shas and key not in failed]
    return shas, failed


def check_run(workload: Workload, sample: Sample,
              reference: Dict[str, str]) -> Tuple[int, List[str]]:
    """Failed operations of one CLI run, and what went wrong.

    ``reference`` holds the report shas every run must reproduce; the
    first run of a workload fills in any it lacks.
    """
    if workload.ids:
        shas, failed = experiment_reports(sample.stdout, workload.ids)
    else:
        shas = {"fuzz": sha16(sample.stdout)}
        summaries = [line for line in sample.stdout.splitlines()
                     if line.startswith("ran ")]
        failing = failing_cases(sample.stdout) if len(summaries) == 2 \
            else workload.operations
        failed = [f"{failing} fuzz case(s)"] if failing else []
    count = len(failed) if workload.ids or not failed else failing
    if sample.status != 0 and not count:
        failed, count = ["the process"], 1
    problems = []
    for key, sha in shas.items():
        if reference.setdefault(key, sha) != sha:
            problems.append(f"{key} report sha {sha} != {reference[key]}")
            count += 1
    if failed:
        problems.append(f"exit {sample.status}, failed: {failed}; "
                        f"stderr tail: {sample.stderr[-400:]!r}")
    return count, problems


# -- one workload ---------------------------------------------------------


@dataclass
class Outcome:
    """What one benchmark run measured and found."""

    attempted: int
    failed: int
    problems: List[str]
    metrics: Dict[str, Tuple[float, str]]
    notes: List[str]
    #: Every sample behind the metrics, by series label.
    series: Dict[str, List[float]]


def set_up(bench: Bench) -> Tuple[Path, List[Dict[str, Any]], List[Sample]]:
    """SETUPS fresh-interpreter set-ups, each into an empty cache.

    The last cache directory stays as the warm cache of the timed runs.
    """
    probes, samples = [], []
    for index in range(SETUPS):
        cache = bench.work / f"cache-{index}"
        shutil.rmtree(cache, ignore_errors=True)
        sample = bench.spawn([str(BENCH / "setup_probe.py")],
                             bench.env(cache, {}))
        if sample.status != 0:
            raise BenchError(f"set-up failed: {sample.stderr[-800:]}")
        probes.append(json.loads(sample.stdout.splitlines()[-1]))
        samples.append(sample)
        if index + 1 < SETUPS:
            shutil.rmtree(cache)
    return cache, probes, samples


def run_workload(bench: Bench, workload: Workload, seed: int,
                 seconds: float, trace: bool) -> Outcome:
    cache, probes, setups = set_up(bench)
    env = bench.env(cache, workload.env(seed))
    reference = dict(workload.golden_shas)
    samples: List[Sample] = []
    attempted = failed = 0
    problems: List[str] = []
    start = time.perf_counter()
    while True:
        sample = bench.spawn(workload.argv(), env)
        samples.append(sample)
        bad, issues = check_run(workload, sample, reference)
        attempted += workload.operations
        failed += bad
        problems += issues
        spent = time.perf_counter() - start
        typical = spent / len(samples)
        if trace or spent + typical > seconds:
            break

    series = {"wall_s": ([s.norm_wall_s for s in samples], "s"),
              "cpu_s": ([s.norm_cpu_s for s in samples], "s"),
              "peak_rss_mb": ([s.peak_rss_mb for s in samples], "MB"),
              "setup_s": ([s.norm_wall_s for s in setups], "s")}
    measured = {"raw wall_s": ([s.wall_s for s in samples], "s"),
                "raw cpu_s": ([s.cpu_s for s in samples], "s"),
                "raw setup_s": ([s.wall_s for s in setups], "s"),
                "host kernel": (bench.host.kernels, "s")}
    kept = {label: values
            for label, (values, __) in {**series, **measured}.items()}
    notes = [
        f"environment: nproc={os.cpu_count()} "
        f"affinity={len(os.sched_getaffinity(0))} "
        f"python={probes[0]['python']} numpy={probes[0]['numpy']} "
        + " ".join(f"{key}={env[key]}" for key in sorted(env)
                   if key.startswith("HBMSIM_") or key == "PYTHONPATH"),
        f"command: python {' '.join(workload.argv())}",
        "report shas: " + " ".join(f"{key}={sha}"
                                   for key, sha in sorted(reference.items())),
    ]
    for label, (values, unit) in {**series, **measured}.items():
        q1, median, q3 = quartiles(values)
        notes.append(f"{label}: {median:.4f} {unit} (median of "
                     f"{len(values)}; quartiles {q1:.4f} .. {q3:.4f})")
    if not trace:
        metrics = {label: (statistics.median(values), unit)
                   for label, (values, unit) in series.items()}
        return Outcome(attempted, failed, problems, metrics, notes, kept)

    result_path = bench.work / "trace-result.json"
    spans_path = bench.work / f"spans-{workload.name}-seed{seed}.json"
    traced = bench.spawn([str(BENCH / "trace_run.py"), workload.name,
                          str(result_path), str(spans_path)], env)
    if traced.status != 0:
        raise BenchError(f"traced run failed: {traced.stderr[-1500:]}")
    result = json.loads(result_path.read_text())
    attempted += workload.operations
    failed += result["failed_ops"]
    problems += result["errors"]
    for key, sha in result["shas"].items():
        if reference.get(key) != sha:
            failed += 1
            problems.append(f"traced {key} report sha {sha} != untraced "
                            f"{reference.get(key)}")
    if result["unfired"]:
        problems.append(f"wrappers that never fired on {workload.name}: "
                        f"{result['unfired']}")
    if result.get("claims_deviating"):
        problems.append(f"scorecard claims that passed at the baseline now "
                        f"deviate: {result['claims_deviating']}")
    values = dict(result["metrics"])
    values["startup.import_s"] = statistics.median(
        probe["import_s"] for probe in probes)
    values["chips.calibrate.s"] = statistics.median(
        probe["calibrate_s"] for probe in probes)
    traced_wall = traced.wall_s - result["tail_s"]
    values["trace.overhead_s"] = \
        traced_wall - statistics.median(kept["raw wall_s"])
    values["trace.unattributed_s"] = traced_wall - result["layers_self_s"]
    notes.append(f"traced: wall {traced_wall:.4f} s, {result['spans']} "
                 f"spans -> {spans_path.relative_to(ROOT)}; claims_passed "
                 f"{values['claims_passed']}")
    metrics = {key: (value, _unit(key)) for key, value in values.items()}
    return Outcome(attempted, failed, problems, metrics, notes, kept)


def _unit(metric: str) -> str:
    if metric.endswith(".calls") or metric in ("faults.windows",
                                               "claims_passed"):
        return "count"
    if metric.endswith(("_ratio", "_fraction", "_efficiency")):
        return "ratio"
    return "s"


# -- command line ---------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Benchmark hbmsim's CLI workloads end to end and by "
                    "layer.")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="time budget of the untraced runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}"
    bench = Bench(work, time.time() + DEADLINE_S)
    try:
        outcome = run_workload(bench, WORKLOADS[args.workload], args.seed,
                               args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args.workload, outcome, args.seed, args.trace, work)
    correct = not outcome.problems and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in outcome.metrics.items()}}))
    return 0 if correct else 1


def report(name: str, outcome: Outcome, seed: int, trace: int,
           work: Path) -> None:
    """Print the human-readable summary and keep a JSON record of it."""
    for note in outcome.notes:
        print(f"[{name}] {note}")
    for problem in outcome.problems:
        print(f"[{name}] CHECK FAILED: {problem}")
    print(f"[{name}] failed_frac: {outcome.failed / outcome.attempted:.4f} "
          f"({outcome.failed}/{outcome.attempted} operations)")
    for key, (value, unit) in outcome.metrics.items():
        print(f"[{name}] {key} = {value:.6g} {unit}")
    record = {"workload": name, "seed": seed, "trace": trace,
              "notes": outcome.notes, "problems": outcome.problems,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": outcome.metrics, "series": outcome.series}
    (work / f"record-trace{trace}.json").write_text(json.dumps(record,
                                                               indent=1))


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced; one summary table."""
    rows, worst = [], 0
    for name, workload in WORKLOADS.items():
        work = ROOT / ".perfbench" / f"{name}-seed{seed}"
        row: Dict[str, Any] = {"workload": name}
        for trace in (0, 1):
            bench = Bench(work, time.time() + DEADLINE_S)
            try:
                outcome = run_workload(bench, workload, seed, seconds,
                                       bool(trace))
            except BenchError as exc:
                print(f"[{name}] error: {exc}", file=sys.stderr)
                worst = 2
                break
            report(name, outcome, seed, trace, work)
            if outcome.problems or outcome.failed:
                worst = max(worst, 1)
            if trace:
                row["claims_passed"] = outcome.metrics["claims_passed"][0]
            else:
                row.update({key: value for key, (value, __)
                            in outcome.metrics.items()},
                           failed_frac=outcome.failed / outcome.attempted)
        rows.append(row)
    columns = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "failed_frac",
               "claims_passed")
    print()
    print(f"{'workload':16}" + "".join(f"{key:>14}" for key in columns))
    for row in rows:
        print(f"{row['workload']:16}" + "".join(
            f"{row[key]:14.4g}" if key in row else f"{'-':>14}"
            for key in columns))
    print(json.dumps({"correct": worst == 0, "workloads": rows}))
    return worst


if __name__ == "__main__":
    sys.exit(main())
