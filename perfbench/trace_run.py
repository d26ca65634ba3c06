"""Traced, in-process run of one workload (started by ``run.py``).

Usage: ``python perfbench/trace_run.py WORKLOAD OUT_JSON SPANS_JSON``
with ``PYTHONPATH`` naming the program's ``src`` directory and the
workload's environment already set.  Wraps every layer (``tracer.py``),
runs the workload the way its CLI would at ``-j 1`` (workers forked at
``-j 2`` inherit the wrappers but their spans die with them), and
writes the per-layer metrics, report shas and graded claims to
OUT_JSON and every span to SPANS_JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import LAYER_STEMS, Tracer  # noqa: E402
from workloads import ALL_IDS, WORKLOADS  # noqa: E402


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _runner_metrics(records: List[Any], jobs: int,
                    wall: float) -> Dict[str, float]:
    busy = sum(record.elapsed for record in records)
    return {"experiments.runner.busy_s": busy,
            "experiments.runner.wall_s": wall,
            "experiments.runner.parallel_efficiency": busy / (jobs * wall)}


def _run_experiments(workload, tracer: Tracer, out: Dict[str, Any]) -> None:
    from repro.experiments import registry, scorecard

    tracer.install()
    start = time.perf_counter()
    __, records = registry.run_timed(list(workload.ids), workload.scale,
                                     jobs=1, keep_going=True)
    out["traced_end"] = time.perf_counter()
    wall = out["traced_end"] - start
    tracer.uninstall()
    results = {record.experiment_id: record.result for record in records
               if record.succeeded}
    out["failed_ops"] = len(records) - len(results)
    out["shas"] = {key: sha16(result.text) for key, result in results.items()}
    out["metrics"].update(_runner_metrics(records, 1, wall))

    graded = {claim.claim_id:
              claim.evaluate(results[claim.experiment_id]).passed
              for claim in scorecard.CLAIMS
              if claim.experiment_id in results}
    out["metrics"]["claims_passed"] = sum(graded.values())
    if not workload.faulted:
        out["claims_deviating"] = [
            claim for claim, passed in graded.items()
            if not passed and claim not in workload.deviating_claims]

    if workload.jobs > 1:
        # Runner metrics come from a real fan-out; layer spans cannot.
        start = time.perf_counter()
        __, records = registry.run_timed(list(workload.ids), workload.scale,
                                         jobs=workload.jobs, keep_going=True)
        wall = time.perf_counter() - start
        out["metrics"].update(_runner_metrics(records, workload.jobs, wall))
        fanned = {record.experiment_id: sha16(record.result.text)
                  for record in records if record.succeeded}
        if fanned != out["shas"]:
            out["errors"].append(f"-j {workload.jobs} report shas differ "
                                 f"from -j 1: {fanned} != {out['shas']}")


def _run_fuzz(workload, tracer: Tracer, out: Dict[str, Any]) -> None:
    from repro.fuzz.__main__ import main

    tracer.install()
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(list(workload.args))
    out["traced_end"] = time.perf_counter()
    tracer.uninstall()
    text = buffer.getvalue()
    out["shas"] = {"fuzz": sha16(text)}
    out["failed_ops"] = failing_cases(text) if status == 0 \
        else workload.operations
    out["metrics"]["claims_passed"] = 0
    out["metrics"].update({"experiments.runner.busy_s": 0.0,
                           "experiments.runner.wall_s": 0.0,
                           "experiments.runner.parallel_efficiency": 0.0})


def failing_cases(text: str) -> int:
    """Failing cases reported by a fuzz campaign's summary lines."""
    failing = 0
    for line in text.splitlines():
        if line.startswith("ran "):
            failing += int(line.rsplit(",", 1)[1].split()[0])
    return failing


def main(argv: List[str]) -> int:
    name, out_path, spans_path = argv
    workload = WORKLOADS[name]
    out: Dict[str, Any] = {"errors": [], "metrics": {}}
    tracer = Tracer()
    if workload.ids:
        _run_experiments(workload, tracer, out)
    else:
        _run_fuzz(workload, tracer, out)

    calls, self_s, total_s = tracer.self_times()
    metrics = out["metrics"]
    for stem in LAYER_STEMS:
        metrics[f"{stem}.calls"] = calls.get(stem, 0)
        metrics[f"{stem}.s"] = self_s.get(stem, 0.0)
    for experiment_id in ALL_IDS:
        metrics[f"experiments.{experiment_id}.s"] = \
            total_s.get(f"experiments.{experiment_id}", 0.0)
    profiles = calls.get("chips.profile", 0)
    metrics["chips.profile.distinct_ratio"] = \
        len(tracer.profile_keys) / profiles if profiles else 0.0
    metrics["faults.windows"] = tracer.windows
    metrics["faults.dirty_fraction"] = \
        tracer.dirty_windows / tracer.windows if tracer.windows else 0.0
    out["layers_self_s"] = sum(seconds for stem, seconds in self_s.items()
                               if not stem.startswith("experiments."))
    out["unfired"] = [stem for stem in workload.loads
                      if calls.get(stem, 0) == 0]
    spans = tracer.finished()
    out["spans"] = len(spans)

    names = sorted({span[0] for span in spans})
    contexts = sorted({str(span[4]) for span in spans})
    name_index = {key: index for index, key in enumerate(names)}
    context_index = {key: index for index, key in enumerate(contexts)}
    with open(spans_path, "w") as handle:
        json.dump({"workload": name, "command": shlex.join(workload.argv()),
                   "fields": ["name", "start", "end", "parent", "context"],
                   "names": names, "contexts": contexts,
                   "spans": [[name_index[span[0]], round(span[1], 7),
                              round(span[2], 7), span[3],
                              context_index[str(span[4])]]
                             for span in spans]},
                  handle, separators=(",", ":"))
    # The traced wall time ends with the traced section, not with the
    # untraced -j N pass and the span dump that follow it.
    out["tail_s"] = time.perf_counter() - out.pop("traced_end")
    with open(out_path, "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
