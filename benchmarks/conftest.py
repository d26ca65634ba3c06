"""Benchmark harness support.

Every paper table and figure has one benchmark that (a) regenerates the
artifact through the same experiment code path the tests validate,
(b) prints the rows/series for side-by-side comparison with the paper,
and (c) saves the rendered report under ``benchmarks/reports/``.

Population scale: each benchmark declares a base scale chosen so the full
suite finishes in minutes; set ``HBMSIM_SCALE`` to scale all of them
(e.g. ``HBMSIM_SCALE=20`` approaches the paper's full populations, where
a base of 0.05 reaches 1.0).
"""

import pathlib

import pytest

from repro.config import default_scale
from repro.experiments.registry import run_experiment

REPORT_DIR = pathlib.Path(__file__).parent / "reports"


@pytest.fixture
def run_artifact(benchmark):
    """Benchmark one experiment and persist its rendered report."""

    def runner(experiment_id: str, base_scale: float = 1.0):
        scale = min(1.0, base_scale * default_scale())
        result = benchmark.pedantic(
            run_experiment, args=(experiment_id, scale), iterations=1,
            rounds=1)
        REPORT_DIR.mkdir(exist_ok=True)
        report_path = REPORT_DIR / f"{experiment_id}.txt"
        report_path.write_text(result.text + "\n")
        print()
        print(result.text)
        return result

    return runner
