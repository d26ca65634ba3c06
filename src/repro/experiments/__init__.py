"""Per-table and per-figure experiment reproductions.

Each module exposes ``run(scale) -> ExperimentResult``; the registry maps
paper artifact ids (``table1`` .. ``fig15``) to runners.  The benchmark
suite under ``benchmarks/`` invokes these same runners.
"""

from repro.experiments.base import ExperimentResult, scaled

__all__ = ["ExperimentResult", "scaled"]
