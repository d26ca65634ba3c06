"""Common experiment result type and scaling helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass
class ExperimentResult:
    """One reproduced table or figure."""

    experiment_id: str
    title: str
    #: Rendered plain-text report (the rows/series the paper shows).
    text: str
    #: Raw measured numbers, keyed per series.
    data: Dict[str, Any] = field(default_factory=dict)
    #: Headline values from the paper for side-by-side comparison.
    paper_reference: Dict[str, Any] = field(default_factory=dict)
    #: Wall seconds by phase ("calibrate" / "execute" / "report"),
    #: filled by :func:`repro.experiments.registry.run_experiment` from
    #: the :mod:`repro.perf` collection.  Empty for results constructed
    #: outside the registry (and for checkpoints from older runs).
    phases: Dict[str, float] = field(default_factory=dict)

    def __str__(self) -> str:
        return self.text


def scaled(count: int, scale: float, minimum: int = 8) -> int:
    """Scale a population size, clamped to a useful minimum."""
    if scale <= 0:
        raise ValueError("scale must be positive")
    return max(minimum, int(round(count * scale)))
