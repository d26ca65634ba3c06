"""HC_first differential search probes: scalar oracle vs speculation.

The program fuzzer (:mod:`repro.fuzz.harness`) cross-checks the three
program engines; this module fuzzes the other differential contract the
repo ships — :func:`~repro.bender.routines.hcfirst.search_hc_first_rows`
must be bit-identical to the scalar per-victim
:func:`~repro.bender.routines.hcfirst.search_hc_first` loop under any
fault plan (speculative counter replay, PR 10).  Each case draws a
victim set, search parameters, a TRR enable and an optional fault plan,
runs both paths on fresh identically-configured devices and
cross-checks:

- per-victim results (``hc_first``, ``probes``, ``found``), in order,
- raised errors, by type and message,
- the injected fault-event log, event for event, and its digest,
- the final command counter (the speculative path must consume exactly
  the counters a scalar replay would),
- TRR sampler internals (accepted speculations mirror their activation
  windows; the sampler must land in the scalar end state).

Victim pools are tuned to the speculative path's hard cases: rows within
``2 * radius`` of each other exercise the drop-overlap demotion, edge
rows exercise the single-aggressor window shape, and tight
``max_hammers`` budgets exercise budget-exhaustion parity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.bender.host import BenderSession
from repro.bender.routines.hcfirst import (HcFirstResult, search_hc_first,
                                           search_hc_first_rows)
from repro.chips.profiles import make_chip
from repro.core.patterns import pattern_by_name
from repro.dram.geometry import RowAddress
from repro.dram.trr import TrrConfig
from repro.faults.injector import FaultyStack, wrap_device
from repro.faults.plan import FaultPlan
from repro.fuzz.generator import _rng_for

#: The chip every search case runs on (calibration is cached, so fresh
#: devices are cheap and identical).
CHIP_INDEX = 1

#: Patterns the generator draws from.
PATTERN_NAMES = ("Checkered0", "Rowstripe1")

#: Row pool: a tight cluster (overlapping windows at radius 8 — the
#: drop-demotion path), a loner, and both bank edges.
ROW_POOL = (0, 8, 100, 104, 110, 116, 5000, 16383)

#: Search-budget pool: small budgets end searches "not found" (budget
#: exhaustion parity), large ones always bisect to a flip.
MAX_HAMMER_POOL = (30_000, 120_000, 600_000)


@dataclass(frozen=True)
class SearchCase:
    """One differential HC_first-search input."""

    seed: int
    index: int
    victims: Tuple[RowAddress, ...]
    pattern: str
    start: int
    max_hammers: int
    tolerance: float
    trr_enabled: bool
    fault_plan: Optional[FaultPlan]

    @property
    def name(self) -> str:
        return f"search-{self.seed}-{self.index}"


def _search_fault_plan(rng: np.random.Generator, seed: int,
                       index: int) -> Optional[FaultPlan]:
    """A device-fault plan biased toward the speculative hard cases.

    Stalls and hangs are excluded for the same reasons as the program
    fuzzer's plans; rates run hotter than the chaos-gate plan so dirty
    windows, overlap demotions and mispredicted bases are common rather
    than rare.
    """
    if rng.random() < 0.25:
        return None
    return FaultPlan(
        seed=seed * 2_000_003 + index,
        drop_rate=float(rng.choice([0.0, 0.001, 0.01])),
        act_jitter_rate=float(rng.choice([0.0, 0.01])),
        act_jitter_ns=5.0,
        read_flip_rate=float(rng.choice([0.0, 0.005, 0.05])),
        stuck_row_rate=float(rng.choice([0.0, 0.05])),
    )


def generate_search_case(seed: int, index: int) -> SearchCase:
    """The ``index``-th search case of campaign ``seed`` (pure)."""
    # Offset the Philox counter space so search cases never reuse a
    # program case's draw stream at equal (seed, index).
    rng = _rng_for(seed, (1 << 32) + index)
    geometry = make_chip(CHIP_INDEX).geometry
    count = int(rng.integers(1, 5))
    victims: List[RowAddress] = []
    seen = set()
    for __ in range(count):
        address = RowAddress(
            int(rng.integers(0, 2)), int(rng.integers(0, 2)),
            int(rng.integers(0, 2)),
            min(ROW_POOL[int(rng.integers(0, len(ROW_POOL)))],
                geometry.rows - 1))
        key = (address.channel, address.pseudo_channel, address.bank,
               address.row)
        if key not in seen:
            seen.add(key)
            victims.append(address)
    return SearchCase(
        seed=seed, index=index, victims=tuple(victims),
        pattern=PATTERN_NAMES[int(rng.integers(0, len(PATTERN_NAMES)))],
        start=int(2 ** rng.integers(10, 13)),
        max_hammers=int(rng.choice(MAX_HAMMER_POOL)),
        tolerance=float(rng.choice([0.01, 0.03, 0.1])),
        trr_enabled=bool(rng.random() < 0.5),
        fault_plan=_search_fault_plan(rng, seed, index))


# -- execution -------------------------------------------------------------


def _fresh_session(case: SearchCase) -> BenderSession:
    chip = make_chip(CHIP_INDEX)
    device = chip.make_device(
        trr_config=TrrConfig(enabled=case.trr_enabled))
    return BenderSession(wrap_device(device, case.fault_plan),
                         mapping=chip.row_mapping())


def _trr_snapshot(session: BenderSession) -> List[Tuple]:
    device = session.device.batch_stack
    assert device is not None, "search cases run on a plain stack"
    snapshot = []
    for pc_key, engine in device._trr.items():
        for tracker in engine._trackers:
            snapshot.append((pc_key, tuple(tracker.cam),
                             dict(tracker.window_counts),
                             tracker.window_total))
    return snapshot


@dataclass
class SearchOutcome:
    """What one path (scalar oracle or batched) produced."""

    path: str
    results: List[HcFirstResult] = field(default_factory=list)
    error: Optional[Tuple[str, str]] = None
    events: List[Tuple] = field(default_factory=list)
    counter: Optional[int] = None
    trr: List[Tuple] = field(default_factory=list)


def _run_path(case: SearchCase, path: str) -> SearchOutcome:
    session = _fresh_session(case)
    pattern = pattern_by_name(case.pattern)
    outcome = SearchOutcome(path=path)
    try:
        if path == "scalar":
            outcome.results = [
                search_hc_first(session, victim, pattern,
                                start=case.start,
                                max_hammers=case.max_hammers,
                                tolerance=case.tolerance)
                for victim in case.victims]
        else:
            outcome.results = search_hc_first_rows(
                session, list(case.victims), pattern, start=case.start,
                max_hammers=case.max_hammers, tolerance=case.tolerance)
    except Exception as exc:  # noqa: BLE001 — error parity is the check
        outcome.error = (type(exc).__name__, str(exc))
    stack: Optional[FaultyStack] = session.device.injector
    if stack is not None:
        outcome.events = [(e.index, e.fault, e.command, e.detail)
                          for e in stack.events]
        outcome.counter = stack._counter
    outcome.trr = _trr_snapshot(session)
    return outcome


@dataclass
class SearchCaseResult:
    """Differential verdict for one search case."""

    case: SearchCase
    scalar: Optional[SearchOutcome] = None
    batched: Optional[SearchOutcome] = None
    divergences: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        lines = [f"{self.case.name}: {len(self.divergences)} "
                 "divergence(s)"]
        lines.extend(f"  - {text}" for text in self.divergences)
        return "\n".join(lines)


def run_search_case(case: SearchCase) -> SearchCaseResult:
    """Run both paths on fresh devices and cross-check everything."""
    result = SearchCaseResult(case=case)
    scalar = _run_path(case, "scalar")
    batched = _run_path(case, "batched")
    result.scalar, result.batched = scalar, batched
    if scalar.error != batched.error:
        result.divergences.append(
            f"error parity: scalar={scalar.error} "
            f"batched={batched.error}")
        return result
    for index, (mine, theirs) in enumerate(zip(scalar.results,
                                               batched.results)):
        for attribute in ("hc_first", "probes", "found"):
            if getattr(mine, attribute) != getattr(theirs, attribute):
                result.divergences.append(
                    f"victim[{index}] {attribute}: "
                    f"scalar={getattr(mine, attribute)} "
                    f"batched={getattr(theirs, attribute)}")
    if len(scalar.results) != len(batched.results):
        result.divergences.append(
            f"result count: scalar={len(scalar.results)} "
            f"batched={len(batched.results)}")
    if scalar.events != batched.events:
        result.divergences.append(
            f"fault events: scalar logged {len(scalar.events)}, "
            f"batched logged {len(batched.events)} (or order/payload "
            "differs)")
    if scalar.counter != batched.counter:
        result.divergences.append(
            f"command counter: scalar={scalar.counter} "
            f"batched={batched.counter}")
    if scalar.trr != batched.trr:
        result.divergences.append("TRR sampler state diverged")
    return result


def still_fails_search(case: SearchCase) -> bool:
    """Whether a (shrunk) search case still diverges."""
    return not run_search_case(case).ok


def run_search_budget(seed: int, budget: int,
                      keep_going: bool = False,
                      on_progress: Optional[
                          Callable[[int, SearchCaseResult], None]] = None
                      ) -> List[SearchCaseResult]:
    """Run ``budget`` generated search cases; return failing results."""
    failures: List[SearchCaseResult] = []
    for index in range(budget):
        case = generate_search_case(seed, index)
        result = run_search_case(case)
        if on_progress is not None:
            on_progress(index, result)
        if not result.ok:
            failures.append(result)
            if not keep_going:
                break
    return failures


# -- shrinking -------------------------------------------------------------


def search_case_variants(case: SearchCase) -> Iterator[SearchCase]:
    """All single-step reductions of a search case.

    Context first (cheapest to rule out), then victims, then budget —
    feed to :func:`repro.fuzz.shrink.shrink` as its ``variants``.
    """
    if case.fault_plan is not None:
        yield replace(case, fault_plan=None)
    if case.trr_enabled:
        yield replace(case, trr_enabled=False)
    if len(case.victims) > 1:
        for index in range(len(case.victims)):
            yield replace(case, victims=case.victims[:index]
                          + case.victims[index + 1:])
    if case.max_hammers > case.start:
        yield replace(case, max_hammers=max(case.start,
                                            case.max_hammers // 2))
    if case.tolerance < 0.1:
        yield replace(case, tolerance=min(0.1, case.tolerance * 2))
