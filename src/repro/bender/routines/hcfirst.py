"""HC_first / HC_nth search routines (Sections 3.1 and 5).

``search_hc_first`` finds the minimum hammer count inducing the first
bitflip with a geometric ramp followed by a binary search; each probe
re-initializes the pattern window (the device model, like real DRAM,
re-arms cells on write).  ``measure_hc_nth`` extends the search to the
hammer counts at which the 2nd..n-th bitflips appear (Section 5's study),
exploiting that bitflip count is monotone in hammer count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bender.host import BenderSession
from repro.bender.routines.hammer import double_sided_hammer
from repro.bender.routines.rowinit import initialize_window, window_rows
from repro.core import metrics
from repro.core.patterns import DataPattern
from repro.dram.batch import RowBatchProfile
from repro.dram.geometry import RowAddress
from repro.faults.injector import FaultEvent, FaultyStack

#: Upper bound on speculation passes per search.  Each pass re-chains
#: the remaining rows' counter bases from the *true* command counter, so
#: the first row of every pass is always correctly based and at least
#: one row is finalized per pass — the cap only bounds pathological
#: fault plans, past which the remainder replays scalar (correct, just
#: slower).
_MAX_SPECULATION_PASSES = 8


@dataclass(frozen=True)
class HcFirstResult:
    """Outcome of an HC_first search on one row."""

    victim: RowAddress
    pattern: str
    t_on: Optional[float]
    hc_first: Optional[int]
    probes: int

    @property
    def found(self) -> bool:
        """Whether a bitflip was induced within the search budget."""
        return self.hc_first is not None


def _flips_at(session: BenderSession, victim: RowAddress,
              pattern: DataPattern, count: int,
              t_on: Optional[float]) -> int:
    geometry = session.device.geometry
    initialize_window(session, victim, pattern)
    double_sided_hammer(session, victim, count, t_on)
    observed = session.read_physical_row(victim)
    expected = pattern.victim_row(geometry.row_bytes)
    return metrics.count_bitflips(expected, observed)


def search_hc_first(session: BenderSession,
                    victim_physical: RowAddress,
                    pattern: DataPattern,
                    t_on: Optional[float] = None,
                    start: int = 4096,
                    max_hammers: int = 1_500_000,
                    tolerance: float = 0.01) -> HcFirstResult:
    """Find the row's HC_first to within ``tolerance`` (relative).

    Geometric ramp (x2) until the first probe shows a bitflip, then binary
    search between the last clean count and the first flipping count.
    """
    if start < 1:
        raise ValueError("start must be at least 1")
    probes = 0
    low, high = 0, None
    count = start
    while count <= max_hammers:
        probes += 1
        if _flips_at(session, victim_physical, pattern, count, t_on):
            high = count
            break
        low = count
        count *= 2
    if high is None:
        return HcFirstResult(victim_physical, pattern.name, t_on, None,
                             probes)
    while high - low > max(1, int(tolerance * high)):
        mid = (low + high) // 2
        probes += 1
        if _flips_at(session, victim_physical, pattern, mid, t_on):
            high = mid
        else:
            low = mid
    return HcFirstResult(victim_physical, pattern.name, t_on, high, probes)


def _batched_search(profile: RowBatchProfile, n: int,
                    t_on: Optional[float], start: int, max_hammers: int,
                    tolerance: float, mirror: bool
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fault-free vectorized ramp + bisection over all ``n`` rows.

    Visits the exact per-row probe sequence of :func:`search_hc_first`,
    evaluated one batched :meth:`RowBatchProfile.hammer` per level.
    Returns ``(found, high, probes)``.  ``mirror=False`` keeps the TRR
    sampler untouched — the speculative path runs this as a guess pass
    whose activations must not leak into the sampler.
    """
    low = np.zeros(n, dtype=np.int64)
    high = np.zeros(n, dtype=np.int64)
    found = np.zeros(n, dtype=bool)
    probes = np.zeros(n, dtype=np.int64)
    count = np.full(n, start, dtype=np.int64)
    ramping = np.ones(n, dtype=bool)
    while True:
        active = np.flatnonzero(ramping & (count <= max_hammers))
        if active.size == 0:
            break
        flips = profile.hammer(count[active], t_on, subset=active,
                               mirror_trr=mirror).bitflips
        probes[active] += 1
        hit = flips > 0
        hit_rows = active[hit]
        high[hit_rows] = count[hit_rows]
        found[hit_rows] = True
        ramping[hit_rows] = False
        miss_rows = active[~hit]
        low[miss_rows] = count[miss_rows]
        count[miss_rows] *= 2
    while True:
        # Same stop rule as the scalar search: int() truncation included.
        slack = np.maximum(1, (tolerance * high).astype(np.int64))
        active = np.flatnonzero(found & (high - low > slack))
        if active.size == 0:
            break
        mid = (low[active] + high[active]) // 2
        flips = profile.hammer(mid, t_on, subset=active,
                               mirror_trr=mirror).bitflips
        probes[active] += 1
        hit = flips > 0
        high[active[hit]] = mid[hit]
        low[active[~hit]] = mid[~hit]
    return found, high, probes


def search_hc_first_rows(session: BenderSession,
                         victims: Sequence[RowAddress],
                         pattern: DataPattern,
                         t_on: Optional[float] = None,
                         start: int = 4096,
                         max_hammers: int = 1_500_000,
                         tolerance: float = 0.01) -> List[HcFirstResult]:
    """HC_first search over many rows, bisecting all simultaneously.

    Per-row results are identical to calling :func:`search_hc_first` on
    each victim — the ramp and bisection visit the same per-row probe
    sequence, evaluated one batched :meth:`RowBatchProfile.hammer` per
    level instead of one command sequence per probe.  Falls back to the
    scalar loop only when the session cannot batch (``HBMSIM_BATCH=0``
    or an unsupported device subclass).

    Under a device-fault plan the probe *sequence* is data-dependent
    (each bisection step issues commands only if the previous probe
    flipped), so the command counter cannot be laid out statically the
    way :meth:`BenderSession.hammer_rows` does.  The search instead
    runs **speculative replay** (:func:`_search_rows_speculative`):
    each row's probe path is laid out on its own virtual counter
    stream, evaluated breadth-first on the engine, then accepted in
    scalar visit order only where the speculated counter base matches
    the true chain — fault-dirtied or mispredicted rows replay through
    the scalar oracle.  Results, fault events and the final command
    counter stay bit-identical to the scalar loop under any plan.
    """
    victims = list(victims)
    if start < 1:
        raise ValueError("start must be at least 1")
    if not victims:
        return []
    if not session.batching_active():
        return [search_hc_first(session, victim, pattern, t_on, start,
                                max_hammers, tolerance)
                for victim in victims]
    profile = session.profile_rows(victims, pattern)
    if session.device.injector is not None:
        return _search_rows_speculative(session, profile, victims,
                                        pattern, t_on, start, max_hammers,
                                        tolerance)
    found, high, probes = _batched_search(
        profile, len(victims), t_on, start, max_hammers, tolerance,
        mirror=True)
    return [HcFirstResult(victim, pattern.name, t_on,
                          int(high[index]) if found[index] else None,
                          int(probes[index]))
            for index, victim in enumerate(victims)]


@dataclass
class _SpeculatedRow:
    """One row's probe path, speculated at an assumed counter base."""

    #: A stall/hang/drop/jitter draw hit one of the row's windows: the
    #: engine cannot express it, the row must replay scalar.
    dirty: bool = False
    probes: int = 0
    found: bool = False
    high: int = 0
    #: Per-probe hammer counts, in probe order (for TRR mirroring).
    counts: List[int] = field(default_factory=list)
    #: Read-path fault events, in probe order, at speculated counters.
    events: List[FaultEvent] = field(default_factory=list)


def _speculate_rows(session: BenderSession, profile: RowBatchProfile,
                    victims: List[RowAddress], pattern: DataPattern,
                    t_on: Optional[float], start: int, max_hammers: int,
                    tolerance: float, span: np.ndarray, bases: np.ndarray,
                    writes: np.ndarray, hammers: np.ndarray,
                    per_probe: np.ndarray) -> List[_SpeculatedRow]:
    """Speculate the probe paths of ``victims[span]`` at ``bases``.

    Runs every row's ramp + bisection state machine breadth-first — one
    batched engine evaluation per level — while walking each row's
    virtual counter stream: probe ``k`` of row ``r`` occupies counters
    ``bases[r] + k * per_probe[r] + 1 ..`` and its windows are
    classified with :meth:`FaultPlan.classify_probe_windows` before
    evaluation.  A dirtied row stops speculating (its partial state is
    discarded by the caller); clean probes apply the read-path faults of
    their speculated RD counter — which may steer the bisection exactly
    as a scalar run's corrupted read would — with events buffered
    per-row until acceptance.  Nothing here advances the device counter,
    appends to the event log, or touches the TRR sampler.
    """
    stack: FaultyStack = session.device.injector
    plan = stack.plan
    m = int(span.size)
    low = np.zeros(m, dtype=np.int64)
    high = np.zeros(m, dtype=np.int64)
    found = np.zeros(m, dtype=bool)
    probes = np.zeros(m, dtype=np.int64)
    count = np.full(m, start, dtype=np.int64)
    ramping = np.ones(m, dtype=bool)
    dirty = np.zeros(m, dtype=bool)
    done = np.zeros(m, dtype=bool)
    rows = [_SpeculatedRow() for __ in range(m)]
    logical = [session.logical_of_physical(victims[int(g)]) for g in span]
    has_stuck = np.array(
        [stack._stuck_bits_for(address) is not None for address in logical],
        dtype=bool)
    expected = pattern.victim_row(stack.geometry.row_bytes)
    while True:
        for r in np.flatnonzero(~done & ~dirty):
            if ramping[r]:
                if count[r] > max_hammers:
                    done[r] = True
            elif high[r] - low[r] <= max(1, int(tolerance * high[r])):
                done[r] = True
        active = np.flatnonzero(~done & ~dirty)
        if active.size == 0:
            break
        next_counts = np.where(ramping[active], count[active],
                               (low[active] + high[active]) // 2)
        window_bases = bases[active] + probes[active] * per_probe[active]
        window_dirty, read_indices = plan.classify_probe_windows(
            window_bases, writes[active], hammers[active])
        dirty[active[window_dirty]] = True
        clean = active[~window_dirty]
        if clean.size == 0:
            continue
        clean_counts = next_counts[~window_dirty]
        clean_reads = read_indices[~window_dirty]
        result = profile.hammer(clean_counts, t_on, subset=span[clean],
                                mirror_trr=False)
        flip_hits = plan.draw_bitflips_array(clean_reads)
        for position, r in enumerate(clean):
            flips = int(result.bitflips[position])
            if has_stuck[r] or flip_hits[position]:
                image = stack.apply_read_faults(
                    logical[r], result.images[position],
                    int(clean_reads[position]), events=rows[r].events)
                flips = metrics.count_bitflips(expected, image)
            probe_count = int(clean_counts[position])
            rows[r].counts.append(probe_count)
            probes[r] += 1
            if ramping[r]:
                if flips:
                    high[r] = probe_count
                    found[r] = True
                    ramping[r] = False
                else:
                    low[r] = probe_count
                    count[r] *= 2
            elif flips:
                high[r] = probe_count
            else:
                low[r] = probe_count
    for r in range(m):
        rows[r].dirty = bool(dirty[r])
        rows[r].probes = int(probes[r])
        rows[r].found = bool(found[r])
        rows[r].high = int(high[r])
    return rows


def _search_rows_speculative(session: BenderSession,
                             profile: RowBatchProfile,
                             victims: List[RowAddress],
                             pattern: DataPattern,
                             t_on: Optional[float], start: int,
                             max_hammers: int,
                             tolerance: float) -> List[HcFirstResult]:
    """Speculative replay: batched HC_first search under a fault plan.

    The scalar loop visits rows in order; each probe issues a statically
    shaped command window (``writes[i]`` WRs, ``hammers[i]`` HAMMERs,
    one RD), so row ``i``'s counter base is its predecessors' total
    probe-command count — known only after *their* data-dependent
    searches finish.  Speculation breaks the chain: a fault-free guess
    pass predicts per-row probe counts, bases are chained from the
    guesses, and every row's path is speculated on its own virtual
    counter stream (:func:`_speculate_rows`).  Acceptance then walks
    rows in scalar visit order: a row whose speculated base equals the
    true counter, whose windows drew no dirtying fault, and whose
    window cannot be stale-read by a later drop-hit replay is accepted
    — its counters consumed wholesale, its buffered read-fault events
    appended, its windows mirrored into the TRR sampler — while any
    other row replays through :func:`search_hc_first` (the oracle) at
    the true counter, firing its faults exactly as the scalar loop
    would.  A replay that shifts the counter off the speculated chain
    triggers re-speculation of the remaining suffix; after
    :data:`_MAX_SPECULATION_PASSES` the remainder replays scalar.
    """
    stack: FaultyStack = session.device.injector
    plan = stack.plan
    n = len(victims)
    radius = profile.radius
    writes = np.empty(n, dtype=np.int64)
    hammers = np.empty(n, dtype=np.int64)
    for i, victim in enumerate(victims):
        writes[i] = len(window_rows(session, victim, radius))
        neighbors = len(session.aggressors_of(victim))
        if neighbors == 2:
            hammers[i] = 2
        elif neighbors == 1:
            hammers[i] = 1
        else:
            raise ValueError("victim has no neighbors in the bank")
    per_probe = writes + hammers + 1
    # A dropped window-init WR in a *later* row's scalar replay reads
    # stale content, which only matches the scalar run if the earlier
    # overlapping measurement actually wrote the device — accepted
    # engine rows do not, so they must not overlap any later victim
    # when drops are possible (mirrors _hammer_rows_faulty's demotion).
    unsafe = np.zeros(n, dtype=bool)
    if plan.drop_rate:
        for i in range(n):
            for j in range(i + 1, n):
                if (victims[i].bank_key == victims[j].bank_key
                        and abs(victims[i].row - victims[j].row)
                        <= 2 * radius):
                    unsafe[i] = True
                    break
    __, __, guesses = _batched_search(profile, n, t_on, start,
                                      max_hammers, tolerance, mirror=False)
    results: List[Optional[HcFirstResult]] = [None] * n
    idx = 0
    passes = 0
    while idx < n:
        if passes >= _MAX_SPECULATION_PASSES:
            for j in range(idx, n):
                results[j] = search_hc_first(session, victims[j], pattern,
                                             t_on, start, max_hammers,
                                             tolerance)
            break
        passes += 1
        span = np.arange(idx, n, dtype=np.int64)
        bases = np.empty(span.size, dtype=np.int64)
        base = stack._counter
        for position, j in enumerate(span):
            bases[position] = base
            base += int(guesses[j]) * int(per_probe[j])
        spec = _speculate_rows(session, profile, victims, pattern, t_on,
                               start, max_hammers, tolerance, span, bases,
                               writes[span], hammers[span],
                               per_probe[span])
        for position, j in enumerate(span):
            if not spec[position].dirty:
                guesses[j] = spec[position].probes
        j = idx
        while j < n:
            position = j - idx
            if int(bases[position]) != stack._counter:
                break  # base mispredicted: re-speculate the suffix
            row = spec[position]
            if row.dirty or unsafe[j]:
                results[j] = search_hc_first(session, victims[j], pattern,
                                             t_on, start, max_hammers,
                                             tolerance)
                j += 1
                continue
            stack.advance_counter(row.probes * int(per_probe[j]))
            stack.events.extend(row.events)
            for probe_count in row.counts:
                profile.mirror_window(j, probe_count)
            results[j] = HcFirstResult(
                victims[j], pattern.name, t_on,
                row.high if row.found else None, row.probes)
            j += 1
        idx = j
    final: List[HcFirstResult] = []
    for result in results:
        assert result is not None
        final.append(result)
    return final


@dataclass(frozen=True)
class HcNthResult:
    """Hammer counts inducing the first ``n`` bitflips in one row."""

    victim: RowAddress
    pattern: str
    #: hc_nth[k-1] is the hammer count at which the k-th bitflip appears.
    hc_nth: List[int]
    probes: int

    @property
    def hc_first(self) -> int:
        """Hammer count of the first bitflip."""
        return self.hc_nth[0]

    def normalized(self) -> List[float]:
        """Each HC_nth normalized to HC_first (Fig. 10's y-axis)."""
        first = float(self.hc_first)
        return [value / first for value in self.hc_nth]

    @property
    def additional_to_last(self) -> int:
        """Fig. 11's y-axis: HC_nth[last] - HC_first."""
        return self.hc_nth[-1] - self.hc_first


def measure_hc_nth(session: BenderSession,
                   victim_physical: RowAddress,
                   pattern: DataPattern,
                   n: int = 10,
                   t_on: Optional[float] = None,
                   max_hammers: int = 4_000_000,
                   tolerance: float = 0.01) -> Optional[HcNthResult]:
    """Measure the hammer counts inducing the first ``n`` bitflips.

    Returns ``None`` when even the first bitflip is out of budget.  For
    each k, binary-searches the smallest count with at least ``k`` flips,
    warm-starting from the previous threshold.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    first = search_hc_first(session, victim_physical, pattern, t_on,
                            max_hammers=max_hammers, tolerance=tolerance)
    if not first.found:
        return None
    probes = first.probes
    thresholds = [first.hc_first]
    low = first.hc_first
    for k in range(2, n + 1):
        high = None
        count = max(low, 1)
        while count <= max_hammers:
            probes += 1
            if _flips_at(session, victim_physical, pattern, count,
                         t_on) >= k:
                high = count
                break
            low = count
            count = int(count * 1.3) + 1
        if high is None:
            return None
        while high - low > max(1, int(tolerance * high)):
            mid = (low + high) // 2
            probes += 1
            if _flips_at(session, victim_physical, pattern, mid,
                         t_on) >= k:
                high = mid
            else:
                low = mid
        thresholds.append(high)
        low = high
    return HcNthResult(victim_physical, pattern.name, thresholds, probes)
