"""Host-side session: the PCIe link between test programs and the device.

In the paper's setup a host machine executes test programs on the FPGA
board over PCIe (Fig. 2).  :class:`BenderSession` plays that role: it owns
one simulated HBM2 stack, runs programs through the interpreter, exposes
the chip's reverse-engineered row mapping to routines that need physical
adjacency, and enforces the paper's methodology guard — experiments that
must stay within the 32 ms refresh window (Section 3.1) can assert it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.bender.interpreter import ExecutionResult, Interpreter
from repro.bender.program import TestProgram
from repro.config import batch_enabled
from repro.dram.batch import RowBatchProfile, engine_supported
from repro.dram.device import Device
from repro.dram.geometry import RowAddress
from repro.dram.row_mapping import RowMapping
from repro.faults.injector import FaultyStack


class RefreshWindowExceeded(Exception):
    """An experiment ran past the 32 ms no-refresh guarantee."""


class BenderSession:
    """One host <-> FPGA-board test session."""

    def __init__(self, device: Device,
                 mapping: Optional[RowMapping] = None) -> None:
        self.interpreter = Interpreter(device)
        # The interpreter wraps the device in a FaultyStack when a fault
        # plan is active; adopt its view so direct row operations
        # (write_physical_row & co.) run under the same chaos.  The
        # compiled executor shares the exact same (possibly wrapped)
        # device, so both engines see one command counter and clock.
        self.device = self.interpreter.device
        from repro.bender.compile import PlanExecutor

        self.executor = PlanExecutor(self.device)
        #: The logical-to-physical mapping the routines should use for
        #: adjacency.  ``None`` until reverse engineering recovers it (or
        #: the caller injects ground truth for speed).
        self.mapping = mapping
        self._window_start_ns: Optional[float] = None

    # -- program execution ----------------------------------------------

    def run(self, program: TestProgram) -> ExecutionResult:
        """Execute a test program on the device.

        Programs compile to epoch-plan segments and run on the batched
        executor (:mod:`repro.bender.compile`) unless the
        ``HBMSIM_BATCH`` escape hatch forces the scalar interpreter —
        both paths are bit-identical by the compiler's contract, so the
        flag only selects an engine, never a result.
        """
        if batch_enabled():
            return self.executor.run(program)
        return self.interpreter.run(program)

    # -- refresh-window bookkeeping ---------------------------------------

    def begin_refresh_window(self) -> None:
        """Mark the start of a no-refresh experiment (rows just written)."""
        self._window_start_ns = self.device.now_ns

    def assert_within_refresh_window(self) -> None:
        """Raise if the current experiment exceeded tREFW (Section 3.1)."""
        if self._window_start_ns is None:
            raise RuntimeError("begin_refresh_window() was never called")
        elapsed = self.device.now_ns - self._window_start_ns
        if elapsed > self.device.timings.t_refw:
            raise RefreshWindowExceeded(
                f"experiment ran {elapsed / 1.0e6:.2f} ms, beyond the "
                f"{self.device.timings.t_refw / 1.0e6:.0f} ms window")

    # -- physical addressing ----------------------------------------------

    def use_mapping(self, mapping: RowMapping) -> None:
        """Install the recovered logical-to-physical mapping."""
        self.mapping = mapping

    def logical_of_physical(self, address: RowAddress) -> RowAddress:
        """Logical address of a physical row (requires a mapping)."""
        return address.with_row(self._mapping().to_logical(address.row))

    def physical_of_logical(self, address: RowAddress) -> RowAddress:
        """Physical address of a logical row (requires a mapping)."""
        return address.with_row(self._mapping().to_physical(address.row))

    def aggressors_of(self, victim_physical: RowAddress):
        """Logical addresses of the two physical neighbors of a victim.

        This is the double-sided aggressor pair the paper's access pattern
        activates (Section 3.1).
        """
        mapping = self._mapping()
        rows = self.device.geometry.rows
        aggressors = []
        for offset in (-1, 1):
            physical = victim_physical.row + offset
            if 0 <= physical < rows:
                aggressors.append(
                    victim_physical.with_row(mapping.to_logical(physical)))
        return aggressors

    def _mapping(self) -> RowMapping:
        if self.mapping is None:
            raise RuntimeError(
                "row mapping unknown; run mapping reverse engineering "
                "first or inject ground truth via use_mapping()")
        return self.mapping

    # -- convenience row operations ---------------------------------------

    def write_physical_row(self, physical: RowAddress,
                           data: np.ndarray) -> None:
        """Write a row addressed physically (mapping applied)."""
        self.device.write_row(self.logical_of_physical(physical), data)

    def read_physical_row(self, physical: RowAddress) -> np.ndarray:
        """Read a row addressed physically (mapping applied)."""
        return self.device.read_row(self.logical_of_physical(physical))

    # -- batched row-population measurement -------------------------------

    def batching_active(self) -> bool:
        """Whether batched measurement may replace the scalar path here.

        False when the ``HBMSIM_BATCH`` escape hatch disables it or the
        device offers no :attr:`~repro.dram.device.Device.batch_stack`
        (a subclass the closed-form engine cannot model, or a mitigation
        controller that must observe every activation).  Fault
        plans batch too: a ``FaultyStack``-wrapped plain stack is
        supported — the session classifies each victim's command window
        with the plan's vectorized samplers, measures fault-free windows
        on the engine, and replays only fault-hit windows per-command
        (see :meth:`hammer_rows`).  TRR-enabled devices batch fine: the
        engine mirrors the activation stream into the TRR sampler.
        """
        return batch_enabled() and engine_supported(self.device)

    def profile_rows(self, addresses, pattern,
                     radius: int = 8) -> RowBatchProfile:
        """Batched fault-physics profile of physical ``addresses``.

        The returned :class:`~repro.dram.batch.RowBatchProfile` evaluates
        hammer schedules against the whole batch without issuing
        commands.  Callers must check :meth:`batching_active` first; the
        profile constructor rejects unsupported devices.
        """
        return RowBatchProfile(self.device, addresses, pattern,
                               radius=radius)

    def hammer_rows(self, victims, pattern, count: int,
                    t_on: Optional[float] = None) -> List[np.ndarray]:
        """Measure init -> double-sided hammer -> read for many victims.

        Returns the per-victim row images a ``read_physical_row`` after
        the hammer would observe, in victim order.  Uses the batch engine
        when :meth:`batching_active`; otherwise falls back to the scalar
        command sequence (which, like the real methodology, advances
        device time and is visible to TRR).  Under a fault plan the
        victims whose command windows draw no fault still measure on the
        engine; fault-hit windows replay per-command so drops, jitter,
        stalls and hangs land exactly as they would scalar — images and
        the fault-event schedule are bit-identical to ``HBMSIM_BATCH=0``
        either way.
        """
        victims = list(victims)
        if not victims:
            return []
        if not self.batching_active():
            return self._hammer_rows_scalar(victims, pattern, count, t_on)
        if self.device.injector is not None:
            return self._hammer_rows_faulty(victims, pattern, count, t_on)
        result = self.profile_rows(victims, pattern).hammer(count, t_on)
        return [image for image in result.images]

    def _hammer_rows_scalar(self, victims, pattern, count: int,
                            t_on: Optional[float]) -> List[np.ndarray]:
        from repro.bender.routines.hammer import double_sided_hammer
        from repro.bender.routines.rowinit import initialize_window
        images = []
        for victim in victims:
            initialize_window(self, victim, pattern)
            double_sided_hammer(self, victim, count, t_on)
            images.append(self.read_physical_row(victim))
        return images

    def _hammer_rows_faulty(self, victims, pattern, count: int,
                            t_on: Optional[float]) -> List[np.ndarray]:
        """Batched measurement under an active fault plan.

        Per victim the scalar sequence issues a *statically known*
        command window — the window-init WRs, the aggressor HAMMERs,
        one RD — so its counter range is known before executing
        anything.  The plan's vectorized samplers classify each window
        up front:

        - **clean** (no draw hits): measured through the batch engine;
          the counters are consumed wholesale and only the read's
          data-path faults (stuck cells, RD bit errors) apply, at the
          read's exact counter,
        - **dirty** (any stall/hang/drop/jitter hit): replayed through
          the scalar command path on the live device, firing the exact
          events the scalar run would.

        A dropped window-init WR makes the replay read *stale* row
        content, which only matches the scalar run if earlier
        overlapping measurements actually wrote their windows — so any
        earlier victim within ``2 * radius`` rows of a drop-hit victim
        is demoted to the dirty set as well.  Victims are processed
        strictly in order either way, keeping the TRR sampler's
        first-activation CAM aligned with the scalar stream.
        """
        from repro.bender.routines.rowinit import window_rows

        stack: FaultyStack = self.device.injector
        plan = stack.plan
        radius = 8
        n = len(victims)
        # Static command layout per victim: W writes, H hammers, one RD.
        writes = np.empty(n, dtype=np.int64)
        hammers = np.empty(n, dtype=np.int64)
        for i, victim in enumerate(victims):
            writes[i] = len(window_rows(self, victim, radius))
            neighbors = len(self.aggressors_of(victim))
            if neighbors == 2:
                hammers[i] = 2 if count > 0 else 0
            elif neighbors == 1:
                hammers[i] = 1
            else:
                raise ValueError("victim has no neighbors in the bank")
        per_victim = writes + hammers + 1
        starts = np.concatenate(
            ([0], np.cumsum(per_victim)[:-1])) + stack._counter
        read_indices = starts + per_victim

        # Vectorized dirty classification over every future counter.
        total = int(per_victim.sum())
        indices = np.arange(stack._counter + 1,
                            stack._counter + total + 1, dtype=np.int64)
        hits = plan.stall_mask(indices) | plan.hang_mask(indices)
        victim_of = np.repeat(np.arange(n), per_victim)
        offset = indices - 1 - np.repeat(starts, per_victim)
        is_write = offset < np.repeat(writes, per_victim)
        is_hammer = ~is_write & (offset < np.repeat(writes + hammers,
                                                    per_victim))
        drop_hit = np.zeros(total, dtype=bool)
        if plan.drop_rate:
            drop_hit[is_write] = plan.drop_mask(indices[is_write])
            hits |= drop_hit
        if plan.act_jitter_rate and plan.act_jitter_ns:
            jitter_hits, __ = plan.draw_jitter_array(indices[is_hammer])
            hits[is_hammer] |= jitter_hits
        dirty = np.zeros(n, dtype=bool)
        np.logical_or.at(dirty, victim_of, hits)
        # Demote earlier overlapping victims of drop-hit windows: their
        # writes are the stale content the dirty replay will read.
        for j in np.flatnonzero(np.bincount(
                victim_of, weights=drop_hit, minlength=n) > 0):
            for i in range(int(j)):
                if dirty[i]:
                    continue
                if (victims[i].bank_key == victims[j].bank_key
                        and abs(victims[i].row - victims[j].row)
                        <= 2 * radius):
                    dirty[i] = True

        profile = None
        if not dirty.all():
            profile = self.profile_rows(victims, pattern)
        images: List[Optional[np.ndarray]] = [None] * n
        i = 0
        while i < n:
            if dirty[i]:
                images[i] = self._hammer_rows_scalar(
                    [victims[i]], pattern, count, t_on)[0]
                i += 1
                continue
            run_end = i
            while run_end < n and not dirty[run_end]:
                run_end += 1
            subset = np.arange(i, run_end)
            result = profile.hammer(count, t_on, subset=subset)
            for position, v in enumerate(subset):
                image = result.images[position]
                stack.advance_counter(int(per_victim[v]))
                images[v] = stack.apply_read_faults(
                    self.logical_of_physical(victims[v]), image,
                    int(read_indices[v]))
            i = run_end
        return images
