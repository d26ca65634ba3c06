"""SoftBender program interpreter.

Replays a :class:`~repro.bender.program.TestProgram` on a simulated
:class:`~repro.dram.device.HBM2Stack`, collecting tagged read results and
execution statistics (command count, simulated wall-clock time).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Tuple)

import numpy as np

from repro.bender.program import ReadRequest, TestProgram
from repro.config import LintMode, lint_mode
from repro.dram.device import Device
from repro.dram.timing import TimingParameters
from repro.faults import FaultPlan, active_plan, wrap_device

if TYPE_CHECKING:
    from repro.lint.findings import Finding


def pre_execution_gate(program: TestProgram,
                       timings: TimingParameters) -> None:
    """Statically verify ``program`` when ``HBMSIM_LINT`` asks for it.

    Shared by the scalar :class:`Interpreter` and the batched
    :class:`~repro.bender.compile.PlanExecutor`, so both engines apply
    the identical ``HBMSIM_LINT`` contract before the first command.
    ``online`` degrades to ``warn``-style static verification here —
    engines that dispatch per command (the scalar interpreter) check
    the mode themselves and stream instead (:meth:`Interpreter.
    run_checked`).
    """
    mode = lint_mode()
    if mode is LintMode.OFF:
        return
    # Lazy import: the gate is off by default and the lint layer must
    # not weigh on (or cycle with) the interpreter hot path.
    from repro.lint.protocol import verify_program

    report = verify_program(program, timings=timings)
    if report.ok:
        return
    if mode is LintMode.STRICT:
        from repro.errors import LintError

        raise LintError(program.name, report.findings)
    for finding in report.findings:
        print(f"HBMSIM_LINT: {finding.render()}", file=sys.stderr)


def _print_finding(finding: "Finding") -> None:
    """Default online-finding sink: the warn-mode stderr format."""
    print(f"HBMSIM_LINT: {finding.render()}", file=sys.stderr)


@dataclass
class ExecutionResult:
    """Outcome of one program execution."""

    program: str
    commands_executed: int
    started_at_ns: float
    finished_at_ns: float
    #: tag -> list of row images (a tag read in a loop collects one per
    #: iteration).
    reads: Dict[str, List[np.ndarray]] = field(default_factory=dict)

    @property
    def elapsed_ns(self) -> float:
        """Simulated execution time of the program."""
        return self.finished_at_ns - self.started_at_ns

    def read(self, tag: str) -> np.ndarray:
        """The single read result under ``tag`` (error if 0 or many)."""
        images = self.reads.get(tag, [])
        if len(images) != 1:
            raise KeyError(
                f"tag {tag!r} has {len(images)} results; expected exactly 1")
        return images[0]

    def read_all(self, tag: str) -> List[np.ndarray]:
        """All read results collected under ``tag``."""
        if tag not in self.reads:
            raise KeyError(f"tag {tag!r} was never read")
        return self.reads[tag]


class Interpreter:
    """Executes test programs against one device.

    When a fault plan is active (``HBMSIM_FAULTS`` or
    :func:`repro.faults.install_plan`) the device is transparently
    wrapped in a :class:`~repro.faults.FaultyStack`, so every program —
    and therefore every command-level experiment — runs under the
    configured chaos.  With no plan the device is used as-is and
    behaviour is bit-identical to a fault-free build.

    With ``HBMSIM_LINT=strict`` (or ``warn``) every program is first
    statically verified against the device's timing parameters by
    :func:`repro.lint.protocol.verify_program`; strict mode raises
    :class:`~repro.errors.LintError` before the first command executes,
    warn mode prints the findings to stderr and continues.  With
    ``HBMSIM_LINT=online`` the program is instead checked *while it
    runs* (:meth:`run_checked`): every executed command streams through
    a :class:`~repro.lint.stream.TimingChecker`, so fault-plan-mutated
    command streams are judged as mutated.  The default (``off``) skips
    verification entirely.
    """

    def __init__(self, device: Device,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        plan = fault_plan if fault_plan is not None else active_plan()
        self.device = wrap_device(device, plan)

    def _pre_execution_gate(self, program: TestProgram) -> None:
        """Statically verify ``program`` when ``HBMSIM_LINT`` asks for it."""
        pre_execution_gate(program, self.device.timings)

    def run(self, program: TestProgram) -> ExecutionResult:
        """Replay ``program``, returning tagged reads and statistics."""
        if lint_mode() is LintMode.ONLINE:
            result, __ = self.run_checked(program)
            return result
        self._pre_execution_gate(program)
        started = self.device.now_ns
        reads: Dict[str, List[np.ndarray]] = {}
        executed = 0
        for command in program.flatten():
            result = self.device.execute(command)
            executed += 1
            if isinstance(command, ReadRequest):
                if result is None:
                    raise RuntimeError("tagged read returned no data")
                reads.setdefault(command.tag, []).append(result)
        return ExecutionResult(
            program=program.name,
            commands_executed=executed,
            started_at_ns=started,
            finished_at_ns=self.device.now_ns,
            reads=reads,
        )

    def run_checked(
        self, program: TestProgram,
        on_finding: Optional[Callable[["Finding"], None]] = None,
    ) -> Tuple[ExecutionResult, List["Finding"]]:
        """Replay ``program`` with the streaming checker riding along.

        Every command is fed to a :class:`~repro.lint.stream.
        TimingChecker` *as it executes* — including the effects of an
        active fault plan: dropped commands never reach the checker,
        ghosted PRE/REF are checked twice, and the checker's symbolic
        clock is pinned to the device clock after every command so
        injected jitter and stretched on-times cannot let the two
        notions of time drift apart.  A command the device rejects with
        :class:`~repro.errors.TimingError` is fed to the checker first
        (it *was* issued) and the error re-raised, so the checker's
        error-severity findings and the device's ``TimingError`` agree
        command for command — the invariant the differential fuzzer
        cross-checks.

        ``on_finding`` is invoked for each finding as it is detected
        (default: print to stderr in the ``HBMSIM_LINT`` warn format).
        Returns the execution result and all findings, including the
        end-of-stream rules.  Ignores ``HBMSIM_LINT`` — this *is* the
        online mode; :meth:`run` dispatches here when the variable says
        ``online``.
        """
        from repro.lint.stream import TimingChecker

        checker = TimingChecker(program.name, self.device.timings)
        sink = _print_finding if on_finding is None else on_finding
        findings: List["Finding"] = []

        def emit(new: List["Finding"]) -> None:
            findings.extend(new)
            for finding in new:
                sink(finding)

        # A fault injector appends a FaultEvent per injected fault; with
        # none on the path the stream is taken at face value.
        injector = self.device.injector
        events = injector.events if injector is not None else None
        events_seen = len(events) if events is not None else 0
        base = self.device.now_ns
        started = base
        reads: Dict[str, List[np.ndarray]] = {}
        executed = 0
        for command in program.flatten():
            try:
                result = self.device.execute(command)
            except Exception as exc:
                from repro.errors import TimingError

                if isinstance(exc, TimingError):
                    # The device rejected the command *after* it was
                    # issued: the checker judges it too, then the
                    # stream ends exactly where execution ended.
                    emit(checker.check(command))
                    checker.sync_clock(self.device.now_ns - base)
                    emit(checker.finish())
                raise
            executed += 1
            repeats = 1
            if events is not None:
                for event in events[events_seen:]:
                    if event.fault == "drop":
                        repeats = 0
                    elif event.fault == "ghost":
                        repeats += 1
                events_seen = len(events)
            for __ in range(repeats):
                emit(checker.check(command))
            checker.sync_clock(self.device.now_ns - base)
            if isinstance(command, ReadRequest):
                if result is None:
                    raise RuntimeError("tagged read returned no data")
                reads.setdefault(command.tag, []).append(result)
        emit(checker.finish())
        return ExecutionResult(
            program=program.name,
            commands_executed=executed,
            started_at_ns=started,
            finished_at_ns=self.device.now_ns,
            reads=reads,
        ), findings
