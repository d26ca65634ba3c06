"""In-memory span tracer that wraps the program's layers from outside.

The benchmark changes no file of the program: it replaces each layer's
public function or method with a timing wrapper at run time.  A wrapper
is installed on the defining module or class *and* on every loaded
``repro`` module namespace that ``from``-imported the function, because
such a binding is a separate reference the definition-site patch never
reaches (``ext_defense_matrix.measure_benign_overhead``,
``ext_temperature.search_hc_first_rows``, and ``repro.defenses.evaluate``,
which names the function rather than its submodule).

A span is ``(name, start, end, parent index, context)``; the context is
the experiment id running when the span opened.  Self time is a span's
duration minus the time its direct children cover; spans of one thread
nest strictly, so the children's durations simply add up.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: metric stem -> (module, attribute path) of every wrapped callable.
#: ``analysis.render`` covers two functions; ``experiments`` is the
#: runner's per-experiment entry point and names its spans by id.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("chips.make_chip", "repro.chips.profiles", "make_chip"),
    ("chips.profile", "repro.chips.profiles", "ChipProfile.profile"),
    ("chips.population_combos", "repro.chips.vectorized",
     "population_combos"),
    ("core.analytic.combo_ber_matrix", "repro.core.analytic",
     "combo_ber_matrix"),
    ("core.analytic.wcdp_hc_first_multi", "repro.core.analytic",
     "wcdp_hc_first_multi"),
    ("core.analytic.wcdp_ber_multi", "repro.core.analytic",
     "wcdp_ber_multi"),
    ("core.wordlevel.word_level_study", "repro.core.wordlevel",
     "word_level_study"),
    ("core.wordlevel.secded_outcomes", "repro.core.wordlevel",
     "secded_outcomes"),
    ("dram.device.hammer", "repro.dram.device", "HBM2Stack.hammer"),
    ("dram.device.read_row", "repro.dram.device", "HBM2Stack.read_row"),
    ("dram.device.write_row", "repro.dram.device", "HBM2Stack.write_row"),
    ("dram.device.execute", "repro.dram.device", "HBM2Stack.execute"),
    ("dram.batch.hammer", "repro.dram.batch", "RowBatchProfile.hammer"),
    ("dram.trr.run_epochs", "repro.dram.trr", "TrrEngine.run_epochs"),
    ("bender.session.run", "repro.bender.host", "BenderSession.run"),
    ("bender.compile_program", "repro.bender.compile", "compile_program"),
    ("bender.plan_executor.run", "repro.bender.compile", "PlanExecutor.run"),
    ("bender.interpreter.run", "repro.bender.interpreter",
     "Interpreter.run"),
    ("bender.interpreter.run_checked", "repro.bender.interpreter",
     "Interpreter.run_checked"),
    ("bender.hcfirst.search_hc_first_rows", "repro.bender.routines.hcfirst",
     "search_hc_first_rows"),
    ("faults.classify_probe_windows", "repro.faults.plan",
     "FaultPlan.classify_probe_windows"),
    ("lint.timing_checker.check", "repro.lint.stream", "TimingChecker.check"),
    ("defenses.evaluate", "repro.defenses.evaluate", "evaluate"),
    ("workloads.measure_benign_overhead", "repro.workloads.overhead",
     "measure_benign_overhead"),
    ("fuzz.run_case", "repro.fuzz.harness", "run_case"),
    ("analysis.render", "repro.analysis.reporting", "render_table"),
    ("analysis.render", "repro.analysis.reporting", "render_series"),
    ("experiments", "repro.experiments.registry", "run_experiment"),
)

#: Stems reported as ``<stem>.calls`` and ``<stem>.s`` (self seconds).
LAYER_STEMS: Tuple[str, ...] = tuple(dict.fromkeys(
    stem for stem, __, __ in TARGETS if stem != "experiments"))

Span = Tuple[str, float, float, int, Optional[str]]


class Tracer:
    """Span recorder plus the counters measured where the work happens."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._context: Optional[str] = None
        #: Distinct (chip, address, pattern) keys seen by ChipProfile.profile.
        self.profile_keys: set = set()
        self.windows = 0
        self.dirty_windows = 0
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- wrappers --------------------------------------------------------

    def _wrap(self, stem: str, fn: Callable,
              observe: Optional[Callable[..., None]] = None) -> Callable:
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        experiments = stem == "experiments"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            name = stem
            outer = self._context
            if experiments:
                self._context = args[0]
                name = f"experiments.{args[0]}"
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._context)
                self._context = outer

        return wrapper

    def _observe_profile(self, args: tuple, kwargs: dict, __: Any) -> None:
        bound = dict(zip(("chip", "address", "pattern"), args), **kwargs)
        self.profile_keys.add(
            (id(bound["chip"]), bound["address"], bound["pattern"]))

    def _observe_windows(self, __: tuple, ___: dict, result: Any) -> None:
        dirty = result[0]
        self.windows += int(dirty.size)
        self.dirty_windows += int(dirty.sum())

    def install(self) -> None:
        """Wrap every target; import each defining module first."""
        observers = {"chips.profile": self._observe_profile,
                     "faults.classify_probe_windows": self._observe_windows}
        for stem, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, __, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = owner.__dict__[attr]
            wrapper = self._wrap(stem, original, observers.get(stem))
            self._patch(owner, attr, original, wrapper)
            if owner_name:
                continue
            for name, loaded in list(sys.modules.items()):
                if loaded is None or loaded is module \
                        or not name.startswith("repro"):
                    continue
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, binding, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any,
               wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- aggregation -----------------------------------------------------

    def finished(self) -> List[Span]:
        return [span for span in self.spans if span is not None]

    def self_times(self) -> Tuple[Dict[str, int], Dict[str, float],
                                  Dict[str, float]]:
        """Per span name: calls, self seconds, inclusive seconds."""
        spans = self.finished()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, __ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Dict[str, int] = defaultdict(int)
        self_s: Dict[str, float] = defaultdict(float)
        total_s: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, __, __ = span
            calls[name] += 1
            self_s[name] += (end - start) - child[index]
            total_s[name] += end - start
        return calls, self_s, total_s
