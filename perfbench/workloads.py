"""The benchmark's workloads: what each runs, and what each must show.

Plain data, no ``repro`` import, so the orchestrator (``run.py``) stays
outside the program it measures and the traced run
(``trace_run.py``) reads the same definitions.  README.md in this
directory says why each workload was chosen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Environment knobs the program reads.  Every one is scrubbed from the
#: inherited environment so a stray setting cannot change what is
#: measured; a workload sets back only what it defines itself.
SCRUBBED_ENV = ("HBMSIM_BATCH", "HBMSIM_SCALE", "HBMSIM_FAULTS",
                "HBMSIM_LINT", "HBMSIM_CELLS_CHUNK", "HBMSIM_CELLS_MMAP",
                "HBMSIM_NO_CACHE", "HBMSIM_CACHE_DIR")

#: The 17 paper artifacts, in the CLI's default (paper) order.
PAPER_IDS = ("table1", "table2", "table3", "fig03", "fig04", "fig05",
             "fig06", "fig07", "fig08", "fig09", "fig10", "fig11",
             "fig12", "fig13", "sec7", "fig14", "fig15")

#: Every registry id: one ``experiments.<id>.s`` metric each.
ALL_IDS = PAPER_IDS + ("ext-defenses", "ext-temperature")

#: Report shas (sha256 of the report text, first 16 hex digits) pinned
#: by the repository's own golden tests at scale 0.25.
GOLDEN_SHAS_AT_QUARTER = {"fig05": "44546c2cd83c30da",
                          "fig07": "e22a1494c3310f21"}

#: CI's device-fault rates: no crash, stall or hang, so every failure
#: under this plan is the program's own.
CHAOS_RATES = {"read_flip_rate": 0.001, "drop_rate": 0.0002,
               "act_jitter_rate": 0.0005, "act_jitter_ns": 3.0}

#: The fuzz campaign.  Work per campaign seed is heavy-tailed (a few
#: generated programs run for seconds, most for milliseconds), so a
#: campaign seed that followed the workload seed would make wall time
#: spread 10x across seeds; the campaign is pinned to the CLI's default
#: seed instead.
FUZZ_SEED = 0
FUZZ_BUDGET = 100
FUZZ_SEARCH_BUDGET = 20


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a CLI invocation plus its expectations."""

    name: str
    why: str
    #: ``python -m <module> <args...>`` as a user types it.
    module: str
    args: Tuple[str, ...]
    #: Experiment ids the invocation runs (empty for the fuzzer).
    ids: Tuple[str, ...] = ()
    scale: float = 0.25
    jobs: int = 1
    faulted: bool = False
    #: Scorecard claims of the workload's experiments that DEVIATE at
    #: the baseline.  Any other claim that fails makes a traced run
    #: incorrect, unless the workload runs under a fault plan: injected
    #: read flips may legitimately move a measurement, so which claims
    #: pass then depends on the fault seed.
    deviating_claims: Tuple[str, ...] = ()
    #: Per-layer metric stems whose wrappers must fire on this workload.
    loads: Tuple[str, ...] = ()
    golden_shas: Dict[str, str] = field(default_factory=dict)

    def env(self, seed: int) -> Dict[str, str]:
        """Environment the workload sets on top of the scrubbed one."""
        if not self.faulted:
            return {}
        return {"HBMSIM_FAULTS": json.dumps(dict(seed=seed, **CHAOS_RATES))}

    def argv(self) -> List[str]:
        return ["-m", self.module, *self.args]

    @property
    def operations(self) -> int:
        """Operations one invocation attempts: experiments or fuzz cases."""
        return len(self.ids) or FUZZ_BUDGET + FUZZ_SEARCH_BUDGET


_ANALYTIC = ("core.analytic.combo_ber_matrix",
             "core.analytic.wcdp_hc_first_multi",
             "core.analytic.wcdp_ber_multi")
_DEVICE = ("dram.device.hammer", "dram.device.read_row",
           "dram.device.write_row", "dram.device.execute")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="paper-suite",
        why="all 17 paper artifacts at scale 0.25: the population and "
            "analytic engines, fig15's word-level study",
        module="repro.experiments",
        args=("--scale", "0.25", "-j", "1"),
        ids=PAPER_IDS,
        # fig11.all-negative DEVIATES at scale 0.25 and passes at the
        # scorecard's own scale of 1.0: a recorded baseline deviation.
        deviating_claims=("fig11.all-negative",),
        loads=("chips.make_chip", "chips.population_combos", *_ANALYTIC,
               "core.wordlevel.word_level_study",
               "core.wordlevel.secded_outcomes", "analysis.render"),
        golden_shas=GOLDEN_SHAS_AT_QUARTER),
    Workload(
        name="defense-matrix",
        why="ext-defenses at scale 0.25: per-call scalar HBM2Stack, "
            "ChipProfile.profile and the defense/workload layers",
        module="repro.experiments",
        args=("ext-defenses", "--scale", "0.25", "-j", "1"),
        ids=("ext-defenses",),
        loads=("chips.make_chip", "chips.profile", *_DEVICE,
               "defenses.evaluate", "workloads.measure_benign_overhead",
               "analysis.render")),
    Workload(
        name="chaos-fullgeom",
        why="four experiments at full geometry, -j 2 shard fan-out, "
            "under a seeded device-fault plan with CI's rates",
        module="repro.experiments",
        # sec7 is left out: under this plan's drop faults its TRR probe
        # raises TimingError on some fault seeds (15, 22 and 23 of 1-25),
        # a program defect the benchmark cannot time around.  sec7 runs
        # fault-free in paper-suite.
        args=("fig05", "fig07", "fig14", "ext-temperature",
              "--scale", "1.0", "-j", "2"),
        ids=("fig05", "fig07", "fig14", "ext-temperature"),
        scale=1.0,
        jobs=2,
        faulted=True,
        loads=("chips.make_chip", "chips.population_combos",
               "core.analytic.wcdp_hc_first_multi", "dram.batch.hammer",
               "dram.trr.run_epochs",
               "bender.session.run", "bender.compile_program",
               "bender.plan_executor.run",
               "bender.hcfirst.search_hc_first_rows",
               "faults.classify_probe_windows", "analysis.render")),
    Workload(
        name="program-fuzz",
        why="differential fuzzer: scalar Interpreter command by command, "
            "run_checked with the streaming TimingChecker",
        module="repro.fuzz",
        args=("--seed", str(FUZZ_SEED), "--budget", str(FUZZ_BUDGET),
              "--search-budget", str(FUZZ_SEARCH_BUDGET), "--quiet"),
        loads=(*_DEVICE, "dram.batch.hammer", "bender.interpreter.run",
               "bender.interpreter.run_checked",
               "bender.hcfirst.search_hc_first_rows",
               "faults.classify_probe_windows",
               "lint.timing_checker.check", "fuzz.run_case")),
)}
