"""Integration tests: attacks vs defended devices."""

import pytest

from repro.defenses import (BlockHammer, Graphene, HeterogeneousGraphene,
                            Para, RowPressAwarePara, burst_double_sided,
                            defended_session, evaluate,
                            para_probability_for, pick_vulnerable_victim,
                            rowpress_burst)
from repro.bender.program import TestProgram
from repro.defenses.base import MitigationController
from repro.dram.geometry import RowAddress


@pytest.fixture(scope="module")
def victim(chip0_module):
    return pick_vulnerable_victim(chip0_module)


@pytest.fixture(scope="module")
def chip0_module():
    from repro.chips.profiles import make_chip

    return make_chip(0)


@pytest.fixture(scope="module")
def para_p(chip0_module):
    return para_probability_for(14_000)


class TestUndefendedBaseline:
    def test_double_sided_flips(self, chip0_module, victim):
        session = defended_session(chip0_module, None)
        assert burst_double_sided(session, victim) > 0

    def test_rowpress_flips(self, chip0_module, victim):
        session = defended_session(chip0_module, None)
        assert rowpress_burst(session, victim) > 0


class TestParaDefense:
    def test_blocks_double_sided(self, chip0_module, victim, para_p):
        controller = Para(probability=para_p,
                          believed_mapping=chip0_module.row_mapping())
        session = defended_session(chip0_module, controller)
        assert burst_double_sided(session, victim) == 0
        assert controller.stats.preventive_refreshes > 0

    def test_overhead_near_design_probability(self, chip0_module, victim,
                                              para_p):
        controller = Para(probability=para_p,
                          believed_mapping=chip0_module.row_mapping())
        session = defended_session(chip0_module, controller)
        burst_double_sided(session, victim)
        assert controller.stats.refresh_overhead() == pytest.approx(
            para_p, rel=0.25)

    def test_plain_para_misses_rowpress(self, chip0_module, victim,
                                        para_p):
        """Takeaway 7's defense gap: activation-count-based sampling
        undercounts long-open aggressors."""
        controller = Para(probability=para_p,
                          believed_mapping=chip0_module.row_mapping())
        session = defended_session(chip0_module, controller)
        assert rowpress_burst(session, victim) > 0

    def test_rowpress_aware_para_closes_the_gap(self, chip0_module,
                                                victim, para_p):
        controller = RowPressAwarePara(
            probability=para_p,
            believed_mapping=chip0_module.row_mapping())
        session = defended_session(chip0_module, controller)
        assert rowpress_burst(session, victim) == 0


class TestGrapheneDefense:
    def test_blocks_double_sided_cheaply(self, chip0_module, victim,
                                         para_p):
        controller = Graphene(
            threshold=3500,
            believed_mapping=chip0_module.row_mapping())
        session = defended_session(chip0_module, controller)
        assert burst_double_sided(session, victim) == 0
        # Deterministic counting refreshes far less often than PARA.
        assert controller.stats.refresh_overhead() < para_p

    def test_xor_scramble_halves_protection_but_survives(
            self, chip0_module, victim):
        """Chip 0's XOR scramble displaces rows by at most 2, so an
        identity-assuming controller still lands one of its two victim
        refreshes on the real victim — protection degrades but holds."""
        controller = Graphene(threshold=3500, believed_mapping=None)
        session = defended_session(chip0_module, controller)
        assert burst_double_sided(session, victim) == 0

    def test_wrong_mapping_breaks_graphene(self, chip0_module):
        """Vendors hiding their row scramble hurts defenses: under the
        block-interleave layout the physically adjacent aggressors live
        far away logically, so an identity-assuming controller refreshes
        rows that are never the real victims."""
        from repro.bender.host import BenderSession
        from repro.defenses.base import DefendedDevice
        from repro.dram.device import HBM2Stack
        from repro.dram.row_mapping import BlockInterleaveMapping
        from repro.dram.trr import TrrConfig

        mapping = BlockInterleaveMapping(chip0_module.geometry.rows)

        def session_with(controller):
            device = HBM2Stack(profile_provider=chip0_module,
                               retention=chip0_module.retention,
                               trr_config=TrrConfig(enabled=False),
                               row_mapping=mapping)
            if controller is not None:
                device = DefendedDevice(device, controller)
            return BenderSession(device, mapping=mapping)

        # Physical row 3 of a group: its logical address under the
        # interleave has both physical neighbors > 2 logical rows away.
        victim = RowAddress(0, 0, 0, 155)  # 155 % 8 == 3
        blind = Graphene(threshold=3500, believed_mapping=None)
        assert burst_double_sided(session_with(blind), victim) > 0
        informed = Graphene(threshold=3500, believed_mapping=mapping)
        assert burst_double_sided(session_with(informed), victim) == 0


class TestBlockHammerDefense:
    def test_throttling_blocks_double_sided(self, chip0_module, victim):
        controller = BlockHammer(
            believed_mapping=chip0_module.row_mapping())
        session = defended_session(chip0_module, controller)
        assert burst_double_sided(session, victim) == 0
        assert controller.stats.preventive_refreshes == 0
        assert controller.stats.throttle_delay_ns > 1.0e9


class TestHeterogeneousGraphene:
    @pytest.fixture(scope="class")
    def controller_factory(self, chip0_module):
        def factory():
            return HeterogeneousGraphene(
                chip0_module,
                believed_mapping=chip0_module.row_mapping(),
                rows_per_subarray=8)

        return factory

    def test_still_protects_weak_rows(self, chip0_module, victim,
                                      controller_factory):
        session = defended_session(chip0_module, controller_factory())
        assert burst_double_sided(session, victim) == 0

    def test_local_thresholds_exceed_uniform(self, controller_factory):
        """Section 8.2: adapting to the heterogeneity buys headroom —
        resilient subarrays tolerate far more activations before a
        preventive refresh."""
        controller = controller_factory()
        assert controller.mean_threshold() > \
            1.5 * controller.uniform_equivalent_threshold()

    def test_saves_refreshes_on_resilient_rows(self, chip0_module,
                                               controller_factory):
        """Hammering a resilient-subarray row: the uniform design pays
        preventive refreshes the local silicon does not need."""
        layout = chip0_module.geometry.subarrays
        resilient_row = layout.rows_of(layout.last_subarray)[400]
        target = RowAddress(3, 0, 0, resilient_row)
        hetero = controller_factory()
        uniform = Graphene(
            threshold=hetero.uniform_equivalent_threshold(),
            believed_mapping=chip0_module.row_mapping())
        flips = {}
        for name, controller in (("hetero", hetero),
                                 ("uniform", uniform)):
            session = defended_session(chip0_module, controller)
            flips[name] = burst_double_sided(session, target,
                                             hammer_count=100_000)
        assert flips["hetero"] == 0 and flips["uniform"] == 0
        assert hetero.stats.preventive_refreshes < \
            uniform.stats.preventive_refreshes


class TestEvaluateHarness:
    def test_reports_structure(self, chip0_module, victim, para_p):
        reports = evaluate(
            chip0_module,
            lambda: Para(probability=para_p,
                         believed_mapping=chip0_module.row_mapping()),
            "para", victim)
        assert set(reports) == {"double_sided_burst", "rowpress_burst"}
        for report in reports.values():
            assert report.defense == "para"
            assert report.observed_activations > 0


class TestDefendedRefreshBurst:
    """DefendedDevice.refresh_burst == the sequential refresh() loop."""

    def _twin(self, chip0_module):
        from repro.defenses.base import DefendedDevice
        from repro.dram.trr import TrrConfig

        controller = Graphene(threshold=600, entries=8,
                              believed_mapping=chip0_module.row_mapping())
        device = chip0_module.make_device(
            trr_config=TrrConfig(enabled=False))
        return DefendedDevice(device, controller)

    def test_burst_matches_scalar_across_rollover(self, chip0_module):
        """Enough REFs to cross a tREFW boundary: the rollover must fire
        at the same REF index (same now_ns) on both paths."""
        scalar = self._twin(chip0_module)
        burst = self._twin(chip0_module)
        timings = scalar.wrapped.timings
        # Seed tracker state so on_window_rollover has something to wipe.
        addr = RowAddress(0, 0, 0, 5000)
        for target in (scalar, burst):
            target.hammer(addr, 40)
        count = int(timings.t_refw / timings.t_rfc) + 37
        for __ in range(count):
            scalar.refresh(0, 0)
        burst.refresh_burst(0, 0, count)
        assert burst.wrapped.now_ns == scalar.wrapped.now_ns
        assert burst.wrapped.stats.refs == scalar.wrapped.stats.refs
        assert burst._window_start_ns == scalar._window_start_ns
        # The rollover wiped both trackers identically.
        for key, table in scalar.controller._tables.items():
            twin = burst.controller._tables[key]
            assert table.counters == twin.counters

    def test_small_burst_matches(self, chip0_module):
        scalar = self._twin(chip0_module)
        burst = self._twin(chip0_module)
        for __ in range(3):
            scalar.refresh(0, 0)
        burst.refresh_burst(0, 0, 3)
        assert burst.wrapped.now_ns == scalar.wrapped.now_ns
        assert burst._window_start_ns == scalar._window_start_ns


class _RolloverLog(MitigationController):
    """Observes nothing; records when each tREFW rollover fires."""

    def __init__(self) -> None:
        super().__init__()
        self.rollovers: list = []

    def observe(self, address, count, t_on, now_ns):
        return []

    def on_window_rollover(self, now_ns: float) -> None:
        self.rollovers.append(now_ns)


class TestRolloverThroughExecute:
    """A REF sent as a command checks the tREFW rollover exactly like a
    direct ``refresh()`` call, so the controller's window resets at the
    same ``now_ns`` whichever way the REFs arrive."""

    @pytest.mark.parametrize("batch", ["1", "0"])
    def test_ref_program_rolls_over_on_time(self, chip0_module,
                                            monkeypatch, batch):
        monkeypatch.setenv("HBMSIM_BATCH", batch)
        timings = chip0_module.make_device().timings
        lead_ns = timings.t_refw - 2.5 * timings.t_rfc
        refs = 6
        aggressor = RowAddress(0, 0, 0, 5000)

        via_execute = _RolloverLog()
        session = defended_session(chip0_module, via_execute)
        program = TestProgram("ref_only").wait(lead_ns)
        for __ in range(refs):
            program.refresh(0, 0)
        program.hammer(aggressor, 1)
        session.run(program)

        via_refresh = _RolloverLog()
        direct = defended_session(chip0_module, via_refresh).device
        direct.wait(lead_ns)
        for __ in range(refs):
            direct.refresh(0, 0)
        direct.hammer(aggressor, 1)

        assert len(via_refresh.rollovers) == 1
        assert via_execute.rollovers == via_refresh.rollovers
        assert session.device.now_ns == direct.now_ns
