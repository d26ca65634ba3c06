"""Tests for FaultPlan configuration, env parsing, and activation."""

import pytest

from repro.errors import FaultPlanError, HbmSimError
from repro.faults import (FaultPlan, active_plan, clear_plan, install_plan)


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    monkeypatch.delenv("HBMSIM_FAULTS", raising=False)
    clear_plan()
    yield
    clear_plan()


class TestFaultPlan:
    def test_defaults_are_fault_free(self):
        plan = FaultPlan()
        assert not plan.device_faults_enabled()
        assert not plan.worker_faults_enabled()

    def test_json_roundtrip(self):
        plan = FaultPlan(seed=42, read_flip_rate=0.01, drop_rate=0.002,
                         act_jitter_rate=0.1, act_jitter_ns=25.0,
                         crash_once=("fig05",),
                         stall_experiments={"fig07": 2.5})
        assert FaultPlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize("field,value", [
        ("read_flip_rate", 1.5), ("drop_rate", -0.1),
        ("hang_rate", 2.0), ("stuck_row_rate", -1.0),
    ])
    def test_rates_validated(self, field, value):
        with pytest.raises(FaultPlanError):
            FaultPlan(**{field: value})

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json('{"seed": 1, "flux_capacitor": 1}')

    def test_bad_json_rejected(self):
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("not json")
        with pytest.raises(FaultPlanError):
            FaultPlan.from_json("[1, 2]")

    def test_fault_plan_error_is_hbmsim_error(self):
        with pytest.raises(HbmSimError):
            FaultPlan(read_flip_rate=7.0)

    def test_worker_faults_classification(self):
        assert FaultPlan(crash_once=("fig05",)).worker_faults_enabled()
        assert FaultPlan(
            stall_experiments={"fig07": 1.0}).worker_faults_enabled()
        assert not FaultPlan(
            crash_once=("fig05",)).device_faults_enabled()


class TestActivation:
    def test_no_plan_by_default(self):
        assert active_plan() is None

    def test_env_plan(self, monkeypatch):
        monkeypatch.setenv("HBMSIM_FAULTS",
                           '{"seed": 9, "read_flip_rate": 0.5}')
        plan = active_plan()
        assert plan is not None
        assert plan.seed == 9
        assert plan.read_flip_rate == 0.5

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("HBMSIM_FAULTS", '{"seed": 9}')
        install_plan(FaultPlan(seed=3))
        assert active_plan().seed == 3
        clear_plan()
        assert active_plan().seed == 9

    @pytest.mark.parametrize("blank", ["", "  ", "\n"])
    def test_blank_env_means_no_plan(self, monkeypatch, blank):
        monkeypatch.setenv("HBMSIM_FAULTS", blank)
        assert active_plan() is None

    def test_env_cache_tracks_changes(self, monkeypatch):
        monkeypatch.setenv("HBMSIM_FAULTS", '{"seed": 1}')
        assert active_plan().seed == 1
        monkeypatch.setenv("HBMSIM_FAULTS", '{"seed": 2}')
        assert active_plan().seed == 2
        monkeypatch.delenv("HBMSIM_FAULTS")
        assert active_plan() is None

    def test_install_rejects_non_plan(self):
        with pytest.raises(FaultPlanError):
            install_plan({"seed": 1})


class TestVectorizedSamplers:
    """The array samplers must reproduce the scalar draws bit-for-bit:
    the compiled executor classifies thousands of future command slots
    with them and any divergence silently changes the fault schedule."""

    PLAN = FaultPlan(seed=1234, drop_rate=0.05, ghost_rate=0.03,
                     act_jitter_rate=0.1, act_jitter_ns=6.0,
                     read_flip_rate=0.2, read_flip_bits=2,
                     stuck_row_rate=0.15, stall_rate=0.04,
                     hang_rate=0.02)

    def test_rate_masks_match_scalar_draws(self):
        import numpy as np

        from repro.faults.plan import (TAG_DROP, TAG_GHOST, TAG_HANG,
                                       TAG_RDFLIP, TAG_STALL)

        plan = self.PLAN
        indices = np.arange(1, 4001, dtype=np.int64)
        for mask_name, tag, rate in (
                ("stall_mask", TAG_STALL, plan.stall_rate),
                ("hang_mask", TAG_HANG, plan.hang_rate),
                ("drop_mask", TAG_DROP, plan.drop_rate),
                ("ghost_mask", TAG_GHOST, plan.ghost_rate),
                ("draw_bitflips_array", TAG_RDFLIP, plan.read_flip_rate)):
            mask = getattr(plan, mask_name)(indices)
            scalar = [plan.sampler_hits(int(i), tag, rate)
                      for i in indices]
            assert mask.tolist() == scalar, mask_name

    def test_zero_rate_masks_are_all_false(self):
        import numpy as np

        plan = FaultPlan(seed=9)
        indices = np.arange(1, 101, dtype=np.int64)
        assert not plan.stall_mask(indices).any()
        assert not plan.drop_mask(indices).any()
        hits, magnitudes = plan.draw_jitter_array(indices)
        assert not hits.any() and not magnitudes.any()

    def test_jitter_array_matches_scalar_jitter(self):
        import numpy as np

        from repro.dram.seeding import uniform_for
        from repro.faults.plan import TAG_JITTER

        plan = self.PLAN
        indices = np.arange(1, 2001, dtype=np.int64)
        hits, magnitudes = plan.draw_jitter_array(indices)
        for position, index in enumerate(indices):
            draw = uniform_for(plan.seed, TAG_JITTER, int(index))
            expected_hit = draw < plan.act_jitter_rate
            assert bool(hits[position]) == expected_hit
            if expected_hit:
                fraction = uniform_for(plan.seed, TAG_JITTER,
                                       int(index), 1)
                assert magnitudes[position] \
                    == plan.act_jitter_ns * fraction
            else:
                assert magnitudes[position] == 0.0

    def test_stuck_row_mask_matches_scalar_chain(self):
        import numpy as np

        from repro.dram.seeding import uniform_for
        from repro.faults.plan import TAG_STUCK

        plan = self.PLAN
        channels = np.repeat(np.arange(4), 25)
        pcs = np.tile(np.repeat(np.arange(2), 5), 10)
        banks = np.tile(np.arange(5), 20)
        rows = np.arange(100) * 37 % 1000
        mask = plan.stuck_row_mask(channels, pcs, banks, rows)
        for k in range(100):
            draw = uniform_for(plan.seed, TAG_STUCK, int(channels[k]),
                               int(pcs[k]), int(banks[k]), int(rows[k]))
            assert bool(mask[k]) == (draw < plan.stuck_row_rate)


class TestParseDiagnostics:
    """Satellite: parse failures must name the offending key path and
    the valid keys — HBMSIM_FAULTS typos should explain themselves."""

    def test_unknown_field_lists_valid_keys(self):
        with pytest.raises(FaultPlanError) as excinfo:
            FaultPlan.from_dict({"drop_rat": 0.01})
        message = str(excinfo.value)
        assert "drop_rat" in message
        assert "valid fields" in message
        assert "drop_rate" in message and "crash_once" in message

    def test_non_numeric_rate_names_the_field(self):
        with pytest.raises(FaultPlanError) as excinfo:
            FaultPlan.from_dict({"drop_rate": "high"})
        assert "drop_rate" in str(excinfo.value)
        assert "'high'" in str(excinfo.value)

    @pytest.mark.parametrize("value", [True, 1.5, "7"])
    def test_integral_fields_reject_non_integers(self, value):
        with pytest.raises(FaultPlanError) as excinfo:
            FaultPlan.from_dict({"seed": value})
        assert "seed" in str(excinfo.value)

    def test_bool_is_not_a_rate(self):
        with pytest.raises(FaultPlanError) as excinfo:
            FaultPlan.from_dict({"stall_rate": True})
        assert "stall_rate" in str(excinfo.value)

    @pytest.mark.parametrize("value", ["fig05", {"fig05": 1}, 3])
    def test_crash_once_must_be_a_list_of_ids(self, value):
        # A plain string used to silently become a tuple of characters.
        with pytest.raises(FaultPlanError) as excinfo:
            FaultPlan.from_dict({"crash_once": value})
        assert "crash_once" in str(excinfo.value)

    def test_crash_once_element_path_in_message(self):
        with pytest.raises(FaultPlanError) as excinfo:
            FaultPlan.from_dict({"crash_once": ["fig05", 7]})
        assert "crash_once[1]" in str(excinfo.value)

    @pytest.mark.parametrize("value", [["x"], "fig05: 1", 3])
    def test_stall_experiments_must_be_a_mapping(self, value):
        # A list used to escape as a bare ValueError from dict().
        with pytest.raises(FaultPlanError) as excinfo:
            FaultPlan.from_dict({"stall_experiments": value})
        assert "stall_experiments" in str(excinfo.value)

    def test_stall_experiments_value_path_in_message(self):
        with pytest.raises(FaultPlanError) as excinfo:
            FaultPlan.from_dict(
                {"stall_experiments": {"fig05": "long"}})
        assert "stall_experiments.fig05" in str(excinfo.value)
        with pytest.raises(FaultPlanError):
            FaultPlan.from_dict({"stall_experiments": {"fig05": -1}})

    def test_from_json_wraps_everything_as_fault_plan_error(self):
        for text in ('{"stall_experiments": ["x"]}',
                     '{"crash_once": "fig05"}',
                     '{"seed": 1.5}', '"just a string"'):
            with pytest.raises(FaultPlanError):
                FaultPlan.from_json(text)

    def test_valid_plan_still_parses(self):
        plan = FaultPlan.from_dict({
            "seed": 9, "drop_rate": 0.5,
            "crash_once": ["fig05"],
            "stall_experiments": {"fig07": 1.5}})
        assert plan.seed == 9
        assert plan.crash_once == ("fig05",)
        assert plan.stall_experiments == {"fig07": 1.5}
