"""Tests running every experiment at reduced scale.

These are the integration points the benchmark harness exercises at
larger scale; here we verify structure and the paper's *shape* claims on
small populations.
"""

import pytest

from repro.config import default_scale
from repro.experiments.base import ExperimentResult, scaled
from repro.experiments.registry import EXPERIMENTS, run_all, run_experiment

#: Scale small enough for CI, large enough for the shape assertions.
SCALE = 0.02


@pytest.fixture(scope="module")
def results():
    """Run the cheap experiments once (the heavyweights get their own
    dedicated tests below)."""
    cheap = ("table1", "table2", "table3", "fig04", "fig05", "fig06",
             "fig07", "fig09", "fig12", "fig13", "fig14", "fig15")
    return {experiment_id: run_experiment(experiment_id, SCALE)
            for experiment_id in cheap}


class TestRegistry:
    def test_seventeen_artifacts(self):
        """3 tables + 13 figures/sections = every artifact in the paper's
        evaluation."""
        assert len(EXPERIMENTS) == 17

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_paper_order(self):
        ids = list(EXPERIMENTS)
        assert ids[0] == "table1"
        assert ids[-1] == "fig15"


class TestStructure:
    def test_results_have_text_and_reference(self, results):
        for result in results.values():
            assert isinstance(result, ExperimentResult)
            assert result.text
            assert result.paper_reference
            assert str(result) == result.text


class TestTables:
    def test_table1_matches_paper(self, results):
        assert results["table1"].data == results["table1"].paper_reference

    def test_table2_matches_paper(self, results):
        assert results["table2"].data == results["table2"].paper_reference

    def test_table3_matches_paper(self, results):
        assert results["table3"].data == results["table3"].paper_reference


class TestFig04:
    def test_checkered_beats_rowstripe(self, results):
        data = results["fig04"].data
        assert data["mean_checkered"] > data["mean_rowstripe"]

    def test_chip0_worse_than_chip5(self, results):
        data = results["fig04"].data
        assert data["Chip 0"]["Checkered0"]["mean"] > \
            data["Chip 5"]["Checkered0"]["mean"]

    def test_means_in_paper_ballpark(self, results):
        data = results["fig04"].data
        assert data["Chip 0"]["Checkered0"]["mean"] == pytest.approx(
            0.0104, rel=0.4)
        assert data["Chip 5"]["Checkered0"]["mean"] == pytest.approx(
            0.0066, rel=0.4)


class TestFig05:
    def test_minima_in_ballpark(self, results):
        """At reduced scale the minima are upper estimates; they must
        still sit within a factor of ~3 of the paper's 14.5-18K."""
        minima = results["fig05"].data["minima"]
        for value in minima.values():
            assert 10_000 < value < 60_000


class TestFig06:
    def test_chip0_extreme_ratio(self, results):
        data = results["fig06"].data
        assert data["Chip 0"]["extreme_ratio_wcdp"] == pytest.approx(
            1.99, rel=0.35)

    def test_channel_spread_dominates_chip_spread(self, results):
        """Obsv. 11 for Chip 4 (largest channel spread)."""
        data = results["fig06"].data
        assert data["Chip 4"]["checkered0_channel_spread"] > \
            data["chip_level_spread_checkered0"]

    def test_chip5_exception(self, results):
        """Obsv. 11: Chip 5's channel spread is the smallest."""
        data = results["fig06"].data
        spreads = {label: data[label]["checkered0_channel_spread"]
                   for label in (f"Chip {i}" for i in range(6))}
        assert spreads["Chip 5"] == min(spreads.values())


class TestFig09:
    def test_bimodal_and_higher_mean_lower_cv(self, results):
        data = results["fig09"].data
        assert data["bank_count"] == 256
        assert data["low_cv_cluster_mean_ber"] > \
            data["high_cv_cluster_mean_ber"]


class TestFig12:
    def test_monotone_and_converges(self, results):
        data = results["fig12"].data
        assert data["monotone"]
        assert data["converges_to_half"]


class TestFig13:
    def test_mean_series_matches_paper(self, results):
        data = results["fig13"].data
        assert data["mean"][29.0] == pytest.approx(83_689, rel=0.25)
        assert data["mean"][3.9e3] == pytest.approx(1_519, rel=0.25)
        assert data["mean"][35.1e3] == pytest.approx(376, rel=0.25)
        assert data["hc_first_of_one_at_16ms"]

    def test_reduction_factor(self, results):
        assert results["fig13"].data["reduction_at_35us"] == \
            pytest.approx(222.57, rel=0.05)


class TestFig14:
    def test_bypass_threshold(self, results):
        assert results["fig14"].data["bypass_threshold_dummies"] == 4

    def test_acts_scaling_monotone(self, results):
        scaling = results["fig14"].data["acts_scaling_8_dummies"]
        assert scaling[18] == pytest.approx(1.0)
        assert scaling[24] < scaling[30] < scaling[34]


class TestFig15:
    def test_beyond_secded_substantial(self, results):
        data = results["fig15"].data
        beyond = data["histogram"]["Checkered0"][3]
        assert beyond / data["total_words"] > 0.005


class TestScaling:
    def test_scaled_respects_minimum(self):
        assert scaled(1000, 0.001, minimum=8) == 8
        assert scaled(1000, 1.0) == 1000

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            scaled(100, 0.0)

    def test_default_scale_env(self, monkeypatch):
        monkeypatch.setenv("HBMSIM_SCALE", "0.25")
        assert default_scale() == 0.25
        monkeypatch.setenv("HBMSIM_SCALE", "-1")
        with pytest.raises(ValueError):
            default_scale()
        monkeypatch.delenv("HBMSIM_SCALE")
        assert default_scale() == 1.0


class TestHeavyExperiments:
    """fig03 (thermal), fig08 (row profile), fig10/11 (HC_nth), sec7
    (probe) run individually with their own smaller budgets."""

    def test_fig03(self):
        result = run_experiment("fig03", 0.02)
        assert result.data["Chip 0"]["controlled"]
        assert result.data["Chip 0"]["mean_c"] == pytest.approx(82.0,
                                                                abs=1.5)
        for index in range(1, 6):
            assert result.data[f"Chip {index}"]["peak_to_peak_c"] < 4.0

    def test_fig08(self):
        result = run_experiment("fig08", 0.05)
        for channel_data in result.data["per_channel"].values():
            assert channel_data["resilient_over_normal"] < 0.80
        assert result.data["mid_over_edge"] > 1.1
        assert sorted(set(result.data["subarray_sizes"])) == [768, 832]

    def test_fig10(self):
        result = run_experiment("fig10", 0.5)
        means = result.data["mean_normalized"]["Rowstripe1"]
        assert means[0] == pytest.approx(1.0)
        assert means[-1] < 2.0
        lo, hi = result.data["normalized_range"]
        assert lo < 1.3 and hi > 2.5

    def test_fig11(self):
        result = run_experiment("fig11", 0.5)
        assert result.data["all_negative"] or (
            sum(1 for v in result.data["pearson"].values() if v < 0) >= 5)

    def test_sec7(self):
        result = run_experiment("sec7", 1.0)
        assert result.data["cadence"] == 17
        assert result.data["refreshes_both_neighbors"]
        assert result.data["first_activation_detected"]
        assert result.data["sampler_capacity"] == 4
        assert result.data["count_rule_at_half"]
        assert not result.data["count_rule_below_half"]
