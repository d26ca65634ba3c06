"""Scorecard mechanics, and the gate: every headline claim must PASS."""

import pytest

from repro.experiments.base import ExperimentResult
from repro.experiments.scorecard import (CLAIMS, Claim, DEFAULT_SCALES,
                                         Scorecard, _fmt, _within_abs,
                                         _within_factor, build_scorecard)


def make_result(data) -> ExperimentResult:
    return ExperimentResult("x", "t", "text", data, {})


class TestComparators:
    def test_within_factor(self):
        check = _within_factor(2.0)
        assert check.__name__ == "within x2"
        assert check(1.0, 1.9)
        assert check(1.9, 1.0)
        assert not check(1.0, 2.1)
        assert not check(-1.0, 1.0)

    def test_within_abs(self):
        check = _within_abs(0.5)
        assert check.__name__ == "within +-0.5"
        assert check(1.0, 1.4)
        assert not check(1.0, 1.6)


class TestClaimEvaluation:
    def test_pass_and_fail(self):
        claim = Claim("c", "x", "d", 10.0,
                      lambda r: r.data["v"], _within_factor(1.5))
        assert claim.evaluate(make_result({"v": 12.0})).passed
        assert not claim.evaluate(make_result({"v": 30.0})).passed

    def test_outcome_carries_measured(self):
        claim = Claim("c", "x", "d", 10.0,
                      lambda r: r.data["v"], _within_factor(1.5))
        outcome = claim.evaluate(make_result({"v": 12.0}))
        assert outcome.measured == 12.0


class TestRegistry:
    def test_claim_count(self):
        assert len(CLAIMS) >= 30

    def test_claim_ids_unique(self):
        ids = [claim.claim_id for claim in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_every_claim_experiment_has_scale(self):
        for claim in CLAIMS:
            assert claim.experiment_id in DEFAULT_SCALES

    def test_claims_cover_every_analysis_section(self):
        experiments = {claim.experiment_id for claim in CLAIMS}
        assert {"fig04", "fig05", "fig06", "fig08", "fig09", "fig10",
                "fig11", "fig12", "fig13", "sec7", "fig14",
                "fig15"} <= experiments


class TestRendering:
    def test_render_counts(self):
        claim = Claim("c", "x", "d", True, lambda r: True,
                      lambda m, p: m is True)
        outcome = claim.evaluate(make_result({}))
        scorecard = Scorecard([outcome], {})
        text = scorecard.render()
        assert "1/1 headline claims reproduced" in text
        assert "PASS" in text


class TestScorecardGate:
    def test_every_claim_passes_at_default_scales(self):
        """The paper's headline claims at ``DEFAULT_SCALES``: a claim
        that flips to DEVIATES fails here with its measured value next
        to the paper value and the tolerance it was graded against."""
        scorecard = build_scorecard(DEFAULT_SCALES)
        assert scorecard.total == len(CLAIMS)
        deviating = [
            f"{outcome.claim.claim_id}: measured {_fmt(outcome.measured)},"
            f" paper {_fmt(outcome.claim.paper_value)}"
            f" ({outcome.claim.check.__name__})"
            for outcome in scorecard.outcomes if not outcome.passed]
        assert not deviating, "claims DEVIATE:\n" + "\n".join(deviating)
