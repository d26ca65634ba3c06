"""Automated reproduction scorecard.

Every headline claim of the paper is encoded as a :class:`Claim` with a
reference value, an extractor over the corresponding experiment's data,
and a tolerance.  ``build_scorecard`` runs the experiments once and
grades each claim PASS / DEVIATES — the machine-checkable version of
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.reporting import render_table
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import run_experiment

#: Default per-experiment scales (mirrors the benchmark harness).
DEFAULT_SCALES: Dict[str, float] = {
    "fig03": 0.05, "fig04": 0.05, "fig05": 0.08, "fig06": 0.04,
    "fig07": 0.08, "fig08": 0.12, "fig09": 0.33, "fig10": 1.0,
    "fig11": 1.0, "fig12": 0.33, "fig13": 1.0, "sec7": 1.0,
    "fig14": 0.25, "fig15": 0.06,
}


@dataclass(frozen=True)
class Claim:
    """One checkable paper claim."""

    claim_id: str
    experiment_id: str
    description: str
    paper_value: Any
    extract: Callable[[ExperimentResult], Any]
    check: Callable[[Any, Any], bool]

    def evaluate(self, result: ExperimentResult) -> "ClaimOutcome":
        measured = self.extract(result)
        passed = bool(self.check(measured, self.paper_value))
        return ClaimOutcome(self, measured, passed)


@dataclass(frozen=True)
class ClaimOutcome:
    claim: Claim
    measured: Any
    passed: bool


def _within_factor(factor: float) -> Callable[[float, float], bool]:
    def check(measured: float, reference: float) -> bool:
        if measured <= 0 or reference <= 0:
            return False
        ratio = measured / reference
        return 1.0 / factor <= ratio <= factor

    check.__name__ = f"within x{factor:g}"
    return check


def _within_abs(tolerance: float) -> Callable[[float, float], bool]:
    def check(measured: float, reference: float) -> bool:
        return abs(measured - reference) <= tolerance

    check.__name__ = f"within +-{tolerance:g}"
    return check


def _equals(measured: Any, reference: Any) -> bool:
    return measured == reference


def _is_true(measured: Any, reference: Any) -> bool:
    return bool(measured) is True


def _in_range(measured: Any, reference: Any) -> bool:
    low, high = reference
    return low <= measured <= high


CLAIMS: List[Claim] = [
    # --- Fig. 3 -------------------------------------------------------
    Claim("fig03.chip0-at-82C", "fig03",
          "Chip 0 regulated at 82 C", 82.0,
          lambda r: r.data["Chip 0"]["mean_c"], _within_abs(1.0)),
    # --- Fig. 4 (Obsv. 1-3, Takeaway 1) ---------------------------------
    Claim("fig04.bitflips-everywhere", "fig04",
          "Bitflips in every tested row of every chip", True,
          lambda r: all(r.data[f"Chip {i}"]["WCDP"]["min"] > 0
                        for i in range(6)), _is_true),
    Claim("fig04.chip0-mean", "fig04",
          "Chip 0 Checkered0 mean BER ~1.04%", 0.0104,
          lambda r: r.data["Chip 0"]["Checkered0"]["mean"],
          _within_factor(1.5)),
    Claim("fig04.chip0-max", "fig04",
          "Chip 0 max BER ~3.02%", 0.0302,
          lambda r: r.data["Chip 0"]["Checkered0"]["max"],
          _within_factor(1.6)),
    Claim("fig04.chip5-mean", "fig04",
          "Chip 5 Checkered0 mean BER ~0.66%", 0.0066,
          lambda r: r.data["Chip 5"]["Checkered0"]["mean"],
          _within_factor(1.5)),
    Claim("fig04.checkered-beats-rowstripe", "fig04",
          "Checkered patterns couple harder than rowstripe", True,
          lambda r: r.data["mean_checkered"] > r.data["mean_rowstripe"],
          _is_true),
    Claim("fig04.chip-spread", "fig04",
          "Chip-mean WCDP spread ~0.49 pp", 0.0049,
          lambda r: r.data["wcdp_chip_mean_spread"], _within_factor(2.0)),
    # --- Fig. 5 (Obsv. 4-6, Takeaway 2) ---------------------------------
    Claim("fig05.minima-band", "fig05",
          "Every chip's min HC_first within the 14.5-18.1K band (x2)",
          (9_000, 40_000),
          lambda r: (min(r.data["minima"].values()),
                     max(r.data["minima"].values())),
          lambda measured, ref: ref[0] <= measured[0]
          and measured[1] <= ref[1]),
    Claim("fig05.chip5-above-chip2", "fig05",
          "Chip 5 mean HC_first above Chip 2 (Rowstripe0)", True,
          lambda r: r.data["chip5_over_chip2_rowstripe0"] > 1.0,
          _is_true),
    # --- Fig. 6 (Obsv. 7-11, Takeaway 3) --------------------------------
    Claim("fig06.ch7-over-ch3", "fig06",
          "Chip 0 CH7/CH3 mean BER ratio ~1.99x", 1.99,
          lambda r: r.data["chip0_ch7_over_ch3"], _within_factor(1.35)),
    Claim("fig06.channel-beats-chip-spread", "fig06",
          "Chip 4 channel spread exceeds chip-level spread", True,
          lambda r: r.data["Chip 4"]["checkered0_channel_spread"]
          > r.data["chip_level_spread_checkered0"], _is_true),
    Claim("fig06.chip5-exception", "fig06",
          "Chip 5 has the smallest channel spread (Obsv. 11 exception)",
          True,
          lambda r: r.data["Chip 5"]["checkered0_channel_spread"]
          == min(r.data[f"Chip {i}"]["checkered0_channel_spread"]
                 for i in range(6)), _is_true),
    # --- Fig. 8 (Obsv. 14-15, Takeaway 4) -------------------------------
    Claim("fig08.subarray-sizes", "fig08",
          "Subarrays of 832 and 768 rows", [768, 832],
          lambda r: sorted(set(r.data["subarray_sizes"])), _equals),
    Claim("fig08.resilient-subarrays", "fig08",
          "Middle+last subarrays clearly below normal BER", True,
          lambda r: all(c["resilient_over_normal"] < 0.8
                        for c in r.data["per_channel"].values()),
          _is_true),
    Claim("fig08.mid-subarray-peak", "fig08",
          "BER peaks toward the middle of a subarray", True,
          lambda r: r.data["mid_over_edge"] > 1.1, _is_true),
    # --- Fig. 9 (Obsv. 16-17, Takeaway 5) -------------------------------
    Claim("fig09.bimodal-orientation", "fig09",
          "Higher-mean banks vary less (bimodal clusters)", True,
          lambda r: r.data["low_cv_cluster_mean_ber"]
          > r.data["high_cv_cluster_mean_ber"], _is_true),
    # --- Fig. 10 (Obsv. 18-19) ------------------------------------------
    Claim("fig10.below-2x", "fig10",
          "10 bitflips within 2x HC_first on average", True,
          lambda r: r.data["mean_normalized"]["Rowstripe1"][-1] < 2.0,
          _is_true),
    Claim("fig10.hc10-mean", "fig10",
          "Mean normalized HC_tenth ~1.76x (Rowstripe1)", 1.76,
          lambda r: r.data["mean_normalized"]["Rowstripe1"][-1],
          _within_factor(1.25)),
    # --- Fig. 11 (Obsv. 20, Takeaway 6) ---------------------------------
    Claim("fig11.all-negative", "fig11",
          "HC_first vs additional hammers: negative for every chip",
          True,
          lambda r: all(v < 0.05 for v in r.data["pearson"].values()),
          _is_true),
    # --- Fig. 12 (Obsv. 21-22, Takeaway 7) -------------------------------
    Claim("fig12.monotone", "fig12",
          "BER grows monotonically with t_AggON", True,
          lambda r: r.data["monotone"], _is_true),
    Claim("fig12.trefi-value", "fig12",
          "Mean BER ~31% at t_AggON = tREFI", 0.31,
          lambda r: r.data["series"][3.9e3], _within_abs(0.06)),
    Claim("fig12.polarity-cap", "fig12",
          "BER converges to ~50% at 9*tREFI", True,
          lambda r: r.data["converges_to_half"], _is_true),
    # --- Fig. 13 (Obsv. 23) ----------------------------------------------
    Claim("fig13.mean-at-tras", "fig13",
          "Mean HC_first ~83689 at tRAS", 83_689,
          lambda r: r.data["mean"][29.0], _within_factor(1.25)),
    Claim("fig13.reduction", "fig13",
          "222.57x mean HC_first reduction at 35.1 us", 222.57,
          lambda r: r.data["reduction_at_35us"], _within_factor(1.05)),
    Claim("fig13.hc-of-one", "fig13",
          "HC_first reaches 1 at 16 ms", True,
          lambda r: r.data["hc_first_of_one_at_16ms"], _is_true),
    # --- Section 7 (Obsv. 24-27, Takeaways 8-9) --------------------------
    Claim("sec7.cadence", "sec7",
          "Every 17th REF is TRR-capable", 17,
          lambda r: r.data["cadence"], _equals),
    Claim("sec7.both-neighbors", "sec7",
          "Both neighbors of a detected aggressor are refreshed", True,
          lambda r: r.data["refreshes_both_neighbors"], _is_true),
    Claim("sec7.first-act", "sec7",
          "First row activated after a capable REF is detected", True,
          lambda r: r.data["first_activation_detected"], _is_true),
    Claim("sec7.count-rule", "sec7",
          "Half-of-total activation comparator (at, not below, half)",
          True,
          lambda r: r.data["count_rule_at_half"]
          and not r.data["count_rule_below_half"], _is_true),
    # --- Fig. 14 (Takeaway 9) --------------------------------------------
    Claim("fig14.budget", "fig14",
          "78-activation budget per tREFI window", 78,
          lambda r: 78 if "Activation budget per tREFI window: 78"
          in r.text else -1, _equals),
    Claim("fig14.four-dummies", "fig14",
          "At least 4 dummy rows required to bypass TRR", 4,
          lambda r: r.data["bypass_threshold_dummies"], _equals),
    Claim("fig14.scaling", "fig14",
          "BER scaling ~10.28x from 18 to 34 aggressor ACTs",
          (4.0, 30.0),
          lambda r: r.data["acts_scaling_8_dummies"][34], _in_range),
    # --- Fig. 15 (Section 8.1) -------------------------------------------
    Claim("fig15.beyond-secded", "fig15",
          "~5% of words exceed SECDED's 2-flip budget", (0.005, 0.15),
          lambda r: r.data["histogram"]["Checkered0"][3]
          / r.data["total_words"], _in_range),
    Claim("fig15.multi-flip", "fig15",
          "Most flipped words hold more than one flip", True,
          lambda r: (r.data["histogram"]["Checkered0"][2]
                     + r.data["histogram"]["Checkered0"][3])
          / max(1, sum(r.data["histogram"]["Checkered0"].values()))
          > 0.5, _is_true),
]


@dataclass
class Scorecard:
    """Evaluated claims plus the experiment results they came from."""

    outcomes: List[ClaimOutcome]
    results: Dict[str, ExperimentResult]

    @property
    def passed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.passed)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    def render(self) -> str:
        rows = []
        for outcome in self.outcomes:
            rows.append([
                outcome.claim.claim_id,
                outcome.claim.description,
                str(outcome.claim.paper_value),
                _fmt(outcome.measured),
                "PASS" if outcome.passed else "DEVIATES",
            ])
        table = render_table(
            ["Claim", "Description", "Paper", "Measured", "Verdict"],
            rows, title="Reproduction scorecard")
        return (f"{table}\n\n{self.passed}/{self.total} headline claims "
                "reproduced")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def build_scorecard(scales: Optional[Dict[str, float]] = None
                    ) -> Scorecard:
    """Run the required experiments and evaluate every claim."""
    if scales is None:
        scales = DEFAULT_SCALES
    needed = {claim.experiment_id for claim in CLAIMS}
    results = {experiment_id: run_experiment(
        experiment_id, scales.get(experiment_id, 0.05))
        for experiment_id in sorted(needed)}
    outcomes = [claim.evaluate(results[claim.experiment_id])
                for claim in CLAIMS]
    return Scorecard(outcomes, results)


def main(argv=None) -> int:  # pragma: no cover - thin CLI
    """CLI: ``python -m repro.experiments.scorecard [--scale S]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.scorecard",
        description="Grade every headline claim paper-vs-measured.")
    parser.add_argument("--scale", type=float, default=None,
                        help="override every experiment's scale")
    args = parser.parse_args(argv)
    scales = None
    if args.scale is not None:
        scales = {key: args.scale for key in DEFAULT_SCALES}
    scorecard = build_scorecard(scales)
    print(scorecard.render())
    return 0 if scorecard.passed == scorecard.total else 1


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
