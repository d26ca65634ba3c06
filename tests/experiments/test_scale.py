"""Strict scale handling: ``scaled()`` boundaries and ``HBMSIM_SCALE``.

The ISSUE-8 contract: a scale that parses but cannot scale a
population (NaN, inf, <= 0) fails loudly; an outright unparsable value
warns once per distinct value and falls back to 1.0, so a typo never
silently runs a different population.
"""

import warnings

import pytest

from repro import config
from repro.config import default_scale
from repro.experiments.base import scaled


class TestScaledBoundaries:
    def test_identity_at_full_scale(self):
        assert scaled(3072, 1.0) == 3072

    def test_minimum_clamp(self):
        assert scaled(3072, 1e-9) == 8
        assert scaled(3072, 1e-9, minimum=64) == 64

    def test_minimum_clamp_is_inclusive(self):
        # Exactly the minimum stays the minimum (no off-by-one).
        assert scaled(64, 1.0, minimum=64) == 64
        assert scaled(65, 1.0, minimum=64) == 65

    def test_rounds_to_nearest(self):
        assert scaled(1000, 0.0994, minimum=8) == 99
        assert scaled(1000, 0.0996, minimum=8) == 100

    def test_half_ties_round_to_even(self):
        # Python's round(): 30.5 -> 30, 31.5 -> 32.  Pinned so a
        # reimplementation cannot silently shift population sizes.
        assert scaled(1000, 0.0305, minimum=8) == 30
        assert scaled(1000, 0.0315, minimum=8) == 32

    def test_scale_above_one_grows(self):
        assert scaled(1000, 2.5) == 2500

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            scaled(100, 0.0)
        with pytest.raises(ValueError):
            scaled(100, -0.25)


class TestDefaultScaleStrict:
    @pytest.fixture(autouse=True)
    def _fresh_warn_state(self, monkeypatch):
        monkeypatch.setattr(config, "_WARNED", set())

    def test_unset_and_blank_default_to_one(self, monkeypatch):
        monkeypatch.delenv("HBMSIM_SCALE", raising=False)
        assert default_scale() == 1.0
        monkeypatch.setenv("HBMSIM_SCALE", "   ")
        assert default_scale() == 1.0

    def test_parsable_value_wins(self, monkeypatch):
        monkeypatch.setenv("HBMSIM_SCALE", "0.125")
        assert default_scale() == 0.125

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf",
                                       "0", "0.0", "-1", "-0.25"])
    def test_unusable_numbers_fail_loudly(self, monkeypatch, value):
        monkeypatch.setenv("HBMSIM_SCALE", value)
        with pytest.raises(ValueError):
            default_scale()

    def test_unparsable_warns_once_then_defaults(self, monkeypatch):
        monkeypatch.setenv("HBMSIM_SCALE", "quarter")
        with pytest.warns(RuntimeWarning, match="quarter"):
            assert default_scale() == 1.0
        # Second read of the same typo: silent, same fallback.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert default_scale() == 1.0

    def test_distinct_typos_each_warn(self, monkeypatch):
        monkeypatch.setenv("HBMSIM_SCALE", "fast")
        with pytest.warns(RuntimeWarning):
            default_scale()
        monkeypatch.setenv("HBMSIM_SCALE", "slow")
        with pytest.warns(RuntimeWarning):
            default_scale()
