"""Equivalence suite for the batched analytic experiment path.

Three invariants from the batched-engine contract:

- :func:`population_combos` (the block-chained, base-cached kernel) is
  bit-identical to per-combo :func:`population_grid` results,
- the ``*_multi`` WCDP helpers equal their scalar per-combo forms,
- the experiment reports are byte-identical with batching on and off
  (``HBMSIM_BATCH=0``), pinning the seed reference hashes for fig05 and
  fig07, and fig15's at two smoke scales.
"""

import hashlib

import numpy as np
import pytest

from repro.chips import vectorized
from repro.chips.profiles import make_chip
from repro.chips.vectorized import population_combos, population_grid
from repro.core import analytic
from repro.core.analytic import (combo_population, wcdp_ber,
                                 wcdp_ber_multi, wcdp_hc_first,
                                 wcdp_hc_first_multi)
from repro.experiments.registry import run_experiment

COMBOS = [(0, 0, 0), (2, 1, 3), (7, 0, 15)]
ROWS = np.array([0, 831, 832, 5000, 12000, 16383])
PATTERN = "Checkered0"


@pytest.fixture(scope="module")
def chip():
    return make_chip(2)


def clear_caches():
    analytic._COMBO_CACHE.clear()
    vectorized._COMBO_BASE_CACHE.clear()


class TestPopulationCombos:
    def test_matches_per_combo_grids(self, chip):
        clear_caches()
        batch = population_combos(
            chip,
            [channel for channel, __, __ in COMBOS],
            [pc for __, pc, __ in COMBOS],
            [bank for __, __, bank in COMBOS],
            ROWS, PATTERN)
        grids = [population_grid(chip, channel, pc, bank, ROWS, PATTERN)
                 for channel, pc, bank in COMBOS]
        # The batch materializes its deferred strong draws on first use.
        batch.ber(1.0e5)
        for field in ("f_weak", "mu_weak", "sigma_weak", "mu_strong",
                      "flippable", "n_weak", "profile_seeds"):
            stacked = np.concatenate(
                [np.atleast_1d(getattr(grid, field)) for grid in grids])
            assert np.array_equal(getattr(batch, field), stacked), field

    def test_measurements_match_per_combo(self, chip):
        clear_caches()
        batch = combo_population(chip, COMBOS, ROWS, PATTERN)
        shape = (len(COMBOS), ROWS.size)
        hc = batch.hc_first(1.25).reshape(shape)
        ber = batch.ber(2.0e5).reshape(shape)
        nth = batch.hc_nth(3, 1.25).reshape(shape + (3,))
        for index, (channel, pc, bank) in enumerate(COMBOS):
            grid = population_grid(chip, channel, pc, bank, ROWS, PATTERN)
            assert np.array_equal(hc[index], grid.hc_first(1.25))
            assert np.array_equal(ber[index], grid.ber(2.0e5))
            assert np.array_equal(nth[index], grid.hc_nth(3, 1.25))

    def test_cached_base_is_bit_identical(self, chip):
        """A second pattern reuses the pattern-independent base; results
        must equal a from-scratch computation."""
        clear_caches()
        combo_population(chip, COMBOS, ROWS, "Checkered0")
        warm = combo_population(chip, COMBOS, ROWS, "RowStripe0")
        warm.ber(1.0e5)
        clear_caches()
        cold = combo_population(chip, COMBOS, ROWS, "RowStripe0")
        cold.ber(1.0e5)
        for field in ("f_weak", "mu_weak", "sigma_weak", "mu_strong",
                      "flippable", "n_weak", "profile_seeds"):
            assert np.array_equal(getattr(warm, field),
                                  getattr(cold, field)), field

    def test_combo_cache_returns_memo(self, chip):
        clear_caches()
        first = combo_population(chip, COMBOS, ROWS, PATTERN)
        assert combo_population(chip, COMBOS, ROWS, PATTERN) is first


class TestWcdpMulti:
    def test_hc_first_multi_matches_scalar(self, chip):
        clear_caches()
        multi = wcdp_hc_first_multi(chip, COMBOS, ROWS)
        for index, (channel, pc, bank) in enumerate(COMBOS):
            scalar = wcdp_hc_first(chip, channel, pc, bank, ROWS)
            for name, values in scalar.items():
                assert np.array_equal(multi[name][index], values), name

    def test_ber_multi_matches_scalar(self, chip):
        clear_caches()
        multi = wcdp_ber_multi(chip, COMBOS, ROWS, hammer_count=300_000)
        for index, (channel, pc, bank) in enumerate(COMBOS):
            scalar = wcdp_ber(chip, channel, pc, bank, ROWS,
                              hammer_count=300_000)
            for name, values in scalar.items():
                assert np.array_equal(multi[name][index], values), name


def report_hash(experiment_id: str, scale: float) -> str:
    result = run_experiment(experiment_id, scale)
    return hashlib.sha256(result.text.encode()).hexdigest()[:16]


class TestExperimentEquivalence:
    def test_fig05_reference_hash(self):
        assert report_hash("fig05", 0.25) == "44546c2cd83c30da"

    def test_fig07_reference_hash(self):
        assert report_hash("fig07", 0.25) == "e22a1494c3310f21"

    @pytest.mark.parametrize("scale,expected",
                             [(0.02, "6fcf06d929cebebf"),
                              (0.06, "0c1cb22a0726de4b")])
    def test_fig15_reference_hash(self, scale, expected):
        assert report_hash("fig15", scale) == expected

    @pytest.mark.parametrize("experiment_id,scale",
                             [("fig04", 0.02), ("fig08", 0.02),
                              ("fig10", 0.02), ("fig13", 0.02)])
    def test_batch_off_is_byte_identical(self, experiment_id, scale,
                                         monkeypatch):
        batched = run_experiment(experiment_id, scale).text
        monkeypatch.setenv("HBMSIM_BATCH", "0")
        scalar = run_experiment(experiment_id, scale).text
        assert scalar == batched
