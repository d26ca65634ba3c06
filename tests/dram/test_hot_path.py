"""Equivalence of the scalar device's cached per-row lookups.

The subarray bounds, neighbour filter, row threshold floor and retention
floor are computed once and reused; each must equal the linear-scan or
unmemoized computation it replaces.
"""

import dataclasses

import numpy as np
import pytest

from repro.chips.profiles import CHIP_SPECS, ChipProfile
from repro.core.patterns import PATTERNS_BY_NAME
from repro.dram.cell_model import CellPopulation
from repro.dram.device import UniformProfileProvider
from repro.dram.geometry import (DEFAULT_GEOMETRY, HBM2Geometry, RowAddress,
                                 SubarrayLayout, adjacent_rows)
from repro.dram.retention import GUARANTEED_RETENTION_NS, RetentionModel

PATTERN_NAMES = ("Rowstripe0", "Rowstripe1", "Checkered0", "Checkered1")


def linear_subarray_of(sizes, row):
    offset = 0
    for index, size in enumerate(sizes):
        offset += size
        if row < offset:
            return index
    raise AssertionError("row out of range")


def linear_adjacent_rows(sizes, row, radius):
    rows = sum(sizes)
    home = linear_subarray_of(sizes, row)
    return [row + offset for offset in range(-radius, radius + 1)
            if offset and 0 <= row + offset < rows
            and linear_subarray_of(sizes, row + offset) == home]


@pytest.mark.parametrize("sizes", [SubarrayLayout().sizes, (3, 1, 5, 2)],
                         ids=["default", "irregular"])
def test_layout_lookups_match_linear_scan(sizes):
    layout = SubarrayLayout(sizes)
    geometry = HBM2Geometry(rows=layout.rows, subarrays=layout)
    for row in range(layout.rows):
        index = linear_subarray_of(sizes, row)
        assert layout.subarray_of(row) == index
        lo, hi = layout.bounds_of(row)
        assert (lo, hi) == (sum(sizes[:index]), sum(sizes[:index + 1]))
        assert layout.position_in_subarray(row) \
            == (index, row - lo, sizes[index])
        address = RowAddress(1, 0, 2, row)
        for radius in (1, 2, 3):
            neighbours = adjacent_rows(address, geometry, radius)
            assert [n.row for n in neighbours] \
                == linear_adjacent_rows(sizes, row, radius)
            assert all(n.bank_key == address.bank_key for n in neighbours)


def test_one_row_subarray_has_no_neighbours():
    layout = SubarrayLayout((3, 1, 5, 2))
    geometry = HBM2Geometry(rows=layout.rows, subarrays=layout)
    assert layout.bounds_of(3) == (3, 4)
    assert adjacent_rows(RowAddress(0, 0, 0, 3), geometry, 3) == []


def test_bounds_of_rejects_rows_outside_the_bank():
    layout = SubarrayLayout((3, 1, 5, 2))
    for row in (-1, layout.rows):
        with pytest.raises(ValueError):
            layout.bounds_of(row)


def unmemoized_floor(provider, address, pattern):
    profile = provider.profile(address, pattern)
    population = profile.population
    return min(float(profile.hc_first()),
               10.0 ** (population.mu_strong - 3.0 * population.sigma_strong))


def random_addresses(count, seed):
    rng = np.random.default_rng(seed)
    geometry = DEFAULT_GEOMETRY
    return [RowAddress(int(rng.integers(geometry.channels)),
                       int(rng.integers(geometry.pseudo_channels)),
                       int(rng.integers(geometry.banks)),
                       int(rng.integers(geometry.rows)))
            for __ in range(count)]


@pytest.fixture(params=["chip", "uniform"])
def provider(request):
    if request.param == "chip":
        return ChipProfile(CHIP_SPECS[2])
    return UniformProfileProvider(CellPopulation(f_weak=0.014, mu_weak=5.0))


def test_min_threshold_matches_unmemoized_expression(provider):
    addresses = random_addresses(40, seed=7)
    for __ in range(2):  # cold memo, then warm
        for address in addresses:
            for pattern in PATTERN_NAMES:
                assert provider.min_threshold(address, pattern) \
                    == unmemoized_floor(provider, address, pattern)
    assert len(provider._min_thresholds) \
        == len(set(addresses)) * len(PATTERN_NAMES)


def test_retention_floor_memo_matches_fresh_draw():
    model = RetentionModel(seed=42)
    for address in random_addresses(50, seed=3):
        first = model.row_retention_ns(address)
        assert model.row_retention_ns(address) == first
        assert RetentionModel(seed=42).row_retention_ns(address) == first
        assert first > GUARANTEED_RETENTION_NS
    # A derived model must not inherit the memo of its source.
    address = RowAddress(0, 0, 0, 9)
    slower = dataclasses.replace(model, median_ns=model.median_ns * 4)
    assert slower.row_retention_ns(address) \
        > model.row_retention_ns(address)
    assert model == RetentionModel(seed=42)


def run_sequence(device):
    """Write, hammer, refresh and read back a few victim rows."""
    pattern = PATTERNS_BY_NAME["Checkered0"]
    victims = [RowAddress(3, 1, 5, row) for row in (1000, 1003, 831)]
    for victim in victims:
        for row in range(victim.row - 2, victim.row + 3):
            data = pattern.victim_row(device.geometry.row_bytes) \
                if row == victim.row \
                else pattern.aggressor_row(device.geometry.row_bytes)
            device.write_row(victim.with_row(row), data)
    for victim in victims:
        device.hammer(victim.with_row(victim.row - 1), 150_000)
        device.hammer(victim.with_row(victim.row + 1), 150_000, t_on=90.0)
    for __ in range(5):
        device.refresh(3, 1)
    device.wait(5.0e8)
    return [device.read_row(victim.with_row(row)).tobytes()
            for victim in victims
            for row in range(victim.row - 2, victim.row + 3)]


def test_devices_of_one_chip_share_the_floor_memo():
    chip = ChipProfile(CHIP_SPECS[0])
    cold = chip.make_device()
    cold_reads = run_sequence(cold)
    floors = dict(chip._min_thresholds)
    assert floors
    warm = chip.make_device()
    warm_reads = run_sequence(warm)
    assert warm_reads == cold_reads
    assert warm.stats == cold.stats
    assert cold.stats.committed_bitflips > 0
    assert chip._min_thresholds == floors
