"""Analytic measurement engine.

Large-population experiments (Figs. 4-13) evaluate BER and HC_first over
up to hundreds of thousands of (row, pattern) combinations.  Driving the
command-level device for each would be faithful but wasteful: the device
itself computes flips from the same closed-form cell populations.  This
module evaluates those quantities directly from a chip profile via the
vectorized grids — bit-consistent with the device engine (tests assert
it) — and owns the mapping from experiment parameters (hammer count,
t_AggON, sidedness) to effective disturbance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from collections import OrderedDict

from repro.chips.profiles import ChipProfile
from repro.chips.vectorized import (PopulationBatch, PopulationGrid,
                                    population_batch, population_combos,
                                    population_grid)
from repro.config import cells_chunk_elems
from repro.core import metrics
from repro.core.patterns import ALL_PATTERNS
from repro.dram.cells import allocate_cells, chunk_combo_blocks
from repro.dram.geometry import RowAddress

#: One (channel, pseudo_channel, bank) coordinate of a study sweep.
Combo = Tuple[int, int, int]


def effective_hammers(chip: ChipProfile, hammer_count: float,
                      t_on: Optional[float] = None,
                      sides: int = 2) -> float:
    """Effective baseline units of a hammer test (per-side count)."""
    baseline = chip.disturbance.min_t_on
    return chip.disturbance.effective_hammers(
        hammer_count, baseline if t_on is None else t_on, sides=sides)


def amplification(chip: ChipProfile, t_on: Optional[float]) -> float:
    """RowPress amplification at ``t_on`` (1.0 at the tRAS baseline)."""
    if t_on is None:
        return 1.0
    return chip.disturbance.amplification(t_on)


@dataclass
class GridMeasurement:
    """BER and HC_first arrays for one (bank, pattern) row population."""

    chip: ChipProfile
    grid: PopulationGrid
    hammer_count: int
    t_on: Optional[float]

    @property
    def rows(self) -> np.ndarray:
        """Row indices measured."""
        return self.grid.rows

    def ber(self, sampled: bool = True,
            rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Per-row BER at the configured hammer count and on-time."""
        eff = effective_hammers(self.chip, self.hammer_count, self.t_on)
        if sampled:
            return self.grid.sampled_ber(eff, rng)
        return self.grid.ber(eff)

    def hc_first(self) -> np.ndarray:
        """Per-row HC_first at the configured on-time."""
        return self.grid.hc_first(amplification(self.chip, self.t_on))

    def hc_nth(self, n: int) -> np.ndarray:
        """Per-row hammer counts of the first ``n`` bitflips."""
        return self.grid.hc_nth(n, amplification(self.chip, self.t_on))


def measure(chip: ChipProfile, channel: int, pseudo_channel: int, bank: int,
            rows: np.ndarray, pattern: str,
            hammer_count: int = metrics.BER_TEST_HAMMERS,
            t_on: Optional[float] = None) -> GridMeasurement:
    """Analytic measurement of a row population in one bank."""
    grid = population_grid(chip, channel, pseudo_channel, bank,
                           np.asarray(rows), pattern)
    return GridMeasurement(chip, grid, hammer_count, t_on)


def wcdp_hc_first(chip: ChipProfile, channel: int, pseudo_channel: int,
                  bank: int, rows: np.ndarray,
                  t_on: Optional[float] = None) -> Dict[str, np.ndarray]:
    """Per-row HC_first for every pattern plus the WCDP minimum.

    Returns a dict with one entry per pattern name plus ``"WCDP"``
    (the per-row minimum across patterns; Section 3.1).
    """
    rows = np.asarray(rows)
    amp = amplification(chip, t_on)
    per_pattern = {}
    for pattern in ALL_PATTERNS:
        grid = population_grid(chip, channel, pseudo_channel, bank, rows,
                               pattern.name)
        per_pattern[pattern.name] = grid.hc_first(amp)
    stacked = np.stack(list(per_pattern.values()))
    per_pattern["WCDP"] = stacked.min(axis=0)
    return per_pattern


def wcdp_ber(chip: ChipProfile, channel: int, pseudo_channel: int,
             bank: int, rows: np.ndarray,
             hammer_count: int = metrics.BER_TEST_HAMMERS,
             t_on: Optional[float] = None,
             sampled: bool = True,
             rng: Optional[np.random.Generator] = None
             ) -> Dict[str, np.ndarray]:
    """Per-row BER for every pattern plus the worst-case (WCDP) BER.

    The WCDP of a row is the pattern with the smallest HC_first (tie-
    broken by BER; Section 3.1); its BER is reported per row.
    """
    rows = np.asarray(rows)
    hc = wcdp_hc_first(chip, channel, pseudo_channel, bank, rows, t_on)
    bers = {}
    for pattern in ALL_PATTERNS:
        grid = population_grid(chip, channel, pseudo_channel, bank, rows,
                               pattern.name)
        m = GridMeasurement(chip, grid, hammer_count, t_on)
        bers[pattern.name] = m.ber(sampled=sampled, rng=rng)
    names = [pattern.name for pattern in ALL_PATTERNS]
    hc_matrix = np.stack([hc[name] for name in names])
    ber_matrix = np.stack([bers[name] for name in names])
    wcdp_index = np.argmin(hc_matrix, axis=0)
    bers["WCDP"] = ber_matrix[wcdp_index, np.arange(rows.size)]
    return bers


#: Memo of recent combo batches.  The WCDP helpers evaluate HC_first and
#: BER over the *same* combos x rows cross-product, one batch per
#: pattern; caching the immutable batches halves the kernel work of a
#: combined study.  Bounded FIFO — a handful of (combos, rows, pattern)
#: keys covers every repeated lookup within one experiment — and, like
#: the base cache in :mod:`repro.chips.vectorized`, bounded in total
#: retained *elements* by a multiple of the ``HBMSIM_CELLS_CHUNK``
#: working-set target, so chunk-streamed sweeps never pin whole-device
#: populations in the memo.
_COMBO_CACHE: "OrderedDict[tuple, PopulationBatch]" = OrderedDict()
_COMBO_CACHE_LIMIT = 12
_COMBO_CACHE_CHUNKS = 16


def _trim_combo_cache() -> None:
    """Evict oldest batches beyond the entry and element budgets."""
    budget = _COMBO_CACHE_CHUNKS * cells_chunk_elems()
    while len(_COMBO_CACHE) > _COMBO_CACHE_LIMIT or (
            len(_COMBO_CACHE) > 1
            and sum(len(batch) for batch in _COMBO_CACHE.values())
            > budget):
        _COMBO_CACHE.popitem(last=False)


def combo_population(chip: ChipProfile, combos: Sequence[Combo],
                     rows: np.ndarray, pattern: str) -> PopulationBatch:
    """One population batch covering ``combos`` x ``rows``.

    The batch is laid out rows-fastest — element ``c * len(rows) + r`` is
    row ``rows[r]`` of ``combos[c]`` — so reshaping any per-element
    result to ``(len(combos), len(rows))`` recovers one
    :func:`population_grid` result per combo, bit-identically (the
    batched and grid kernels share ``_population_arrays``).  Results are
    memoized (treat the returned batch as read-only).
    """
    rows = np.asarray(rows, dtype=np.int64)
    key = (chip.spec.index, chip.spec.seed, tuple(combos),
           rows.tobytes(), pattern)
    batch = _COMBO_CACHE.get(key)
    if batch is not None:
        _COMBO_CACHE.move_to_end(key)
        return batch
    batch = population_combos(
        chip,
        [channel for channel, __, __ in combos],
        [pseudo_channel for __, pseudo_channel, __ in combos],
        [bank for __, __, bank in combos],
        rows, pattern)
    _COMBO_CACHE[key] = batch
    _trim_combo_cache()
    return batch


def _combo_chunks(n_combos: int, rows_size: int) -> List[Tuple[int, int]]:
    """Whole-combo chunk ranges under the working-set bound."""
    return chunk_combo_blocks(n_combos, max(1, rows_size),
                              cells_chunk_elems())


def combo_ber_matrix(chip: ChipProfile, combos: Sequence[Combo],
                     rows: np.ndarray, pattern: str,
                     effective_hammers: float) -> np.ndarray:
    """Closed-form BER over ``combos`` x ``rows`` as a ``(C, R)`` matrix.

    The single-pattern analogue of :func:`wcdp_ber_multi`'s probability
    assembly (the Fig. 9 bank sweep's shape): chunk-streamed under the
    ``HBMSIM_CELLS_CHUNK`` working-set bound, bit-identical to one
    all-at-once :func:`combo_population` evaluation at any chunk size.
    """
    rows = np.asarray(rows, dtype=np.int64)
    shape = (len(combos), rows.size)
    chunks = _combo_chunks(len(combos), rows.size)
    if len(chunks) <= 1:
        batch = combo_population(chip, combos, rows, pattern)
        return batch.ber(effective_hammers).reshape(shape)
    matrix = allocate_cells(shape, float)
    for start, stop in chunks:
        batch = combo_population(chip, list(combos[start:stop]), rows,
                                 pattern)
        matrix[start:stop] = batch.ber(effective_hammers).reshape(
            stop - start, rows.size)
    return matrix


def combo_first_seeds(chip: ChipProfile, combos: Sequence[Combo],
                      rows: np.ndarray, pattern: str) -> np.ndarray:
    """Each combo's first-row profile seed as a ``(C,)`` uint64 array.

    ``first_seeds[c]`` equals ``population_grid(chip, *combos[c], rows,
    pattern).profile_seeds.reshape(-1)[0]`` — the seed
    :meth:`~repro.chips.vectorized._PopulationMeasurements.sampled_ber`
    derives its default generator from — so batched samplers can
    replicate per-grid unit-local noise without building the grids.
    Chunk-streamed under the ``HBMSIM_CELLS_CHUNK`` working-set bound.
    """
    rows = np.asarray(rows, dtype=np.int64)
    seeds = np.empty(len(combos), dtype=np.uint64)
    for start, stop in _combo_chunks(len(combos), rows.size):
        batch = combo_population(chip, list(combos[start:stop]), rows,
                                 pattern)
        seeds[start:stop] = batch.profile_seeds.reshape(
            stop - start, rows.size)[:, 0]
    return seeds


def wcdp_hc_first_multi(chip: ChipProfile, combos: Sequence[Combo],
                        rows: np.ndarray,
                        t_on: Optional[float] = None
                        ) -> Dict[str, np.ndarray]:
    """Batched :func:`wcdp_hc_first` over many (ch, pc, bank) combos.

    Returns pattern name (plus ``"WCDP"``) -> ``(len(combos),
    len(rows))`` arrays; row ``c`` equals ``wcdp_hc_first(chip,
    *combos[c], rows, t_on)`` bit-for-bit.

    Populations above the ``HBMSIM_CELLS_CHUNK`` working-set bound are
    evaluated in whole-combo chunks — every kernel is elementwise with
    per-combo seed-chain prefixes, so a chunk is the same bits as the
    matching slice of an all-at-once batch (asserted in
    ``tests/core/test_chunked_population.py``); only the assembled
    output arrays (placed by :func:`repro.dram.cells.allocate_cells`,
    optionally memory-mapped) span the full population.
    """
    rows = np.asarray(rows)
    amp = amplification(chip, t_on)
    shape = (len(combos), rows.size)
    chunks = _combo_chunks(len(combos), rows.size)
    if len(chunks) <= 1:
        # One chunk: the historical all-at-once path, byte-for-byte.
        per_pattern = {}
        for pattern in ALL_PATTERNS:
            batch = combo_population(chip, combos, rows, pattern.name)
            per_pattern[pattern.name] = batch.hc_first(amp).reshape(shape)
        stacked = np.stack(list(per_pattern.values()))
        per_pattern["WCDP"] = stacked.min(axis=0)
        return per_pattern
    per_pattern = {pattern.name: allocate_cells(shape, float)
                   for pattern in ALL_PATTERNS}
    wcdp = allocate_cells(shape, float)
    for start, stop in chunks:
        chunk_combos = list(combos[start:stop])
        running: Optional[np.ndarray] = None
        for pattern in ALL_PATTERNS:
            batch = combo_population(chip, chunk_combos, rows,
                                     pattern.name)
            hc = batch.hc_first(amp).reshape(stop - start, rows.size)
            per_pattern[pattern.name][start:stop] = hc
            if running is None:
                running = hc
            else:
                # Pairwise minimum equals the stacked min reduction
                # exactly (float min is associative and lossless).
                running = np.minimum(running, hc)
        wcdp[start:stop] = running
    per_pattern["WCDP"] = wcdp
    return per_pattern


def wcdp_ber_multi(chip: ChipProfile, combos: Sequence[Combo],
                   rows: np.ndarray,
                   hammer_count: int = metrics.BER_TEST_HAMMERS,
                   t_on: Optional[float] = None,
                   sampled: bool = True,
                   rng: Optional[np.random.Generator] = None
                   ) -> Dict[str, np.ndarray]:
    """Batched :func:`wcdp_ber` over many (ch, pc, bank) combos.

    Returns pattern name (plus ``"WCDP"``) -> ``(len(combos),
    len(rows))`` arrays equal to per-combo :func:`wcdp_ber` calls.  The
    closed-form probabilities are computed in one batch per pattern; the
    binomial sampling then consumes ``rng`` in the exact scalar order
    (combo-major, pattern-minor) so shared-generator studies draw the
    same variates as the per-combo loop.
    """
    rows = np.asarray(rows)
    shape = (len(combos), rows.size)
    eff = effective_hammers(chip, hammer_count, t_on)
    names = [pattern.name for pattern in ALL_PATTERNS]
    chunks = _combo_chunks(len(combos), rows.size)
    if len(chunks) <= 1:
        # One chunk: the historical all-at-once path, byte-for-byte.
        hc = wcdp_hc_first_multi(chip, combos, rows, t_on)
        probabilities = {}
        seeds = {}
        for name in names:
            batch = combo_population(chip, combos, rows, name)
            probabilities[name] = batch.ber(eff).reshape(shape)
            seeds[name] = batch.profile_seeds.reshape(shape)
        first_seeds = {name: seeds[name][:, 0] for name in names}
        hc_matrix = np.stack([hc[name] for name in names])
        wcdp_index = np.argmin(hc_matrix, axis=0)
    else:
        # Streamed: per chunk, evaluate HC_first (for the WCDP argmin)
        # and the closed-form probabilities; only the assembled outputs
        # span the full population.  The binomial sampling below still
        # consumes ``rng`` combo-major / pattern-minor over the fully
        # assembled arrays — the exact scalar draw order.
        amp = amplification(chip, t_on)
        probabilities = {name: allocate_cells(shape, float)
                         for name in names}
        first_seeds = {name: np.empty(len(combos), dtype=np.uint64)
                       for name in names}
        wcdp_index = np.empty(shape, dtype=np.int64)
        for start, stop in chunks:
            chunk_combos = list(combos[start:stop])
            cshape = (stop - start, rows.size)
            hc_chunk = []
            for name in names:
                batch = combo_population(chip, chunk_combos, rows, name)
                hc_chunk.append(batch.hc_first(amp).reshape(cshape))
                probabilities[name][start:stop] = \
                    batch.ber(eff).reshape(cshape)
                first_seeds[name][start:stop] = \
                    batch.profile_seeds.reshape(cshape)[:, 0]
            wcdp_index[start:stop] = np.argmin(np.stack(hc_chunk),
                                               axis=0)
    bers: Dict[str, np.ndarray] = {}
    if not sampled:
        bers.update(probabilities)
    else:
        sampled_values = {name: np.empty(shape) for name in names}
        for index in range(len(combos)):
            for name in names:
                # rng=None replays the scalar per-grid default: a fresh
                # generator seeded from the grid's first profile seed.
                generator = rng if rng is not None else \
                    np.random.default_rng(
                        int(first_seeds[name][index]) & 0x7FFFFFFF)
                sampled_values[name][index] = generator.binomial(
                    8192, probabilities[name][index]) / 8192.0
        bers.update(sampled_values)
    # Gather the WCDP pattern's BER per element without stacking the
    # full (patterns, combos, rows) cube: selection by argmin index is
    # the same values as the fancy-indexed stack, element for element.
    wcdp = np.empty(shape)
    for position, name in enumerate(names):
        mask = wcdp_index == position
        wcdp[mask] = bers[name][mask]
    bers["WCDP"] = wcdp
    return bers


def sample_rows(total_rows: int, count: int,
                rng: np.random.Generator) -> np.ndarray:
    """Uniform row sample without replacement, sorted."""
    if count >= total_rows:
        return np.arange(total_rows)
    return np.sort(rng.choice(total_rows, size=count, replace=False))


def stratified_rows(total_rows: int, count: int) -> np.ndarray:
    """Deterministic evenly spaced row sample (for scaled experiments)."""
    if count >= total_rows:
        return np.arange(total_rows)
    return np.unique(np.linspace(0, total_rows - 1, count).astype(int))


def segment_rows(total_rows: int, segment: str, count: int) -> np.ndarray:
    """First / middle / last ``count`` rows of a bank (Table 2 usage)."""
    if segment == "first":
        return np.arange(0, min(count, total_rows))
    if segment == "middle":
        start = max(0, total_rows // 2 - count // 2)
        return np.arange(start, min(start + count, total_rows))
    if segment == "last":
        return np.arange(max(0, total_rows - count), total_rows)
    raise ValueError(f"unknown segment {segment!r}")
