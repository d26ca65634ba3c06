"""Chunk-streamed cell evaluation is bit-identical to all-at-once.

The full-geometry contract (``repro.dram.cells``): every population
kernel is elementwise with per-combo seed-chain prefixes, so evaluating
a sweep in whole-combo chunks — at *any* ``HBMSIM_CELLS_CHUNK`` bound,
spilled to an mmap working set or not — produces the same bytes as one
monolithic batch.  These tests pin that equivalence with hypothesis
over random sweep shapes and chunk bounds, plus the strict-parse
behaviour of both knobs.
"""

import os
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config
from repro.chips.profiles import make_chip
from repro.config import (DEFAULT_CHUNK_ELEMS, cells_chunk_elems,
                          cells_mmap_enabled)
from repro.core import analytic
from repro.dram.batch import RowBatchProfile
from repro.dram.cells import allocate_cells, chunk_combo_blocks
from repro.dram.geometry import RowAddress

CHIP = make_chip(0)
#: A 6-combo sweep slice (two channels x three banks) of modest rows —
#: large enough to split into many chunks at small bounds, small enough
#: for hypothesis to re-evaluate repeatedly.
COMBOS = [(0, 0, 0), (0, 0, 5), (0, 0, 11),
          (1, 1, 0), (1, 1, 5), (1, 1, 11)]
ROWS = analytic.stratified_rows(CHIP.geometry.rows, 48)


@contextmanager
def chunk_env(value):
    """Temporarily pin ``HBMSIM_CELLS_CHUNK`` (None = unset)."""
    saved = os.environ.get(config.CELLS_CHUNK)
    try:
        if value is None:
            os.environ.pop(config.CELLS_CHUNK, None)
        else:
            os.environ[config.CELLS_CHUNK] = str(value)
        yield
    finally:
        if saved is None:
            os.environ.pop(config.CELLS_CHUNK, None)
        else:
            os.environ[config.CELLS_CHUNK] = saved


@contextmanager
def mmap_env(value):
    """Temporarily pin ``HBMSIM_CELLS_MMAP``."""
    saved = os.environ.get(config.CELLS_MMAP)
    try:
        os.environ[config.CELLS_MMAP] = value
        yield
    finally:
        if saved is None:
            os.environ.pop(config.CELLS_MMAP, None)
        else:
            os.environ[config.CELLS_MMAP] = saved


class TestChunkComboBlocks:
    @given(n_combos=st.integers(0, 64), rows=st.integers(1, 512),
           chunk=st.integers(1, 4096))
    @settings(max_examples=60, deadline=None)
    def test_blocks_partition_the_range(self, n_combos, rows, chunk):
        blocks = chunk_combo_blocks(n_combos, rows, chunk)
        if n_combos == 0:
            assert blocks == []
            return
        # Contiguous, ordered, covering exactly [0, n_combos).
        assert blocks[0][0] == 0
        assert blocks[-1][1] == n_combos
        for (_, stop), (start, _) in zip(blocks, blocks[1:]):
            assert stop == start
        per_chunk = max(1, chunk // rows)
        assert all(1 <= stop - start <= per_chunk
                   for start, stop in blocks)

    def test_oversized_combo_still_evaluates(self):
        # One combo larger than the bound: the bound is a target, not
        # a hard split of seed-chain blocks.
        assert chunk_combo_blocks(3, 1000, 10) == [(0, 1), (1, 2),
                                                   (2, 3)]

    def test_bad_rows_per_combo_rejected(self):
        with pytest.raises(ValueError):
            chunk_combo_blocks(4, 0, 100)


class TestChunkKnob:
    @pytest.fixture(autouse=True)
    def _fresh_warn_state(self, monkeypatch):
        monkeypatch.setattr(config, "_WARNED", set())

    def test_default_and_blank(self):
        with chunk_env(None):
            assert cells_chunk_elems() == DEFAULT_CHUNK_ELEMS
        with chunk_env("  "):
            assert cells_chunk_elems() == DEFAULT_CHUNK_ELEMS

    def test_positive_value_honoured(self):
        with chunk_env(4096):
            assert cells_chunk_elems() == 4096

    @pytest.mark.parametrize("value", ["0", "-1", "-4096"])
    def test_nonpositive_rejected_loudly(self, value):
        with chunk_env(value):
            with pytest.raises(ValueError):
                cells_chunk_elems()

    def test_unparsable_warns_once_then_defaults(self):
        with chunk_env("a-lot"):
            with pytest.warns(RuntimeWarning, match="a-lot"):
                assert cells_chunk_elems() == DEFAULT_CHUNK_ELEMS
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cells_chunk_elems() == DEFAULT_CHUNK_ELEMS


class TestMmapKnob:
    @pytest.fixture(autouse=True)
    def _fresh_warn_state(self, monkeypatch):
        monkeypatch.setattr(config, "_WARNED", set())

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_on_values(self, value):
        with mmap_env(value):
            assert cells_mmap_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "No", "off", ""])
    def test_off_values(self, value):
        with mmap_env(value):
            assert not cells_mmap_enabled()

    def test_unrecognized_warns_once_and_stays_off(self):
        with mmap_env("mmap-please"):
            with pytest.warns(RuntimeWarning, match="mmap-please"):
                assert not cells_mmap_enabled()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert not cells_mmap_enabled()


class TestAllocateCells:
    def test_anonymous_by_default(self):
        with mmap_env("0"):
            array = allocate_cells((4, 8), float)
        assert type(array) is np.ndarray
        assert array.shape == (4, 8) and array.dtype == np.float64

    def test_mmap_spill_round_trips(self):
        with mmap_env("1"):
            array = allocate_cells((16, 32), float)
        assert isinstance(array, np.memmap)
        values = np.arange(16 * 32, dtype=float).reshape(16, 32)
        array[:] = values
        assert np.array_equal(np.asarray(array), values)


def _clear_population_caches():
    analytic._COMBO_CACHE.clear()
    from repro.chips import vectorized
    vectorized._COMBO_BASE_CACHE.clear()


class TestChunkedEquivalence:
    """Chunked == monolithic, bit for bit, for every streamed engine."""

    @pytest.fixture(scope="class")
    def whole(self):
        with chunk_env(10**9):
            _clear_population_caches()
            hc = analytic.wcdp_hc_first_multi(CHIP, COMBOS, ROWS)
            ber = analytic.wcdp_ber_multi(CHIP, COMBOS, ROWS,
                                          sampled=False)
            sampled = analytic.wcdp_ber_multi(
                CHIP, COMBOS, ROWS,
                rng=np.random.default_rng(1234))
            matrix = analytic.combo_ber_matrix(CHIP, COMBOS, ROWS,
                                               "Checkered0", 300_000.0)
        _clear_population_caches()
        return hc, ber, sampled, matrix

    @given(chunk=st.integers(1, 2 * len(ROWS) * len(COMBOS)))
    @settings(max_examples=12, deadline=None)
    def test_wcdp_hc_first_multi(self, whole, chunk):
        with chunk_env(chunk):
            _clear_population_caches()
            chunked = analytic.wcdp_hc_first_multi(CHIP, COMBOS, ROWS)
        for name, expected in whole[0].items():
            assert np.array_equal(np.asarray(chunked[name]),
                                  np.asarray(expected)), name

    @given(chunk=st.integers(1, 2 * len(ROWS) * len(COMBOS)))
    @settings(max_examples=8, deadline=None)
    def test_wcdp_ber_multi_closed_form(self, whole, chunk):
        with chunk_env(chunk):
            _clear_population_caches()
            chunked = analytic.wcdp_ber_multi(CHIP, COMBOS, ROWS,
                                              sampled=False)
        for name, expected in whole[1].items():
            assert np.array_equal(np.asarray(chunked[name]),
                                  np.asarray(expected)), name

    @given(chunk=st.integers(1, 2 * len(ROWS) * len(COMBOS)))
    @settings(max_examples=8, deadline=None)
    def test_wcdp_ber_multi_sampled_rng_order(self, whole, chunk):
        # The binomial sampling consumes the generator in scalar order
        # (combo-major, pattern-minor) regardless of chunking, so a
        # seeded study draws the same variates at any chunk size.
        with chunk_env(chunk):
            _clear_population_caches()
            chunked = analytic.wcdp_ber_multi(
                CHIP, COMBOS, ROWS, rng=np.random.default_rng(1234))
        for name, expected in whole[2].items():
            assert np.array_equal(np.asarray(chunked[name]),
                                  np.asarray(expected)), name

    @given(chunk=st.integers(1, 2 * len(ROWS) * len(COMBOS)))
    @settings(max_examples=8, deadline=None)
    def test_combo_ber_matrix(self, whole, chunk):
        with chunk_env(chunk):
            _clear_population_caches()
            chunked = analytic.combo_ber_matrix(CHIP, COMBOS, ROWS,
                                                "Checkered0", 300_000.0)
        assert np.array_equal(np.asarray(chunked),
                              np.asarray(whole[3]))

    def test_mmap_spill_is_bit_identical(self, whole):
        with chunk_env(1024), mmap_env("1"):
            _clear_population_caches()
            hc = analytic.wcdp_hc_first_multi(CHIP, COMBOS, ROWS)
        for name, expected in whole[0].items():
            assert np.array_equal(np.asarray(hc[name]),
                                  np.asarray(expected)), name


class TestBatchHammerChunking:
    """RowBatchProfile.hammer streams the threshold comparison."""

    @pytest.fixture(scope="class")
    def profile(self):
        chip = make_chip(1)  # TRR-free: the engine accepts it
        device = chip.make_device()
        from repro.core.patterns import CHECKERED0
        victims = [RowAddress(0, 0, bank, row)
                   for bank in (0, 3) for row in (100, 5000, 16383)]
        return RowBatchProfile(device, victims, CHECKERED0)

    @given(chunk=st.integers(1, 4 * 8192))
    @settings(max_examples=8, deadline=None)
    def test_hammer_chunk_invariant(self, profile, chunk):
        with chunk_env(10**9):
            whole = profile.hammer(600_000)
        with chunk_env(chunk):
            chunked = profile.hammer(600_000)
        assert np.array_equal(chunked.images, whole.images)
        assert np.array_equal(chunked.committed, whole.committed)
        assert np.array_equal(chunked.bitflips, whole.bitflips)

    def test_subset_chunk_invariant(self, profile):
        subset = np.array([4, 1, 3])
        with chunk_env(10**9):
            whole = profile.hammer(450_000, subset=subset)
        with chunk_env(1):
            chunked = profile.hammer(450_000, subset=subset)
        assert np.array_equal(chunked.images, whole.images)
