"""Concurrent-access robustness for the calibration cache (satellite:
a corrupt or mid-write entry must read as a miss, never crash)."""

import json
import multiprocessing

import pytest

from repro.chips import cache
from repro.chips.profiles import CHIP_SPECS
from repro.dram.geometry import DEFAULT_GEOMETRY

SPEC = CHIP_SPECS[1]
GEOMETRY = DEFAULT_GEOMETRY

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="concurrent writers use the fork start method")


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    target = tmp_path / "hbmsim-cache"
    monkeypatch.setenv("HBMSIM_CACHE_DIR", str(target))
    monkeypatch.delenv("HBMSIM_NO_CACHE", raising=False)
    return target


def _entry_path():
    return cache._entry_path(cache.cache_key(SPEC, GEOMETRY))


class TestCorruptEntries:
    @pytest.mark.parametrize("payload", [
        "",                      # zero-length: writer crashed pre-flush
        "{\"base_f_weak",        # truncated mid-write
        "not json at all",
        "[1, 2, 3]",             # wrong shape
        "{\"base_f_weak_hex\": 12}",  # wrong type
    ])
    def test_corrupt_entry_reads_as_miss(self, cache_dir, payload):
        cache_dir.mkdir(parents=True)
        _entry_path().write_text(payload)
        assert cache.load_base_f_weak(SPEC, GEOMETRY) is None

    def test_store_recovers_corrupt_entry(self, cache_dir):
        cache_dir.mkdir(parents=True)
        _entry_path().write_text("garbage")
        assert cache.store_base_f_weak(SPEC, GEOMETRY, 0.0145)
        assert cache.load_base_f_weak(SPEC, GEOMETRY) == 0.0145


def _writer_loop(value: float, iterations: int) -> None:
    for _ in range(iterations):
        assert cache.store_base_f_weak(SPEC, GEOMETRY, value)


@needs_fork
def test_reads_under_concurrent_writer_never_crash(cache_dir):
    """Atomic-rename stores mean a reader sees either a complete old
    value, a complete new value, or a miss — never an exception."""
    context = multiprocessing.get_context("fork")
    writer = context.Process(target=_writer_loop, args=(0.0145, 300))
    writer.start()
    try:
        observed = set()
        for _ in range(2000):
            observed.add(cache.load_base_f_weak(SPEC, GEOMETRY))
    finally:
        writer.join(timeout=60)
    assert writer.exitcode == 0
    assert observed <= {None, 0.0145}
    assert 0.0145 in observed
    # No stray temp files leak into the cache directory.
    leftovers = [p for p in cache_dir.iterdir()
                 if p.suffix == ".tmp"]
    assert leftovers == []
