"""The run-configuration table (``repro.config``): every knob is listed
once, and a blank value means unset for every one of them."""

import re
import warnings
from pathlib import Path

import pytest

from repro import config
from repro.chips import cache
from repro.faults import active_plan

README = Path(__file__).resolve().parents[1] / "README.md"

#: How each knob is observed, through the function its consumers call.
READERS = {
    config.BATCH: config.batch_enabled,
    config.SCALE: config.default_scale,
    config.CELLS_CHUNK: config.cells_chunk_elems,
    config.CELLS_MMAP: config.cells_mmap_enabled,
    config.LINT: config.lint_mode,
    config.FAULTS: active_plan,
    config.CACHE_DIR: cache.cache_dir,
    config.NO_CACHE: config.cache_enabled,
    config.XDG_CACHE_HOME: cache.cache_dir,
}


def test_every_knob_has_a_reader():
    assert set(READERS) == set(config.KNOBS)


def test_eight_hbmsim_knobs():
    assert sorted(name for name in config.KNOBS
                  if name.startswith("HBMSIM_")) == [
        "HBMSIM_BATCH", "HBMSIM_CACHE_DIR", "HBMSIM_CELLS_CHUNK",
        "HBMSIM_CELLS_MMAP", "HBMSIM_FAULTS", "HBMSIM_LINT",
        "HBMSIM_NO_CACHE", "HBMSIM_SCALE"]


def test_readme_table_lists_every_knob():
    rows = re.findall(r"^\| `([A-Z_]+)` \|", README.read_text(), re.M)
    assert sorted(rows) == sorted(config.KNOBS)


@pytest.mark.parametrize("blank", ["", "  ", "\t\n"])
@pytest.mark.parametrize("name", sorted(READERS))
def test_blank_means_unset(name, blank, monkeypatch):
    # The cache-dir override would mask XDG_CACHE_HOME.
    monkeypatch.delenv(config.CACHE_DIR, raising=False)
    monkeypatch.delenv(name, raising=False)
    unset = READERS[name]()
    monkeypatch.setenv(name, blank)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert READERS[name]() == unset
