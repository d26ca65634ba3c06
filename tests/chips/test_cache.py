"""Tests for the cross-process calibration cache (bit-identity)."""

import json
import warnings

import pytest

from repro import config
from repro.chips import cache
from repro.chips.profiles import CHIP_SPECS, ChipProfile
from repro.dram.geometry import DEFAULT_GEOMETRY

SPEC = CHIP_SPECS[1]
GEOMETRY = DEFAULT_GEOMETRY


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An isolated, empty cache directory for one test."""
    target = tmp_path / "hbmsim-cache"
    monkeypatch.setenv("HBMSIM_CACHE_DIR", str(target))
    monkeypatch.delenv("HBMSIM_NO_CACHE", raising=False)
    return target


class TestResolution:
    def test_env_override(self, cache_dir):
        assert cache.cache_dir() == cache_dir

    def test_xdg_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HBMSIM_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert cache.cache_dir() == tmp_path / "hbmsim"

    def test_home_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HBMSIM_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert cache.cache_dir() == tmp_path / ".cache" / "hbmsim"

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", "TRUE",
                                       "Yes", " 1", "on\n"])
    def test_disable_env(self, cache_dir, monkeypatch, value):
        monkeypatch.setenv("HBMSIM_NO_CACHE", value)
        assert not config.cache_enabled()
        assert cache.load_base_f_weak(SPEC, GEOMETRY) is None
        assert not cache.store_base_f_weak(SPEC, GEOMETRY, 0.5)

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", "OFF",
                                       "", "  "])
    def test_keep_env(self, cache_dir, monkeypatch, value):
        monkeypatch.setenv("HBMSIM_NO_CACHE", value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert config.cache_enabled()

    def test_unrecognized_warns_once_and_keeps_cache(self, cache_dir,
                                                     monkeypatch):
        monkeypatch.setattr(config, "_WARNED", set())
        monkeypatch.setenv("HBMSIM_NO_CACHE", "disable-please")
        with pytest.warns(RuntimeWarning, match="HBMSIM_NO_CACHE"):
            assert config.cache_enabled()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert config.cache_enabled()

    def test_blank_dir_means_unset(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HBMSIM_CACHE_DIR", "  ")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert cache.cache_dir() == tmp_path / "hbmsim"


class TestRoundtrip:
    def test_store_then_load_bit_identical(self, cache_dir):
        # A value with a full 53-bit mantissa must round-trip exactly.
        value = 0.018926721607334364
        assert cache.store_base_f_weak(SPEC, GEOMETRY, value)
        loaded = cache.load_base_f_weak(SPEC, GEOMETRY)
        assert loaded == value
        assert loaded.hex() == value.hex()

    def test_miss_on_empty_cache(self, cache_dir):
        assert cache.load_base_f_weak(SPEC, GEOMETRY) is None

    def test_corrupt_entry_is_a_miss(self, cache_dir):
        cache.store_base_f_weak(SPEC, GEOMETRY, 0.25)
        entry = next(cache_dir.glob("fweak-*.json"))
        entry.write_text("{not json")
        assert cache.load_base_f_weak(SPEC, GEOMETRY) is None

    def test_entry_payload_is_self_describing(self, cache_dir):
        cache.store_base_f_weak(SPEC, GEOMETRY, 0.25)
        payload = json.loads(next(cache_dir.glob("fweak-*.json"))
                             .read_text())
        assert payload["chip"] == SPEC.label
        assert payload["fingerprint"]["spec"]["seed"] == SPEC.seed

    def test_unwritable_directory_returns_false(self, tmp_path,
                                                monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("HBMSIM_CACHE_DIR", str(blocker / "sub"))
        assert not cache.store_base_f_weak(SPEC, GEOMETRY, 0.25)


class TestInvalidation:
    def test_key_differs_per_spec(self):
        keys = {cache.cache_key(spec, GEOMETRY) for spec in CHIP_SPECS}
        assert len(keys) == len(CHIP_SPECS)

    def test_key_tracks_calibration_version(self, monkeypatch):
        from repro.chips import profiles

        before = cache.cache_key(SPEC, GEOMETRY)
        monkeypatch.setattr(profiles, "CALIBRATION_VERSION",
                            profiles.CALIBRATION_VERSION + 1)
        assert cache.cache_key(SPEC, GEOMETRY) != before


class TestProfileIntegration:
    def test_cached_profile_bit_identical_to_fresh(self, cache_dir):
        cold = ChipProfile(SPEC)          # calibrates, then stores
        warm = ChipProfile(SPEC)          # must hit the cache
        fresh = ChipProfile(SPEC, use_cache=False)
        assert cold.base_f_weak == warm.base_f_weak == fresh.base_f_weak
        assert list(cache_dir.glob("fweak-*.json"))

    def test_use_cache_false_does_not_write(self, cache_dir):
        ChipProfile(SPEC, use_cache=False)
        assert not cache_dir.exists() \
            or not list(cache_dir.glob("fweak-*.json"))

    def test_poisoned_entry_detected_as_different_value(self, cache_dir):
        """The cache is trusted for speed; this documents that a cached
        value is used verbatim — which is why the key covers every input
        of the calibration."""
        fresh = ChipProfile(SPEC, use_cache=False)
        cache.store_base_f_weak(SPEC, GEOMETRY, 0.5)
        poisoned = ChipProfile(SPEC)
        assert poisoned.base_f_weak == 0.5
        assert fresh.base_f_weak != 0.5
