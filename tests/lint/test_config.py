"""Suite for ``HBMSIM_LINT`` strict parsing (``repro.config.lint_mode``).

Contract under test: recognized values map to their modes; an
unrecognized value warns once per process per value (``RuntimeWarning``)
and falls back to ``warn`` — a misspelled opt-in surfaces findings
instead of silently disabling the gate.
"""

import warnings

import pytest

import repro.config as config
from repro.config import LintMode, lint_mode


@pytest.fixture(autouse=True)
def _reset_warned_values():
    saved = set(config._WARNED)
    config._WARNED.clear()
    yield
    config._WARNED.clear()
    config._WARNED.update(saved)


@pytest.mark.parametrize("raw,expected", [
    ("", LintMode.OFF),
    ("0", LintMode.OFF),
    ("off", LintMode.OFF),
    ("no", LintMode.OFF),
    ("none", LintMode.OFF),
    ("OFF", LintMode.OFF),
    ("warn", LintMode.WARN),
    ("warning", LintMode.WARN),
    ("1", LintMode.WARN),
    ("strict", LintMode.STRICT),
    ("Strict", LintMode.STRICT),
    ("online", LintMode.ONLINE),
    ("ONLINE", LintMode.ONLINE),
    ("  strict  ", LintMode.STRICT),
])
def test_recognized_values(monkeypatch, raw, expected):
    monkeypatch.setenv("HBMSIM_LINT", raw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # recognized values never warn
        assert lint_mode() is expected


def test_unset_is_off(monkeypatch):
    monkeypatch.delenv("HBMSIM_LINT", raising=False)
    assert lint_mode() is LintMode.OFF


def test_unrecognized_value_warns_and_falls_back_to_warn(monkeypatch):
    monkeypatch.setenv("HBMSIM_LINT", "bogus")
    with pytest.warns(RuntimeWarning, match="unrecognized HBMSIM_LINT"):
        assert lint_mode() is LintMode.WARN


def test_unrecognized_value_warns_once_per_value(monkeypatch):
    monkeypatch.setenv("HBMSIM_LINT", "bogus")
    with pytest.warns(RuntimeWarning):
        lint_mode()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # second read: no second warning
        assert lint_mode() is LintMode.WARN
    # a *different* unrecognized value warns again
    monkeypatch.setenv("HBMSIM_LINT", "other")
    with pytest.warns(RuntimeWarning):
        assert lint_mode() is LintMode.WARN


def test_warning_names_the_accepted_values(monkeypatch):
    monkeypatch.setenv("HBMSIM_LINT", "enable")
    with pytest.warns(RuntimeWarning,
                      match="off/warn/strict/online"):
        lint_mode()
